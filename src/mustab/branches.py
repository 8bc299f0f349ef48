"""Curve branches: validated parameterizations, boundedness, the type
dimension dim p, and the degree-bounded Zariski closure (implicitization)
with its Krull dimension.

For exact entries, certified_dim gives dim p in closed form where an upper
and a lower rank bound meet; otherwise the degree-D closure bounds it from
above.  Implicitization is exact linear algebra on the series expansions
a(t)^m of the coordinate monomials up to a degree bound, one monomial at a
time (`ideals.monomial_relations`).  For exact (Laurent-polynomial)
entries the computed relations are certain, and no multiple of a
relation's leading monomial is expanded; for truncated entries every
monomial is, and a window-stability check guards against spurious
relations and raises PrecisionInsufficient instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FieldMismatch, PrecisionInsufficient
from .exponents import EXP_ZERO, Exponent
from .groups import GroupElement, GroupScheme
from .ideals import Ideal, MonomialValues, _dim_from_leading_monomials, monomial_relations, relation_ideal
from .linalg import echelon
from .poly import PolyRing, monomials_up_to
from .series import PuiseuxSeries


@dataclass
class Branch:
    """A parameterized curve germ a(t) on a group scheme."""

    element: GroupElement
    ramification: int
    trusted_irreducible: bool = False
    notes: tuple[str, ...] = ()

    @property
    def scheme(self) -> GroupScheme:
        return self.element.scheme

    @property
    def field(self):
        return self.element.scheme.field

    def translate(self, g) -> Branch:
        """Left-translate by a k-point g."""
        moved = g.to_series().mul(self.element)
        return Branch(moved, self.ramification, self.trusted_irreducible, self.notes)

    def __str__(self):
        return f"branch {self.element} (ram {self.ramification})"


def validate_branch(scheme: GroupScheme, entries) -> Branch:
    """Check the entries against the scheme equations and infer ramification.

    Raises NotOnGroup with the offending equation and residual term, and
    FieldMismatch when the entries' exponents use different sqrt(d).
    """
    element = GroupElement(scheme, entries, check=True)
    exponents = [e for s in element.entries_flat() for e in (s.precision, *(t[0] for t in s.terms)) if e is not None]
    sqrt_ds = {e.d for e in exponents} - {None}
    if len(sqrt_ds) > 1:
        raise FieldMismatch(f"entries mix the exponent groups of {', '.join(f'sqrt({d})' for d in sorted(sqrt_ds))}")
    return Branch(element, math.lcm(*(s.ramification() for s in element.entries_flat())))


def is_centered_at_infinity(branch: Branch) -> bool:
    """Unbounded exactly when some coordinate has negative valuation."""
    return not branch.element.is_integral()


def _rational_rank(exponents) -> int:
    """Rank over Q of exponents (p + q*sqrt(d))/n, read as the vectors
    (p, q): 2 when two of them have a nonzero cross product, else 1, or 0
    when all are zero."""
    vecs = [(e.p, e.q) for e in exponents if not e.is_zero()]
    if not vecs:
        return 0
    p0, q0 = vecs[0]
    return 2 if any(p0 * q != q0 * p for p, q in vecs) else 1


def certified_dim(branch: Branch) -> int | None:
    """dim p, the transcendence degree of k(a) over k, when two bounds that
    need no relations meet; None when an entry is truncated or they differ.

    The entries lie in k[t^G] for the group G their exponents generate, so
    dim p <= rank_Q G.  Eliminating the rows 1, a_1, ..., a_n over the
    exponent slots in ascending order leads each pivot row with the
    valuation of a k-combination of them, so by Abhyankar's inequality
    dim p >= the rank of those pivot exponents.  y = det^-1 lies in k(a)
    and is skipped."""
    entries = branch.element.entries_flat()
    if any(s.precision is not None for s in entries):
        return None
    slots = sorted({e for s in entries for e, _ in s.terms} | {EXP_ZERO})
    col = {e: i for i, e in enumerate(slots)}
    rows = [{col[EXP_ZERO]: branch.field.one()}] + [{col[e]: c for e, c in s.terms} for s in entries]
    pivots = echelon(rows)
    upper = _rational_rank(slots)
    return upper if _rational_rank(slots[c] for c in pivots) == upper else None


def _closure_relations(branch: Branch, degree_bound: int) -> list:
    """The relations of degree <= degree_bound among the coordinates of
    a(t), as `monomial_relations` returns them: a monomial's vector holds
    the coefficients of its series a(t)^m by exponent slot.

    Exact entries skip the multiples of every leading monomial found.
    Truncated entries skip nothing: a relation that holds below the least
    precision hi need not hold for its multiples there.  Every monomial is
    evaluated, its vector keeps only the slots below hi, and a relation
    must survive dropping the top fifth of those slots: the standard
    monomials' vectors keep their rank on the lowest ones.  That rank is
    the rank of every monomial's vector there, since the others are
    combinations of the standard ones."""
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    point = branch.element.flat()
    n = len(point)
    values = MonomialValues(point, PuiseuxSeries.one(branch.field))
    if all(s.is_exact() for s in point):
        slot: dict[Exponent, int] = {}
        return monomial_relations(
            n, degree_bound, lambda m: {slot.setdefault(e, len(slot)): c for e, c in values[m].terms}, True
        )[0]

    evaluated = [values[m] for m in monomials_up_to(n, degree_bound)]
    hi = min(s.precision for s in evaluated if s.precision is not None)
    slots = sorted({e for s in evaluated for e, _ in s.terms if e < hi})
    if len(slots) < 2:
        raise PrecisionInsufficient("too few known exponent slots for implicitization")
    col = {e: i for i, e in enumerate(slots)}
    rows = {m: {col[e]: c for e, c in s.terms if e < hi} for m, s in values.items()}
    relations, standard = monomial_relations(n, degree_bound, rows.__getitem__, False)
    window = len(slots) - max(1, len(slots) // 5)
    window_rank = len(echelon({c: x for c, x in rows[m].items() if c < window} for m in standard))
    if window_rank != len(standard):
        raise PrecisionInsufficient(
            f"relations unstable under window shrink ({len(rows) - window_rank} vs {len(rows) - len(standard)}); "
            "raise precision"
        )
    return relations


def implicitize(branch: Branch, degree_bound: int) -> Ideal:
    """Reduced Groebner basis of all polynomial relations of total degree
    <= degree_bound among the coordinates of a(t)."""
    ring = PolyRing(branch.field, branch.scheme.coordinates())
    return relation_ideal(ring, _closure_relations(branch, degree_bound))


def type_dimension(branch: Branch, degree_bound: int) -> int:
    """The dimension read off the leading monomials of the relations of
    degree <= D: an upper bound for dim p, which certified_dim gives
    exactly where its bounds meet.  It can exceed the Krull dimension of
    the closure those relations generate, krull_dim(implicitize(b, D)):
    for the reduced SL(3) branch [t^-5, 2t^2, 0; 0, t^5, 0; t^-4, -t^5, 1]
    at D = 4 it is 2, against 1."""
    # the leading monomials generate the deglex leading-term ideal of the
    # degree-<=D relations, which is all the dimension count needs
    leads = [m for m, _ in _closure_relations(branch, degree_bound)]
    return _dim_from_leading_monomials(leads, len(branch.scheme.coordinates()))
