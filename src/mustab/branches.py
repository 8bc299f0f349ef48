"""Curve branches: validated parameterizations, boundedness, the type
dimension dim p, and the degree-bounded Zariski closure (implicitization)
with its Krull dimension.

For exact entries, certified_dim gives dim p in closed form where an upper
and a lower rank bound meet; otherwise the degree-D closure bounds it from
above.  Implicitization is exact linear algebra on the series expansions
of all coordinate monomials up to a degree bound.  For exact
(Laurent-polynomial) entries the computed relations are certain; for
truncated entries a window-stability check guards against spurious
relations and raises PrecisionInsufficient instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FieldMismatch, PrecisionInsufficient
from .exponents import EXP_ZERO, Exponent
from .groups import GroupElement, GroupScheme
from .ideals import Ideal, _dim_from_leading_monomials, kernel_ideal
from .linalg import echelon
from .poly import PolyRing, monomials_up_to
from .series import PuiseuxSeries, ScalarDomain


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


def validate_branch(scheme: GroupScheme, entries, y=None) -> Branch:
    """Check the entries against the scheme equations and infer ramification.

    Raises NotOnGroup with the offending equation and residual term, and
    FieldMismatch when the entries' exponents use different sqrt(d).
    """
    element = GroupElement(scheme, entries, y=y, check=True)
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
    pivots, _ = echelon(rows)
    upper = _rational_rank(slots)
    return upper if _rational_rank(slots[c] for c in pivots) == upper else None


def _relation_echelon(branch: Branch, degree_bound: int):
    """The monomials of degree <= degree_bound in the coordinates, in
    ascending deglex order, and the linear relations among their series
    a(t)^m in echelon form: one sparse row per known exponent slot, holding
    each monomial's coefficient there, eliminated by linalg.echelon."""
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    series_list = branch.element.flat()

    monos = sorted(monomials_up_to(len(series_list), degree_bound), key=lambda m: (sum(m), m))

    # a(t)^m = a(t)^(m - e_i) * a_i(t) for the last variable i of m; the
    # parent has lower degree, so it comes earlier in monos
    by_mono = {}
    for m in monos:
        if any(m):
            i = max(j for j, e in enumerate(m) if e)
            by_mono[m] = by_mono[m[:i] + (m[i] - 1,) + m[i + 1 :]] * series_list[i]
        else:
            by_mono[m] = PuiseuxSeries.one(ScalarDomain(branch.field))
    evaluated = [by_mono[m] for m in monos]

    hi: Exponent | None = None
    exact = True
    for s in evaluated:
        if s.precision is not None:
            exact = False
            if hi is None or s.precision < hi:
                hi = s.precision
    slots = sorted(
        {e for s in evaluated for e, _ in s.terms if hi is None or e < hi},
        key=lambda e: e,
    )
    if not exact and (hi is None or len(slots) < 2):
        raise PrecisionInsufficient("too few known exponent slots for implicitization")

    slot_row = {e: i for i, e in enumerate(slots)}
    rows: list[dict] = [{} for _ in slots]
    for col, s in enumerate(evaluated):
        for e, c in s.terms:
            i = slot_row.get(e)
            if i is not None:
                rows[i][col] = c

    # truncated entries: a relation must survive dropping the top fifth of
    # the slots, i.e. the rank of the shrunken window must be the full rank
    window = None if exact else len(slots) - max(1, len(slots) // 5)
    pivots, window_rank = echelon(rows, window)
    if window_rank != len(pivots):
        raise PrecisionInsufficient(
            f"relations unstable under window shrink ({len(monos) - window_rank} vs {len(monos) - len(pivots)}); "
            "raise precision"
        )
    return monos, pivots


def implicitize(branch: Branch, degree_bound: int) -> Ideal:
    """Reduced Groebner basis of all polynomial relations of total degree
    <= degree_bound among the coordinates of a(t)."""
    monos, pivots = _relation_echelon(branch, degree_bound)
    return kernel_ideal(list(pivots.values()), monos, PolyRing(branch.field, branch.scheme.coordinates()))


def type_dimension(branch: Branch, degree_bound: int) -> int:
    """The dimension read off the leading monomials of degree <= D of the
    relation kernel: an upper bound for dim p, which certified_dim gives
    exactly where its bounds meet.  It can exceed the Krull dimension of
    the closure those relations generate, krull_dim(implicitize(b, D)):
    for the reduced SL(3) branch [t^-5, 2t^2, 0; 0, t^5, 0; t^-4, -t^5, 1]
    at D = 4 it is 2, against 1."""
    monos, pivots = _relation_echelon(branch, degree_bound)
    # the reduced kernel vector of a non-pivot column is nonzero only there
    # and at pivot columns to its left, so it is led by that column: these
    # leading monomials are the degree-<=D slice of the leading-term ideal,
    # which is all the dimension count needs
    leads = [m for col, m in enumerate(monos) if col not in pivots]
    return _dim_from_leading_monomials(leads, len(branch.scheme.coordinates()))
