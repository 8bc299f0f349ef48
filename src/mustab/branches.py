"""Curve branches: validated parameterizations, boundedness, the type
dimension dim p, and the Zariski closure V of an exact branch.

For exact entries, certified_dim gives dim p in closed form where an upper
and a lower rank bound meet; otherwise type_dimension bounds it from above
by the relations of degree <= D among the series a(t)^m, found one
monomial at a time (`ideals.monomial_relations`).  For exact entries those
relations are certain, and no multiple of a relation's leading monomial is
expanded; for truncated entries every monomial is, and a window-stability
check raises PrecisionInsufficient instead of keeping a spurious relation.
V needs no degree: the branch is Laurent in u = t^(gamma/N), and V is
<X - a(u), s*u - 1> meet k[X], the prime ideal of a curve (Cox, Little and
O'Shea, Ideals, Varieties, and Algorithms, 3.3).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import FieldMismatch, IrrationalExponentInSubstitution, PrecisionInsufficient
from .exponents import EXP_ZERO, Exponent, exp
from .groups import GroupElement, GroupScheme
from .ideals import Ideal, MonomialValues, _dim_from_leading_monomials, eliminate, monomial_relations
from .linalg import echelon
from .poly import Poly, PolyRing, monomials_up_to
from .records import Record
from .series import PuiseuxSeries


class Branch(Record):
    """A parameterized curve germ a(t) on a group scheme."""

    __slots__ = ("element", "ramification", "trusted_irreducible", "notes")

    def __init__(
        self, element: GroupElement, ramification: int, trusted_irreducible: bool = False, notes: tuple[str, ...] = ()
    ):
        self.element = element
        self.ramification = ramification
        self.trusted_irreducible = trusted_irreducible
        self.notes = notes

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


def _uniformizer(entries) -> tuple[Exponent, list[list[tuple[int, object]]]]:
    """(gamma/N, each entry as its (k, c) terms c * u^k in u = t^(gamma/N))."""
    exps = [e for s in entries for e, _ in s.terms]
    gamma = next((e for e in exps if not e.is_rational()), exp(1))
    if gamma.sign() < 0:
        gamma = -gamma

    def ratio(e: Exponent) -> Fraction:
        if gamma.is_rational():
            return e.a
        q = e.b / gamma.b
        if e.a != q * gamma.a:
            raise IrrationalExponentInSubstitution(
                f"exponents {gamma} and {e} have rational rank 2; the flat closure needs one direction"
            )
        return q

    ratios = {e: ratio(e) for e in exps}
    n = math.lcm(1, *(q.denominator for q in ratios.values()))
    laurent = [[(int(ratios[e] * n), c) for e, c in s.terms] for s in entries]
    return gamma.scale(Fraction(1, n)), laurent


def laurent_point(branch: Branch) -> tuple[Exponent, tuple[Poly, ...]]:
    """(e, a(u)) with u = t^e: every coordinate value, y included, in
    k[s, X, u] with s = u^-1 the first variable and u the last."""
    entries = branch.element.flat()
    if any(s.precision is not None for s in entries):
        raise PrecisionInsufficient("the flat closure needs exact entries; mu-reduction left a truncated one")
    u_exponent, laurent = _uniformizer(entries)
    coords = branch.scheme.coordinates()
    ring = PolyRing(branch.field, ("_s",) + coords + ("_u",))
    zeros = (0,) * len(coords)
    return u_exponent, tuple(
        Poly(ring, {(max(-k, 0),) + zeros + (max(k, 0),): c for k, c in terms}) for terms in laurent
    )


def curve_ideal(point: tuple[Poly, ...]) -> Ideal:
    """<X - a(u), s*u - 1> meet k[X] for a point a(u) of `laurent_point`,
    as its reduced grevlex basis.  When a(u) lies in k[s] or in k[u], that
    is the kernel of k[X] -> k[s] or k[u], and s*u - 1 is left out."""
    ring = point[0].ring
    gens = [ring.var(x) - a for x, a in zip(ring.variables[1:-1], point)]
    if all(any(m[i] for a in point for m in a.terms) for i in (0, -1)):
        gens.append(ring.var("_s") * ring.var("_u") - ring.one())
    return eliminate(Ideal(ring, tuple(gens)), ("_s", "_u"))


def implicitize(branch: Branch) -> Ideal:
    """The Zariski closure of an exact branch: the prime ideal of every
    polynomial relation among the coordinates of a(t), as its reduced
    grevlex basis."""
    return curve_ideal(laurent_point(branch)[1])


def type_dimension(branch: Branch, degree_bound: int) -> int:
    """The dimension read off the leading monomials of the relations of
    degree <= D: an upper bound for dim p, which certified_dim gives
    exactly where its bounds meet.  It can exceed the Krull dimension of
    the ideal those relations generate: for the reduced SL(3) branch
    [t^-5, 2t^2, 0; 0, t^5, 0; t^-4, -t^5, 1] at D = 4 it is 2, against 1."""
    # the leading monomials generate the deglex leading-term ideal of the
    # degree-<=D relations, which is all the dimension count needs
    leads = [m for m, _ in _closure_relations(branch, degree_bound)]
    return _dim_from_leading_monomials(leads, len(branch.scheme.coordinates()))
