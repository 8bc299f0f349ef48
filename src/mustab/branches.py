"""Curve branches: validated parameterizations, boundedness, the type
dimension dim p, and the Zariski closure V of an exact branch.

dim p is read only where it is certain (certified_dim): for an unbounded
image of a place of a plane curve it is 1, and for exact entries it is
the value where an upper and a lower rank bound meet.  Everywhere else
it is left open, and mu_reduce looks for a tube-equivalent branch whose
dim p is certified.  V needs no degree: the branch is Laurent in
u = t^(gamma/N), and V is <X - a(u), s*u - 1> meet k[X], the prime ideal
of a curve (Cox, Little and O'Shea, Ideals, Varieties, and Algorithms,
3.3).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import FieldMismatch, IrrationalExponentInSubstitution, PrecisionInsufficient
from .exponents import EXP_ZERO, Exponent, exp
from .groups import GroupElement, GroupScheme
from .ideals import Ideal, eliminate
from .linalg import echelon
from .poly import Poly, PolyRing
from .records import Record


class Branch(Record):
    """A parameterized curve germ a(t) on a group scheme.  curve_place marks
    the image of a place of a plane curve (newton._places), which bounds
    dim p by 1; a translate keeps it, any other change of the entries
    drops it."""

    __slots__ = ("element", "ramification", "trusted_irreducible", "notes", "curve_place")
    _hidden = ("curve_place",)

    def __init__(
        self,
        element: GroupElement,
        ramification: int,
        trusted_irreducible: bool = False,
        notes: tuple[str, ...] = (),
        curve_place: bool = False,
    ):
        self.element = element
        self.ramification = ramification
        self.trusted_irreducible = trusted_irreducible
        self.notes = notes
        self.curve_place = curve_place

    @property
    def scheme(self) -> GroupScheme:
        return self.element.scheme

    @property
    def field(self):
        return self.element.scheme.field

    def translate(self, g) -> Branch:
        """Left-translate by a k-point g."""
        moved = g.to_series().mul(self.element)
        return Branch(moved, self.ramification, self.trusted_irreducible, self.notes, self.curve_place)

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
    """dim p, the transcendence degree of k(a) over k, where it is certain;
    None where it is not.

    An unbounded image of a plane-curve place has dim p = 1: k(a) lies in
    the curve's function field, and an entry with a pole is transcendental.
    Otherwise the entries must be exact.  They lie in k[t^G] for the group
    G their exponents generate, so dim p <= rank_Q G.  Eliminating the rows
    1, a_1, ..., a_n over the exponent slots in ascending order leads each
    pivot row with the valuation of a k-combination of them, so by
    Abhyankar's inequality dim p >= the rank of those pivot exponents.
    Where the two bounds meet, that is dim p; y = det^-1 lies in k(a) and
    is skipped."""
    if branch.curve_place and is_centered_at_infinity(branch):
        return 1
    entries = branch.element.entries_flat()
    if any(s.precision is not None for s in entries):
        return None
    slots = sorted({e for s in entries for e, _ in s.terms} | {EXP_ZERO})
    col = {e: i for i, e in enumerate(slots)}
    rows = [{col[EXP_ZERO]: branch.field.one()}] + [{col[e]: c for e, c in s.terms} for s in entries]
    pivots = echelon(rows)
    upper = _rational_rank(slots)
    return upper if _rational_rank(slots[c] for c in pivots) == upper else None


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
