"""Stabilizer via flat degeneration: the special fiber of V . a(t)^-1.

V is the exact closure of the branch (`branches.curve_ideal`), read off
the point a(u) the translation uses, for the uniformizer u = t^(gamma/N).
The closure of the translated variety over k[u] is computed exactly by
saturation (Eisenbud, Commutative Algebra, 15.8; Cox, Little and O'Shea,
Ideals, Varieties, and Algorithms, 4.4).  Each generator g of V is pulled
back along X -> X . a(u), written with a variable s standing for u^-1;
its poles are cleared into k[u][X] and its u-content divided out; then s
is eliminated from these, the scheme equations and s*u - 1, in k[s, X, u]
with u the last grevlex variable, the order of Bayer's saturation
(Bayer-Stillman, Invent. Math. 1987).  When the pulled-back generators and
the scheme equations are one polynomial g (a plane curve on the additive
plane), <g> is already saturated: u is prime in k[u][X] and does not
divide g.  The result is the flat closure, and setting u = 0 in any
generating set of it gives the special fiber with no series precision
involved.  gamma = 1 when every exponent of a(t) is rational; otherwise
gamma is the one positive irrational exponent direction all of them are
rational multiples of.  A truncated entry raises PrecisionInsufficient,
exponents of rational rank 2 raise IrrationalExponentInSubstitution.

The fiber splits as finitely many cosets of the stabilizer; the component
through the identity is extracted through the supported factorization
fragment, which examines only two kinds of basis generator: one with
monomial content (x^alpha * h splits into the x_i and h) and a univariate
one (split into its distinct factors, a power of one factor replaced by
that factor).  The stabilizer reported is the identity's piece of that
split.  In characteristic 0 every algebraic group is reduced (Cartier);
over F_p a group scheme can be non-reduced (alpha_p, mu_p), and its
reduced subgroup is what is sought.  The flag `decomposition_complete`
means only that no examined generator was left unfactored, the identity
lay in one piece and the depth cap was not hit; it does not mean every
component of the fiber was found.  A generator that is neither kind is
never split: [[t^-1, -t^-4], [0, t]] over Q has the fiber basis <x21,
x22^2 - x11, x11*x22 - 1, x11^2 - x22>, so x22^3 - 1 lies in the ideal
and has two factors over Q, and the flag reads true with one component.
"""

from __future__ import annotations

from .branches import Branch, curve_ideal, is_centered_at_infinity, laurent_point
from .errors import FiberNotSplit, NotCenteredAtInfinity, SelfCheckFailed
from .exponents import Exponent
from .factor import uni_factor
from .groups import GroupElement, GroupScheme, eval_poly_series
from .ideals import Ideal, eliminate, groebner_basis, ideal_contains, krull_dim
from .poly import Poly, PolyRing
from .records import Record
from .series import PuiseuxSeries
from .subgroups import SubgroupDesc, verify_subgroup


class DegenerationResult(Record):
    __slots__ = ("desc", "fiber", "closure", "u_exponent", "component_dims")

    def __init__(self, desc: SubgroupDesc, fiber: Ideal, closure: Ideal, u_exponent: Exponent, component_dims: list[int]):
        self.desc = desc
        self.fiber = fiber
        self.closure = closure  # the flat closure in k[u][X], u its first variable
        self.u_exponent = u_exponent  # u = t^u_exponent
        self.component_dims = component_dims


def _clear_poles(p: Poly) -> Poly:
    """u^M p, with M the largest power of s in p and each s^k u^j rewritten
    as u^(M - k + j) (terms that meet are summed), divided by the largest
    power of u that divides it; s is the first variable, u the last."""
    top = max(m[0] for m in p.terms)
    out: dict = {}
    for (k, *rest, j), c in p.terms.items():
        key = (0, *rest, top - k + j)
        out[key] = out[key] + c if key in out else c
    out = {m: c for m, c in out.items() if not c.is_zero()}
    low = min(m[-1] for m in out)
    return Poly(p.ring, {(*m[:-1], m[-1] - low): c for m, c in out.items()})


def flat_closure(branch: Branch) -> tuple[Ideal, Exponent]:
    """The closure of V . a(u)^-1 over k[u] as an ideal of k[u][X], u the
    first variable, and the exponent e with u = t^e; V is the closure of
    the branch, from the same point a(u).

    The saturation runs in k[s, X, u], s eliminated with u the last grevlex
    variable (Bayer's choice for saturating by u); its basis is renamed
    into k[u][X] and left unmarked, since it is a grevlex basis for the
    order with u last.  A principal ideal needs no elimination: u is prime
    in k[u][X] and the generator's u-content is divided out, so <g> : u^oo
    is <g>, returned as its reduced basis."""
    scheme = branch.scheme
    u_exponent, a = laurent_point(branch)
    V = curve_ideal(a)
    coords = scheme.coordinates()
    ring = a[0].ring
    moved = scheme.mul_values(tuple(ring.var(name) for name in coords), a)
    values = dict(zip(coords, moved))
    # X -> X . a(u) is invertible, so no nonzero g pulls back to zero
    gens = [_clear_poles(g.subs_polys(values, ring)) for g in V.gens]
    gens += scheme.defining_polys(ring)
    closure_ring = PolyRing(scheme.field, ("_u",) + coords)
    n = len(coords)

    def to_closure_ring(g: Poly) -> Poly:
        """g, free of s, in k[u][X]: its monomials end in (X, u)."""
        return Poly._trusted(closure_ring, {(m[-1], *m[-1 - n:-1]): c for m, c in g.terms.items()})

    if len(gens) == 1:
        return groebner_basis(Ideal(closure_ring, (to_closure_ring(gens[0]),))), u_exponent
    gens.append(ring.var("_s") * ring.var("_u") - ring.one())
    saturated = eliminate(Ideal(ring, tuple(gens)), ("_s",))
    return Ideal(closure_ring, tuple(to_closure_ring(g) for g in saturated.gens)), u_exponent


def special_fiber(closure: Ideal, scheme: GroupScheme) -> Ideal:
    """The fiber of the flat closure at u = 0, as its reduced basis in the
    scheme's coordinates: every generator at u = 0.  Any generating set of
    the closure gives the same fiber ideal."""
    ring = scheme.coordinate_ring()
    gens = [Poly(ring, {m[1:]: c for m, c in g.terms.items() if not m[0]}) for g in closure.gens]
    return groebner_basis(Ideal(ring, tuple(gens)))


def stab_degeneration(branch: Branch) -> DegenerationResult:
    """Flat-limit stabilizer: special fiber of the translated variety,
    split into the identity component plus coset components."""
    if not is_centered_at_infinity(branch):
        raise NotCenteredAtInfinity("degeneration requires an unbounded branch")
    closure, u_exponent = flat_closure(branch)
    fiber = special_fiber(closure, branch.scheme)

    comp, cosets, complete = identity_component(fiber, branch.scheme)
    dims = [krull_dim(comp)] + [krull_dim(c) for c in cosets]
    desc = SubgroupDesc(
        branch.scheme,
        comp,
        dims[0],
        None,
        {
            "algorithm": "degeneration",
            "decomposition_complete": complete,
            "fiber_components": len(dims),
            "dropped_rows_precision": 0,
        },
        tuple(cosets),
    )
    ok, report = verify_subgroup(desc)
    if not ok:
        raise FiberNotSplit(f"the fiber's identity component is not a subgroup: {report['witness']}")
    return DegenerationResult(desc, fiber, closure, u_exponent, dims)


# -- component splitting -------------------------------------------------------

def identity_component(fiber: Ideal, scheme: GroupScheme) -> tuple[Ideal, list[Ideal], bool]:
    """Split the fiber, an ideal in the scheme's coordinates, through the
    factorization fragment and return the piece containing the scheme's
    identity, the other pieces, and a completeness flag.

    The splitter (`_splittable_factors`) examines only generators with
    monomial content and univariate generators of each basis.  The flag is
    true when none of those was left unfactored, the identity lies in one
    piece and the depth cap of 8 splits was not hit; it does not certify
    that every component was found, since a generator of neither kind is
    never split (see the module docstring)."""
    identity = scheme.identity()._values()
    ring = fiber.ring
    complete = True
    leaves: list[Ideal] = []

    def rec(I: Ideal, depth: int):
        nonlocal complete
        if depth > 8:
            complete = False
            leaves.append(I)
            return
        gb = groebner_basis(I)
        parts, saw_unfactored = _splittable_factors(gb)
        if saw_unfactored:
            complete = False
        if parts is None:
            leaves.append(gb)
            return
        for part in parts:
            J = Ideal(ring, gb.gens + (part,))
            gbJ = groebner_basis(J)
            if any(g.is_constant() and not g.is_zero() for g in gbJ.gens):
                continue  # empty piece
            rec(gbJ, depth + 1)

    rec(fiber, 0)
    # drop a piece V(I) inside another piece V(J): strictly inside, or
    # equal to it with J earlier, so that equal pieces are kept once
    kept = [
        I for i, I in enumerate(leaves)
        if not any(
            ideal_contains(I, J) and (j < i or not ideal_contains(J, I))
            for j, J in enumerate(leaves) if j != i
        )
    ]

    comp = None
    cosets: list[Ideal] = []
    for I in kept:
        if all(g.eval_scalars(identity).is_zero() for g in I.gens):
            if comp is None:
                comp = I
            else:
                complete = False  # identity in two components: split was too coarse
                cosets.append(I)
        else:
            cosets.append(I)
    if comp is None:
        raise SelfCheckFailed("identity does not satisfy the fiber ideal")
    return comp, cosets, complete


def _splittable_factors(gb: Ideal) -> tuple[list[Poly] | None, bool]:
    """A list of proper factors of some generator, or the one factor f of a
    univariate generator c * f^m with m > 1 (None when nothing in the
    fragment splits), plus whether an unfactorable piece was seen."""
    saw_unfactored = False
    for g in gb.gens:
        # monomial content: g = x^alpha * h splits into the x_i and h
        common = None
        for m in g.terms:
            common = m if common is None else tuple(min(a, b) for a, b in zip(common, m))
        if common and sum(common) > 0:
            parts = [g.ring.var(g.ring.variables[i]) for i, e in enumerate(common) if e]
            h_terms = {tuple(a - b for a, b in zip(m, common)): c for m, c in g.terms.items()}
            h = Poly(g.ring, h_terms)
            if not h.is_constant():
                parts.append(h)
            if len(parts) >= 2:
                return parts, saw_unfactored
        if len(g.variables_used()) == 1 and g.total_degree() >= 1:
            fac = uni_factor(g)
            if fac.unfactored:
                saw_unfactored = True
                continue
            distinct = [f for f, _ in fac.factors]
            if len(distinct) >= 2 or (distinct and fac.factors[0][1] > 1):
                # a power f^m of one factor is split into f: the reduced fiber
                return distinct, saw_unfactored
    return None, saw_unfactored


def verify_flat_closure_at(result: DegenerationResult, point: GroupElement) -> bool:
    """Every generator of the flat closure vanishes at u = t^(gamma/N) and
    X = point, up to the point's tracked precision."""
    field = point.scheme.field
    values = point._values()
    values["_u"] = PuiseuxSeries.monomial(field, result.u_exponent, field.one())
    return not any(eval_poly_series(g, values, field).terms for g in result.closure.gens)
