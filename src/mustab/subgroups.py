"""Subgroup descriptors over the residue field, with certification.

A SubgroupDesc is an ideal in the ambient scheme's matrix coordinates,
optionally with a polynomial parameterization.  verify_subgroup certifies
the group axioms symbolically (generic points, ideal membership);
classify_subgroup names the subgroup; is_solvable runs the derived series
on parameterized/sampled points; conjugate_stab pulls the ideal back along
an inner automorphism.

The two certificates read only values (the scheme, the ideal and the
S-polynomial budget or the dimension), and a job meets the same few
stabilizer ideals again and again: each is computed once per process and
kept in a bounded memo, as the SL(2) templates and identity bases are.  A
budget error is raised again, never kept.
"""

from __future__ import annotations

import functools
import random
from operator import mul

from .errors import MustabError
from .fields import Scalar
from .groups import GroupScheme, KPoint, random_kpoint, random_scalar
from .ideals import (
    Budgets,
    Ideal,
    MonomialValues,
    extend_basis,
    groebner_basis,
    ideal_contains,
    ideal_equal,
    ideal_member,
    krull_dim,
    monomial_relations,
    reducer,
    relation_ideal,
)
from .factor import scalar_roots
from .poly import Poly, PolyRing
from .records import Record
from .series import PuiseuxSeries, series_to_json

# entries kept by the process-wide memo of each certificate function
_MEMO_SIZE = 256


class ParamFamily(Record):
    """Residue family M(params) on the constraint variety V(relations)."""

    __slots__ = ("ring", "entries", "relations")

    def __init__(self, ring: PolyRing, entries: tuple, relations: Ideal):
        self.ring = ring
        self.entries = entries  # Poly entries in the scheme's layout (groups.py), without y
        self.relations = relations


class SubgroupDesc(Record):
    __slots__ = ("scheme", "ideal", "dim", "param", "flags", "cosets")

    def __init__(
        self,
        scheme: GroupScheme,
        ideal: Ideal,
        dim: int,
        param: ParamFamily | None = None,
        flags: dict | None = None,
        cosets: tuple[Ideal, ...] = (),
    ):
        self.scheme = scheme
        self.ideal = ideal
        self.dim = dim
        self.param = param
        self.flags = {} if flags is None else flags
        self.cosets = cosets

    def classification(self) -> str:
        return classify_subgroup(self)

    def to_json(self) -> dict:
        out = {
            "ideal": [str(g) for g in self.ideal.gens],
            "dim": self.dim,
            "flags": dict(self.flags),
            "classification": self.classification(),
            "cosets": [[str(g) for g in c.gens] for c in self.cosets],
        }
        if self.param is not None:
            # each parameter is named c1, c2, ... by its position in the ring
            names = {v: f"c{i + 1}" for i, v in enumerate(self.param.ring.variables)}
            target = PolyRing(self.param.ring.field, tuple(names.values()))
            def rn(p: Poly) -> str:
                return str(p.rename(names, target))
            out["param"] = self.scheme.map_entries(self.param.entries, rn)
            out["param_relations"] = [rn(g) for g in self.param.relations.gens]
        return out


class TubeCertificate(Record):
    __slots__ = ("s", "eps")

    def __init__(self, s: PuiseuxSeries, eps):
        self.s = s
        self.eps = eps  # GroupElement in mu

    def to_json(self) -> dict:
        return {"s": series_to_json(self.s), "eps": str(self.eps)}


# -- point solving on small constraint varieties -----------------------------

def solve_point(J: Ideal, defaults: dict[str, Scalar] | None = None) -> dict[str, Scalar] | None:
    """One k-point of V(J), or None.

    Lex Groebner basis, then back-substitution from the last variable with
    roots from the certified factorization fragment; unconstrained
    variables take their default value (0, overridable per name).
    """
    ring = J.ring
    gb = groebner_basis(J, "lex", budget=4000).gens
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return None
    defaults = defaults or {}

    def backsub(assign: dict[str, Scalar], remaining: list[str]):
        if not remaining:
            for g in gb:
                if not g.eval_scalars(assign).is_zero():
                    return None
            return assign
        var = remaining[-1]
        univars = []
        for g in gb:
            used = g.variables_used()
            if var in used and used <= set(assign) | {var}:
                sub = _partial_eval(g, assign)
                if not sub.is_zero():
                    univars.append(sub)
        if any(u.is_constant() for u in univars):
            return None  # a constraint collapsed to a nonzero constant
        if not univars:
            candidates = [defaults.get(var, ring.field.zero())]
        else:
            try:
                roots = scalar_roots(univars[0])
            except (MustabError, ValueError):
                return None
            candidates = [
                r for r in roots
                if all(u.eval_scalars({var: r}).is_zero() for u in univars)
            ]
        for cand in candidates:
            out = backsub({**assign, var: cand}, remaining[:-1])
            if out is not None:
                return out
        return None

    return backsub({}, list(ring.variables))


def _partial_eval(g: Poly, assign: dict[str, Scalar]) -> Poly:
    """Evaluate the assigned variables, keep the rest symbolic."""
    ring = g.ring
    values = {}
    for v in ring.variables:
        values[v] = ring.from_scalar(assign[v]) if v in assign else ring.var(v)
    return g.subs_polys(values, ring)


# -- verification -------------------------------------------------------------

def _substituted(f: Poly, scheme: GroupScheme, flat, ring: PolyRing) -> Poly:
    """f with the scheme coordinates replaced by the values of a flat point."""
    return f.subs_polys(dict(zip(scheme.coordinates(), flat)), ring)


def _generic_pair(ideal: Ideal, scheme: GroupScheme, budget: int):
    """Two independent generic points u, v of V(ideal) as flat tuples of
    variables, their ring, and a Groebner basis of the relations they obey.

    The relations are two copies of ideal + the scheme equations in
    disjoint variables, so their reduced basis is one basis in the
    coordinates renamed onto u and onto v: S-pairs across the copies have
    coprime leading monomials, and grevlex on (u, v) restricted to either
    copy is grevlex on the coordinates."""
    names = scheme.coordinates()
    ring = scheme.coordinate_ring()
    big = PolyRing(scheme.field, tuple("u" + n for n in names) + tuple("v" + n for n in names))
    u = tuple(big.var("u" + n) for n in names)
    v = tuple(big.var("v" + n) for n in names)
    own = ideal if ideal.ring == ring else Ideal(ring, tuple(g.restrict(ring) for g in ideal.gens))
    gb = extend_basis(own, scheme.defining_polys(ring), budget).gens
    gb = [g.rename({n: side + n for n in names}, big) for side in "uv" for g in gb]
    return big, u, v, gb


def verify_subgroup(H: SubgroupDesc, budgets: Budgets | None = None) -> tuple[bool, dict]:
    """Certify identity membership and closure under product and inverse.

    Closure is checked on two independent generic points via ideal
    membership; the report carries any failing generator.  The answer
    depends only on the scheme, the ideal and the S-polynomial budget, and
    is certified once per process for each of them; H's flag is set and a
    fresh report returned on every call.
    """
    budgets = budgets or Budgets()
    ok, report = _verified(H.scheme, H.ideal, budgets.spoly_budget)
    H.flags["verified_subgroup"] = ok
    return ok, dict(report)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _verified(scheme: GroupScheme, ideal: Ideal, spoly_budget: int) -> tuple[bool, dict]:
    report: dict = {"identity": False, "product": False, "inverse": False}
    id_values = scheme.identity()._values()
    for g in ideal.gens:
        if not g.eval_scalars(id_values).is_zero():
            report["witness"] = f"identity fails {g}"
            return False, report
    report["identity"] = True

    big, u, v, gb = _generic_pair(ideal, scheme, spoly_budget)
    nf = reducer(gb, big.order)
    for axiom, point in (("product", scheme.mul_values(u, v)), ("inverse", scheme.inv_values(u))):
        for f in ideal.gens:
            if not nf(_substituted(f, scheme, point, big)).is_zero():
                report["witness"] = f"{axiom} leaves the ideal at {f}"
                return False, report
        report[axiom] = True
    return True, report


# -- conjugation ---------------------------------------------------------------

def conjugate_stab(H: SubgroupDesc, g: KPoint) -> Ideal:
    """The ideal of g H g^-1, as its reduced basis: H's ideal pulled back
    along x -> g^-1 x g."""
    scheme = H.scheme
    ring = H.ideal.ring

    def lifted(point: KPoint) -> tuple:
        return tuple(ring.from_scalar(c) for c in point.flat())

    # g^-1 * X * g, entries linear in the coordinates
    x = tuple(ring.var(name) for name in scheme.coordinates())
    moved = scheme.mul_values(scheme.mul_values(lifted(g.inv()), x), lifted(g))
    return groebner_basis(Ideal(ring, tuple(_substituted(f, scheme, moved, ring) for f in H.ideal.gens)))


# -- classification -------------------------------------------------------------

@functools.cache
def _sl2_templates(ring: PolyRing) -> dict[str, Ideal]:
    """The named subgroups of SL(2) in ring, each as its reduced basis."""
    templates = {
        "upper unipotent": ("x11 - 1", "x21", "x22 - 1"),
        "lower unipotent": ("x11 - 1", "x12", "x22 - 1"),
        "diagonal torus": ("x12", "x21", "x11*x22 - 1"),
    }
    return {name: groebner_basis(Ideal(ring, tuple(ring.parse(g) for g in gens))) for name, gens in templates.items()}


@functools.cache
def _identity_basis(scheme: GroupScheme) -> Ideal:
    """The scheme's identity ideal as its reduced basis."""
    return groebner_basis(scheme.identity_ideal)


def _is_trivial(ideal: Ideal, scheme: GroupScheme) -> bool:
    """Whether ideal is the identity ideal: the same generators, or both
    containments, the identity's basis built once the first one holds."""
    if ideal == scheme.identity_ideal:
        return True
    return ideal_contains(ideal, scheme.identity_ideal) and ideal_contains(_identity_basis(scheme), ideal)


def classify_subgroup(H: SubgroupDesc) -> str:
    """H's name: trivial, a named subgroup of SL(2), or the kind of
    subgroup with H.dim; named once per process for each scheme, ideal and
    dim."""
    return _classified(H.scheme, H.ideal, H.dim)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _classified(scheme: GroupScheme, ideal: Ideal, dim: int) -> str:
    ring = ideal.ring
    r = scheme.root
    if _is_trivial(ideal, scheme):
        return "trivial"
    if r.kind == "Additive":
        if all(g.total_degree() <= 1 for g in ideal.gens):
            return f"linear subspace of dimension {dim}"
        return f"additive subgroup of dimension {dim}"
    if r.kind == "SL" and r.n == 2:
        for name, tid in _sl2_templates(ring).items():
            if ideal_equal(ideal, tid):
                return name
        if ideal_member(ring.parse("x21"), ideal):
            return f"Borel-contained subgroup of dimension {dim}"
        if ideal_member(ring.parse("x12"), ideal):
            return f"opposite-Borel-contained subgroup of dimension {dim}"
    return f"subgroup of dimension {dim}"


# -- solvability ----------------------------------------------------------------

class SolvabilityResult(Record):
    __slots__ = ("value", "note")

    def __init__(self, value: bool | None, note: str = ""):
        self.value = value  # None = inconclusive
        self.note = note


def _is_abelian_symbolic(ideal: Ideal, scheme: GroupScheme, budget: int) -> bool:
    big, u, v, gb = _generic_pair(ideal, scheme, budget)
    uv, vu = scheme.mul_values(u, v), scheme.mul_values(v, u)
    nf = reducer(gb, big.order)
    return all(nf(a - b).is_zero() for a, b in zip(uv, vu))


def ideal_of_points(points: list[dict[str, Scalar]], ring: PolyRing, degree: int) -> Ideal:
    """Vanishing ideal of a finite point cloud, up to a degree bound: the
    relations among the monomials' vectors of values at the points."""
    values = MonomialValues(
        [tuple(pt[v] for pt in points) for v in ring.variables],
        (ring.field.one(),) * len(points),
        lambda a, b: tuple(map(mul, a, b)),
    )
    relations, _ = monomial_relations(ring.nvars, degree, values.__getitem__, True)
    return relation_ideal(ring, relations)


def _sample_kpoints(H: SubgroupDesc, rng: random.Random, count: int) -> list[KPoint]:
    """k-points of H: from the parameterized family when present, else
    random points when H is the whole of SL(2) or GL(2), its own scheme
    (equal ideals); none otherwise.  SL(3) and GL(3) are left out: the
    derived series of the whole of SL(3) ran past 120 s."""
    scheme = H.scheme
    field = scheme.field
    out: list[KPoint] = []
    if H.param is not None:
        pr = H.param.ring
        tries = 0
        while len(out) < count and tries < count * 30:
            tries += 1
            # lam = lami = 1 and a random value for each c_i the relations
            # leave free
            defaults = {v: field.one() if v in ("lam", "lami") else random_scalar(field, rng) for v in pr.variables}
            sol = solve_point(H.param.relations, defaults)
            pt = None if sol is None else _param_point(H, sol)
            if pt is not None:
                out.append(pt)
        return out
    if scheme.kind in ("SL", "GL") and scheme.n == 2:
        whole = Ideal(H.ideal.ring, tuple(scheme.defining_polys(H.ideal.ring)))
        if ideal_equal(H.ideal, whole):
            return [random_kpoint(scheme, rng) for _ in range(count)]
    return out


def _param_point(H: SubgroupDesc, sol: dict[str, Scalar]) -> KPoint | None:
    try:
        return KPoint(H.scheme, H.scheme.map_entries(H.param.entries, lambda p: p.eval_scalars(sol)))
    except MustabError:
        return None


def is_solvable(H: SubgroupDesc, budgets: Budgets | None = None) -> SolvabilityResult:
    """Derived series on parameterized/sampled points.

    True when the series reaches the trivial group within dim+1 steps
    (abelian levels certified symbolically); certified False when a step
    stabilizes at a symbolically nonabelian verified subgroup.
    """
    budgets = budgets or Budgets()
    if not H.flags.get("verified_subgroup"):
        verify_subgroup(H, budgets)
        if not H.flags.get("verified_subgroup"):
            return SolvabilityResult(None, "not a verified subgroup")
    scheme = H.scheme
    r = scheme.root
    if r.kind == "Additive":
        return SolvabilityResult(True, "additive groups are abelian")
    if _is_abelian_symbolic(H.ideal, scheme, budgets.spoly_budget):
        return SolvabilityResult(True, "abelian")

    rng = random.Random(20)
    current = H.ideal
    samples = _sample_kpoints(H, rng, budgets.sample_budget)
    if len(samples) < 4:
        return SolvabilityResult(None, "cannot sample enough points")
    ring = H.ideal.ring
    for _ in range(max(1, H.dim) + 1):
        commutators = []
        for _ in range(budgets.sample_budget):
            a = samples[rng.randrange(len(samples))]
            b = samples[rng.randrange(len(samples))]
            c = a.mul(b).mul(a.inv()).mul(b.inv())
            commutators.append(c)
        closed = list(commutators)
        for _ in range(budgets.sample_budget // 2):
            a = commutators[rng.randrange(len(commutators))]
            b = commutators[rng.randrange(len(commutators))]
            closed.append(a.mul(b))
        pts = [p._values() for p in closed]
        nxt = ideal_of_points(pts, ring, max(2, min(3, budgets.degree_bound)))
        id_values = scheme.identity()._values()
        if not all(g.eval_scalars(id_values).is_zero() for g in nxt.gens):
            return SolvabilityResult(None, "identity escaped the sampled ideal")
        if _is_trivial(nxt, scheme):
            return SolvabilityResult(True, "derived series reached the trivial group")
        if _is_abelian_symbolic(nxt, scheme, budgets.spoly_budget):
            return SolvabilityResult(True, "derived series reached an abelian group")
        if ideal_equal(nxt, current):
            sub = SubgroupDesc(scheme, nxt, krull_dim(nxt))
            ok, _ = verify_subgroup(sub, budgets)
            if ok:
                return SolvabilityResult(False, "derived series stabilized at a nonabelian subgroup")
            return SolvabilityResult(None, "stabilized at an uncertified set")
        current = nxt
        samples = closed
    return SolvabilityResult(None, "derived series did not settle within the step budget")
