"""Subgroup descriptors over the residue field, with certification.

A SubgroupDesc is an ideal in the ambient scheme's matrix coordinates,
optionally with a polynomial parameterization.  verify_subgroup certifies
the group axioms symbolically (generic points, ideal membership);
classify_subgroup names the subgroup; is_solvable decides solvability from
the tangent Lie algebra at the identity and a Borel subgroup; conjugate_stab
pulls the ideal back along an inner automorphism.

The two certificates read only values (the scheme, the ideal, the
dimension and the S-polynomial cap in force), and a job meets the same few
stabilizer ideals again and again: each is computed once per process and
kept in a bounded memo keyed on all of them.  A budget error is raised
again, never kept.  The SL(2) templates and identity bases, kept per ring
and scheme, form no S-polynomial: their leading monomials are coprime.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from functools import cached_property
from itertools import combinations
from operator import attrgetter

from .errors import MustabError
from .fields import Scalar
from .groups import GroupScheme, KPoint, mat_mul
from .ideals import (
    Ideal, current_spoly_budget, extend_basis, groebner_basis, ideal_contains, ideal_equal, ideal_member, reducer,
)
from .factor import scalar_roots
from .linalg import Echelon
from .poly import LEX, Poly, PolyRing
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
        self.dim = dim  # of V(ideal + the scheme equations)
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
            names = tuple(f"c{i + 1}" for i in range(self.param.ring.nvars))
            out["param"] = self.scheme.map_entries(self.param.entries, lambda p: p.text(names))
            out["param_relations"] = [g.text(names) for g in self.param.relations.gens]
        return out


class TubeCertificate(Record):
    """A reparameterization s and the correction eps in mu with a(s) =
    eps * b: eps as given, or built by `build()` when first read."""

    # __dict__ holds eps, or its builder until eps is first read
    __slots__ = ("s", "__dict__")

    def __init__(self, s: PuiseuxSeries, eps=None, build: Callable | None = None):
        self.s = s
        if build is None:
            self.eps = eps
        else:
            self._build = build

    @cached_property
    def eps(self):  # GroupElement in mu
        return self.__dict__.pop("_build")()

    def to_json(self) -> dict:
        return {"s": series_to_json(self.s), "eps": str(self.eps)}


# eps takes part in == and repr as a field does
TubeCertificate._shown = ("s", "eps")
TubeCertificate._key = staticmethod(attrgetter(*TubeCertificate._shown))


# -- point solving on small constraint varieties -----------------------------

def solve_point(J: Ideal, defaults: dict[str, Scalar] | None = None) -> dict[str, Scalar] | None:
    """One k-point of V(J), or None.

    Lex Groebner basis, then back-substitution from the last variable with
    the root of a linear univariate, else the roots from the certified
    factorization fragment; unconstrained variables take their default
    value (0, overridable per name).
    """
    ring = J.ring
    gb = groebner_basis(J, LEX).gens
    if any(g.is_constant() and not g.is_zero() for g in gb):
        return None
    defaults = defaults or {}
    uses = [(g, g.variables_used()) for g in gb]

    def backsub(assign: dict[str, Scalar], remaining: list[str]):
        if not remaining:
            for g in gb:
                if not g.eval_scalars(assign).is_zero():
                    return None
            return assign
        var = remaining[-1]
        known = {*assign, var}
        univars = []
        for g, used in uses:
            if var in used and used <= known:
                sub = _partial_eval(g, assign)
                if not sub.is_zero():
                    univars.append(sub)
        if any(u.is_constant() for u in univars):
            return None  # a constraint collapsed to a nonzero constant
        if not univars:
            candidates = [defaults.get(var, ring.field.zero())]
        else:
            u = univars[0]
            try:
                roots = [_linear_root(u)] if u.total_degree() == 1 else scalar_roots(u)
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


def _linear_root(u: Poly) -> Scalar:
    """The root -c0/c1 of u = c1*x + c0, univariate of degree 1."""
    c1 = next(c for m, c in u.terms.items() if any(m))
    return -u.constant_coefficient() * c1.inv()


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


def _basis(ideal: Ideal, scheme: GroupScheme) -> Ideal:
    """The reduced basis of ideal + the scheme equations in the scheme's
    coordinate ring."""
    ring = scheme.coordinate_ring()
    own = ideal if ideal.ring == ring else Ideal(ring, tuple(g.restrict(ring) for g in ideal.gens))
    return extend_basis(own, scheme.defining_polys())


def _generic_pair(ideal: Ideal, scheme: GroupScheme):
    """Two independent generic points u, v of V(ideal) as flat tuples of
    variables, their ring, and a Groebner basis of the relations they obey.

    The relations are two copies of ideal + the scheme equations in
    disjoint variables, so their reduced basis is one basis in the
    coordinates renamed onto u and onto v: S-pairs across the copies have
    coprime leading monomials, and grevlex on (u, v) restricted to either
    copy is grevlex on the coordinates."""
    names = scheme.coordinates()
    big = PolyRing(scheme.field, tuple("u" + n for n in names) + tuple("v" + n for n in names))
    u = tuple(big.var("u" + n) for n in names)
    v = tuple(big.var("v" + n) for n in names)
    gb = _basis(ideal, scheme).gens
    gb = [g.rename({n: side + n for n in names}, big) for side in "uv" for g in gb]
    return big, u, v, gb


def verify_subgroup(H: SubgroupDesc) -> tuple[bool, dict]:
    """Certify identity membership and closure under product and inverse.

    Closure is checked on two independent generic points via ideal
    membership; the report carries any failing generator.  The answer
    depends only on the scheme, the ideal and the S-polynomial cap, and
    is certified once per process for each of them; H's flag is set and a
    fresh report returned on every call.
    """
    ok, report = _verified(H.scheme, H.ideal, current_spoly_budget())
    H.flags["verified_subgroup"] = ok
    return ok, dict(report)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _verified(scheme: GroupScheme, ideal: Ideal, cap: int) -> tuple[bool, dict]:
    # cap, the S-polynomial cap in force, is read only as the memo's key
    report: dict = {"identity": False, "product": False, "inverse": False}
    id_values = scheme.identity()._values()
    for g in ideal.gens:
        if not g.eval_scalars(id_values).is_zero():
            report["witness"] = f"identity fails {g}"
            return False, report
    report["identity"] = True

    big, u, v, gb = _generic_pair(ideal, scheme)
    nf = reducer(gb, big.order)
    for axiom, point in (("product", scheme.mul_values(u, v)), ("inverse", scheme.inv_values(u))):
        for f in ideal.gens:
            if not nf(_substituted(f, scheme, point, big)).is_zero():
                report["witness"] = f"{axiom} leaves the ideal at {f}"
                return False, report
        report[axiom] = True
    return True, report


# -- conjugation ---------------------------------------------------------------

def _conjugated(scheme: GroupScheme, g: KPoint, ring: PolyRing) -> tuple:
    """g^-1 * X * g as a flat tuple over ring, X the point of coordinate
    variables: entries linear in the coordinates."""
    def lifted(point: KPoint) -> tuple:
        return tuple(ring.from_scalar(c) for c in point.flat())

    x = tuple(ring.var(name) for name in scheme.coordinates())
    return scheme.mul_values(scheme.mul_values(lifted(g.inv()), x), lifted(g))


def conjugate_stab(H: SubgroupDesc, g: KPoint) -> Ideal:
    """The ideal of g H g^-1, as its reduced basis: H's ideal pulled back
    along x -> g^-1 x g."""
    ring = H.ideal.ring
    moved = _conjugated(H.scheme, g, ring)
    return groebner_basis(Ideal(ring, tuple(_substituted(f, H.scheme, moved, ring) for f in H.ideal.gens)))


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
    subgroup with H.dim; named once per process for each scheme, ideal,
    dim and S-polynomial cap."""
    return _classified(H.scheme, H.ideal, H.dim, current_spoly_budget())


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _classified(scheme: GroupScheme, ideal: Ideal, dim: int, cap: int) -> str:
    # cap, the S-polynomial cap in force, is read only as the memo's key
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


def _is_abelian_symbolic(ideal: Ideal, scheme: GroupScheme) -> bool:
    big, u, v, gb = _generic_pair(ideal, scheme)
    uv, vu = scheme.mul_values(u, v), scheme.mul_values(v, u)
    nf = reducer(gb, big.order)
    return all(nf(a - b).is_zero() for a, b in zip(uv, vu))


def _tangent_space(ideal: Ideal, scheme: GroupScheme) -> list[tuple]:
    """A basis of the tangent space at e of V(ideal + the scheme
    equations), the kernel of their Jacobian J(e), each vector a flat
    tuple in coordinates() order.

    The columns of J(e), read off the linear terms of each generator at
    e + X, go into one Echelon in coordinate order; a column j that
    reduces to zero, c_j + sum(a_k c_k) = 0, gives the kernel vector
    e_j + sum(a_k e_k), and these vectors are a basis of the kernel."""
    ring = scheme.coordinate_ring()
    names = scheme.coordinates()
    e = scheme.identity()._values()
    shift = {v: ring.var(v) + ring.from_scalar(e[v]) for v in names}
    units = [ring.var(v).leading_monomial(ring.order) for v in names]
    columns: list[dict] = [{} for _ in names]
    for r, f in enumerate(ideal.gens + tuple(scheme.defining_polys())):
        linear = f.subs_polys(shift, ring).terms
        for j, m in enumerate(units):
            if m in linear:
                columns[j][r] = linear[m]
    ech = Echelon()
    basis = []
    for j, column in enumerate(columns):
        comb = ech.add(column, j)
        if comb is not None:
            comb[j] = ring.field.one()
            basis.append(tuple(comb.get(k, ring.field.zero()) for k in range(len(names))))
    return basis


def _derived_series_stops(tangent: list[tuple], scheme: GroupScheme) -> int:
    """The dimension at which the derived series of the Lie algebra
    spanned by the matrix parts of the tangent vectors stops, 0 when it
    reaches 0.  Each level is spanned by the brackets [a, b] = ab - ba of
    the basis of the one before; the brackets kept as pivots of one
    Echelon are the next level's basis."""
    level = [scheme.shape(v)[0] for v in tangent]
    while level:
        ech = Echelon()
        bracketed = []
        for a, b in combinations(level, 2):
            c = [x - y for x, y in zip(scheme.flatten(mat_mul(a, b)), scheme.flatten(mat_mul(b, a)))]
            if ech.add(c) is None:
                bracketed.append(scheme.shape(c)[0])
        if len(bracketed) >= len(level):
            return len(level)
        level = bracketed
    return 0


def is_solvable(H: SubgroupDesc, frame: Callable[[], KPoint] | None = None) -> SolvabilityResult:
    """Whether H is solvable, by linear algebra on its tangent space
    (Milne, "Algebraic Groups", ch. 10; Borel, "Linear Algebraic Groups",
    section 3).

    Additive and abelian groups are solvable.  Otherwise let h be the
    tangent space at e.  When dim h is H.dim (the scheme equations
    included, or a non-reduced H can pass), H is smooth and h its Lie
    algebra, and [h, h] lies in the Lie algebra of the derived group; so a
    derived series of h that stops above 0 proves H not solvable, in any
    characteristic.  When it reaches 0, H is solvable if it lies in the
    Borel subgroup g B g^-1, B upper triangular: the strictly lower
    entries of g^-1 X g lie in H's ideal plus the scheme equations.  g is
    frame(), called only at this step, or the identity when frame is
    None.  Any other case is inconclusive, None with the reason.
    """
    if not H.flags.get("verified_subgroup"):
        verify_subgroup(H)
        if not H.flags.get("verified_subgroup"):
            return SolvabilityResult(None, "not a verified subgroup")
    scheme = H.scheme
    if scheme.root.kind == "Additive":
        return SolvabilityResult(True, "additive groups are abelian")
    if _is_abelian_symbolic(H.ideal, scheme):
        return SolvabilityResult(True, "abelian")

    tangent = _tangent_space(H.ideal, scheme)
    if len(tangent) != H.dim:
        return SolvabilityResult(None, f"tangent space at e of dimension {len(tangent)}, not {H.dim}")
    stop = _derived_series_stops(tangent, scheme)
    if stop:
        return SolvabilityResult(False, f"the Lie algebra's derived series stops at dimension {stop}")

    ring = scheme.coordinate_ring()
    moved = _conjugated(scheme, frame() if frame is not None else scheme.identity(), ring)
    nf = reducer(_basis(H.ideal, scheme).gens, ring.order)
    n = scheme.root.n
    if all(nf(moved[i * n + j]).is_zero() for i in range(n) for j in range(i)):
        return SolvabilityResult(True, "contained in a Borel subgroup")
    return SolvabilityResult(None, "solvable Lie algebra, but not contained in the frame's Borel subgroup")
