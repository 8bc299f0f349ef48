"""Stabilizer via flat degeneration: the special fiber of V . a(t)^-1.

The translated ideal lives over the series field; a degree-bounded
O-lattice basis is extracted by valuation-pivoted row reduction (each row
Gauss-normalized to minimal valuation zero, residues reduced against the
basis collected so far).  The residues of the lattice basis generate the
special fiber, which splits as finitely many cosets of the stabilizer;
the identity component is extracted through the supported factorization
fragment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branches import Branch, is_centered_at_infinity
from .errors import BudgetExceeded, NotCenteredAtInfinity
from .factor import uni_factor
from .fields import Scalar
from .groups import GroupElement, GroupScheme
from .ideals import (
    Budgets,
    Ideal,
    groebner_basis,
    ideal_contains,
    ideal_equal,
    krull_dim,
)
from .poly import Monomial, Poly, PolyRing, eval_poly, monomials_up_to
from .series import PuiseuxSeries, ScalarDomain
from .subgroups import SubgroupDesc, verify_subgroup


class SeriesPoly:
    """Polynomial in the scheme coordinates with series coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {m: s for m, s in terms.items() if not (s.is_zero() and s.is_exact())}

    @staticmethod
    def constant(ring: PolyRing, s: PuiseuxSeries) -> SeriesPoly:
        return SeriesPoly(ring, {(0,) * ring.nvars: s})

    @staticmethod
    def variable(ring: PolyRing, name: str, dom) -> SeriesPoly:
        mono = tuple(1 if v == name else 0 for v in ring.variables)
        return SeriesPoly(ring, {mono: PuiseuxSeries.one(dom)})

    def __add__(self, other: SeriesPoly) -> SeriesPoly:
        out = dict(self.terms)
        for m, s in other.terms.items():
            out[m] = out[m] + s if m in out else s
        return SeriesPoly(self.ring, out)

    def __mul__(self, other: SeriesPoly) -> SeriesPoly:
        out: dict = {}
        for m1, s1 in self.terms.items():
            for m2, s2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                prod = s1 * s2
                out[m] = out[m] + prod if m in out else prod
        return SeriesPoly(self.ring, out)

    def scale(self, c: Scalar) -> SeriesPoly:
        return SeriesPoly(self.ring, {m: s.scale(c) for m, s in self.terms.items()})

    def shift_val(self, e) -> SeriesPoly:
        return SeriesPoly(self.ring, {m: c.shift(e) for m, c in self.terms.items()})

    def min_val(self):
        """(minimal known valuation, certified).

        The minimum runs over coefficients with a known leading term; it is
        certified when no unknown-tail coefficient could hide anything
        smaller (every such coefficient's precision exceeds the minimum).
        """
        v = None
        floor = None
        for s in self.terms.values():
            if s.terms:
                lv = s.terms[0][0]
                if v is None or lv < v:
                    v = lv
            elif s.precision is not None:
                p = s.precision
                if floor is None or p < floor:
                    floor = p
        if v is None:
            return None, floor is None
        return v, (floor is None or v < floor)

    def residues(self) -> dict[Monomial, Scalar]:
        out = {}
        for m, s in self.terms.items():
            r = s.res()
            if not r.is_zero():
                out[m] = r
        return out

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_exact_zero(self) -> bool:
        return all(s.is_zero() and s.is_exact() for s in self.terms.values())

    def __str__(self):
        parts = [f"({s}) * {m}" for m, s in self.terms.items()]
        return " + ".join(parts) if parts else "0"


def translated_ideal_rows(branch: Branch, V: Ideal, budgets: Budgets) -> tuple[list[SeriesPoly], PolyRing]:
    """Generators of the ideal of V . a^-1 over the series field: substitute
    the symbolic point times a(t) into the generators of V (plus the scheme
    equations, which are translation invariant)."""
    scheme = branch.scheme
    field = scheme.field
    dom = ScalarDomain(field)
    ring = scheme.coordinate_ring()
    names = scheme.coordinates()
    # the symbolic point X times a(t)
    x = tuple(SeriesPoly.variable(ring, name, dom) for name in names)
    a = tuple(SeriesPoly.constant(ring, s) for s in branch.element.flat())
    values = dict(zip(names, scheme.mul_values(x, a)))

    rows: list[SeriesPoly] = []
    gens = list(V.gens) + [g for g in scheme.defining_polys(ring)]
    seen = set()
    for g in gens:
        key = frozenset(g.terms.items())
        if key in seen:
            continue
        seen.add(key)
        row = eval_poly(g, values, lambda c: SeriesPoly.constant(ring, PuiseuxSeries.constant(dom, c)), SeriesPoly(ring, {}))
        if not row.is_exact_zero():
            rows.append(row)
    return rows, ring


@dataclass
class DegenerationResult:
    desc: SubgroupDesc
    fiber: Ideal
    flat_rows: list            # O-lattice basis of the translated ideal
    component_dims: list[int]
    decomposition_complete: bool


def stab_degeneration(branch: Branch, V: Ideal, budgets: Budgets | None = None) -> DegenerationResult:
    """Flat-limit stabilizer: special fiber of the translated variety,
    split into the identity component plus coset components."""
    budgets = budgets or Budgets()
    if not is_centered_at_infinity(branch):
        raise NotCenteredAtInfinity("degeneration requires an unbounded branch")
    base_rows, ring = translated_ideal_rows(branch, V, budgets)
    field = ring.field
    D = budgets.degree_bound

    rows: list[SeriesPoly] = []
    for q in base_rows:
        dq = q.total_degree()
        for mono in monomials_up_to(ring.nvars, max(0, D - dq)):
            if sum(mono) == 0:
                rows.append(q)
            else:
                shifted = SeriesPoly(ring, {tuple(a + b for a, b in zip(m, mono)): s for m, s in q.terms.items()})
                rows.append(shifted)

    basis: list[SeriesPoly] = []
    basis_res: list[dict[Monomial, Scalar]] = []
    pivots: dict[Monomial, int] = {}   # pivot monomial -> basis index

    def mono_key(m: Monomial):
        return (sum(m), m)

    dropped_by_precision = 0
    work = 0
    work_cap = max(budgets.spoly_budget, 80 * max(1, len(rows)))
    for row in rows:
        cur = row
        while True:
            work += 1
            if work > work_cap:
                raise BudgetExceeded("lattice reduction budget exhausted")
            if cur.is_exact_zero():
                break
            v, certified = cur.min_val()
            if v is None:
                if not certified:
                    dropped_by_precision += 1
                break
            if not certified:
                dropped_by_precision += 1
                break
            cur = cur.shift_val(-v)
            res = cur.residues()
            # reduce against pivots; each step removes the smallest monomial
            while res:
                m = min(res, key=mono_key)
                k = pivots.get(m)
                if k is None:
                    break
                lam = res[m]
                cur = cur + basis[k].scale(-lam)
                for bm, bc in basis_res[k].items():
                    nv = res.get(bm, field.zero()) - lam * bc
                    if nv.is_zero():
                        res.pop(bm, None)
                    else:
                        res[bm] = nv
            if res:
                m = min(res, key=mono_key)
                scale = res[m].inv()
                cur = cur.scale(scale)
                res = {bm: bc * scale for bm, bc in res.items()}
                pivots[m] = len(basis)
                basis.append(cur)
                basis_res.append(res)
                break

    fiber_gens = []
    for res in basis_res:
        p = ring.zero()
        for m, c in res.items():
            p = p + ring.monomial(m, c)
        if not p.is_zero():
            fiber_gens.append(p)
    fiber = groebner_basis(Ideal(ring, tuple(fiber_gens)), budget=budgets.spoly_budget)

    comp, cosets, complete = identity_component(fiber, branch.scheme, budgets)
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
            "dropped_rows_precision": dropped_by_precision,
        },
        tuple(cosets),
    )
    verify_subgroup(desc, budgets)
    return DegenerationResult(desc, fiber, basis, dims, complete)


# -- component splitting -------------------------------------------------------

def identity_component(
    fiber: Ideal, scheme: GroupScheme, budgets: Budgets | None = None
) -> tuple[Ideal, list[Ideal], bool]:
    """Split the fiber, an ideal in the scheme's coordinates, through the
    factorization fragment and return the component containing the
    scheme's identity, the other components, and whether the decomposition
    is certified complete."""
    budgets = budgets or Budgets()
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
        gb = groebner_basis(I, budget=budgets.spoly_budget)
        parts, saw_unfactored = _splittable_factors(gb)
        if saw_unfactored:
            complete = False
        if parts is None:
            leaves.append(gb)
            return
        for part in parts:
            J = Ideal(ring, gb.gens + (part,))
            gbJ = groebner_basis(J, budget=budgets.spoly_budget)
            if any(g.is_constant() and not g.is_zero() for g in gbJ.gens):
                continue  # empty piece
            rec(gbJ, depth + 1)

    rec(fiber, 0)
    # drop components contained in others, then deduplicate
    kept: list[Ideal] = []
    for i, I in enumerate(leaves):
        redundant = False
        for j, J in enumerate(leaves):
            if i == j:
                continue
            if ideal_contains(I, J) and not ideal_contains(J, I):
                redundant = True  # V(I) strictly inside V(J)
                break
            if ideal_equal(I, J) and j < i:
                redundant = True
                break
        if not redundant:
            kept.append(I)

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
        raise ValueError("identity does not satisfy the fiber ideal")
    return comp, cosets, complete


def _splittable_factors(gb: Ideal) -> tuple[list[Poly] | None, bool]:
    """A list of proper factors of some generator (None when nothing in the
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
            if len(distinct) >= 2:
                return distinct, saw_unfactored
    return None, saw_unfactored


def verify_flat_rows_at(rows: list[SeriesPoly], point: GroupElement) -> bool:
    """Every lattice generator vanishes at the point up to tracked precision."""
    dom = ScalarDomain(point.scheme.field)
    values = point._values()
    for q in rows:
        out = eval_poly(q, values, lambda s: s, PuiseuxSeries.zero(dom))
        if out.terms:
            return False
    return True
