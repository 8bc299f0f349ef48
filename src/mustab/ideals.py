"""Ideals and Groebner machinery: Buchberger, elimination, membership,
Krull dimension.

Buchberger selects work by the normal strategy (smallest lcm first) with
the input generators entering through the same queue as the S-pairs
(Giovini-Mora-Niesi-Robbiano-Traverso, "One sugar cube, please", 1991):
each generator waits keyed by its leading monomial and, when its turn
comes, is reduced against the basis built so far and joins it only if it
does not reduce to zero, so generators that are redundant cost one
division each and no pairs.  S-pairs are skipped by the coprime-lcm and
chain criteria; the cap of the enclosing `with spoly_budget(n)` block
(else `DEFAULT_SPOLY_BUDGET`) counts the S-polynomials formed, never the
generator reductions, and no function takes it as an argument.  Bases
are returned reduced and monic, under grevlex unless a call names another
order, sorted by leading monomial, so re-running is a fixed point.

Two or more generators whose every term has degree <= 1 skip the queue:
their reduced basis is the reduced row echelon form of the coefficient
matrix whose columns are the generators' monomials, largest in the order
first and the constant last (Cox-Little-O'Shea 2.7), one forward
elimination in `linalg.Echelon` and its back-substitution.  The reduced
basis is unique, so this returns the same Polys as the queue, term order
and cached leading monomial included.  Neither path forms an S-polynomial
on such an input: the reduced generators lead with distinct variables (or
with 1), pairwise coprime, so the cap means the same on both.

Division (Cox-Little-O'Shea 2.3) yields only the remainder, the normal
form: no caller reads the quotients.  It reduces one dict of the remaining
terms in place against a divisor table, one (leading monomial, leading
coefficient, tail) entry per basis element, with the order keys in a memo,
and wraps the remainder by the trusted Poly constructor, with no Poly per
division step.  Whoever divides repeatedly against one basis owns the
table and the memo for as long as it does: a Buchberger run adds one entry
per basis element and keeps one memo through `_interreduce`, and
`reducer(basis, order)` builds both once for every other caller.  Terms
leave the division largest first, so a remainder's first term is its
leading monomial, cached on the Poly as it is built.  No memo outlives the
call that made it.

Each basis is computed once.  An `Ideal` whose generators already are its
reduced basis under some order records that order in `basis_order`:
`groebner_basis` sets it (and returns such an ideal unchanged), and so
does `eliminate` (grevlex, see there).
`ideal_member`, `ideal_contains`, `ideal_equal` and `krull_dim` read the
stored basis instead of running Buchberger again.  `extend_basis` reuses it
when the added polynomials reduce to 0.  The generic pair of
`subgroups.verify_subgroup` obeys two copies of ideal + scheme equations in
disjoint variables u and v; S-pairs across the copies have coprime leading
monomials (Buchberger's first criterion) and grevlex on (u, v) restricted to
one copy is grevlex on the coordinates, so its basis is one basis in the
coordinates copied onto u and onto v.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from contextvars import ContextVar
from operator import add, le, sub

from .errors import BudgetExceeded, EmptyVariety
from .linalg import Echelon
from .poly import GREVLEX, BlockOrder, Monomial, MonomialOrder, Poly, PolyRing
from .records import Frozen, Record

DEFAULT_SPOLY_BUDGET = 10_000
_SPOLY_BUDGET: ContextVar[int] = ContextVar("spoly_budget", default=DEFAULT_SPOLY_BUDGET)


@contextmanager
def spoly_budget(n: int):
    """Cap every Buchberger run inside the block at n S-polynomials; the
    cap before the block is restored when it ends, also when it raises."""
    token = _SPOLY_BUDGET.set(n)
    try:
        yield
    finally:
        _SPOLY_BUDGET.reset(token)


def current_spoly_budget() -> int:
    """The S-polynomial cap Buchberger reads here and now."""
    return _SPOLY_BUDGET.get()


class Ideal(Frozen):
    """An ideal of `ring` given by generators.  `basis_order`, set only in
    this module, names the order under which `gens` already is the reduced
    Groebner basis, sorted by leading monomial; it takes no part in
    equality, hashing or repr."""

    __slots__ = ("ring", "gens", "basis_order")
    _hidden = ("basis_order",)

    def __init__(self, ring: PolyRing, gens: tuple[Poly, ...], basis_order: MonomialOrder | None = None):
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator outside the declared ring")
        self._set(ring, tuple(g for g in gens if not g.is_zero()), basis_order)

    def is_zero(self) -> bool:
        return not self.gens

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.gens) + ">"


def ideal(ring: PolyRing, *gens) -> Ideal:
    out = []
    for g in gens:
        out.append(ring.parse(g) if isinstance(g, str) else g)
    return Ideal(ring, tuple(out))


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _mono_quot(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


class _KeyMemo(dict):
    """Order keys by monomial, each computed on its first lookup; one memo
    serves one Buchberger run or one reducer, and goes with it."""

    def __init__(self, order: MonomialOrder):
        super().__init__()
        self.order_key = order.key

    def __missing__(self, m: Monomial):
        k = self[m] = self.order_key(m)
        return k


def _divisor(g: Poly, order: MonomialOrder) -> tuple:
    """The divisor table entry of g: (leading monomial, the inverse of the
    leading coefficient, the other terms negated, as a list)."""
    lm = g.leading_monomial(order)
    return lm, g.terms[lm].inv(), [(m, -c) for m, c in g.terms.items() if m != lm]


def _remainder(ring: PolyRing, rem: dict, order: MonomialOrder) -> Poly:
    """The Poly over a remainder of `_divide`, whose first term is its
    leading monomial: the terms leave the division in descending order."""
    r = Poly._trusted(ring, rem)
    if rem:
        r._lead = (order, next(iter(rem)))
    return r


def reducer(basis: Iterable[Poly], order: MonomialOrder) -> Callable[[Poly], Poly]:
    """The normal form against basis, as a function of f: the remainder of
    the division of f by basis (Cox-Little-O'Shea 2.3), no term of which
    any leading monomial divides.  The largest remaining monomial is
    reduced by the first divisor, in basis order, whose leading monomial
    divides it, else moved to the remainder.  The divisor table and the
    order keys are built once and serve every call."""
    table = [_divisor(g, order) for g in basis]
    keys = _KeyMemo(order)
    return lambda f: _remainder(f.ring, _divide(f, table, keys), order)


def _divide(f: Poly, table: list[tuple], keys: _KeyMemo) -> dict:
    """The division loop of `reducer` against a table of `_divisor`
    entries: returns the remainder's terms, largest first."""
    rem: dict = {}
    p = dict(f.terms)
    key = keys.__getitem__
    while p:
        m = max(p, key=key)
        c = p.pop(m)
        for lm, inv, tail in table:
            if all(map(le, lm, m)):  # _mono_divides, inlined in the hot loop
                # p -= q x^qm g; the leading term cancels c exactly
                q = c * inv
                qm = _mono_quot(m, lm)
                for tm, tc in tail:
                    mm = tuple(map(add, qm, tm))
                    if mm in p:
                        s = p[mm] + q * tc
                        if s.is_zero():
                            del p[mm]
                        else:
                            p[mm] = s
                    else:
                        p[mm] = q * tc
                break
        else:
            rem[m] = c
    return rem


def s_poly(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    """lcm/lt(f) f - lcm/lt(g) g, built as one dict from the two shifted
    tails: the leading terms cancel exactly."""
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    lcm = _mono_lcm(lf, lg)
    out: dict = {}
    for h, lh, scale in ((f, lf, f.terms[lf].inv()), (g, lg, -g.terms[lg].inv())):
        shift = _mono_quot(lcm, lh)
        for m, c in h.terms.items():
            if m == lh:
                continue
            mm = tuple(map(add, shift, m))
            c = c * scale
            if mm in out:
                c = out[mm] + c
                if c.is_zero():
                    del out[mm]
                    continue
            out[mm] = c
    return Poly._trusted(f.ring, out)


def buchberger(gens: list[Poly], order: MonomialOrder) -> list[Poly]:
    gens = [g for g in gens if not g.is_zero()]
    if len(gens) == 1:
        return [gens[0].monic(order)]  # the reduced basis of a principal ideal
    if gens and all(sum(m) <= 1 for g in gens for m in g.terms):
        return _linear_basis(gens, order)
    keys = _KeyMemo(order)
    basis: list[Poly] = []
    table: list[tuple] = []  # the divisor entry of each basis element
    # an input generator g waits as the pseudo-pair (-1, index), keyed by its
    # leading monomial; S-pairs (i, j) have i >= 0
    heap: list = [(keys[g.leading_monomial(order)], -1, n, None) for n, g in enumerate(gens)]
    heapq.heapify(heap)

    def insert(f: Poly):
        r = _remainder(f.ring, _divide(f, table, keys), order)
        if r.is_zero():
            return
        basis.append(r.monic(order))
        table.append(_divisor(basis[-1], order))
        new = len(basis) - 1
        lm_new = table[new][0]
        for k in range(new):
            lcm = _mono_lcm(table[k][0], lm_new)
            heapq.heappush(heap, (keys[lcm], k, new, lcm))

    budget = _SPOLY_BUDGET.get()
    processed = 0
    handled: set[tuple[int, int]] = set()
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        if i < 0:
            insert(gens[j])
            continue
        handled.add((i, j))
        if lcm == tuple(map(add, table[i][0], table[j][0])):
            continue  # coprime leading monomials
        chain = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _mono_divides(table[k][0], lcm):
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in handled and p2 in handled:
                    chain = True
                    break
        if chain:
            continue
        processed += 1
        if processed > budget:
            raise BudgetExceeded(f"S-polynomial budget {budget} exceeded")
        insert(s_poly(basis[i], basis[j], order))
    return _interreduce(basis, order, keys)


def _linear_basis(gens: list[Poly], order: MonomialOrder) -> list[Poly]:
    """The reduced basis of an ideal generated in degree <= 1: the reduced
    row echelon form of the coefficient matrix whose columns are the
    monomials of the generators, largest in `order` first, so that the
    constant, if present, comes last."""
    ring = gens[0].ring
    monos = sorted({m for g in gens for m in g.terms}, key=order.key, reverse=True)
    column = {m: c for c, m in enumerate(monos)}
    ech = Echelon()
    for g in gens:
        ech.add({column[m]: c for m, c in g.terms.items()})
    rows = ech.reduced()
    one = ring.field.one()
    constant = column.get((0,) * ring.nvars)
    if constant in rows:  # 1 is in the ideal
        rows = {constant: {}}
    basis = []
    for c, tail in reversed(rows.items()):
        g = Poly._trusted(ring, {monos[c]: one, **{monos[j]: tail[j] for j in sorted(tail)}})
        g._lead = (order, monos[c])
        basis.append(g)
    return basis


def _interreduce(basis: list[Poly], order: MonomialOrder, keys: _KeyMemo) -> list[Poly]:
    # minimal basis: smaller leading monomials can only divide larger ones,
    # so one ascending pass suffices
    basis = sorted(basis, key=lambda g: keys[g.leading_monomial(order)])
    kept: list[tuple] = []  # divisor entries of the minimal basis
    polys: list[Poly] = []
    for g in basis:
        lm = g.leading_monomial(order)
        if any(_mono_divides(h[0], lm) for h in kept):
            continue
        kept.append(_divisor(g, order))
        polys.append(g)
    reduced = []
    for i, g in enumerate(polys):
        others = kept[:i] + kept[i + 1:]
        r = _remainder(g.ring, _divide(g, others, keys), order) if others else g
        if not r.is_zero():
            reduced.append(r.monic(order))
    return sorted(reduced, key=lambda g: keys[g.leading_monomial(order)])


def groebner_basis(I: Ideal, order: MonomialOrder = GREVLEX) -> Ideal:
    if I.basis_order is order:
        return I
    return Ideal(I.ring, tuple(buchberger(list(I.gens), order)), order)


def extend_basis(I: Ideal, extra: list[Poly]) -> Ideal:
    """The reduced basis of I + <extra> under the ring's order; I itself
    when it is marked as that basis and every extra reduces to 0 by it."""
    if I.basis_order is GREVLEX:
        nf = reducer(list(I.gens), GREVLEX)
        if all(nf(f).is_zero() for f in extra):
            return I
    return groebner_basis(Ideal(I.ring, I.gens + tuple(extra)))


def ideal_member(f: Poly, I: Ideal) -> bool:
    """Whether f lies in I: its normal form against the reduced basis is 0."""
    return reducer(groebner_basis(I).gens, GREVLEX)(f).is_zero()


def ideal_contains(I: Ideal, J: Ideal) -> bool:
    """True when every generator of J lies in I."""
    nf = reducer(groebner_basis(I).gens, GREVLEX)
    return all(nf(g).is_zero() for g in J.gens)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    return ideal_contains(I, J) and ideal_contains(J, I)


def eliminate(I: Ideal, drop: tuple[str, ...] | list[str]) -> Ideal:
    """Generators of I intersected with the subring omitting `drop`.

    Returns an ideal over the restricted ring, as its reduced grevlex
    basis.  Dropping nothing returns the reduced grevlex basis of I.
    """
    drop = tuple(drop)
    for v in drop:
        if v not in I.ring.variables:
            raise ValueError(f"{v!r} is not a ring variable")
    if not drop:
        return groebner_basis(I)
    keep = tuple(v for v in I.ring.variables if v not in drop)
    first = tuple(I.ring.variables.index(v) for v in drop)
    second = tuple(I.ring.variables.index(v) for v in keep)
    order = BlockOrder(first, second)
    gb = buchberger(list(I.gens), order)
    target = PolyRing(I.ring.field, keep)
    kept = [g.restrict(target) for g in gb if not (g.variables_used() & set(drop))]
    # the second block compares by grevlex, so the kept elements are the
    # reduced grevlex basis of the elimination ideal, in the same order
    return Ideal(target, tuple(kept), GREVLEX)


def krull_dim(I: Ideal) -> int:
    """Krull dimension of V(I) from independent variable sets modulo the
    leading-term ideal."""
    gb = groebner_basis(I).gens
    if any(g.is_constant() and not g.is_zero() for g in gb):
        raise EmptyVariety("ideal contains a unit")
    return _dim_from_leading_monomials([g.leading_monomial(GREVLEX) for g in gb], I.ring.nvars)


def _dim_from_leading_monomials(lead_monos, nvars: int) -> int:
    """Size of the largest variable set that contains the support of no
    leading monomial, the Krull dimension of the monomial ideal: nvars less
    the fewest variables that meet every support (Kredel-Weispfenning,
    J. Symb. Comput. 1988).  A constant leading monomial gives 0."""
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lead_monos]
    if not all(supports):
        return 0
    return nvars - _fewest_meeting(supports, nvars + 1)


def _fewest_meeting(unmet: list[frozenset], bound: int) -> int:
    """min(bound, the fewest variables meeting every set in unmet), by
    branching on the variables of the smallest set, one of which it holds."""
    if not unmet:
        return 0
    for v in min(unmet, key=len):
        if bound <= 1:
            break
        bound = min(bound, 1 + _fewest_meeting([s for s in unmet if v not in s], bound - 1))
    return bound


class Budgets(Record):
    """Work caps shared across the pipeline, but for `spoly_budget`.
    degree_bound is accepted and echoed in a report's budget_usage; no
    computation reads it."""

    __slots__ = ("precision", "degree_bound", "order_budget")

    def __init__(self, precision: int = 12, degree_bound: int = 8, order_budget: int = 6):
        self.precision = precision
        self.degree_bound = degree_bound
        self.order_budget = order_budget
