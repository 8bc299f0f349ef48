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
form: no caller reads the quotients.  Inside the kernel (Buchberger,
`_interreduce`, `reducer` and the division loop) a monomial is one int,
the order's key written in base 2^64 (`_Packer`): a product is an int
addition, the leading term is a plain `max`, and divisibility is one
addition and one mask test (Monagan-Pearce, CASC 2007; Bachmann-
Schoenemann, ISSAC 1998).  Polys, Ideals and every public signature keep
tuple monomials; they are packed on the way in and unpacked on the way
out, by one packer per (order, number of variables, digit width), built
on first use, whose memos are bounded.  Exponents are unbounded: a
monomial that outgrows the digits raises `_Overflow`, and the whole call
runs again with digits twice as wide, so no exponent size changes an
answer.  The division reduces one dict of the remaining terms in place
against a divisor table, one (divisibility offset, inverse of the leading
coefficient, tail relative to the leading monomial) entry per basis
element, with no Poly per division step.  A Buchberger run adds one entry
per basis element, and `reducer(basis, order)` builds its table once for
every normal form it serves.  Terms leave the division largest first, so
a remainder's first term is its leading monomial, cached on the Poly as
it is built.

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
from operator import attrgetter, mul

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


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


class _Overflow(Exception):
    """A monomial outgrew its packer's digits; the caller repacks wider."""


_WIDTH = 64  # bits per digit of the first packer
_MARGIN = 22  # bits of growth left above the largest packed input degree
_MEMO_CAP = 512  # monomials per packer memo
_PACKER_CAP = 16
_PACKERS: dict = {}


def _packer(order: MonomialOrder, nvars: int, width: int) -> _Packer:
    """The packer of order on nvars variables with width-bit digits, built
    on first use and kept while few others are."""
    key = (order, nvars, width)
    pk = _PACKERS.get(key)
    if pk is None:
        if len(_PACKERS) >= _PACKER_CAP:
            _PACKERS.clear()
        pk = _PACKERS[key] = _Packer(order, nvars, width)
    return pk


def _widening(run: Callable[[int], object], width: int = _WIDTH):
    """run(width), run again with digits twice as wide while it raises
    _Overflow: no exponent size changes an answer."""
    while True:
        try:
            return run(width)
        except _Overflow:
            width *= 2


class _Packer:
    """Monomials of one order in nvars variables, one int each.

    The order's key (Lex: m; GrevLex: (deg, -e_n, ..., -e_1); BlockOrder:
    both blocks' keys) is linear in the exponents, each of its digits a sum
    of exponents with one sign.  Written in base 2^width with digits below
    2^(width-1) in absolute value, it is the int sum(e_i * weights[i]):
    a product of monomials is an int addition, and comparing ints compares
    keys digit by digit (Monagan-Pearce, CASC 2007).  Adding `off` (2^(width-1)
    to a digit of sign +, one less to a digit of sign -) turns every digit of
    a difference of two monomials into a width-bit number without borrows,
    so a | b is one add and one mask test on the top bit of one digit per
    variable, ((b - a + off) & mask) == want (Bachmann-Schoenemann,
    ISSAC 1998).

    A monomial is sound while each digit stays below 2^(width-2) in
    absolute value: then a product of two has exact digits.  `pack` takes
    only total degrees below `limit`, _MARGIN bits lower, and `_divide`
    tests each monomial it takes, ((m + off) & guard) == sound, and
    raises _Overflow at the first that is not.  The memos of both
    directions hold at most _MEMO_CAP monomials."""

    __slots__ = ("width", "limit", "weights", "off", "mask", "want", "guard", "sound", "fields", "_ints", "_monos")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        ndigits = len(order.key((0,) * nvars))
        shift = [width * (ndigits - 1 - k) for k in range(ndigits)]
        # each variable's key as its nonzero (digit, coefficient) pairs
        columns = []
        for i in range(nvars):
            unit = [0] * nvars
            unit[i] = 1
            columns.append([(k, c) for k, c in enumerate(order.key(tuple(unit))) if c])
        sign, readers = [1] * ndigits, [0] * ndigits
        for col in columns:
            for k, c in col:
                readers[k] += 1
                if c < 0:
                    sign[k] = -1
        if any(c != sign[k] for col in columns for k, c in col):
            raise ValueError("the order's key is not a sum of exponents with one sign per digit")
        half, quarter = 1 << (width - 1), 1 << (width - 2)
        offsets = [half if g > 0 else half - 1 for g in sign]
        self.width, self.limit = width, 1 << (width - 2 - _MARGIN)
        self.weights = [sum(c << shift[k] for k, c in col) for col in columns]
        self.off = sum(o << s for o, s in zip(offsets, shift))
        self.guard = sum((half | quarter) << s for s in shift)
        self.sound = sum((half if g > 0 else quarter) << s for g, s in zip(sign, shift))
        # per variable, a digit that holds its exponent alone: (shift, sign, offset)
        self.fields = []
        for col in columns:
            k = next(k for k, _ in col if readers[k] == 1)
            self.fields.append((shift[k], sign[k], offsets[k]))
        self.mask = sum(half << s for s, _, _ in self.fields)
        self.want = sum(half << s for s, g, _ in self.fields if g > 0)
        self._ints: dict = {}
        self._monos: dict = {}

    def pack(self, m: Monomial) -> int:
        k = self._ints.get(m)
        if k is None:
            if sum(m) >= self.limit:
                raise _Overflow
            k = sum(map(mul, m, self.weights))
            self._remember(m, k)
        return k

    def unpack(self, k: int) -> Monomial:
        m = self._monos.get(k)
        if m is None:
            u, low = k + self.off, (1 << self.width) - 1
            m = tuple(g * (((u >> s) & low) - o) for s, g, o in self.fields)
            self._remember(m, k)
        return m

    def _remember(self, m: Monomial, k: int):
        if len(self._ints) >= _MEMO_CAP:
            self._ints.clear()
            self._monos.clear()
        self._ints[m] = k
        self._monos[k] = m

    def divides(self, a: int, b: int) -> bool:
        return (b - a + self.off) & self.mask == self.want

    def packed(self, f: Poly) -> dict:
        """f's terms by packed monomial."""
        pack = self.pack
        return {pack(m): c for m, c in f.terms.items()}

    def poly(self, ring: PolyRing, terms: dict, order: MonomialOrder | None = None) -> Poly:
        """The Poly over packed terms, with its leading monomial under
        order cached when an order is given."""
        unpack = self.unpack
        p = Poly._trusted(ring, {unpack(m): c for m, c in terms.items()})
        if order is not None and terms:
            p._lead = (order, unpack(max(terms)))
        return p


class _Packed:
    """A polynomial inside the kernel: its packed terms, its leading
    monomial packed (`key`) and as a tuple (`lead`), and its divisor entry
    (off - key, the inverse of the leading coefficient, and the other terms
    as (monomial - key, -coefficient)), so that m + (off - key) tests
    divisibility and m + (t - key) is the product of t with m / key."""

    __slots__ = ("packer", "terms", "key", "lead", "divisor")

    def __init__(self, terms: dict, packer: _Packer):
        key = max(terms)
        self.packer, self.terms, self.key, self.lead = packer, terms, key, packer.unpack(key)
        self.divisor = (packer.off - key, terms[key].inv(), [(m - key, -c) for m, c in terms.items() if m != key])


def _monic(terms: dict) -> dict:
    inv = terms[max(terms)].inv()
    return {m: c * inv for m, c in terms.items()}


def reducer(basis: Iterable[Poly], order: MonomialOrder) -> Callable[[Poly], Poly]:
    """The normal form against basis, as a function of f: the remainder of
    the division of f by basis (Cox-Little-O'Shea 2.3), no term of which
    any leading monomial divides.  The largest remaining monomial is
    reduced by the first divisor, in basis order, whose leading monomial
    divides it, else moved to the remainder.  The divisor table is built
    once, and again with wider digits only if some f needs them."""
    basis = list(basis)
    made: list = [None, None]  # the packer and its divisor table

    def run(f: Poly, width: int) -> Poly:
        pk = _packer(order, f.ring.nvars, width)
        if made[0] is not pk:
            made[1] = [_Packed(pk.packed(g), pk).divisor for g in basis]
            made[0] = pk
        return pk.poly(f.ring, _divide(pk.packed(f), made[1], pk), order)

    return lambda f: _widening(lambda w: run(f, w), made[0].width if made[0] else _WIDTH)


def _divide(p: dict, table: list[tuple], pk: _Packer) -> dict:
    """The division loop of `reducer` on the packed terms p (consumed)
    against a table of `_Packed` divisor entries: returns the remainder's
    terms, largest first."""
    rem: dict = {}
    off, guard, sound, mask, want = pk.off, pk.guard, pk.sound, pk.mask, pk.want
    while p:
        m = max(p)
        if (m + off) & guard != sound:
            raise _Overflow
        c = p.pop(m)
        for lmo, inv, tail in table:
            if (m + lmo) & mask == want:
                # p -= q x^(m - lm) g; the leading term cancels c exactly
                q = c * inv
                for r, tc in tail:
                    mm = m + r
                    old = p.get(mm)
                    if old is None:
                        p[mm] = q * tc
                    else:
                        s = old + q * tc
                        if s.is_zero():
                            del p[mm]
                        else:
                            p[mm] = s
                break
        else:
            rem[m] = c
    return rem


def s_poly(f: Poly | _Packed, g: Poly | _Packed, order: MonomialOrder) -> Poly | dict:
    """lcm/lt(f) f - lcm/lt(g) g, built as one dict from the two shifted
    tails: the leading terms cancel exactly.  Polys give a Poly; Buchberger
    passes its `_Packed` basis elements and gets packed terms."""
    if isinstance(f, _Packed):
        return _shifted_tails(f, g)

    def run(width: int) -> Poly:
        pk = _packer(order, f.ring.nvars, width)
        return pk.poly(f.ring, _shifted_tails(_Packed(pk.packed(f), pk), _Packed(pk.packed(g), pk)))

    return _widening(run)


def _shifted_tails(f: _Packed, g: _Packed) -> dict:
    """The packed terms of `s_poly` of two packed polynomials."""
    lcm = f.packer.pack(_mono_lcm(f.lead, g.lead))
    out: dict = {}
    for h, scale in ((f, -f.divisor[1]), (g, g.divisor[1])):
        for r, c in h.divisor[2]:
            mm = lcm + r
            c = c * scale
            if mm in out:
                c = out[mm] + c
                if c.is_zero():
                    del out[mm]
                    continue
            out[mm] = c
    return out


def buchberger(gens: list[Poly], order: MonomialOrder) -> list[Poly]:
    gens = [g for g in gens if not g.is_zero()]
    if len(gens) == 1:
        return [gens[0].monic(order)]  # the reduced basis of a principal ideal
    if not gens:
        return []
    if all(sum(m) <= 1 for g in gens for m in g.terms):
        return _linear_basis(gens, order)
    return _widening(lambda width: _buchberger(gens, order, _packer(order, gens[0].ring.nvars, width)))


def _buchberger(gens: list[Poly], order: MonomialOrder, pk: _Packer) -> list[Poly]:
    polys = [pk.packed(g) for g in gens]
    basis: list[_Packed] = []
    table: list[tuple] = []  # the divisor entry of each basis element
    # an input generator waits as the pseudo-pair (-1, index), keyed by its
    # leading monomial; S-pairs (i, j) have i >= 0
    heap: list = [(max(p), -1, n) for n, p in enumerate(polys)]
    heapq.heapify(heap)

    def insert(p: dict):
        r = _divide(p, table, pk)
        if not r:
            return
        new = _Packed(_monic(r), pk)
        for k, b in enumerate(basis):
            heapq.heappush(heap, (pk.pack(_mono_lcm(b.lead, new.lead)), k, len(basis)))
        basis.append(new)
        table.append(new.divisor)

    budget = _SPOLY_BUDGET.get()
    mask, want = pk.mask, pk.want
    processed = 0
    handled: set[tuple[int, int]] = set()
    while heap:
        lcm, i, j = heapq.heappop(heap)
        if i < 0:
            insert(polys[j])
            continue
        handled.add((i, j))
        if lcm == basis[i].key + basis[j].key:
            continue  # coprime leading monomials
        chain = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (lcm + table[k][0]) & mask == want:  # lm_k divides lcm
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
    return _interreduce(gens[0].ring, order, basis, pk)


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


def _interreduce(ring: PolyRing, order: MonomialOrder, basis: list[_Packed], pk: _Packer) -> list[Poly]:
    """The reduced basis of the ideal whose Groebner basis is `basis`, as
    monic Polys sorted by leading monomial, each carrying it."""
    # minimal basis: smaller leading monomials can only divide larger ones,
    # so one ascending pass suffices
    kept: list[_Packed] = []
    for g in sorted(basis, key=attrgetter("key")):
        if not any(pk.divides(h.key, g.key) for h in kept):
            kept.append(g)
    reduced = []
    for i, g in enumerate(kept):
        others = [h.divisor for h in kept[:i] + kept[i + 1:]]
        r = _divide(dict(g.terms), others, pk) if others else g.terms
        if r:
            reduced.append(_monic(r))
    reduced.sort(key=max)
    return [pk.poly(ring, r, order) for r in reduced]


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
    """Whether I and J are one ideal: two reduced bases under one order
    are equal exactly when the ideals are, since each is unique and sorted
    by leading monomial; otherwise containment both ways."""
    if I.basis_order is not None and I.basis_order is J.basis_order and I.ring == J.ring:
        return I.gens == J.gens
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
