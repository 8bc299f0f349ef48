"""Sparse multivariate polynomials over an exact field.

Monomials are exponent tuples aligned with the ring's variable list.
Every ring's order is grevlex; lex and block orders for elimination are
chosen per call.  Polynomials parse from and print to the ASCII grammar
`c*x^e*y^f` with terms joined by `+`/`-` and scalars written `a/b`,
`a+b*sqrt(d)` or integers mod p.
"""

from __future__ import annotations

import re
from itertools import takewhile
from operator import add, itemgetter

from .errors import FieldMismatch
from .fields import FieldSpec, Scalar, pow_by_squaring
from .records import Frozen

Monomial = tuple[int, ...]


class MonomialOrder:
    """Total order on monomials, exposed as a sort key (bigger = leading).

    Keys are flat int tuples (Lex returns the monomial itself), compared
    only between monomials of one ring.  Each entry of a key is a sum of
    exponents, all with one sign, and each variable has an entry of its
    own: ideals.py packs keys of that shape into ints."""

    def key(self, m: Monomial):
        raise NotImplementedError


class Lex(MonomialOrder):
    def key(self, m: Monomial):
        return m


class GrevLex(MonomialOrder):
    """Total degree, then the smaller exponent of the last variable wins:
    the key is (degree, -m[n-1], ..., -m[0])."""

    def key(self, m: Monomial):
        return (sum(m), *[-e for e in reversed(m)])


def _reversed_picker(indices: tuple[int, ...]):
    """m -> the tuple of m's exponents at indices, last index first.  An
    itemgetter of one index returns a scalar, so blocks of at most one
    index take a slice instead."""
    if len(indices) > 1:
        return itemgetter(*reversed(indices))
    i = indices[0] if indices else 0
    return itemgetter(slice(i, i + len(indices)))


class BlockOrder(MonomialOrder):
    """Block order: grevlex on the `first` indices, then grevlex on the
    `second`; the key is the two grevlex keys concatenated.

    Standard elimination order: monomials touching the first block dominate,
    so a Groebner basis element free of the first block is first-block free
    in every term.
    """

    def __init__(self, first: tuple[int, ...], second: tuple[int, ...]):
        self.first = first
        self.second = second
        self._first = _reversed_picker(first)
        self._second = _reversed_picker(second)

    def key(self, m: Monomial):
        a = self._first(m)
        b = self._second(m)
        return (sum(a), *[-e for e in a], sum(b), *[-e for e in b])

    # one order per pair of blocks, so that ideals.py packs each once
    def __eq__(self, other):
        return isinstance(other, BlockOrder) and (self.first, self.second) == (other.first, other.second)

    def __hash__(self):
        return hash((self.first, self.second))


# one instance of each, so a leading monomial cached under it (Poly._lead,
# keyed by identity) serves every later ask
LEX = Lex()
GREVLEX = GrevLex()


class PolyRing(Frozen):
    __slots__ = ("field", "variables")

    order = GREVLEX  # every ring's order

    def __init__(self, field: FieldSpec, variables: tuple[str, ...]):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self._set(field, variables)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.from_scalar(self.field.one())

    def from_scalar(self, c: Scalar) -> Poly:
        self._check_scalar(c)
        if c.is_zero():
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def _check_scalar(self, c: Scalar):
        if c.field is not self.field and c.field != self.field:
            raise FieldMismatch(f"{c.field} scalar in a ring over {self.field}")

    def from_int(self, n: int) -> Poly:
        return self.from_scalar(self.field.from_int(n))

    @property
    def char(self) -> int:
        return self.field.char

    def var(self, name: str) -> Poly:
        i = self.variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {mono: self.field.one()})

    def monomial(self, mono: Monomial, coeff: Scalar | None = None) -> Poly:
        c = coeff if coeff is not None else self.field.one()
        if c.is_zero():
            return self.zero()
        return Poly(self, {tuple(mono): c})

    def parse(self, text: str) -> Poly:
        return parse_poly(text, self)


class Poly:
    """Immutable sparse polynomial; terms maps exponent tuples to nonzero
    scalars.

    The public constructor drops zero coefficients; `_trusted` keeps a dict
    the caller built without zeros.  `_lead` caches (order, leading
    monomial) for the last order asked, reused only for that same object;
    `monic` and the division remainders of ideals.py set it when they build
    the Poly, since they already know it.
    """

    __slots__ = ("ring", "terms", "_hash", "_lead")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}
        self._hash = None
        self._lead = None

    @classmethod
    def _trusted(cls, ring: PolyRing, terms: dict) -> Poly:
        """A Poly over `terms`, which has no zero coefficient; the dict is
        kept, not copied."""
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        p._hash = None
        p._lead = None
        return p

    # -- basic structure -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_coefficient(self) -> Scalar:
        return self.terms.get((0,) * self.ring.nvars, self.ring.field.zero())

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def variables_used(self) -> set[str]:
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.ring.variables[i])
        return used

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def _check(self, other: Poly):
        if self.ring is not other.ring and self.ring != other.ring:
            raise FieldMismatch(f"polynomial rings differ: {self.ring} vs {other.ring}")

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return Poly._trusted(self.ring, out)

    def __neg__(self):
        return Poly._trusted(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if other.__class__ is Scalar:
            self.ring._check_scalar(other)
            return self.scale(other)
        other = self._coerce(other)
        self._check(other)
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                # over a field a product of nonzero scalars is nonzero
                c = c1 * c2
                if m in out:
                    s = out[m] + c
                    if s.is_zero():
                        del out[m]
                    else:
                        out[m] = s
                else:
                    out[m] = c
        return Poly._trusted(self.ring, out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        return pow_by_squaring(self, e, self.ring.one())

    def scale(self, c: Scalar) -> Poly:
        if c.is_zero():
            return self.ring.zero()
        return Poly._trusted(self.ring, {m: co * c for m, co in self.terms.items()})

    def _coerce(self, other) -> Poly:
        if isinstance(other, Poly):
            return other
        if isinstance(other, Scalar):
            return self.ring.from_scalar(other)
        if isinstance(other, int):
            return self.ring.from_int(other)
        raise TypeError(f"cannot coerce {other!r} into {self.ring}")

    # -- leading data ----------------------------------------------------
    def leading_monomial(self, order: MonomialOrder) -> Monomial:
        lead = self._lead
        if lead is not None and lead[0] is order:
            return lead[1]
        m = max(self.terms, key=order.key)
        self._lead = (order, m)
        return m

    def leading_coefficient(self, order: MonomialOrder) -> Scalar:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder) -> Poly:
        if self.is_zero():
            return self
        out = self.scale(self.leading_coefficient(order).inv())
        out._lead = self._lead  # scaling keeps the leading monomial
        return out

    def sorted_terms(self, order: MonomialOrder | None = None):
        order = order or self.ring.order
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    # -- evaluation / substitution ----------------------------------------
    def eval_scalars(self, values: dict[str, Scalar]) -> Scalar:
        return eval_poly(self, values, lambda c: c, self.ring.field.zero())

    def subs_polys(self, values: dict[str, Poly], target: PolyRing) -> Poly:
        """Substitute polynomials (in `target`) for variables."""
        return eval_poly(self, values, target.from_scalar, target.zero())

    def rename(self, mapping: dict[str, str], target: PolyRing) -> Poly:
        """Transport into `target` by renaming variables; a variable that
        target lacks may only have exponent 0."""
        where = {v: i for i, v in enumerate(target.variables)}
        names = [mapping.get(v, v) for v in self.ring.variables]
        index = [where.get(name) for name in names]
        out = {}
        for m, c in self.terms.items():
            mono = [0] * target.nvars
            for i, e in enumerate(m):
                if e:
                    j = index[i]
                    if j is None:
                        raise ValueError(f"{names[i]!r} is not a variable of {target.variables}")
                    mono[j] = e
            out[tuple(mono)] = c
        return Poly(target, out)

    def restrict(self, target: PolyRing) -> Poly:
        """Transport into a ring whose variables are a superset of those used."""
        return self.rename({}, target)

    # -- printing ----------------------------------------------------------
    def __str__(self):
        return self.text(self.ring.variables)

    def text(self, names: tuple[str, ...]) -> str:
        """The polynomial printed with names[i] for its i-th variable."""
        if self.is_zero():
            return "0"
        field = self.ring.field
        one, minus_one = field.one(), -field.one()
        parts = []
        for m, c in self.sorted_terms():
            mono_parts = []
            for i, e in enumerate(m):
                if e == 1:
                    mono_parts.append(names[i])
                elif e > 1:
                    mono_parts.append(f"{names[i]}^{e}")
            cs = str(c)
            if mono_parts:
                if c == one:
                    body = "*".join(mono_parts)
                elif c == minus_one and field.char == 0:
                    body = "-" + "*".join(mono_parts)
                else:
                    coeff = cs if _scalar_is_atomic(cs) else f"({cs})"
                    body = coeff + "*" + "*".join(mono_parts)
            else:
                body = cs if _scalar_is_atomic(cs) else f"({cs})"
            parts.append(body)
        text = parts[0]
        for part in parts[1:]:
            text += " - " + part[1:] if part.startswith("-") else " + " + part
        return text

    def __repr__(self):
        return f"Poly({self})"


def _scalar_is_atomic(s: str) -> bool:
    core = s[1:] if s.startswith("-") else s
    return "+" not in core and "-" not in core


def eval_poly(p, values: dict, lift, acc):
    """acc + p(values) with coefficients lift(c), by + and * only: Poly and truncated series have no exact division."""
    # p is a Poly or anything with `terms` and `ring`.  Each power v^e is
    # built once, as v^(e-1) * v, and every term multiplies lift(c) by the
    # powers it needs.  A product of truncated series has the precision and
    # the known terms of the same product in any grouping.
    names = p.ring.variables
    powers: dict[int, list] = {}  # variable index -> [v, v^2, ...], grown on demand
    for m, c in p.terms.items():
        term = lift(c)
        for i, e in enumerate(m):
            if e == 1:
                term = term * values[names[i]]
            elif e:
                pw = powers.get(i) or powers.setdefault(i, [values[names[i]]])
                while len(pw) < e:
                    pw.append(pw[-1] * pw[0])
                term = term * pw[e - 1]
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# parsing: small recursive-descent evaluator over the term grammar
# ---------------------------------------------------------------------------

# whitespace, then an operator, an ASCII number or name that ends its run
# of word characters (str.isalnum or "_"), any other run, which _words
# splits, or a character no token starts with; trailing whitespace is left.
# re compiles it on first use, which keeps it out of the import.
_TOKEN = r"\s*(?:([-+*/^()]|[0-9]+(?!\w)|[A-Za-z_]\w*)|(\w+)|(\S))"


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[str] = []
        for tok, word, other in re.findall(_TOKEN, text):
            if other:
                raise ValueError(f"unexpected character {other!r} in {text!r}")
            self.toks += (tok,) if tok else _words(word, text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")


def _words(word: str, text: str) -> list[str]:
    """The tokens of a run of word characters: a number, its longest
    prefix of str.isdigit characters, and a name, the rest of the run,
    which must start with a letter or "_"."""
    number = "".join(takewhile(str.isdigit, word))
    name = word[len(number):]
    if name and not (name[0].isalpha() or name[0] == "_"):
        raise ValueError(f"unexpected character {name[0]!r} in {text!r}")
    return [t for t in (number, name) if t]


def parse_poly(text: str, ring: PolyRing) -> Poly:
    toks = _Tokens(text)
    value = _parse_sum(toks, ring)
    if toks.peek() is not None:
        raise ValueError(f"trailing input {toks.peek()!r} in {text!r}")
    return value


def _parse_sum(toks: _Tokens, ring: PolyRing) -> Poly:
    sign = 1
    while toks.peek() in ("+", "-"):
        if toks.next() == "-":
            sign = -sign
    acc = _parse_product(toks, ring)
    if sign < 0:
        acc = -acc
    while toks.peek() in ("+", "-"):
        sign = 1
        while toks.peek() in ("+", "-"):
            if toks.next() == "-":
                sign = -sign
        term = _parse_product(toks, ring)
        acc = acc + (term if sign > 0 else -term)
    return acc


def _parse_product(toks: _Tokens, ring: PolyRing) -> Poly:
    acc = _parse_power(toks, ring)
    while toks.peek() in ("*", "/"):
        op = toks.next()
        rhs = _parse_power(toks, ring)
        if op == "*":
            acc = acc * rhs
        else:
            if not rhs.is_constant():
                raise ValueError("division only by constants")
            acc = acc.scale(rhs.constant_coefficient().inv())
    return acc


def _parse_power(toks: _Tokens, ring: PolyRing) -> Poly:
    base = _parse_atom(toks, ring)
    if toks.peek() == "^":
        toks.next()
        neg = False
        if toks.peek() == "-":
            toks.next()
            neg = True
        e = int(toks.next())
        if neg:
            raise ValueError("negative exponents are not polynomial")
        return base**e
    return base


def _parse_atom(toks: _Tokens, ring: PolyRing) -> Poly:
    tok = toks.next()
    if tok == "(":
        inner = _parse_sum(toks, ring)
        toks.expect(")")
        return inner
    if tok == "sqrt":
        toks.expect("(")
        tok = toks.next()
        d = -int(toks.next()) if tok == "-" else int(tok)
        toks.expect(")")
        if ring.field.kind != "QSqrt" or ring.field.d != d:
            raise ValueError(f"sqrt({d}) does not live in {ring.field}")
        return ring.from_scalar(ring.field.generator())
    if tok == "w" and ring.field.kind == "Fq" and "w" not in ring.variables:
        return ring.from_scalar(ring.field.generator())
    if tok.isdigit():
        return ring.from_int(int(tok))
    if tok in ring.variables:
        return ring.var(tok)
    raise ValueError(f"unknown symbol {tok!r} for ring in {ring.variables}")


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    """The scalar the grammar reads in text, over field.  An integer or a
    fraction a/b in ASCII digits, with at most a "-" in front, skips the
    parser, with the same value and, where b is 0 in the field, the same
    error."""
    a, slash, b = text.removeprefix("-").partition("/")
    if not (_is_digits(a) and (not slash or _is_digits(b))):
        return parse_poly(text, PolyRing(field, ())).constant_coefficient()
    c = field.from_int(int(a))
    if slash:
        c = c * field.from_int(int(b)).inv()
    return -c if text[0] == "-" else c


def _is_digits(s: str) -> bool:
    return s.isascii() and s.isdecimal()
