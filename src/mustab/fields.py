"""Exact coefficient fields: a prime field k (Q or F_p) and one simple
extension k[w]/(m) of it, spelled Q(sqrt d) = Q[w]/(w^2 - d) or F_q.

A FieldSpec names the field; a Scalar pairs a spec with a canonical rep (see
Scalar) and is built by one trusted constructor, `_make`, as
`exponents._make` builds exponents; `_make` hands out the Scalar the field
has interned for that rep when there is one.  An extension element is a
trimmed int coefficient tuple over one shared denominator, and every
extension has one multiply-and-reduce (an integer convolution reduced by
the monic integer modulus), one inverse (the extended Euclidean algorithm
over k) and one canonicalisation, `_lowest`, the only step that differs
by base field.  All arithmetic is exact.  An F_q modulus is proved
irreducible by `factor.uni_factor`.  A k-th root over a finite field,
k = 2 included, is decided by a power test; the roots are one root, found
prime by prime of gcd(k, q - 1) (Adleman-Manders-Miller), times the roots
of unity of a per-process memo, so no polynomial is factored and the
field is never listed, and `kth_root` returns the first of them in
element(i) order; over Q a root is the exact root of numerator and
denominator, and a square root over Q(sqrt d) has the norm closed form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, zip_longest
from math import gcd

from .errors import CoefficientFieldTooSmall, DivisionByZero, FieldMismatch
from .records import Frozen


def pow_by_squaring(base, e: int, one):
    """base ** e for an int e >= 0 in any ring with *, starting from one;
    the base is not squared again after the last bit of e."""
    result = one
    while True:
        if e & 1:
            result = result * base
        e >>= 1
        if not e:
            return result
        base = base * base


# Miller-Rabin to these bases decides primality below PRIME_BOUND, the least
# strong pseudoprime to all of them (Sorenson and Webster, 2015)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for n >= PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is too large to be proved prime (the bound is {PRIME_BOUND})")
    if n < 2 or any(n % b == 0 for b in _BASES):
        return n in _BASES
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_nth_root(n: int, k: int) -> int | None:
    """Exact k-th root of n >= 0, or None."""
    if n < 0:
        return None
    if n < 2:
        return n
    # integer Newton iteration from 2^ceil(bits/k), above the root: it
    # decreases to floor(n^(1/k))
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


def sqrt_str(a: Fraction, b: Fraction, d: int) -> str:
    """a + b*sqrt(d) as exponents and Q(sqrt d) scalars print it: a alone
    when b = 0, the sqrt(d) part alone when a = 0."""
    if not b:
        return str(a)
    bs = f"sqrt({d})" if b == 1 else (f"-sqrt({d})" if b == -1 else f"{b}*sqrt({d})")
    if not a:
        return bs
    return f"{a}{bs}" if bs.startswith("-") else f"{a}+{bs}"


# the JSON keys of each field kind besides "kind"
_KEYS = {"Q": (), "QSqrt": ("d",), "Fp": ("p",), "Fq": ("p", "modulus")}


class FieldSpec(Frozen):
    """Descriptor of an exact field: Q, QSqrt(d), Fp(p) or Fq(p, modulus).

    p is the characteristic of a finite field and None over Q.  An extension
    k[w]/(m) holds its monic modulus m, coefficients from degree 0 upward:
    given for Fq, irreducible over F_p with reduced coefficients; set to
    w^2 - d for QSqrt, where d is a nonsquare integer.

    A field holds its interned scalars (see `_make`), built on first use;
    equality, hashing, pickling and copying read only the four fields, so
    the table never travels.
    """

    # __dict__ holds the cached table of interned scalars
    __slots__ = ("kind", "d", "p", "modulus", "__dict__")

    def __init__(self, kind: str, d: int | None = None, p: int | None = None, modulus: tuple[int, ...] | None = None):
        if kind not in _KEYS:
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "QSqrt":
            if type(d) is not int or _int_nth_root(d, 2) is not None:
                raise ValueError(f"QSqrt requires a nonsquare integer d, got {d!r}")
            modulus = (-d, 0, 1)
        elif kind != "Q" and (type(p) is not int or not is_prime(p)):
            raise ValueError(f"{kind} requires a prime, got {p!r}")
        if kind == "Fq":
            modulus = tuple(modulus or ())
            if len(modulus) < 3 or modulus[-1] != 1 or any(type(c) is not int or c % p != c for c in modulus):
                raise ValueError("Fq modulus must be monic of degree >= 2 with reduced coefficients")
            from .factor import uni_factor  # lazy: factor imports this module
            from .poly import Poly, PolyRing

            fp = FieldSpec("Fp", p=p)
            f = Poly(PolyRing(fp, ("x",)), {(i,): fp.from_int(c) for i, c in enumerate(modulus)})
            if uni_factor(f).factors != [(f, 1)]:
                raise ValueError(f"Fq modulus {list(modulus)} is reducible over F_{p}")
        self._set(kind, d, p, modulus)

    @cached_property
    def _interned(self) -> dict:
        return {}

    @property
    def char(self) -> int:
        return self.p or 0

    @property
    def extension_degree(self) -> int:
        return len(self.modulus) - 1 if self.modulus else 1

    @property
    def order(self) -> int | None:
        """Number of elements, None for infinite fields."""
        return self.p**self.extension_degree if self.p else None

    def zero(self) -> Scalar:
        return self.from_int(0)

    def one(self) -> Scalar:
        return self.from_int(1)

    def from_int(self, n: int) -> Scalar:
        if self.kind == "Q":
            return _make(self, (n, 1))
        if self.kind == "Fp":
            return _make(self, n % self.p)
        return _make(self, _canon(self.p, [n], 1))

    def from_fraction(self, q: Fraction) -> Scalar:
        if self.kind == "Q":
            return _make(self, (q.numerator, q.denominator))
        if self.p and q.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator {q.denominator} vanishes in characteristic {self.p}")
        if self.kind == "Fp":
            return _make(self, q.numerator * pow(q.denominator, -1, self.p) % self.p)
        return _make(self, _canon(self.p, [q.numerator], q.denominator))

    def generator(self) -> Scalar:
        """The class of w in an extension k[w]/(m); sqrt(d) in Q(sqrt d)."""
        if self.modulus is None:
            raise ValueError(f"{self} is not an extension field")
        return _make(self, ((0, 1), 1))

    def element(self, i: int) -> Scalar:
        """Element number i, 0 <= i < order, of a finite field: the residue
        i in F_p; in F_q the polynomial whose coefficients, lowest first,
        are the base-p digits of i."""
        if not self.p:
            raise ValueError("cannot enumerate an infinite field")
        if self.kind == "Fp":
            return _make(self, i)
        digits = [i // self.p**k % self.p for k in range(self.extension_degree)]
        return _make(self, _canon(self.p, digits, 1))

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for key in _KEYS[self.kind]:
            value = getattr(self, key)
            out[key] = list(value) if key == "modulus" else value
        return out

    @staticmethod
    def from_json(data: dict) -> FieldSpec:
        kind = data["kind"]
        if kind == "Q":
            return QQ
        # each parameter as given: __init__ rejects what is not a JSON integer
        return FieldSpec(kind, **{key: data[key] for key in _KEYS.get(kind, ())})  # ValueError for an unknown kind

    def __str__(self):
        if self.kind == "Q":
            return "Q"
        if self.kind == "QSqrt":
            return f"Q(sqrt({self.d}))"
        if self.kind == "Fp":
            return f"F_{self.p}"
        return f"F_{self.p}^{self.extension_degree}"


class Scalar(Frozen):
    """An element of a FieldSpec in canonical form; immutable.

    rep is a (numerator, denominator) int pair in lowest terms with
    denominator > 0 (Q), an int in [0, p) (Fp), or, in an extension
    k[w]/(m) (QSqrt, Fq), a pair (coefficients, denominator): a trimmed int
    tuple of the coefficients of w^0, w^1, ... over one positive
    denominator, in lowest terms over Q and always 1 over F_p.  Two scalars
    are equal when their fields are equal and their reps are.  The public
    constructor also accepts a Fraction or an int for Q; arithmetic builds
    its results with the trusted `_make`.
    """

    __slots__ = ("field", "rep")

    def __init__(self, field: FieldSpec, rep):
        if field.kind == "Q":
            q = Fraction(*rep) if isinstance(rep, tuple) else Fraction(rep)
            rep = (q.numerator, q.denominator)
        _set_field(self, field)
        _set_rep(self, rep)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if other.__class__ is not Scalar:
            return NotImplemented
        return self.rep == other.rep and (self.field is other.field or self.field == other.field)

    def __hash__(self) -> int:
        return hash(self.rep)

    def _check(self, other: Scalar):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def as_fraction(self) -> Fraction:
        """The value of a Q scalar as a Fraction."""
        if self.field.kind != "Q":
            raise ValueError(f"{self} is not in Q")
        return Fraction(*self.rep)

    def is_zero(self) -> bool:
        # the numerator of Q, the coefficient tuple of an extension
        return not self.rep if self.field.kind == "Fp" else not self.rep[0]

    def is_one(self) -> bool:
        return self == self.field.one()

    def __add__(self, other: Scalar) -> Scalar:
        field = self.field
        if field is not other.field:
            self._check(other)
        k = field.kind
        if k == "Q":
            return _make(field, _q_add(self.rep, other.rep[0], other.rep[1]))
        if k == "Fp":
            return _make(field, (self.rep + other.rep) % field.p)
        (a, da), (b, db) = self.rep, other.rep
        out = [x * db + y * da for x, y in zip_longest(a, b, fillvalue=0)]
        return _make(field, _canon(field.p, out, da * db))

    def __neg__(self) -> Scalar:
        field = self.field
        k = field.kind
        if k == "Q":
            return _make(field, (-self.rep[0], self.rep[1]))
        if k == "Fp":
            return _make(field, (-self.rep) % field.p)
        a, da = self.rep
        return _make(field, _canon(field.p, [-c for c in a], da))

    def __sub__(self, other: Scalar) -> Scalar:
        if self.field.kind == "Q" and self.field is other.field:
            return _make(self.field, _q_add(self.rep, -other.rep[0], other.rep[1]))
        return self + (-other)

    def __mul__(self, other: Scalar) -> Scalar:
        field = self.field
        if field is not other.field:
            self._check(other)
        k = field.kind
        if k == "Q":
            a, b = self.rep
            c, d = other.rep
            if b == 1 and d == 1:
                return _make(field, (a * c, 1))
            # cancel the cross gcds: a/d and c/b, both already coprime pairs
            g1, g2 = gcd(a, d), gcd(c, b)
            return _make(field, ((a // g1) * (c // g2), (b // g2) * (d // g1)))
        if k == "Fp":
            return _make(field, (self.rep * other.rep) % field.p)
        (a, da), (b, db) = self.rep, other.rep
        if not a or not b:
            return _make(field, ((), 1))
        # the integer convolution, then w^k -> w^k - w^(k-n) m from the top
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        m = field.modulus
        n = len(m) - 1
        for top in range(len(out) - 1, n - 1, -1):
            c = out[top]
            if c:
                for i in range(n):
                    out[top - n + i] -= c * m[i]
        del out[n:]
        return _make(field, _canon(field.p, out, da * db))

    def inv(self) -> Scalar:
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {self.field}")
        field = self.field
        k = field.kind
        if k == "Q":
            a, b = self.rep
            return _make(field, (b, a) if a > 0 else (-b, -a))
        if k == "Fp":
            return _make(field, pow(self.rep, -1, field.p))
        # extended Euclid against m by pseudo-division, so that every
        # remainder stays an integer polynomial: each step keeps
        # s*a = r (mod m), and the last remainder is a constant c, so that
        # (a/den)^-1 = den*s/c
        a, den = self.rep
        p = field.p
        r0, r1 = list(field.modulus), list(a)
        s0, s1 = [], [1]
        while len(r1) > 1:
            lead, size = r1[-1], len(r1)
            r, s = r0, s0
            for j in range(len(r0) - size, -1, -1):
                c = r[j + size - 1]
                r, s = _scale_sub(lead, r, c, j, r1), _scale_sub(lead, s, c, j, s1)
            rs = _lowest(p, r + s, 0)[0]
            r, s = rs[: len(r)], rs[len(r) :]
            while not r[-1]:
                r.pop()
            r0, r1, s0, s1 = r1, r, s1, s
        return _make(field, _canon(p, [den * c for c in s1], r1[0]))

    def __truediv__(self, other: Scalar) -> Scalar:
        return self * other.inv()

    def __pow__(self, e: int) -> Scalar:
        if e < 0:
            return self.inv() ** (-e)
        return pow_by_squaring(self, e, self.field.one())

    def sqrt(self) -> Scalar | None:
        """A square root in the same field, or None: kth_root(2)."""
        return self._root(2)

    def kth_root(self, k: int) -> Scalar:
        """Exact k-th root; raises CoefficientFieldTooSmall if absent."""
        r = self._root(k)
        if r is None:
            name = "square" if k == 2 else f"{k}-th"
            raise CoefficientFieldTooSmall(f"{self} has no {name} root in {self.field}")
        return r

    def _root(self, k: int) -> Scalar | None:
        """A k-th root, or None: over a finite field the first in element(i)
        order, over Q and Q(sqrt d) the first of kth_roots."""
        if k == 1 or self.is_zero() or self.is_one():
            return self
        roots = self.kth_roots(k)
        if not roots:
            return None
        return min(roots, key=_element_index) if self.field.p else roots[0]

    def kth_roots(self, k: int) -> list[Scalar]:
        """Every k-th root in the same field: over a finite field one root
        times mu_g, g = gcd(k, q - 1); over Q the exact root of numerator
        and denominator, and its negative for even k; over Q(sqrt d) only
        k <= 2, by the norm."""
        if k == 1 or self.is_zero():
            return [self]
        field = self.field
        if field.p:
            # the k-th powers in the cyclic group F_q^* are its g-th powers
            n = field.order - 1
            g = gcd(k, n)
            if not (self ** (n // g)).is_one():
                return []
            y = self
            for ell in _prime_factors(g):
                y = _prime_root(y, ell, n)
            # y^g = self, and k/g is prime to n/g, the order of self
            r = y ** pow(k // g, -1, n // g)
            z = _unity_root(field, g)
            roots = [r]
            for _ in range(g - 1):
                roots.append(roots[-1] * z)
            return roots
        if field.kind == "Q":
            q = self.as_fraction()
            num = _int_nth_root(abs(q.numerator), k)
            den = _int_nth_root(q.denominator, k)
            if num is None or den is None or (q < 0 and k % 2 == 0):
                return []
            r = field.from_fraction(Fraction(num if q > 0 else -num, den))
            return [r, -r] if k % 2 == 0 else [r]
        if k != 2:
            raise CoefficientFieldTooSmall(f"{k}-th roots only implemented for Q and finite fields")
        r = self._qsqrt()
        return [] if r is None else [r, -r]

    def _qsqrt(self) -> Scalar | None:
        """A square root over Q(sqrt d), or None."""
        field = self.field
        # Q(sqrt d) by the norm: (x + y sqrt d)^2 = a + b sqrt d means
        # x^2 + d y^2 = a and 2xy = b
        a, b = _q_pair(self.rep)
        d = field.d
        if b == 0:
            r = _fraction_sqrt(a)
            if r is not None:
                return field.from_fraction(r)
            r = _fraction_sqrt(a / d)
            return None if r is None else field.from_fraction(r) * field.generator()
        disc = _fraction_sqrt(a * a - d * b * b)
        if disc is None:
            return None
        for sign in (1, -1):
            x = _fraction_sqrt((a + sign * disc) / 2)
            if x is not None and x != 0:
                return field.from_fraction(x) + field.from_fraction(b / (2 * x)) * field.generator()
        return None

    def embed(self, target: FieldSpec) -> Scalar:
        """Embed a prime-field scalar into an extension of its field
        (Q -> QSqrt, Fp -> Fq)."""
        field = self.field
        if target == field:
            return self
        if target.modulus is not None and field.modulus is None and field.p == target.p:
            num, den = self.rep if field.kind == "Q" else (self.rep, 1)
            return _make(target, _canon(target.p, [num], den))
        raise FieldMismatch(f"no embedding {field} -> {target}")

    def __str__(self):
        k = self.field.kind
        if k == "Q":
            a, b = self.rep
            return str(a) if b == 1 else f"{a}/{b}"
        if k == "Fp":
            return str(self.rep)
        if k == "QSqrt":
            return sqrt_str(*_q_pair(self.rep), self.field.d)
        coeffs = self.rep[0]
        if not coeffs:
            return "0"
        parts = []
        for i in reversed(range(len(coeffs))):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("w" if c == 1 else f"{c}*w")
            else:
                parts.append(f"w^{i}" if c == 1 else f"{c}*w^{i}")
        return "+".join(parts)

    def __repr__(self):
        return f"Scalar({self})"


_new = object.__new__
_set_field = Scalar.field.__set__
_set_rep = Scalar.rep.__set__


# the most scalars a field interns; the first ones built, 0 and 1 among
# them, are the values that recur
_INTERNED = 512


def _make(field: FieldSpec, rep) -> Scalar:
    """The Scalar of field with rep, which must already be canonical: the
    one the field already holds for rep, else a new one, which the field
    keeps while it holds fewer than _INTERNED (hash-consing), so the values
    that recur are built once and compare by identity."""
    table = field._interned
    s = table.get(rep)
    if s is None:
        s = _new(Scalar)
        _set_field(s, field)
        _set_rep(s, rep)
        if len(table) < _INTERNED:
            table[rep] = s
    return s


def _q_add(x: tuple[int, int], c: int, d: int) -> tuple[int, int]:
    """The rep of x + c/d for a Q rep x and c/d in lowest terms, d > 0."""
    a, b = x
    # over a unit denominator the sum is already in lowest terms
    if d == 1:
        return (a + c * b, b)
    if b == 1:
        return (a * d + c, d)
    if b == d:
        n = a + c
    else:
        n, d = a * d + c * b, b * d
    g = gcd(n, d)
    return (n // g, d // g)


def _lowest(p: int | None, xs: list[int], den: int) -> tuple[list[int], int]:
    """xs / den in lowest terms over the prime field, as (list, den): over
    F_p the residues of xs times den^-1 over 1; over Q xs and den divided by
    their gcd, den > 0.  den = 0 asks for xs up to a nonzero factor: its
    residues over F_p, xs over their gcd over Q.  This is the one step of
    extension arithmetic that depends on the base field."""
    if p:
        if den in (0, 1):
            return [x % p for x in xs], 1
        inv = pow(den, -1, p)
        return [x * inv % p for x in xs], 1
    g = gcd(den, *xs)
    if den < 0:
        g = -g
    if g in (0, 1):
        return xs, den
    return [x // g for x in xs], den // g


def _canon(p: int | None, xs: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """The extension rep of (sum xs[i] w^i) / den, den != 0, with deg < deg m."""
    xs, den = _lowest(p, xs, den)
    while xs and not xs[-1]:
        xs.pop()
    return tuple(xs), den


def _scale_sub(lead: int, r: list[int], c: int, j: int, b: list[int]) -> list[int]:
    """lead * r - c * w^j * b on integer coefficient lists."""
    out = [lead * x for x in r]
    out += [0] * (j + len(b) - len(out))
    for i, y in enumerate(b):
        out[i + j] -= c * y
    return out


def _q_pair(rep) -> tuple[Fraction, Fraction]:
    """(a, b) with value a + b*w for the rep of a Q(sqrt d) scalar."""
    coeffs, den = rep
    coeffs += (0,) * (2 - len(coeffs))
    return Fraction(coeffs[0], den), Fraction(coeffs[1], den)


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num = _int_nth_root(q.numerator, 2)
    den = _int_nth_root(q.denominator, 2)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _prime_factors(n: int) -> list[int]:
    """The primes of n with multiplicity, by trial division."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + [n] if n > 1 else out


def _prime_root(a: Scalar, ell: int, n: int) -> Scalar:
    """An ell-th root of an ell-th power a in F_q^*, ell a prime dividing
    n = q - 1 (Adleman-Manders-Miller).  With n = ell^t s, s prime to ell,
    x = a^(ell^-1 mod s) has x^ell = a w, w in mu_(ell^t); w^-1 = z^j for
    z of order ell^t, j found digit by digit in base ell, and ell divides
    j since a is an ell-th power, so x z^(j/ell) is the root."""
    t, s = 0, n
    while s % ell == 0:
        t, s = t + 1, s // ell
    x = a ** pow(ell, -1, s)
    z = _unity_root(a.field, ell**t)
    digits = [z ** (d * ell ** (t - 1)) for d in range(ell)]  # mu_ell
    target = a * (x**ell).inv()  # w^-1
    j = 0
    for i in range(t):
        j += digits.index((target * z ** (-j)) ** (ell ** (t - 1 - i))) * ell**i
    return x * z ** (j // ell)


@lru_cache(maxsize=256)
def _unity_root(field: FieldSpec, m: int) -> Scalar:
    """A root of unity of order exactly m in a finite field, m dividing
    q - 1: the first element(i)^((q - 1)/m) of that order, over i = p, ...,
    q - 1, then 1, ..., p - 1.  The elements of F_p come last, since over
    F_(p^n) their orders divide p - 1.  Memoized per (field, m); its powers
    are mu_m."""
    q, p, primes = field.order, field.p, set(_prime_factors(m))
    for i in chain(range(p, q), range(1, p)):
        y = field.element(i) ** ((q - 1) // m)
        if all(not (y ** (m // ell)).is_one() for ell in primes):
            return y
    raise ValueError(f"{m} does not divide the order of {field}^*")


def _element_index(x: Scalar) -> int:
    """The i with x == x.field.element(i)."""
    if x.field.kind == "Fp":
        return x.rep
    return sum(c * x.field.p**i for i, c in enumerate(x.rep[0]))


QQ = FieldSpec("Q")
