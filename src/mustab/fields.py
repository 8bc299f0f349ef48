"""Exact coefficient fields: Q, Q(sqrt d), F_p and F_{p^n}.

A FieldSpec names the field; a Scalar pairs a spec with a canonical
representation: a (numerator, denominator) int pair in lowest terms for Q,
a Fraction pair for Q(sqrt d), a residue in [0, p) for F_p, or a short
coefficient tuple modulo an irreducible polynomial for F_q.  Scalar is an
immutable slotted class whose arithmetic results are built by one trusted
constructor, `_make`, as `exponents._make` builds exponents; Q arithmetic is
gcd arithmetic on ints, with Fractions built only for `as_fraction`.  All
arithmetic is exact; nothing here touches floating point.

The dense F_p[x] helpers serve F_q multiplication and inversion only: an
F_q modulus is proved irreducible by the complete finite-field
factorization `factor.uni_factor`, and F_p and F_q share one
Tonelli-Shanks square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import CoefficientFieldTooSmall, DivisionByZero, FieldMismatch
from .exponents import check_d


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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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


# dense univariate arithmetic over F_p (coefficient lists, low degree first),
# used for F_q multiplication and inversion
def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_add(a, b, p):
    n = max(len(a), len(b))
    return _fp_trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_divmod(a, b, p):
    a = list(a)
    binv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = (a[-1] * binv) % p
        d = len(a) - len(b)
        q[d] = c
        for i in range(len(b)):
            a[d + i] = (a[d + i] - c * b[i]) % p
        _fp_trim(a)
    return _fp_trim(q), a


@dataclass(frozen=True)
class FieldSpec:
    """Descriptor of an exact field: Q, QSqrt(d), Fp(p) or Fq(p, modulus).

    modulus is a monic irreducible polynomial over F_p, coefficients listed
    from degree 0 upward.
    """

    kind: str
    d: int | None = None
    p: int | None = None
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind == "Q":
            pass
        elif self.kind == "QSqrt":
            check_d(self.d)
        elif self.kind == "Fp":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"Fp requires a prime, got {self.p}")
        elif self.kind == "Fq":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"Fq requires a prime, got {self.p}")
            m = list(self.modulus or ())
            if len(m) < 3 or m[-1] != 1 or any(c % self.p != c for c in m):
                raise ValueError("Fq modulus must be monic of degree >= 2 with reduced coefficients")
            from .factor import uni_factor  # lazy: factor imports this module
            from .poly import Poly, PolyRing

            fp = FieldSpec("Fp", p=self.p)
            f = Poly(PolyRing(fp, ("x",)), {(i,): fp.from_int(c) for i, c in enumerate(m)})
            if uni_factor(f).factors != [(f, 1)]:
                raise ValueError(f"Fq modulus {m} is reducible over F_{self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def char(self) -> int:
        return 0 if self.kind in ("Q", "QSqrt") else self.p

    @property
    def extension_degree(self) -> int:
        return len(self.modulus) - 1 if self.kind == "Fq" else 1

    @property
    def order(self) -> int | None:
        """Number of elements, None for infinite fields."""
        if self.kind == "Fp":
            return self.p
        if self.kind == "Fq":
            return self.p**self.extension_degree
        return None

    def zero(self) -> Scalar:
        return self.from_int(0)

    def one(self) -> Scalar:
        return self.from_int(1)

    def from_int(self, n: int) -> Scalar:
        if self.kind == "Q":
            return _make(self, (n, 1))
        if self.kind == "QSqrt":
            return _make(self, (Fraction(n), Fraction(0)))
        if self.kind == "Fp":
            return _make(self, n % self.p)
        return _make(self, _fq_canon((n % self.p,)))

    def from_fraction(self, q: Fraction) -> Scalar:
        if self.kind == "Q":
            return _make(self, (q.numerator, q.denominator))
        if self.kind == "QSqrt":
            return _make(self, (q, Fraction(0)))
        num = self.from_int(q.numerator)
        if q.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator {q.denominator} vanishes in characteristic {self.p}")
        return num / self.from_int(q.denominator)

    def sqrt_d(self) -> Scalar:
        if self.kind != "QSqrt":
            raise ValueError("sqrt generator only exists in QSqrt fields")
        return _make(self, (Fraction(0), Fraction(1)))

    def generator(self) -> Scalar:
        if self.kind != "Fq":
            raise ValueError("generator only exists in Fq fields")
        return _make(self, (0, 1))

    def element(self, i: int) -> Scalar:
        """Element number i, 0 <= i < order, of a finite field: the residue
        i in F_p; in F_q the polynomial whose coefficients, lowest first,
        are the base-p digits of i."""
        if self.kind == "Fp":
            return _make(self, i)
        if self.kind == "Fq":
            digits = []
            for _ in range(self.extension_degree):
                i, c = divmod(i, self.p)
                digits.append(c)
            return _make(self, _fq_canon(digits))
        raise ValueError("cannot enumerate an infinite field")

    def elements(self):
        """Iterate all elements (finite fields only), in element(i) order."""
        if self.order is None:
            raise ValueError("cannot enumerate an infinite field")
        for i in range(self.order):
            yield self.element(i)

    def to_json(self) -> dict:
        if self.kind == "Q":
            return {"kind": "Q"}
        if self.kind == "QSqrt":
            return {"kind": "QSqrt", "d": self.d}
        if self.kind == "Fp":
            return {"kind": "Fp", "p": self.p}
        return {"kind": "Fq", "p": self.p, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(data: dict) -> FieldSpec:
        kind = data["kind"]
        if kind == "Q":
            return QQ
        if kind == "QSqrt":
            return FieldSpec("QSqrt", d=int(data["d"]))
        if kind == "Fp":
            return FieldSpec("Fp", p=int(data["p"]))
        if kind == "Fq":
            return FieldSpec("Fq", p=int(data["p"]), modulus=tuple(int(c) for c in data["modulus"]))
        raise ValueError(f"unknown field kind {kind!r}")

    def __str__(self):
        if self.kind == "Q":
            return "Q"
        if self.kind == "QSqrt":
            return f"Q(sqrt({self.d}))"
        if self.kind == "Fp":
            return f"F_{self.p}"
        return f"F_{self.p}^{self.extension_degree}"


def _fq_canon(coeffs) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class Scalar:
    """An element of a FieldSpec in canonical form; immutable.

    rep is a (numerator, denominator) int pair in lowest terms with
    denominator > 0 (Q), a (Fraction, Fraction) pair meaning a + b*sqrt(d)
    (QSqrt), an int in [0, p) (Fp), or a trimmed coefficient tuple (Fq).
    Two scalars are equal when their fields are equal and their reps are.
    The public constructor also accepts a Fraction or an int for Q;
    arithmetic builds its results with the trusted `_make`.
    """

    __slots__ = ("field", "rep")

    def __init__(self, field: FieldSpec, rep):
        if field.kind == "Q":
            q = Fraction(*rep) if isinstance(rep, tuple) else Fraction(rep)
            rep = (q.numerator, q.denominator)
        _set_field(self, field)
        _set_rep(self, rep)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __reduce__(self):
        return (_make, (self.field, self.rep))

    def __eq__(self, other) -> bool:
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
        k = self.field.kind
        if k == "Q":
            return not self.rep[0]
        if k == "QSqrt":
            return not self.rep[0] and not self.rep[1]
        return not self.rep

    def is_one(self) -> bool:
        return self == self.field.one()

    def __add__(self, other: Scalar) -> Scalar:
        field = self.field
        if field is not other.field:
            self._check(other)
        k = field.kind
        if k == "Q":
            return _make(field, _q_add(self.rep, other.rep[0], other.rep[1]))
        if k == "QSqrt":
            return _make(field, (self.rep[0] + other.rep[0], self.rep[1] + other.rep[1]))
        if k == "Fp":
            return _make(field, (self.rep + other.rep) % field.p)
        p = field.p
        n = max(len(self.rep), len(other.rep))
        a, b = self.rep, other.rep
        return _make(field, _fq_canon([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)]))

    def __neg__(self) -> Scalar:
        k = self.field.kind
        if k == "Q":
            return _make(self.field, (-self.rep[0], self.rep[1]))
        if k == "QSqrt":
            return _make(self.field, (-self.rep[0], -self.rep[1]))
        if k == "Fp":
            return _make(self.field, (-self.rep) % self.field.p)
        p = self.field.p
        return _make(self.field, _fq_canon([(-c) % p for c in self.rep]))

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
        if k == "QSqrt":
            a, b = self.rep
            c, e = other.rep
            return _make(field, (a * c + field.d * b * e, a * e + b * c))
        if k == "Fp":
            return _make(field, (self.rep * other.rep) % field.p)
        p = field.p
        prod = _fp_mul(list(self.rep), list(other.rep), p)
        return _make(field, _fq_canon(_fp_divmod(prod, list(field.modulus), p)[1]))

    def inv(self) -> Scalar:
        if self.is_zero():
            raise DivisionByZero(f"inverse of zero in {self.field}")
        k = self.field.kind
        if k == "Q":
            a, b = self.rep
            return _make(self.field, (b, a) if a > 0 else (-b, -a))
        if k == "QSqrt":
            a, b = self.rep
            norm = a * a - self.field.d * b * b
            return _make(self.field, (a / norm, -b / norm))
        if k == "Fp":
            return _make(self.field, pow(self.rep, -1, self.field.p))
        # extended Euclid in F_p[x] against the modulus
        p = self.field.p
        r0, r1 = list(self.field.modulus), list(self.rep)
        s0, s1 = [], [1]
        while r1:
            q, r = _fp_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _fp_add(s0, [(-c) % p for c in _fp_mul(q, s1, p)], p)
        lead_inv = pow(r0[-1], -1, p)
        s0 = [(c * lead_inv) % p for c in s0]
        return _make(self.field, _fq_canon(_fp_divmod(s0, list(self.field.modulus), p)[1]))

    def __truediv__(self, other: Scalar) -> Scalar:
        return self * other.inv()

    def __pow__(self, e: int) -> Scalar:
        if e < 0:
            return self.inv() ** (-e)
        return pow_by_squaring(self, e, self.field.one())

    def sqrt(self) -> Scalar | None:
        """A square root in the same field, or None."""
        if self.is_zero():
            return self
        k = self.field.kind
        if k == "Q":
            r = _fraction_sqrt(self.as_fraction())
            return None if r is None else self.field.from_fraction(r)
        if k == "QSqrt":
            return self._qsqrt_sqrt()
        return self._finite_sqrt()

    def _qsqrt_sqrt(self) -> Scalar | None:
        a, b = self.rep
        d = self.field.d
        if b == 0:
            r = _fraction_sqrt(a)
            if r is not None:
                return _make(self.field, (r, Fraction(0)))
            r = _fraction_sqrt(a / d)
            if r is not None:
                return _make(self.field, (Fraction(0), r))
            return None
        # (x + y sqrt d)^2 = a + b sqrt d: x^2 + d y^2 = a, 2xy = b
        disc = _fraction_sqrt(a * a - d * b * b)
        if disc is None:
            return None
        for sign in (1, -1):
            x2 = (a + sign * disc) / 2
            x = _fraction_sqrt(x2)
            if x is not None and x != 0:
                y = b / (2 * x)
                return _make(self.field, (x, y))
        return None

    def _finite_sqrt(self) -> Scalar | None:
        """Square root in F_p or F_q: the Frobenius inverse in
        characteristic 2, else Euler's criterion and Tonelli-Shanks."""
        q = self.field.order
        if self.field.p == 2:
            return self ** (q // 2)
        if not (self ** ((q - 1) // 2)).is_one():
            return None
        return _tonelli_generic(self, q)

    def kth_root(self, k: int) -> Scalar:
        """Exact k-th root; raises CoefficientFieldTooSmall if absent."""
        if k == 1 or self.is_zero() or self.is_one():
            return self
        if k == 2:
            r = self.sqrt()
            if r is None:
                raise CoefficientFieldTooSmall(f"{self} has no square root in {self.field}")
            return r
        fk = self.field.kind
        if fk == "Q":
            q = self.as_fraction()
            num = _int_nth_root(abs(q.numerator), k)
            den = _int_nth_root(q.denominator, k)
            if num is not None and den is not None:
                if q >= 0:
                    return self.field.from_fraction(Fraction(num, den))
                if k % 2 == 1:
                    return self.field.from_fraction(Fraction(-num, den))
            raise CoefficientFieldTooSmall(f"{self} has no {k}-th root in Q")
        if fk in ("Fp", "Fq"):
            q = self.field.order
            for cand in self.field.elements():
                if (cand**k) == self:
                    return cand
            raise CoefficientFieldTooSmall(f"{self} has no {k}-th root in F_{q}")
        raise CoefficientFieldTooSmall(f"{k}-th roots only implemented for Q and finite fields")

    def embed(self, target: FieldSpec) -> Scalar:
        """Embed into a compatible bigger field (Q -> QSqrt, Fp -> Fq)."""
        if target == self.field:
            return self
        if self.field.kind == "Q" and target.kind == "QSqrt":
            return _make(target, (self.as_fraction(), Fraction(0)))
        if self.field.kind == "Fp" and target.kind == "Fq" and target.p == self.field.p:
            return _make(target, _fq_canon((self.rep,)))
        raise FieldMismatch(f"no embedding {self.field} -> {target}")

    def __str__(self):
        k = self.field.kind
        if k == "Q":
            return str(self.as_fraction())
        if k == "QSqrt":
            a, b = self.rep
            if b == 0:
                return str(a)
            bs = f"sqrt({self.field.d})" if b == 1 else (f"-sqrt({self.field.d})" if b == -1 else f"{b}*sqrt({self.field.d})")
            if a == 0:
                return bs
            return f"{a}+{bs}" if not bs.startswith("-") else f"{a}{bs}"
        if k == "Fp":
            return str(self.rep)
        if not self.rep:
            return "0"
        parts = []
        for i in reversed(range(len(self.rep))):
            c = self.rep[i]
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


def _make(field: FieldSpec, rep) -> Scalar:
    """The Scalar of field with rep, which must already be canonical."""
    s = _new(Scalar)
    _set_field(s, field)
    _set_rep(s, rep)
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


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num = _int_nth_root(q.numerator, 2)
    den = _int_nth_root(q.denominator, 2)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _tonelli_generic(a: Scalar, q: int) -> Scalar | None:
    """Tonelli-Shanks in the unit group of a finite field of odd order q."""
    field = a.field
    s, m = q - 1, 0
    while s % 2 == 0:
        s //= 2
        m += 1
    z = None
    for cand in field.elements():
        if not cand.is_zero() and not (cand ** ((q - 1) // 2)).is_one():
            z = cand
            break
    if z is None:
        return None
    c = z**s
    t = a**s
    r = a ** ((s + 1) // 2)
    while not t.is_one():
        i, t2 = 0, t
        while not t2.is_one():
            t2 = t2 * t2
            i += 1
        if i >= m:
            return None
        b = c ** (1 << (m - i - 1))
        m, c = i, b * b
        t, r = t * c, r * b
    return r


QQ = FieldSpec("Q")
