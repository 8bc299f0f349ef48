"""Exponents a + b*sqrt(d) with exact total order.

The order group for series exponents is Q or Q + Q*sqrt(d) for a fixed
nonsquare d.  An exponent is stored as the integers (p, q, n) of
(p + q*sqrt(d))/n with gcd(p, q, n) = 1 and n > 0, so equal exponents have
equal fields and addition, negation, scaling, comparison and hashing are
plain integer arithmetic.  Two rational exponents compare by one
cross-multiplication; otherwise p + q*sqrt(d) is compared to 0 by cases on
the signs of p and q, falling back to comparing p^2 with d*q^2.  No
floating point anywhere.  The Fraction views `a` and `b` are built on
demand.

Series arithmetic adds the same few exponents again and again (a term of
a kept power of a series, shifted by each term of a factor), so `+` reads
its sums from one module-wide memo, `_sums`, keyed (left, right) and
emptied when it holds _SUMS of them, which bounds what it keeps alive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import FieldMismatch
from .fields import FieldSpec, sqrt_str
from .poly import parse_scalar
from .records import Frozen

_FRACTION_ZERO = Fraction(0)

# the sums made so far, keyed (left, right), emptied when it holds _SUMS
_sums: dict = {}
_SUMS = 1024


def check_d(d) -> int:
    """d itself when it is a positive nonsquare int, so that sqrt(d) is
    irrational and the order on Q + Q*sqrt(d) is total; else ValueError."""
    if type(d) is not int or d <= 0 or isqrt(d) ** 2 == d:
        raise ValueError(f"sqrt(d) requires a positive nonsquare integer d, got {d!r}")
    return d


def _sign(p: int, q: int, d: int | None) -> int:
    """Sign of p + q*sqrt(d)."""
    if not q:
        return (p > 0) - (p < 0)
    if not p:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    lhs, rhs = p * p, d * q * q
    if p > 0:  # q < 0: positive iff p^2 > d q^2
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


class Exponent(Frozen):
    """(p + q*sqrt(d))/n in lowest terms; d is None exactly when q == 0; h
    is the hash of (p, q, n), computed once."""

    __slots__ = ("p", "q", "n", "d", "h")
    _hidden = ("h",)

    def __init__(self, a, b=_FRACTION_ZERO, d: int | None = None):
        a, b = Fraction(a), Fraction(b)
        if b and d is None:
            raise ValueError("irrational part requires a declared d")
        n = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        p, q = a.numerator * (n // a.denominator), b.numerator * (n // b.denominator)
        _init(self, p, q, n, d if q else None)

    # -- structure ---------------------------------------------------------
    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.n)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.n) if self.q else _FRACTION_ZERO

    def is_rational(self) -> bool:
        return not self.q

    def as_fraction(self) -> Fraction:
        if self.q:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.p, self.n)

    def _join_d(self, other: Exponent) -> int | None:
        if self.d is None:
            return other.d
        if other.d is None or other.d == self.d:
            return self.d
        raise FieldMismatch(f"incompatible exponent groups sqrt({self.d}) vs sqrt({other.d})")

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: Exponent) -> Exponent:
        key = (self, other)
        s = _sums.get(key)
        if s is not None:
            return s
        d, n1, n2 = self._join_d(other), self.n, other.n
        if n1 == n2:
            s = _make(self.p + other.p, self.q + other.q, n1, d)
        else:
            s = _make(self.p * n2 + other.p * n1, self.q * n2 + other.q * n1, n1 * n2, d)
        if len(_sums) >= _SUMS:
            _sums.clear()
        _sums[key] = s
        return s

    def __sub__(self, other: Exponent) -> Exponent:
        return self + (-other)

    def __neg__(self) -> Exponent:
        return _make(-self.p, -self.q, self.n, self.d)

    def scale(self, r: Fraction | int) -> Exponent:
        r = Fraction(r)
        return _make(self.p * r.numerator, self.q * r.numerator, self.n * r.denominator, self.d)

    # -- order ---------------------------------------------------------------
    def sign(self) -> int:
        return _sign(self.p, self.q, self.d)

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def _cmp(self, other: Exponent) -> int:
        n1, n2 = self.n, other.n
        return _sign(self.p * n2 - other.p * n1, self.q * n2 - other.q * n1, self._join_d(other))

    def __lt__(self, other: Exponent) -> bool:
        if not self.q and not other.q:
            return self.p * other.n < other.p * self.n
        return self._cmp(other) < 0

    def __le__(self, other: Exponent) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Exponent) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Exponent) -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other) -> bool:
        if other.__class__ is not Exponent:
            return NotImplemented
        return self.p == other.p and self.n == other.n and self.q == other.q and self.d == other.d

    def __hash__(self) -> int:
        return self.h

    # -- io --------------------------------------------------------------------
    def __str__(self):
        return sqrt_str(self.a, self.b, self.d)

    def __repr__(self):
        return f"Exponent({self})"

    @staticmethod
    def parse(text: str, d: int | None = None) -> Exponent:
        """Parse a rational "a/b", or any expression of the scalar grammar
        (poly.parse_scalar) over Q(sqrt d) in one sqrt(d)."""
        compact = text.replace(" ", "")
        if "sqrt" not in compact:
            return Exponent(Fraction(compact))
        dd = check_d(int(compact.partition("sqrt(")[2].partition(")")[0]))
        if d is not None and dd != d:
            raise FieldMismatch(f"expected sqrt({d}), got sqrt({dd})")
        coeffs, n = parse_scalar(text, FieldSpec("QSqrt", d=dd)).rep
        p, q = (coeffs + (0, 0))[:2]
        return _make(p, q, n, dd)


_new = object.__new__
_setattr = object.__setattr__


def _init(e: Exponent, p: int, q: int, n: int, d: int | None) -> None:
    """Set the fields of e, which must already be in lowest terms."""
    _setattr(e, "p", p)
    _setattr(e, "q", q)
    _setattr(e, "n", n)
    _setattr(e, "d", d)
    _setattr(e, "h", hash((p, q, n)))  # integers only: hash(None) is an address on some interpreters


def _make(p: int, q: int, n: int, d: int | None) -> Exponent:
    """(p + q*sqrt(d))/n for n > 0, brought to lowest terms; d is dropped
    when q is 0."""
    g = gcd(p, q, n)
    if g != 1:
        p, q, n = p // g, q // g, n // g
    e = _new(Exponent)
    _init(e, p, q, n, d if q else None)
    return e


def _rational(a: Fraction) -> Exponent:
    """Exponent(a) for a Fraction a."""
    return _make(a.numerator, 0, a.denominator, None)


EXP_ZERO = _rational(Fraction(0))
EXP_ONE = _rational(Fraction(1))


def exp(q, d: int | None = None) -> Exponent:
    """Shorthand: exp(3), exp("1/2"), exp((1, 1), d=2) for 1 + sqrt(2)."""
    if isinstance(q, Exponent):
        return q
    if isinstance(q, tuple):
        return Exponent(Fraction(q[0]), Fraction(q[1]), d)
    if isinstance(q, int):
        return _make(q, 0, 1, None)
    return _rational(q if isinstance(q, Fraction) else Fraction(q))
