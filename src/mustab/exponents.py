"""Exponents a + b*sqrt(d) with exact total order.

The order group for series exponents is Q or Q + Q*sqrt(d) for a fixed
nonsquare d.  Comparison is exact sign analysis on fractions: a + b*sqrt(d)
is compared to 0 by cases on the signs of a and b, falling back to
comparing a^2 with d*b^2.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch


@dataclass(frozen=True)
class Exponent:
    a: Fraction
    b: Fraction = Fraction(0)
    d: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.b != 0 and self.d is None:
            raise ValueError("irrational part requires a declared d")
        if self.b == 0 and self.d is not None:
            object.__setattr__(self, "d", None)

    # -- structure ---------------------------------------------------------
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.a

    @property
    def denominator(self) -> int:
        return self.a.denominator if self.is_rational() else self.a.denominator * self.b.denominator

    def _join_d(self, other: Exponent) -> int | None:
        if self.d is None:
            return other.d
        if other.d is None or other.d == self.d:
            return self.d
        raise FieldMismatch(f"incompatible exponent groups sqrt({self.d}) vs sqrt({other.d})")

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: Exponent) -> Exponent:
        if not self.b and not other.b:
            return _rational(self.a + other.a)
        d = self._join_d(other)
        return Exponent(self.a + other.a, self.b + other.b, d if self.b + other.b != 0 else None)

    def __sub__(self, other: Exponent) -> Exponent:
        return self + (-other)

    def __neg__(self) -> Exponent:
        return Exponent(-self.a, -self.b, self.d)

    def scale(self, q: Fraction | int) -> Exponent:
        q = Fraction(q)
        if q == 0:
            return Exponent(Fraction(0))
        return Exponent(self.a * q, self.b * q, self.d)

    # -- order ---------------------------------------------------------------
    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        lhs, rhs = a * a, self.d * b * b
        if a > 0:  # b < 0: positive iff a^2 > d b^2
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def _cmp(self, other: Exponent) -> int:
        if not self.b and not other.b:
            return (self.a > other.a) - (self.a < other.a)
        return (self - other).sign()

    def __lt__(self, other: Exponent) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Exponent) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Exponent) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Exponent) -> bool:
        return self._cmp(other) >= 0

    # -- io --------------------------------------------------------------------
    def __str__(self):
        if self.b == 0:
            return str(self.a)
        bs = f"sqrt({self.d})" if self.b == 1 else (f"-sqrt({self.d})" if self.b == -1 else f"{self.b}*sqrt({self.d})")
        if self.a == 0:
            return bs
        sign = "" if bs.startswith("-") else "+"
        return f"{self.a}{sign}{bs}"

    def __repr__(self):
        return f"Exponent({self})"

    @staticmethod
    def parse(text: str, d: int | None = None) -> Exponent:
        """Parse "a/b" or "a/b+c/e*sqrt(d)" (either part optional)."""
        text = text.replace(" ", "")
        if "sqrt" not in text:
            return Exponent(Fraction(text))
        head, _, tail = text.partition("sqrt(")
        dd = int(tail.rstrip(")").split(")")[0])
        if d is not None and dd != d:
            raise FieldMismatch(f"expected sqrt({d}), got sqrt({dd})")
        head = head.rstrip("*")
        a = Fraction(0)
        bstr = head
        for i in range(len(head) - 1, 0, -1):
            if head[i] in "+-" and head[i - 1] not in "+-/*":
                a = Fraction(head[:i])
                bstr = head[i:]
                break
        if bstr in ("", "+"):
            b = Fraction(1)
        elif bstr == "-":
            b = Fraction(-1)
        else:
            b = Fraction(bstr)
        return Exponent(a, b, dd)


def _rational(a: Fraction) -> Exponent:
    """Exponent(a) for a Fraction a, without re-wrapping it in __post_init__."""
    e = object.__new__(Exponent)
    object.__setattr__(e, "a", a)
    object.__setattr__(e, "b", _FRACTION_ZERO)
    object.__setattr__(e, "d", None)
    return e


_FRACTION_ZERO = Fraction(0)
EXP_ZERO = Exponent(Fraction(0))
EXP_ONE = Exponent(Fraction(1))


def exp(q, d: int | None = None) -> Exponent:
    """Shorthand: exp(3), exp("1/2"), exp((1, 1), d=2) for 1 + sqrt(2)."""
    if isinstance(q, Exponent):
        return q
    if isinstance(q, tuple):
        return Exponent(Fraction(q[0]), Fraction(q[1]), d)
    return Exponent(Fraction(q))
