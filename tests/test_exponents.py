"""Exact total order on Q + Q*sqrt(d) exponents."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mustab.errors import FieldMismatch
from mustab.exponents import EXP_ZERO, Exponent, _rational, exp


def test_basic_order():
    assert exp("1/2") < exp(1)
    assert Exponent(Fraction(0), Fraction(1), 2) > exp(1)          # sqrt2 > 1
    assert Exponent(Fraction(0), Fraction(1), 2) < exp(2)          # sqrt2 < 2
    assert Exponent(Fraction(3), Fraction(-2), 2) > EXP_ZERO       # 3 - 2 sqrt2 > 0
    assert Exponent(Fraction(1), Fraction(-1), 2) < exp(0)         # 1 - sqrt2 < 0


def test_addition_compatible_with_order():
    x = Exponent(Fraction(1, 3), Fraction(1, 2), 2)   # ~1.040
    y = Exponent(Fraction(-1), Fraction(1), 2)        # ~0.414
    z = Exponent(Fraction(2), Fraction(0))
    assert y < x
    assert (y + z) < (x + z)


def test_mixed_d_rejected():
    with pytest.raises(FieldMismatch):
        Exponent(Fraction(0), Fraction(1), 2) + Exponent(Fraction(0), Fraction(1), 3)


def test_rational_interop():
    assert (exp("1/2") + exp("1/3")) == exp("5/6")
    s = Exponent(Fraction(0), Fraction(1), 2)
    assert (s - s) == EXP_ZERO
    assert s.scale(Fraction(1, 2)) + s.scale(Fraction(1, 2)) == s


def test_parse_roundtrip():
    for text in ["3", "-5/2", "1/2+1/3*sqrt(2)", "sqrt(2)", "-sqrt(2)", "2-sqrt(2)"]:
        e = Exponent.parse(text)
        assert Exponent.parse(str(e)) == e


def test_comparison_agrees_with_high_precision_sqrt2():
    # oracle: rational approximation of sqrt(2) to 60 digits
    sqrt2 = Fraction(
        1414213562373095048801688724209698078569671875376948073176680,
        10**60,
    )
    rng = random.Random(42)
    for _ in range(1000):
        a1 = Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
        b1 = Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
        a2 = Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
        b2 = Fraction(rng.randrange(-50, 51), rng.randrange(1, 20))
        x = Exponent(a1, b1, 2)
        y = Exponent(a2, b2, 2)
        approx_x = a1 + b1 * sqrt2
        approx_y = a2 + b2 * sqrt2
        if approx_x == approx_y:
            continue  # genuinely equal only when components match
        assert (x < y) == (approx_x < approx_y), f"{x} vs {y}"


def test_denominator():
    assert exp("3/4").denominator == 4
    assert Exponent(Fraction(1, 2), Fraction(1, 3), 2).denominator == 6


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
exponents = st.one_of(
    fractions.map(Exponent),
    st.tuples(fractions, fractions).map(lambda ab: Exponent(ab[0], ab[1], 2)),
)


@settings(max_examples=300, deadline=None)
@given(exponents, exponents)
def test_rational_fast_path_matches_sign(x, y):
    """The shortcuts for two rational exponents agree with the general
    sign() arithmetic, and irrational operands are unaffected."""
    diff = Exponent(x.a - y.a, x.b - y.b, 2 if x.b != y.b else None)
    s = diff.sign()
    assert (x < y) == (s < 0)
    assert (x <= y) == (s <= 0)
    assert (x > y) == (s > 0)
    assert (x >= y) == (s >= 0)
    total = x + y
    assert total == Exponent(x.a + y.a, x.b + y.b, 2 if x.b + y.b != 0 else None)
    assert hash(total) == hash(Exponent(total.a, total.b, total.d))


@settings(max_examples=200, deadline=None)
@given(fractions)
def test_rational_constructor_matches_exponent(a):
    e = _rational(a)
    assert e == Exponent(a) and hash(e) == hash(Exponent(a))
    assert (e.a, e.b, e.d) == (a, Fraction(0), None)
    assert e.is_rational() and str(e) == str(Exponent(a))
