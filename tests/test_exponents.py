"""Exact total order on Q + Q*sqrt(d) exponents."""

import copy
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mustab
from mustab.errors import FieldMismatch
from mustab import exponents as exponents_module
from mustab.exponents import _SUMS, EXP_ZERO, Exponent, _rational, exp


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


@pytest.mark.parametrize("text", ["sqrt(4)", "1+sqrt(0)", "2-sqrt(-1)", "1/2*sqrt(9)"])
def test_parse_rejects_d_that_is_not_a_positive_nonsquare(text):
    # over sqrt(4) = 2 the order would not be total: sqrt(4) and exp(2)
    # would be neither <, > nor ==
    with pytest.raises(ValueError, match="positive nonsquare"):
        Exponent.parse(text)


def test_rational_interop():
    assert (exp("1/2") + exp("1/3")) == exp("5/6")
    s = Exponent(Fraction(0), Fraction(1), 2)
    assert (s - s) == EXP_ZERO
    assert s.scale(Fraction(1, 2)) + s.scale(Fraction(1, 2)) == s


def test_parse_roundtrip():
    for text in ["3", "-5/2", "1/2+1/3*sqrt(2)", "sqrt(2)", "-sqrt(2)", "2-sqrt(2)"]:
        e = Exponent.parse(text)
        assert Exponent.parse(str(e)) == e


@pytest.mark.parametrize("text, value", [
    ("2*sqrt(2)/2", (0, 1)),
    ("sqrt(2)/2", (0, Fraction(1, 2))),
    ("sqrt(2)*3", (0, 3)),
    ("2*sqrt(2)+1", (1, 2)),
    ("-sqrt(2)-1", (-1, -1)),
    ("(1+sqrt(2))/2", (Fraction(1, 2), Fraction(1, 2))),
    ("sqrt(2)^2 - 1", (1, 0)),
])
def test_parse_reads_the_scalar_grammar(text, value):
    """An exponent holding sqrt(d) is any expression of the coefficient
    grammar over Q(sqrt d), read as that grammar reads it."""
    a, b = value
    assert Exponent.parse(text) == Exponent(a, b, 2 if b else None)


def test_parse_rejects_what_the_scalar_grammar_rejects():
    """Juxtaposition is no product, as in a coefficient; a second square
    root and a declared d that differs are refused."""
    with pytest.raises(ValueError, match="trailing input"):
        Exponent.parse("1/2sqrt(2)")
    with pytest.raises(ValueError, match="does not live in"):
        Exponent.parse("sqrt(2)+sqrt(3)")
    with pytest.raises(FieldMismatch):
        Exponent.parse("sqrt(3)", 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 12), st.sampled_from([2, 3, 5, 7]))
def test_parse_round_trips_every_exponent(p, q, n, d):
    """(p + q*sqrt(d))/n written by str, or as that quotient, parses back."""
    e = Exponent(Fraction(p, n), Fraction(q, n), d if q else None)
    assert Exponent.parse(str(e)) == e
    assert Exponent.parse(f"({p}+{q}*sqrt({d}))/{n}") == e


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


# -- the integer representation against a Fraction-pair reference ----------

def _ref_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) from sqrt(d) to 40 digits; the exponents drawn
    here are far from 0 unless a = b = 0, so the error cannot flip it."""
    if a == 0 and b == 0:
        return 0
    approx = a + b * Fraction(math.isqrt(d * 10**80), 10**40)
    return (approx > 0) - (approx < 0)


def _model(x: Exponent) -> tuple[Fraction, Fraction]:
    return x.a, x.b


def _from_model(a: Fraction, b: Fraction, d: int) -> Exponent:
    return Exponent(a, b, d if b else None)


def _well_formed(x: Exponent, d: int) -> bool:
    """Lowest terms, n > 0, d exactly on irrational exponents, Fraction views."""
    ints = all(type(v) is int for v in (x.p, x.q, x.n))
    return ints and x.n > 0 and math.gcd(x.p, x.q, x.n) == 1 and x.d == (d if x.q else None) and type(x.a) is type(x.b) is Fraction


pairs = st.tuples(fractions, st.one_of(st.just(Fraction(0)), fractions))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3, 5]), pairs, pairs, fractions)
def test_integer_exponent_matches_fraction_model(d, ab, cd, r):
    x, y = _from_model(*ab, d), _from_model(*cd, d)
    assert _well_formed(x, d) and _well_formed(y, d)
    (a, b), (c, e) = ab, cd
    s = _ref_sign(a - c, b - e, d)
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert x.sign() == _ref_sign(a, b, d) and x.is_zero() == (a == 0 and b == 0)
    for got, want in ((x + y, (a + c, b + e)), (x - y, (a - c, b - e)), (-x, (-a, -b)), (x.scale(r), (a * r, b * r))):
        assert _well_formed(got, d)
        assert _model(got) == want
        assert got == _from_model(*want, d) and hash(got) == hash(_from_model(*want, d))
    assert (x == y) == (ab == cd)
    if x == y:
        assert hash(x) == hash(y)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    assert Exponent.parse(str(x), d) == x and str(Exponent.parse(str(x), d)) == str(x)
    assert x.is_rational() == (b == 0)
    if b == 0:
        assert x.as_fraction() == a and x.denominator == a.denominator


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(2, 3), (3, 5), (5, 2)]), fractions, fractions)
def test_mixed_square_roots_raise(ds, a, b):
    x = Exponent(a, 1, ds[0])
    y = Exponent(b, -1, ds[1])
    for op in (
        lambda: x + y,
        lambda: x - y,
        lambda: x < y,
        lambda: x <= y,
        lambda: x > y,
        lambda: x >= y,
    ):
        with pytest.raises(FieldMismatch):
            op()
    assert x != y


def test_exponent_fields_are_read_only():
    e = exp("1/2")
    with pytest.raises(AttributeError):
        e.p = 3
    assert (e.p, e.q, e.n, e.d) == (1, 0, 2, None)
    assert pickle.loads(pickle.dumps(e)) == e
    assert pickle.loads(pickle.dumps(Exponent(1, 2, 3))) == Exponent(1, 2, 3)


def test_exponent_hashes_repeat_across_interpreters():
    """Hashes are built from integers only, so the hash of a rational
    exponent does not depend on the address of None in one process."""
    script = (
        "from mustab.exponents import Exponent, exp\n"
        "es = [exp(0), exp(3), exp('-5/2'), exp((1, 1), d=2), Exponent.parse('2/3-1/4*sqrt(5)')]\n"
        "print([hash(e) for e in es])\n"
    )
    src = str(Path(mustab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    outs = [
        subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    assert outs[0] == outs[1] and outs[0].startswith("[")


# -- the memo of sums --------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(exponents, st.lists(exponents, min_size=1, max_size=8))
def test_a_sum_read_from_the_memo_is_the_sum(x, others):
    """x + y is exact and a second x + y is the memo's first; the memo
    keeps nothing on the exponents themselves, so a warm exponent pickles
    and copies as a cold one."""
    fresh = Exponent(x.a, x.b, x.d)
    for y in others + others:
        s = x + y
        assert (s.a, s.b) == (x.a + y.a, x.b + y.b)
        assert x + y is s
    assert x == fresh and hash(x) == hash(fresh) and repr(x) == repr(fresh)
    assert pickle.dumps(x) == pickle.dumps(fresh)
    assert copy.deepcopy(x) == x and copy.copy(x) == x


def test_the_memo_of_sums_stays_within_its_cap():
    """Past _SUMS distinct pairs the memo starts again; every sum stays
    exact, and a sum that raises is not kept."""
    x = exp("1/3")
    for k in range(3 * _SUMS):
        y = exp(Fraction(k, 7))
        assert x + y == Exponent(Fraction(1, 3) + Fraction(k, 7))
        assert 1 <= len(exponents_module._sums) <= _SUMS
    root2, root3 = Exponent(0, 1, 2), Exponent(0, 1, 3)
    with pytest.raises(FieldMismatch):
        root2 + root3
    assert (root2, root3) not in exponents_module._sums
