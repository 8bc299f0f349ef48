"""Scalar arithmetic over Q, Q(sqrt d), F_p, F_q."""

import copy
import itertools
import json
import operator
import pickle
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from mustab import fields
from mustab.errors import CoefficientFieldTooSmall, DivisionByZero, FieldMismatch
from mustab.exponents import Exponent
from mustab.fields import PRIME_BOUND, QQ, FieldSpec, Scalar, is_prime, pow_by_squaring
from mustab.groups import GroupScheme
from mustab.ideals import Budgets, Ideal
from mustab.poly import LEX, PolyRing, _Tokens, parse_poly, parse_scalar
from tests_helpers import field_elements, reference_tokens

QS2 = FieldSpec("QSqrt", d=2)
QS5 = FieldSpec("QSqrt", d=5)
QI = FieldSpec("QSqrt", d=-1)  # Q(i)
F5 = FieldSpec("Fp", p=5)
F9 = FieldSpec("Fq", p=3, modulus=(1, 0, 1))  # x^2 + 1 over F_3
F8 = FieldSpec("Fq", p=2, modulus=(1, 1, 0, 1))  # w^3 + w + 1 over F_2
F16 = FieldSpec("Fq", p=2, modulus=(1, 1, 0, 0, 1))  # w^4 + w + 1 over F_2
F27 = FieldSpec("Fq", p=3, modulus=(1, 2, 0, 1))  # w^3 + 2w + 1 over F_3
FINITE_EXTENSIONS = [F8, F9, F16, F27]
QUADRATIC_EXTENSIONS = [QS2, QS5, QI]


def _gen(field):
    """The generator w of an extension field, read from its spelling."""
    return parse_scalar("w" if field.kind == "Fq" else f"sqrt({field.d})", field)


def test_construction_guards():
    with pytest.raises(ValueError):
        FieldSpec("QSqrt", d=4)  # perfect square
    for d in (0, 1, 9, "2", None):
        with pytest.raises(ValueError):
            FieldSpec("QSqrt", d=d)
    with pytest.raises(ValueError):
        FieldSpec("Fp", p=6)
    with pytest.raises(ValueError):
        FieldSpec("Fq", p=5, modulus=(1, 0, 1))  # x^2+1 = (x-2)(x-3) over F_5


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    with pytest.raises(ValueError, match="too large"):
        is_prime(PRIME_BOUND)
    assert [n for n in range(-2, 3000) if is_prime(n)] == [n for n in range(2, 3000) if all(n % f for f in range(2, n))]
    # the least strong pseudoprimes to all prime bases up to 2, 7, 23 and 37
    for n in (2047, 3215031751, 3825123056546413051, 318665857834031151167461, 561 * 1105):
        assert not is_prime(n)
    for n in (2**31 - 1, 2**61 - 1, 10**16 + 61, 10**24 + 7, PRIME_BOUND - 168):
        assert is_prime(n)


def test_difference_of_squares_in_qsqrt2():
    one = QS2.one()
    s = QS2.generator()
    assert (one + s) * (one - s) == -one


def test_inverse_of_two_in_f5():
    assert F5.from_int(2).inv() == F5.from_int(3)


def test_fraction_addition():
    a = QQ.from_fraction(Fraction(2, 3))
    b = QQ.from_fraction(Fraction(1, 6))
    assert a + b == QQ.from_fraction(Fraction(5, 6))


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        QQ.zero().inv()


def test_field_mismatch():
    # Q with F_5 and F_5 with F_7, in Scalar and in Poly arithmetic; the
    # identity fast path in the checks must not let a mismatch through
    F7 = FieldSpec("Fp", p=7)
    for a, b in ((QQ, F5), (F5, F7)):
        x, y = a.from_int(2), b.from_int(3)
        px, py = PolyRing(a, ("x",)).var("x"), PolyRing(b, ("x",)).var("x")
        for left, right in ((x, y), (y, x), (px, py), (py, px)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(FieldMismatch):
                    op(left, right)
        with pytest.raises(FieldMismatch):
            x / y
    # one field, different variables: only the ring check can see this
    px, py = PolyRing(F5, ("x",)).var("x"), PolyRing(F5, ("y",)).var("y")
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(FieldMismatch):
            op(px, py)
    # a scalar of another field is not lifted into a ring, zero included
    px = PolyRing(QQ, ("x",)).var("x")
    for c in (F5.from_int(3), F5.zero(), QS2.one()):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(FieldMismatch):
                op(px, c)
    assert str(px + FieldSpec("Q").from_int(3)) == "x + 3"
    # equal specs built separately still combine
    assert F5.from_int(2) + FieldSpec("Fp", p=5).from_int(3) == F5.zero()
    assert PolyRing(F5, ("x",)).var("x") * PolyRing(FieldSpec("Fp", p=5), ("x",)).var("x") == PolyRing(F5, ("x",)).parse("x^2")


def test_records_print_compare_freeze_and_pickle_field_by_field():
    """The reprs a report can carry (a PolyRing's through the "polynomial
    rings differ" FieldMismatch, which a job reports as its message) print
    every field; the immutable records, scalars of each field kind and
    exponents included, refuse assignment and deletion, hash their compared
    fields and survive pickle and copy; an Ideal's basis_order takes no part
    in ==, hash or repr."""
    ring = PolyRing(QQ, ("x", "y"))
    q_spec = "FieldSpec(kind='Q', d=None, p=None, modulus=None)"
    assert repr(ring) == f"PolyRing(field={q_spec}, variables=('x', 'y'))"
    assert repr(GroupScheme("SL", 2, QQ)) == f"GroupScheme(kind='SL', n=2, field={q_spec}, parent=None, subgroup_ideal=None)"
    assert repr(Budgets()) == "Budgets(precision=12, degree_bound=8, order_budget=6)"
    with pytest.raises(FieldMismatch, match=r"polynomial rings differ: PolyRing\(field=FieldSpec\(kind='Q'"):
        ring.var("x") + PolyRing(QQ, ("x",)).var("x")

    sl2 = GroupScheme("SL", 2, QQ)
    scalars = [QQ.from_fraction(Fraction(-2, 3)), QS2.generator() + QS2.one(), F5.from_int(3), F9.generator()]
    exponents = [Exponent(Fraction(-3, 2)), Exponent(1, Fraction(1, 2), 2)]
    frozen = [
        (QQ, ("kind", "d", "p", "modulus")),
        (F9, ("kind", "d", "p", "modulus")),
        (ring, ("field", "variables")),
        (sl2, ("kind", "n", "field", "parent", "subgroup_ideal")),
        (sl2.identity(), ("scheme", "entries", "y")),
        (Ideal(ring, (ring.var("x"),)), ("ring", "gens", "basis_order")),
        *((x, ("field", "rep")) for x in scalars),
        *((e, ("p", "q", "n", "d")) for e in exponents),
    ]
    for record, fields in frozen:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        if type(record) is not Exponent:  # Exponent(a, b, d) does not take its fields
            assert hash(record) == hash(type(record)(*(getattr(record, n) for n in fields)))

    for record in (QQ, QS2, F5, F9, ring, PolyRing(F9, ("x", "y")), *scalars, *exponents):
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record and hash(twin) == hash(record)
            assert repr(twin) == repr(record)

    x = ring.var("x")
    plain, marked = Ideal(ring, (x,)), Ideal(ring, (x,), LEX)
    assert plain == marked and hash(plain) == hash(marked) and repr(plain) == repr(marked)
    assert "basis_order" not in repr(marked) and marked.basis_order is LEX

    assert Budgets() == Budgets() and Budgets(precision=4) != Budgets() and Budgets() != ring
    with pytest.raises(TypeError):
        hash(Budgets())


def test_fq_arithmetic_and_inverse():
    w = F9.generator()
    # w^2 = -1 in F_9
    assert w * w == -F9.one()
    for a in field_elements(F9):
        if not a.is_zero():
            assert (a * a.inv()).is_one()


def test_canonical_forms_are_unique():
    assert F5.from_int(7) == F5.from_int(2)
    assert QQ.from_fraction(Fraction(2, 4)) == QQ.from_fraction(Fraction(1, 2))


def test_sqrt_in_each_field():
    assert QQ.from_fraction(Fraction(9, 4)).sqrt() == QQ.from_fraction(Fraction(3, 2))
    assert QQ.from_int(2).sqrt() is None
    # (1 + sqrt2)^2 = 3 + 2 sqrt2
    x = QS2.one() + QS2.generator()
    sq = x * x
    r = sq.sqrt()
    assert r is not None and r * r == sq
    assert F5.from_int(4).sqrt() is not None
    assert F5.from_int(2).sqrt() is None  # 2 is not a QR mod 5
    for a in field_elements(F9):
        sq = a * a
        r = sq.sqrt()
        assert r is not None and r * r == sq
    # brute force over F_8, F_16 and F_27: a root exactly for the squares
    for field in (F8, F16, F27):
        elems = field_elements(field)
        squares = {x * x for x in elems}
        for a in elems:
            r = a.sqrt()
            assert (r is not None and r * r == a) if a in squares else r is None
    # squares in Q(sqrt 5) and Q(i) have roots that square back; sqrt(d)
    # itself and a rational non-square have none
    for field in (QS5, QI):
        w = _gen(field)
        for a, b in itertools.product((-3, 0, Fraction(1, 2), 2), repeat=2):
            x = field.from_fraction(Fraction(a)) + field.from_fraction(Fraction(b)) * w
            r = (x * x).sqrt()
            assert r is not None and r * r == x * x
        assert w.sqrt() is None and field.from_int(3).sqrt() is None
    assert QI.from_int(-1).sqrt() in (_gen(QI), -_gen(QI))
    assert QS5.from_int(5).sqrt() in (_gen(QS5), -_gen(QS5))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17, 41])
def test_fp_sqrt_matches_brute_force(p):
    field = FieldSpec("Fp", p=p)
    elems = [field.from_int(i) for i in range(p)]
    squares = {x * x for x in elems}
    for a in elems:
        r = a.sqrt()
        if a in squares:
            assert r is not None and r * r == a
        else:
            assert r is None


def _has_monic_factor(m, p):
    """Brute force: a monic g of degree 1..deg(m)/2 divides the monic m
    (coefficients mod p, lowest first), by long division."""
    n = len(m) - 1
    for k in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=k):
            g = low + (1,)
            r = list(m)
            for s in range(n - k, -1, -1):
                c = r[s + k]
                for i in range(k + 1):
                    r[s + i] = (r[s + i] - c * g[i]) % p
            if not any(r[:k]):
                return True
    return False


@pytest.mark.parametrize("p, degrees", [(2, (2, 3, 4)), (3, (2, 3, 4)), (5, (2, 3))])
def test_fq_modulus_is_accepted_exactly_when_irreducible(p, degrees):
    for n in degrees:
        for low in itertools.product(range(p), repeat=n):
            m = low + (1,)
            if _has_monic_factor(m, p):
                with pytest.raises(ValueError, match="reducible"):
                    FieldSpec("Fq", p=p, modulus=m)
            else:
                assert FieldSpec("Fq", p=p, modulus=m).order == p**n


@pytest.mark.parametrize("field", [F5, F9, F8, F16, F27], ids=["F5", "F9", "F8", "F16", "F27"])
def test_element_i_is_the_ith_of_elements(field):
    from mustab.groups import random_scalar

    listed = field_elements(field)
    assert len(set(listed)) == field.order
    # a draw takes the element at the drawn index
    for seed in range(5):
        i = random.Random(seed).randrange(field.order)
        assert random_scalar(field, random.Random(seed)) == listed[i]


def test_big_fields_are_sampled_without_listing():
    from mustab import factor
    from mustab.groups import random_scalar

    p = 1000003  # 3 mod 4: -1 is a nonsquare, so x^2 + 1 is irreducible
    big = [FieldSpec("Fp", p=p), FieldSpec("Fq", p=p, modulus=(1, 0, 1))]
    for field in big:
        rng = random.Random(3)
        assert random_scalar(field, rng, nonzero=True).field == field
        assert random_scalar(field, rng).field == field
        # a square root is the first root of x^2 - a, found without listing
        assert field.from_int(4).sqrt() == field.from_int(2)
        # Cantor-Zassenhaus draws its random polynomials element by element
        x = PolyRing(field, ("x",)).var("x")
        f = factor._dense((x - field.from_int(1)) * (x - field.from_int(2)))[0]
        assert {g[0] for g in factor._equal_degree(f, 1)} == {-field.from_int(1), -field.from_int(2)}


def test_kth_root():
    assert QQ.from_int(8).kth_root(3) == QQ.from_int(2)
    assert F5.from_int(2).kth_root(3) == F5.from_int(3)  # 3^3 = 27 = 2 mod 5


@pytest.mark.parametrize("field", [F5, FieldSpec("Fp", p=7), F8, F9, F27], ids=str)
@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_finite_kth_root_is_the_first_root_in_element_order(field, k):
    elements = field_elements(field)
    for a in elements:
        first = next((c for c in elements if c**k == a), None)
        if first is None:
            with pytest.raises(CoefficientFieldTooSmall):
                a.kth_root(k)
        else:
            assert a.kth_root(k) == first


def test_kth_root_over_a_large_prime_field_is_decided_quickly():
    F = FieldSpec("Fp", p=1000003)  # 3 divides p - 1, so 2 is no cube
    start = time.perf_counter()
    with pytest.raises(CoefficientFieldTooSmall):
        F.from_int(2).kth_root(3)
    assert time.perf_counter() - start < 0.1
    assert F.from_int(8).kth_root(3) == F.from_int(2)


@given(st.sampled_from(QUADRATIC_EXTENSIONS), st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 12))
def test_field_axioms_qsqrt(field, a, b, c, n):
    w = _gen(field)
    x = field.from_int(a) + w * field.from_int(b)
    y = field.from_int(c) - w
    z = field.from_fraction(Fraction(a, n)) + w * field.from_fraction(Fraction(c, n))
    assert x * y == y * x
    assert (x + y) * y == x * y + y * y
    assert (x * y) * z == x * (y * z) and (x + y) + z == x + (y + z)
    assert x - x == field.zero() and x + (-x) == field.zero()
    for u in (x, z):
        if not u.is_zero():
            assert (u * u.inv()).is_one() and (y / u) * u == y


@given(st.sampled_from(FINITE_EXTENSIONS), st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_field_axioms_f9(field, i, j, k):
    x, y, z = (field.element(n % field.order) for n in (i, j, k))
    assert x * y == y * x
    assert x + y == y + x
    assert (x + y) * x == x * x + y * x
    assert (x * y) * z == x * (y * z) and (x + y) + z == x + (y + z)
    assert x - x == field.zero() and x + (-x) == field.zero()
    if not x.is_zero():
        assert (x * x.inv()).is_one() and (y / x) * x == y
        assert x ** (field.order - 1) == field.one()


def test_scalar_str_roundtrip():
    from mustab.poly import parse_scalar

    for field, text in [
        (QQ, "5/6"),
        (QQ, "-7"),
        (QS2, "1+2*sqrt(2)"),
        (QS2, "-1/2*sqrt(2)"),
        (F5, "3"),
        (F9, "2*w+1"),
        (QS5, "1/2+3/2*sqrt(5)"),
        (QI, "1-sqrt(-1)"),
        (QI, "-2/3*sqrt(-1)"),
        (F8, "w^2+1"),
        (F27, "2*w^2+w+2"),
    ]:
        s = parse_scalar(text, field)
        assert parse_scalar(str(s), field) == s


@pytest.mark.parametrize("text, field", [
    ("1/0", QQ), ("2/5", F5), ("sqrt(3)", QQ), ("x", QQ),  # errors
    ("-3/6", QQ), ("7", F5), ("-0", F9), ("12/7", QS2), ("0/4", F5), ("1 / 2", QQ), ("+3", F5), ("--3", QQ),
    ("", QQ), ("-", QQ), ("1/", QQ), ("1/2/3", QQ), ("²", QQ),
])
def test_plain_scalars_read_as_the_grammar_reads_them(text, field):
    """parse_scalar's direct path for integers and a/b gives the grammar's
    value, or raises its error class with its message."""
    def outcome(read):
        try:
            value = read()
        except Exception as exc:
            return type(exc), str(exc)
        return value.field, value.rep

    grammar = outcome(lambda: parse_poly(text, PolyRing(field, ())).constant_coefficient())
    assert outcome(lambda: parse_scalar(text, field)) == grammar


def test_pow_by_squaring_skips_the_last_square():
    """One square-and-multiply serves Scalar, Poly and series powers; it
    multiplies exactly as many times as binary powering needs."""
    class Counted:
        def __init__(self, value, log):
            self.value, self.log = value, log

        def __mul__(self, other):
            self.log.append(other.value)
            return Counted(self.value * other.value, self.log)

    for e in range(0, 40):
        log = []
        out = pow_by_squaring(Counted(3, log), e, Counted(1, log))
        assert out.value == 3**e
        # squarings: bit_length - 1; products: popcount
        assert len(log) == max(e.bit_length() - 1, 0) + bin(e).count("1")
    assert QQ.from_int(2) ** -3 == QQ.from_fraction(Fraction(1, 8))


# Q scalars are (numerator, denominator) int pairs; Fraction is the reference
_ints = st.one_of(st.integers(-6, 6), st.integers(-(10**40), 10**40))
_dens = st.one_of(st.integers(1, 6), st.integers(1, 10**40))
_fractions = st.one_of(st.just(Fraction(0)), st.builds(Fraction, _ints, _dens))


def _assert_q(s, ref: Fraction):
    n, d = s.rep
    assert type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1
    assert Fraction(n, d) == ref and s.as_fraction() == ref
    assert str(s) == str(ref)
    assert s.is_zero() == (ref == 0) and s.is_one() == (ref == 1)


@settings(max_examples=300)
@given(_fractions, _fractions, st.integers(-4, 4))
def test_q_arithmetic_matches_fraction(a, b, e):
    x, y = QQ.from_fraction(a), QQ.from_fraction(b)
    y2 = FieldSpec("Q").from_fraction(b)  # an equal spec built separately
    for s, ref in ((x, a), (x + y, a + b), (x - y, a - b), (x - y2, a - b), (x + y2, a + b), (x * y, a * b), (-x, -a)):
        _assert_q(s, ref)
    if b:
        _assert_q(x / y, a / b)
        _assert_q(y.inv(), 1 / b)
    else:
        with pytest.raises(DivisionByZero):
            x / y
    if a or e >= 0:
        _assert_q(x**e, a**e)
    _assert_q(QQ.from_fraction(a * a).sqrt(), abs(a))
    _assert_q(QQ.from_fraction(a**3).kth_root(3), a)
    assert (x == y) == (a == b) and (x == y2) == (a == b)
    if a == b:
        assert hash(x) == hash(y) == hash(y2)
    # the public constructor reduces a Fraction, an int or a pair
    assert Scalar(QQ, a) == x == Scalar(QQ, (a.numerator * 3, a.denominator * 3))
    assert Scalar(QQ, 5) == QQ.from_int(5)


_SCALARS = {
    "Q": QQ.from_fraction(Fraction(-7, 3)),
    "QSqrt": QS2.from_fraction(Fraction(1, 2)) + _gen(QS2),
    "QSqrt_5": QS5.from_fraction(Fraction(-3, 4)) * _gen(QS5) + QS5.one(),
    "QSqrt_-1": QI.from_fraction(Fraction(2, 5)) - _gen(QI),
    "Fp": F5.from_int(3),
    "Fq": _gen(F9) + F9.one(),
    "Fq_8": _gen(F8) ** 2 + F8.one(),
    "Fq_16": _gen(F16) ** 3 + _gen(F16),
    "Fq_27": _gen(F27) * F27.from_int(2) + F27.one(),
}


@pytest.mark.parametrize("kind", sorted(_SCALARS))
def test_scalar_pickles_copies_and_is_immutable(kind):
    s = _SCALARS[kind]
    for t in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        assert type(t) is Scalar and t == s and hash(t) == hash(s) and str(t) == str(s)
        assert t * s == s * s and t - s == s.field.zero()
    for name in ("rep", "field", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
    with pytest.raises(AttributeError):
        del s.rep
    assert s == _SCALARS[kind] and s.field.kind == kind.split("_")[0]


@pytest.mark.parametrize("kind", sorted(_SCALARS))
def test_interned_scalars_keep_their_value_semantics(kind):
    """A field hands out one Scalar per canonical rep it has interned; a
    pickled or deep-copied field or scalar compares and hashes equal to the
    original and carries no table, and equal fields stay equal whatever
    their tables hold."""
    s = _SCALARS[kind]
    field = s.field
    assert field.one() is field.one() and (s * field.one() is s) == (s.rep in field._interned)
    table = field._interned
    assert table and all(x.rep == rep and x.field is field for rep, x in table.items())
    for twin in (pickle.loads(pickle.dumps(field)), copy.deepcopy(field)):
        assert twin == field and hash(twin) == hash(field) and "_interned" not in twin.__dict__
    for t in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert t == s and hash(t) == hash(s) and t is not s
        assert "_interned" not in t.field.__dict__
    assert len(pickle.dumps(field)) == len(pickle.dumps(copy.deepcopy(field)))
    # equal specs with different tables
    a, b = copy.deepcopy(field), copy.deepcopy(field)
    a.one(), b.from_int(2), b.from_int(3)
    assert a._interned.keys() != b._interned.keys()
    assert a == b and hash(a) == hash(b) and a.one() == b.one() and a.one() + b.one() == b.from_int(2)


def test_the_interned_table_is_capped_and_arithmetic_stays_exact():
    """After twice the cap of distinct values a field holds exactly the cap;
    values past it are built unshared and compute as before."""
    cap = fields._INTERNED
    field = FieldSpec("Q")
    values = [field.from_int(n) for n in range(2 * cap)]
    assert len(field._interned) == cap
    assert field.from_int(cap - 1) is values[cap - 1]
    late = field.from_int(2 * cap - 1)
    assert late == values[-1] and late is not values[-1] and hash(late) == hash(values[-1])
    total = field.zero()
    for x in values:
        total = total + x
    assert total.as_fraction() == Fraction(2 * cap * (2 * cap - 1), 2)
    half = field.from_fraction(Fraction(1, 2))
    for n in (0, 1, cap - 1, cap, 2 * cap - 1):
        x = values[n]
        assert (x * half).as_fraction() == Fraction(n, 2) and (x - late).as_fraction() == n - (2 * cap - 1)
        assert n == 0 or (x.inv() * x).is_one()
    assert len(field._interned) == cap


# each extension: its str, its JSON, element(i) by base-p digits, and a few
# values computed by hand
_EXTENSION_PINS = {
    "F8": (F8, "F_2^3", ["0", "1", "w", "w+1", "w^2", "w^2+1", "w^2+w", "w^2+w+1"], [("w^3", "w+1"), ("w^-1", "w^2+1"), ("w^7", "1")]),
    "F16": (F16, "F_2^4", ["0", "1", "w", "w+1", "w^2"], [("w^4", "w+1"), ("(w^2+w)^-1", "w^2+w+1"), ("w^15", "1")]),
    "F27": (F27, "F_3^3", ["0", "1", "2", "w", "w+1", "w+2", "2*w"], [("w^3", "w+2"), ("w^-1", "2*w^2+1"), ("w^26", "1")]),
    "Q(sqrt5)": (QS5, "Q(sqrt(5))", None, [("(1/2+1/2*sqrt(5))^2", "3/2+1/2*sqrt(5)"), ("(1/2+1/2*sqrt(5))^-1", "-1/2+1/2*sqrt(5)"), ("sqrt(5)^3", "5*sqrt(5)")]),
    "Q(i)": (QI, "Q(sqrt(-1))", None, [("sqrt(-1)^2", "-1"), ("(1+sqrt(-1))^-1", "1/2-1/2*sqrt(-1)"), ("(2-3*sqrt(-1))*(2+3*sqrt(-1))", "13")]),
}


@pytest.mark.parametrize("data", [
    {"kind": "Fp", "p": 7.0},
    {"kind": "Fq", "p": 3, "modulus": [1, 0, 1.0]},
    {"kind": "QSqrt", "d": "2"},
])
def test_from_json_coerces_no_parameter(data):
    """A parameter that is not a JSON integer names no field."""
    with pytest.raises(ValueError):
        FieldSpec.from_json(data)


@pytest.mark.parametrize("name", sorted(_EXTENSION_PINS))
def test_extension_str_json_and_element_order(name):
    field, text, first, values = _EXTENSION_PINS[name]
    assert str(field) == text
    data = json.loads(json.dumps(field.to_json()))
    assert FieldSpec.from_json(data) == field and data["kind"] == field.kind
    if first is not None:
        assert [str(field.element(i)) for i in range(len(first))] == first
        elements = field_elements(field)
        assert len(set(elements)) == field.order == field.p ** (len(field.modulus) - 1)
    else:
        w = _gen(field)
        elements = [field.from_fraction(Fraction(a, 3)) + field.from_fraction(Fraction(b, 2)) * w for a in range(-3, 4) for b in range(-2, 3)]
    for s in elements:
        assert parse_scalar(str(s), field) == s
    for expr, value in values:
        assert str(parse_scalar(expr, field) if "^-" not in expr else _power(expr, field)) == value


def _power(expr, field):
    """base^-k, which the scalar parser does not read: the inverse of base^k."""
    base, k = expr.rsplit("^-", 1)
    return parse_scalar(base, field).inv() ** int(k)


@pytest.mark.parametrize("name", ["F8", "F16", "F27", "Q(sqrt5)", "Q(i)"])
def test_embed_from_the_base_field(name):
    field = _EXTENSION_PINS[name][0]
    if field.p:
        base = FieldSpec("Fp", p=field.p)
        values = field_elements(base)
        assert [c.embed(field) for c in values] == [field.element(i) for i in range(field.p)]
        other = FieldSpec("Fp", p=5 if field.p != 5 else 7)
    else:
        base = QQ
        values = [QQ.from_fraction(Fraction(a, b)) for a in range(-4, 5) for b in (1, 2, 7)]
        assert [c.embed(field) for c in values] == [field.from_fraction(c.as_fraction()) for c in values]
        other = QS2
    for a, b in itertools.product(values[:6], repeat=2):
        assert (a + b).embed(field) == a.embed(field) + b.embed(field)
        assert (a * b).embed(field) == a.embed(field) * b.embed(field)
    assert field.one().embed(field) == field.one()
    for wrong in (other.one(), _gen(field)):
        with pytest.raises(FieldMismatch):
            wrong.embed(base)
    with pytest.raises(FieldMismatch):
        other.one().embed(field)


@pytest.mark.parametrize("field", [F5, FieldSpec("Fp", p=7), F8, F9, F27], ids=str)
def test_finite_kth_roots_are_every_root(field):
    """kth_roots lists each k-th root once, for k prime to p, dividing
    q - 1 or neither."""
    elements = field_elements(field)
    for k in range(1, 13):
        for a in elements:
            roots = a.kth_roots(k)
            assert len(set(roots)) == len(roots)
            assert set(roots) == {c for c in elements if c**k == a}


def test_kth_roots_in_a_large_two_power_sylow_subgroup():
    """F_65537^* has order 2^16: a 2^j-th root comes digit by digit from a
    root of unity of order 2^16, found without listing the field."""
    F = FieldSpec("Fp", p=65537)
    a = F.from_int(3) ** 1024
    for k in (2, 4, 8, 1024):
        roots = a.kth_roots(k)
        assert len(roots) == k and len(set(roots)) == k and all(r**k == a for r in roots)
    assert F.from_int(3).kth_roots(2) == []  # 3 generates F_65537^*


# ASCII syntax, spaces, and characters where str.isdigit, str.isalpha and
# the re classes part: superscript and Ethiopic digits (isdigit, not \d),
# Arabic-Indic digits (\d), numerics that are no digit (½, Ⅻ), a numeric
# letter (一), letters with accents, a no-break space and characters no
# token starts with
TOKEN_CHARS = "x1y_2 +-*/^()" + "²³₂፩٣½Ⅻ一éß\u00a0.,!#\u200b"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from(TOKEN_CHARS), max_size=12) | st.text(max_size=8))
def test_one_pattern_scans_as_the_character_scanner(text):
    """The polynomial scanner's one pattern gives every text the token list
    of the character-by-character scanner, or raises ValueError where it
    did."""
    try:
        want = reference_tokens(text)
    except ValueError:
        with pytest.raises(ValueError):
            _Tokens(text)
        return
    assert _Tokens(text).toks == want


@settings(max_examples=100, deadline=None)
@given(st.fractions(max_denominator=10**6))
def test_a_rational_scalar_prints_as_its_fraction(q):
    assert str(QQ.from_fraction(q)) == str(q)
