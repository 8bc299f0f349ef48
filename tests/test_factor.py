"""Univariate factorization fragment."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mustab.fields import QQ, FieldSpec
from mustab.factor import scalar_roots, uni_factor
from mustab.poly import PolyRing
from tests_helpers import factorization_product, uni_divmod

F5 = FieldSpec("Fp", p=5)
QS2 = FieldSpec("QSqrt", d=2)


def test_x2_minus_1_over_q():
    ring = PolyRing(QQ, ("x",))
    fac = uni_factor(ring.parse("x^2 - 1"))
    assert fac.complete
    assert sorted(str(f) for f, _ in fac.factors) == ["x + 1", "x - 1"]


def test_x2_plus_1_over_f5():
    # 2^2 = 4 = -1 mod 5, so the roots are 2 and 3
    ring = PolyRing(F5, ("x",))
    fac = uni_factor(ring.parse("x^2 + 1"))
    assert fac.complete
    roots = sorted(r.rep for r, _ in fac.roots())
    assert roots == [2, 3]


def test_x2_plus_1_over_q_irreducible():
    ring = PolyRing(QQ, ("x",))
    fac = uni_factor(ring.parse("x^2 + 1"))
    assert fac.complete
    assert len(fac.factors) == 1 and fac.factors[0][0].total_degree() == 2


def test_multiplicities_and_unit():
    ring = PolyRing(QQ, ("x",))
    f = ring.parse("2*x^3 - 4*x^2 + 2*x")  # 2 x (x-1)^2
    fac = uni_factor(f)
    assert fac.unit == QQ.from_int(2)
    assert sorted((str(g), m) for g, m in fac.factors) == [("x", 1), ("x - 1", 2)]
    assert factorization_product(fac) == f


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_constant_factorization_multiplies_back(field):
    """A nonzero constant factors as its unit alone; the product is built in
    the constant's own ring."""
    ring = PolyRing(field, ("x",))
    fac = uni_factor(ring.from_int(3))
    assert fac.complete and not fac.factors
    assert factorization_product(fac) == ring.from_int(3)


def test_quadratic_over_qsqrt2():
    ring = PolyRing(QS2, ("x",))
    # x^2 - 2 = (x - sqrt2)(x + sqrt2) inside Q(sqrt2)
    fac = uni_factor(ring.parse("x^2 - 2"))
    assert fac.complete and len(fac.factors) == 2


def test_high_degree_over_q_is_flagged():
    ring = PolyRing(QQ, ("x",))
    fac = uni_factor(ring.parse("x^5 + x + 1"))  # no rational roots
    assert fac.unfactored
    assert factorization_product(fac) == ring.parse("x^5 + x + 1")


def test_charp_complete_factorization_product_property():
    rng = random.Random(3)
    ring = PolyRing(F5, ("x",))
    x = ring.var("x")
    for _ in range(20):
        f = ring.one()
        for _ in range(rng.randrange(1, 4)):
            g = x + ring.from_int(rng.randrange(5))
            f = f * g ** rng.randrange(1, 3)
        fac = uni_factor(f)
        assert fac.complete
        assert factorization_product(fac) == f


def test_charp_irreducible_quadratic_detected():
    ring = PolyRing(F5, ("x",))
    fac = uni_factor(ring.parse("x^2 + 2"))  # 2 is a non-residue mod 5
    assert fac.complete
    assert len(fac.factors) == 1 and fac.factors[0][0].total_degree() == 2


def test_fq_factorization():
    F9 = FieldSpec("Fq", p=3, modulus=(1, 0, 1))
    ring = PolyRing(F9, ("x",))
    fac = uni_factor(ring.parse("x^2 + 1"))  # roots are w and -w since w^2 = -1
    assert fac.complete
    assert len(fac.roots()) == 2
    assert factorization_product(fac) == ring.parse("x^2 + 1")


def test_frobenius_power_square_free():
    ring = PolyRing(F5, ("x",))
    f = ring.parse("x^5 - x")  # = prod over F_5 of (x - a)
    fac = uni_factor(f)
    assert fac.complete
    assert len(fac.roots()) == 5
    assert factorization_product(fac) == f
    g = ring.parse("x^10 - 2*x^5 + 1")  # (x^5 - 1)^2 = ((x-1)^5)^2
    fac2 = uni_factor(g)
    assert fac2.complete
    assert factorization_product(fac2) == g


def test_scalar_roots_helper():
    ring = PolyRing(QQ, ("c",))
    roots = scalar_roots(ring.parse("c^2 - 3*c + 2"))
    assert sorted(str(r) for r in roots) == ["1", "2"]


def test_powmod_skips_the_last_square(monkeypatch):
    """The F_q[x] power behind distinct- and equal-degree splitting squares
    and multiplies exactly as often as binary powering needs: one reduction
    of the base, then one per product."""
    from mustab import factor

    ring = PolyRing(FieldSpec("Fp", p=5), ("x",))
    base, mod = ring.parse("x + 2"), ring.parse("x^3 + x + 1")
    dense_base, dense_mod = factor._dense(base)[0], factor._dense(mod)[0]
    real_divmod = factor._divmod
    calls = []

    def counted(f, g):
        calls.append(1)
        return real_divmod(f, g)

    monkeypatch.setattr(factor, "_divmod", counted)
    for e in range(1, 40):
        calls.clear()
        got = factor._powmod(dense_base, e, dense_mod)
        assert len(calls) == 1 + (e.bit_length() - 1) + bin(e).count("1")
        assert got == factor._dense(uni_divmod(base**e, mod)[1])[0]


F2 = FieldSpec("Fp", p=2)
F3 = FieldSpec("Fp", p=3)
F8 = FieldSpec("Fq", p=2, modulus=(1, 1, 0, 1))
F9 = FieldSpec("Fq", p=3, modulus=(1, 0, 1))


def _random_coefficient(field, rng):
    if field.order:
        return field.element(rng.randrange(field.order))
    c = field.from_int(rng.randrange(-3, 4))
    if field.modulus:
        c = c + field.generator() * field.from_int(rng.randrange(-2, 3))
    return c


@pytest.mark.parametrize("field", [QQ, QS2, F2, F3, F5, F8, F9], ids=str)
def test_uni_factor_of_random_products(field):
    """Products of small factors with repeats, in the second variable of a
    two-variable ring: the factorization multiplies back to f, its factors
    are monic and pairwise distinct, and each linear factor gives a root."""
    rng = random.Random(7)
    ring = PolyRing(field, ("x", "y"))
    y = ring.var("y")
    for _ in range(25):
        lead = _random_coefficient(field, rng)
        f = ring.from_scalar(field.one() if lead.is_zero() else lead)
        for _ in range(rng.randrange(1, 4)):
            g = y ** rng.randrange(1, 4)
            for e in range(g.total_degree()):
                g = g + ring.monomial((0, e), _random_coefficient(field, rng))
            f = f * g ** rng.randrange(1, 5)
        fac = uni_factor(f)
        assert factorization_product(fac) == f
        parts = [g for g, _ in fac.factors + fac.unfactored]
        assert len(set(parts)) == len(parts)
        for g in parts:
            assert g.variables_used() == {"y"}
            assert g.terms[(0, g.total_degree())].is_one()
        for r, _ in fac.roots():
            assert f.eval_scalars({"y": r}).is_zero()


def test_char0_square_of_an_unsplit_cubic_stays_one_part():
    ring = PolyRing(QQ, ("x", "y"))
    cubic = ring.parse("y^3 + y + 1")
    fac = uni_factor(cubic**2)
    assert fac.factors == [] and fac.unfactored == [(cubic, 2)]


def test_equal_degree_draws_do_not_depend_on_string_hashing():
    """The Cantor-Zassenhaus draws are seeded from the coefficients, so a
    split takes the same draws under every PYTHONHASHSEED."""
    script = """
import random
from mustab.factor import uni_factor
from mustab.fields import FieldSpec
from mustab.poly import PolyRing

draws = 0
real = random.Random.randrange

def counted(self, *args):
    global draws
    draws += 1
    return real(self, *args)

random.Random.randrange = counted
ring = PolyRing(FieldSpec("Fp", p=101), ("x",))
f = ring.one()
for a in range(1, 9):
    f = f * (ring.var("x") - ring.from_int(a * a + 3))
assert len(uni_factor(f).factors) == 8
print(draws)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    counts = set()
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        counts.add(int(done.stdout))
    assert len(counts) == 1


@pytest.mark.parametrize("field", [QQ, QS2, F5, F9], ids=str)
def test_linear_and_monomial_inputs_factor_as_the_general_path(field):
    """A c + b and u c^k skip the square-free loop; the answer is that of
    the loop: the same factors, multiplicities, order and unit.  The last
    input, c times a quintic, keeps the loop: over Q(sqrt 2) it leaves the
    quintic unfactored."""
    from mustab import factor

    ring = PolyRing(field, ("x", "y"))
    a = _random_coefficient(field, random.Random(5))
    a = field.from_int(3) if a.is_zero() else a
    y = ring.var("y")
    cases = [
        y * ring.from_int(2) + ring.from_int(3),
        y - ring.from_scalar(a),
        y * ring.from_scalar(a),
        y,
        y**5 * ring.from_scalar(a),
        y**6,
        ring.var("x") ** 3 * ring.from_int(2),
        y * (y**5 + y * ring.from_int(2) + ring.from_scalar(a)),
    ]
    for f in cases:
        dense, i = factor._dense(f)
        factors, unfactored = factor._factor_monic(factor._monic(dense))
        general = sorted(((factor._poly(h, ring, i), m) for h, m in factors), key=lambda t: (t[0].total_degree(), str(t[0])))
        fac = uni_factor(f)
        assert (fac.unit, fac.factors, fac.unfactored) == (dense[-1], general, [(factor._poly(h, ring, i), m) for h, m in unfactored])
