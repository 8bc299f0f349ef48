"""Univariate factorization fragment."""

import random

from mustab.fields import QQ, FieldSpec
from mustab.factor import scalar_roots, uni_factor
from mustab.poly import PolyRing

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
    assert fac.product() == f


def test_quadratic_over_qsqrt2():
    ring = PolyRing(QS2, ("x",))
    # x^2 - 2 = (x - sqrt2)(x + sqrt2) inside Q(sqrt2)
    fac = uni_factor(ring.parse("x^2 - 2"))
    assert fac.complete and len(fac.factors) == 2


def test_high_degree_over_q_is_flagged():
    ring = PolyRing(QQ, ("x",))
    fac = uni_factor(ring.parse("x^5 + x + 1"))  # no rational roots
    assert fac.unfactored
    assert fac.product() == ring.parse("x^5 + x + 1")


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
        assert fac.product() == f


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
    assert fac.product() == ring.parse("x^2 + 1")


def test_frobenius_power_square_free():
    ring = PolyRing(F5, ("x",))
    f = ring.parse("x^5 - x")  # = prod over F_5 of (x - a)
    fac = uni_factor(f)
    assert fac.complete
    assert len(fac.roots()) == 5
    assert fac.product() == f
    g = ring.parse("x^10 - 2*x^5 + 1")  # (x^5 - 1)^2 = ((x-1)^5)^2
    fac2 = uni_factor(g)
    assert fac2.complete
    assert fac2.product() == g


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
    real_divmod = factor.uni_divmod
    calls = []

    def counted(f, g):
        calls.append(1)
        return real_divmod(f, g)

    monkeypatch.setattr(factor, "uni_divmod", counted)
    for e in range(1, 40):
        calls.clear()
        assert factor._powmod(base, e, mod) == real_divmod(base**e, mod)[1]
        assert len(calls) == 1 + (e.bit_length() - 1) + bin(e).count("1")
