"""Group element arithmetic, integrality, residues, mu, Iwasawa."""

import random
from fractions import Fraction

import pytest

from mustab.errors import NotIntegral, NotOnGroup, PrecisionInsufficient, SingularAtPrecision
from mustab.exponents import exp
from mustab.fields import QQ, FieldSpec
from mustab.groups import (
    GroupElement,
    GroupScheme,
    KPoint,
    iwasawa,
    mat_adjugate,
    mat_det,
    mat_mul,
    random_kpoint,
    random_scalar,
)
from mustab.poly import PolyRing
from mustab.series import PuiseuxSeries
from tests_helpers import (
    agrees,
    is_identity,
    random_integral_point,
    random_laurent,
    random_laurent_point,
    random_mu_point,
)

F5 = FieldSpec("Fp", p=5)
F9 = FieldSpec("Fq", p=3, modulus=(1, 0, 1))
QS2 = FieldSpec("QSqrt", d=2)
SL2 = GroupScheme("SL", 2, QQ)
ADD2 = GroupScheme("Additive", 2, QQ)


def S(*terms, prec=None, dom=QQ):
    return PuiseuxSeries(dom, [(exp(e), dom.from_int(c)) for e, c in terms], None if prec is None else exp(prec))


def Z():
    return PuiseuxSeries.zero(QQ)


X1_BRANCH = ((S((-1, 1)), S((0, 1))), (Z(), S((1, 1))))  # [[t^-1, 1], [0, t]]


def test_unipotent_times_torus_point():
    # [[1,g],[0,1]] * [[a,1],[0,a^-1]] = [[a, 1+g/a],[0,a^-1]] with a = t^-1
    g = 3
    u = GroupElement(SL2, ((S((0, 1)), S((0, g))), (Z(), S((0, 1)))))
    x = GroupElement(SL2, X1_BRANCH)
    prod = u.mul(x)
    assert prod.entries[0][0] == S((-1, 1))
    assert prod.entries[0][1] == S((0, 1), (1, g))
    assert prod.entries[1][0].is_zero()
    assert prod.entries[1][1] == S((1, 1))


def test_inverse_by_adjugate():
    x = GroupElement(SL2, X1_BRANCH)
    xi = x.inv()
    assert xi.entries == ((S((1, 1)), S((0, -1))), (Z(), S((-1, 1))))
    assert is_identity(x.mul(xi).res())


def test_additive_componentwise():
    a = GroupElement(ADD2, (S((-1, 1)), Z()))
    b = GroupElement(ADD2, (Z(), S((1, 1))))
    assert a.mul(b).entries == (S((-1, 1)), S((1, 1)))
    assert a.inv().entries == (S((-1, -1)), Z())


def test_scheme_validation():
    with pytest.raises(NotOnGroup):
        GroupElement(SL2, ((S((-1, 1)), S((0, 1))), (Z(), S((1, 2)))))  # det = 2


def test_is_integral():
    assert GroupElement(SL2, ((S((0, 1)), Z()), (S((1, 1)), S((0, 1))))).is_integral()
    assert not GroupElement(SL2, X1_BRANCH).is_integral()
    assert GroupElement(ADD2, (S((1, 1)), S((2, 1)))).is_integral()
    # unimodular entries but determinant of positive valuation fails for GL
    gl1 = GroupScheme("GL", 1, QQ)
    assert not GroupElement(gl1, ((S((1, 1)),),)).is_integral()


def series_det_is_integral(g) -> bool:
    """The integrality test that expands the series determinant, kept as
    the reference for the test on residues."""
    for s in g.entries_flat():
        if s.terms:
            if s.terms[0][0].sign() < 0:
                return False
        elif s.precision is not None and s.precision.sign() <= 0:
            raise PrecisionInsufficient(f"entry {s} has no certified leading term")
    if g.scheme.is_matrix:
        det = mat_det(g.entries)
        if not det.terms:
            if det.precision is not None and det.precision.sign() <= 0:
                raise PrecisionInsufficient("determinant has no certified leading term")
            return False
        if det.val().sign() != 0:
            return False
    return True


def series_det_in_mu(g) -> bool:
    identity = g.scheme.identity().entries_flat()
    return series_det_is_integral(g) and all(s.res() == c for s, c in zip(g.entries_flat(), identity))


def integrality_outcome(test, g):
    try:
        return test(g)
    except PrecisionInsufficient:
        return "PrecisionInsufficient"


@pytest.mark.parametrize("kind, n", [("SL", 2), ("GL", 2), ("SL", 3)])
@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_integrality_from_residues_matches_the_series_determinant(kind, n, field):
    """is_integral reads the determinant's unit test off the residues; it
    and in_mu agree with the series determinant on points of G(K), G(O), mu
    and G(O) * mu, and on GL with integral entries whose det is no unit."""
    scheme = GroupScheme(kind, n, field)
    one, zero, t = PuiseuxSeries.one(field), PuiseuxSeries.zero(field), PuiseuxSeries.monomial(field, exp(1), field.one())
    rng = random.Random(f"integrality-{kind}-{n}-{field}")
    points = []
    for _ in range(8):
        points += [random_laurent_point(scheme, rng), random_integral_point(scheme, rng), random_mu_point(scheme, rng)]
        points.append(random_integral_point(scheme, rng).mul(random_mu_point(scheme, rng)))
    if kind == "GL":
        diag = GroupElement(scheme, ((t, zero), (zero, one)))
        points += [diag] + [random_integral_point(scheme, rng).mul(diag) for _ in range(4)]
    outcomes = set()
    for g in points:
        integral = integrality_outcome(GroupElement.is_integral, g)
        assert integral == integrality_outcome(series_det_is_integral, g), str(g)
        assert integrality_outcome(GroupElement.in_mu, g) == integrality_outcome(series_det_in_mu, g), str(g)
        outcomes.add((integral, g.in_mu()))
    assert {(True, True), (True, False), (False, False)} <= outcomes


def test_integrality_of_an_entry_with_no_known_term():
    """An entry known only below t^0, with no term there, may have any
    valuation: neither test can decide, and both raise."""
    for prec in (0, -1):
        unknown = PuiseuxSeries(QQ, [], exp(prec))
        g = GroupElement(SL2, ((S((0, 1)), unknown), (Z(), S((0, 1)))), check=False)
        for test in (GroupElement.is_integral, GroupElement.in_mu, series_det_is_integral):
            with pytest.raises(PrecisionInsufficient):
                test(g)
    # a negative valuation before it decides first, on both paths
    g = GroupElement(SL2, ((S((-1, 1)), PuiseuxSeries(QQ, [], exp(0))), (Z(), S((1, 1)))), check=False)
    assert not g.is_integral() and not g.in_mu() and not series_det_is_integral(g)


def test_residue_identity():
    one_plus_t = S((0, 1), (1, 1))
    inv = one_plus_t.inv(prec=exp(8))
    top = S((0, 1), (1, 1))
    entry22 = inv * S((0, 1), (5, 1))
    a = GroupElement(SL2, ((top, S((2, 1))), (S((3, 1)), entry22)))
    assert is_identity(a.res())


def test_residue_gl2():
    gl2 = GroupScheme("GL", 2, QQ)
    a = GroupElement(gl2, ((S((0, 2), (1, 1)), S((0, 1))), (Z(), S((0, 3)))))
    r = a.res()
    assert str(r.entries[0][0]) == "2" and str(r.entries[1][1]) == "3"


def test_residue_not_integral():
    a = GroupElement(SL2, ((S((-1, 1)), Z()), (Z(), S((1, 1)))))
    with pytest.raises(NotIntegral):
        a.res()


def test_in_mu():
    one_plus_t = S((0, 1), (1, 1))
    d = GroupElement(SL2, ((one_plus_t, Z()), (Z(), one_plus_t.inv(prec=exp(8)))))
    assert d.in_mu()
    add2 = GroupScheme("Additive", 2, QS2)
    from mustab.exponents import Exponent
    from fractions import Fraction

    tr = PuiseuxSeries(QS2, [(Exponent(Fraction(0), Fraction(1), 2), QS2.one())], None)
    v = GroupElement(add2, (PuiseuxSeries.zero(QS2), tr))
    assert v.in_mu()
    u = GroupElement(SL2, ((S((0, 1)), S((0, 1))), (Z(), S((0, 1)))))
    assert not u.in_mu()


def test_res_is_homomorphism_on_integral_points():
    rng = random.Random(5)
    for _ in range(40):
        a = random_integral_point(SL2, rng)
        b = random_integral_point(SL2, rng)
        assert a.is_integral() and b.is_integral()
        assert a.mul(b).res() == a.res().mul(b.res())


def test_mu_is_normal_in_integral_points():
    rng = random.Random(6)
    for field in (QQ, F5):
        scheme = GroupScheme("SL", 2, field)
        for _ in range(50):
            g = random_integral_point(scheme, rng)
            eps = random_mu_point(scheme, rng)
            conj = g.mul(eps).mul(g.inv())
            assert conj.in_mu()


def test_iwasawa_identity():
    ident = SL2.identity().to_series()
    u, b = iwasawa(ident)
    assert is_identity(u.res()) and is_identity(b.res())


def test_iwasawa_frozen_example():
    # oracle: multiply back and check integrality + triangularity
    a = GroupElement(SL2, ((S((-1, 1)), Z()), (S((0, 1)), S((1, 1)))))
    u, b = iwasawa(a)
    assert u.entries[0][0] == S((0, 1))
    assert u.entries[1][0] == S((1, 1))   # u = [[1,0],[t,1]]
    assert b.entries[0][0] == S((-1, 1))
    assert b.entries[1][1] == S((1, 1))   # b = diag(t^-1, t)
    assert b.entries[1][0].is_zero()
    assert u.is_integral()


def test_iwasawa_already_triangular():
    a = GroupElement(SL2, ((S((0, 1)), S((1, 1))), (Z(), S((0, 1)))))
    u, b = iwasawa(a)
    assert is_identity(u.res())
    assert b.entries == a.entries


def test_iwasawa_reads_unknown_entries_below_the_pivot():
    """An entry known only below its precision is eliminated, not taken for
    an exact 0; one that may have the least valuation of its column leaves
    the pivot unknown."""
    u, _ = iwasawa(GroupElement(SL2, ((S((0, 1)), Z()), (S(prec="5/2"), S((0, 1)))), check=False))
    assert not u.entries[1][0].terms and u.entries[1][0].precision == exp("5/2")
    with pytest.raises(SingularAtPrecision):
        iwasawa(GroupElement(SL2, ((S((1, 1)), Z()), (S(prec="1/2"), S((-1, 1)))), check=False))


def test_iwasawa_exactly_singular_column_is_no_precision_limit():
    """A column of exact zeros has no pivot at any precision."""
    from mustab.errors import PrecisionInsufficient

    with pytest.raises(SingularAtPrecision) as info:
        iwasawa(GroupElement(SL2, ((Z(), S((0, 1))), (Z(), S((0, 1)))), check=False))
    assert not isinstance(info.value, PrecisionInsufficient)


def _check_iwasawa(a):
    u, b = iwasawa(a)
    assert u.is_integral()
    n = len(b.entries)
    for i in range(n):
        for j in range(i):
            assert not b.entries[i][j].terms, f"b[{i}][{j}] = {b.entries[i][j]} not zero"
    prod = u.mul(b)
    for i in range(n):
        for j in range(n):
            assert agrees(prod.entries[i][j], a.entries[i][j])


def test_iwasawa_roundtrip_random():
    rng = random.Random(9)
    for _ in range(50):
        _check_iwasawa(random_laurent_point(SL2, rng))
    for _ in range(25):
        _check_iwasawa(random_laurent_point(GroupScheme("GL", 3, QQ), rng))
    for _ in range(25):
        _check_iwasawa(random_laurent_point(GroupScheme("SL", 2, F5), rng))


def test_iwasawa_keeps_the_entries_the_row_operations_give_exactly():
    """u is built by applying each row operation's inverse to its columns,
    not by inverting their product, so an entry the operations give
    exactly stays exact: u[1][0] is 3t, not 3t + O(t^22)."""
    quarter = PuiseuxSeries(QQ, [(exp(2), QQ.from_fraction(Fraction(-1, 4)))], None)
    a = GroupElement(GroupScheme("SL", 3, QQ), (
        (S((-1, -1)), S((-3, 3), (1, 3)), Z()),
        (S((0, -3)), S((-2, 9), (-1, 4), (2, 9)), Z()),
        (S((-1, 4), (2, 2)), S((0, -3)), quarter),
    ))
    u, _ = iwasawa(a)
    assert u.entries[1][0] == S((1, 3)) and u.entries[1][0].precision is None
    _check_iwasawa(a)


def test_inv_involution_and_det_multiplicative():
    rng = random.Random(10)
    for _ in range(25):
        a = random_laurent_point(SL2, rng)
        b = random_laurent_point(SL2, rng)
        back = a.inv().inv()
        for i in range(2):
            for j in range(2):
                assert agrees(back.entries[i][j], a.entries[i][j])
        ab = a.mul(b)
        assert agrees(mat_det(ab.entries), mat_det(a.entries) * mat_det(b.entries))


def test_kpoint_ops():
    w = KPoint(SL2, ((QQ.zero(), QQ.one()), (-QQ.one(), QQ.zero())))
    assert is_identity(w.mul(w.inv()))
    rng = random.Random(12)
    for _ in range(10):
        g = random_kpoint(GroupScheme("SL", 2, F5), rng)
        assert is_identity(g.mul(g.inv()))


def test_gl_kpoint_without_y():
    """A GL k-point built without y (as sampled subgroup points are) gets
    y = det^-1, so it multiplies and inverts."""
    gl2 = GroupScheme("GL", 2, QQ)
    q = QQ.from_int
    g = KPoint(gl2, ((q(2), q(1)), (q(0), q(1))))
    assert g.y == QQ.from_fraction(Fraction(1, 2))
    g2 = g.mul(g)
    assert g2.entries == ((q(4), q(3)), (q(0), q(1))) and g2.y == QQ.from_fraction(Fraction(1, 4))
    assert g.inv().y == q(2)
    assert is_identity(g.mul(g.inv())) and is_identity(g.inv().mul(g))
    with pytest.raises(NotOnGroup):
        KPoint(gl2, ((q(2), q(1)), (q(0), q(1))), q(1))


def test_subgroup_scheme_membership_inherited():
    ring = SL2.coordinate_ring()
    from mustab.ideals import Ideal

    ideal = Ideal(ring, (ring.parse("x21"),))
    borel = GroupScheme("Subgroup", 2, QQ, SL2, ideal)
    b = GroupElement(borel, ((S((0, 1), (1, 2)), S((0, 3))), (Z(), S((0, 1), (1, 2)).inv(prec=exp(8)))))
    assert b.is_integral()
    assert b.in_mu() is False  # residue [[1,3],[0,1]] is not the identity
    with pytest.raises(NotOnGroup):
        GroupElement(borel, ((S((0, 1)), Z()), (S((0, 1)), S((0, 1)))))


def test_scheme_json_roundtrip():
    from mustab.fields import FieldSpec

    for scheme in (SL2, ADD2, GroupScheme("GL", 3, QQ)):
        data = scheme.to_json()
        back = GroupScheme.from_json(data, QQ)
        assert back == scheme
    ring = SL2.coordinate_ring()
    from mustab.ideals import Ideal

    borel = GroupScheme("Subgroup", 2, QQ, SL2, Ideal(ring, (ring.parse("x21"),)))
    back = GroupScheme.from_json(borel.to_json(), QQ)
    assert back.subgroup_ideal.gens == borel.subgroup_ideal.gens


def test_field_json_roundtrip():
    from mustab.fields import FieldSpec

    for field in (QQ, QS2, F5, FieldSpec("Fq", p=3, modulus=(1, 0, 1))):
        assert FieldSpec.from_json(field.to_json()) == field


PXY = PolyRing(QQ, ("x", "y"))
# one random-entry sampler and the ring's one per coefficient ring
MATRIX_RINGS = {
    "Q": (lambda rng: QQ.from_int(rng.randrange(-3, 4)), QQ.one()),
    "F5": (lambda rng: F5.from_int(rng.randrange(5)), F5.one()),
    "poly": (
        lambda rng: PXY.monomial((rng.randrange(2), rng.randrange(2)), QQ.from_int(rng.randrange(-2, 3)))
        + PXY.from_int(rng.randrange(-2, 3)),
        PXY.one(),
    ),
    "series": (lambda rng: random_laurent(QQ, rng, terms=2), PuiseuxSeries.one(QQ)),
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("ring", sorted(MATRIX_RINGS))
def test_generic_matrix_helpers(ring, n):
    draw, one = MATRIX_RINGS[ring]
    rng = random.Random(f"{ring}-{n}")

    def invertible():
        while True:
            m = tuple(tuple(draw(rng) for _ in range(n)) for _ in range(n))
            if not mat_det(m).is_zero():
                return m

    a, b = invertible(), invertible()
    det_a = mat_det(a)
    a_adj = mat_mul(a, mat_adjugate(a))
    for i in range(n):
        for j in range(n):
            assert a_adj[i][j] == det_a if i == j else a_adj[i][j].is_zero()
    assert mat_det(mat_mul(a, b)) == det_a * mat_det(b)
    if n == 1:
        assert mat_adjugate(a) == ((one,),)
    if ring in ("Q", "F5"):
        scheme = GroupScheme("GL", n, one.field)
        g, h = (KPoint(scheme, m, mat_det(m).inv()) for m in (a, b))
        assert g.mul(h).entries == mat_mul(a, b)
        assert is_identity(g.mul(g.inv()))
    if ring == "series":
        scheme = GroupScheme("GL", n, QQ)
        g, h = (GroupElement(scheme, m, check=False) for m in (a, b))
        assert g.mul(h).entries == mat_mul(a, b)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("kind,n", [("Additive", 2), ("SL", 2), ("GL", 2), ("SL", 3)])
def test_scheme_layout_and_group_law(kind, n, field):
    """flatten and shape are inverse; the group law on flat tuples of
    polynomials, evaluated at two k-points, is the law on the k-points; and
    a k-point survives the trip through the series field."""
    scheme = GroupScheme(kind, n, field)
    rng = random.Random(f"{kind}-{n}-{field}")
    g, h = random_kpoint(scheme, rng), random_kpoint(scheme, rng)
    for p in (g, h):
        assert len(p.flat()) == len(scheme.coordinates())
        assert scheme.shape(scheme.flatten(p.entries, p.y)) == (p.entries, p.y)
        assert scheme.flatten(*scheme.shape(p.flat())) == p.flat()
        assert p.to_series().res() == p
    names = scheme.coordinates()
    ring = PolyRing(field, tuple("u" + name for name in names) + tuple("v" + name for name in names))
    u = tuple(ring.var("u" + name) for name in names)
    v = tuple(ring.var("v" + name) for name in names)
    at = {"u" + name: c for name, c in zip(names, g.flat())} | {"v" + name: c for name, c in zip(names, h.flat())}

    def evaluated(flat):
        return tuple(q.eval_scalars(at) for q in flat)

    assert evaluated(scheme.mul_values(u, v)) == g.mul(h).flat()
    assert evaluated(scheme.inv_values(u)) == g.inv().flat()
    assert is_identity(g.mul(g.inv())) and is_identity(g.inv().mul(g))
    if kind != "Additive":
        assert g.mul(h).entries == mat_mul(g.entries, h.entries)
    assert g.to_series().mul(h.to_series()).res() == g.mul(h)


def _leading_minors(rows):
    return [mat_det([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]


@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["Q", "F5", "F9"])
@pytest.mark.parametrize("kind,n", [("Additive", 2), ("SL", 2), ("SL", 3), ("GL", 2), ("GL", 3)])
def test_random_points_land_on_their_scheme(kind, n, field):
    """Every k-point, G(K), G(O) and mu draw satisfies the scheme equations;
    G(K) draws are exact, G(O) draws integral, and some G(O) draw has a
    residue outside the big cell; mu draws lie in mu."""
    scheme = GroupScheme(kind, n, field)
    rng = random.Random(f"points-{kind}-{n}-{field}")
    outside_big_cell = False
    for _ in range(12):
        assert random_kpoint(scheme, rng).scheme == scheme  # KPoint checks the equations
        g = random_laurent_point(scheme, rng)
        GroupElement(scheme, g.entries, g.y)
        assert all(s.is_exact() for s in g.flat())
        g = random_integral_point(scheme, rng)
        GroupElement(scheme, g.entries, g.y)
        assert g.is_integral()
        if kind != "Additive":
            outside_big_cell |= any(m.is_zero() for m in _leading_minors(g.res().entries))
        g = random_mu_point(scheme, rng)
        GroupElement(scheme, g.entries, g.y)
        assert g.in_mu()
    assert outside_big_cell or kind == "Additive"


@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["Q", "F5", "F9"])
def test_sl2_kpoint_stream(field):
    """A random k-point of SL(2) is [a, b; c, (1 + bc)/a] for the draws a
    (nonzero), b and c, in that order."""
    scheme = GroupScheme("SL", 2, field)
    rng, twin = random.Random(17), random.Random(17)
    for _ in range(200):
        a = random_scalar(field, twin, nonzero=True)
        b = random_scalar(field, twin)
        c = random_scalar(field, twin)
        assert random_kpoint(scheme, rng).entries == ((a, b), (c, (field.one() + b * c) / a))
