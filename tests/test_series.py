"""Puiseux series arithmetic, inversion, valuation/residue, substitution."""

import math
import random
from fractions import Fraction

import pytest

from mustab.errors import (
    FieldMismatch,
    NegativeValuation,
    PrecisionInsufficient,
    WildRamification,
    ZeroLeadingTerm,
)
from mustab.exponents import EXP_ZERO, Exponent, exp
from mustab.fields import QQ, FieldSpec
from mustab.poly import PolyRing
from mustab.series import (
    PowerList,
    PuiseuxSeries,
    SeriesPowers,
    _binomial_power,
    _rational_lower_bound,
    parse_series,
    series_to_json,
)
from tests_helpers import agrees, lift_series

QS2 = FieldSpec("QSqrt", d=2)
F5 = FieldSpec("Fp", p=5)


def S(*terms, prec=None, dom=QQ):
    """Series from (exponent, int-coefficient) pairs."""
    return PuiseuxSeries(
        dom,
        [(exp(e) if not isinstance(e, Exponent) else e, dom.from_int(c)) for e, c in terms],
        None if prec is None else exp(prec),
    )


def test_mul_example():
    f = S((-1, 1), (0, 1))         # t^-1 + 1
    g = S((1, 1), (2, -1))         # t - t^2
    assert f * g == S((0, 1), (2, -1))  # 1 - t^2, exact


def test_reduced_example_correction():
    # second coordinate of the irrational-exponent pair minus the mu-element
    r = Exponent(Fraction(0), Fraction(1), 2)
    f = PuiseuxSeries(QQ, [(exp(-1), QQ.one()), (r, QQ.one())], None)
    g = PuiseuxSeries(QQ, [(r, -QQ.one())], None)
    assert f + g == S((-1, 1))


def test_zero_absorbs_with_capped_precision():
    z = PuiseuxSeries.zero(QQ)          # exact zero
    f = S((1, 3), prec=5)
    out = z * f
    assert out.is_zero() and out.is_exact()
    zp = PuiseuxSeries.zero(QQ, exp(2))  # zero known only below t^2
    out2 = zp * f
    assert out2.is_zero() and out2.precision == exp(3)  # prec(z) + val(f)


def test_add_precision_is_min():
    f = S((0, 1), prec=3)
    g = S((1, 1), prec=5)
    assert (f + g).precision == exp(3)


def test_mul_precision_rule():
    f = S((-1, 1), prec=3)   # val -1
    g = S((2, 1), prec=4)    # val 2
    got = (f * g).precision
    assert got == exp(3)     # min(3 + 2, 4 + (-1)) = 3


def test_inv_geometric():
    f = S((0, 1), (1, 1))  # 1 + t
    out = f.inv(prec=exp(4))
    assert agrees(out, S((0, 1), (1, -1), (2, 1), (3, -1), prec=4))
    assert agrees(f * out, PuiseuxSeries.one(QQ))


def test_inv_stops_at_the_precision_of_the_series():
    # 1 + t + O(t^2) fixes its inverse only below t^2, whatever prec asks
    f = S((0, 1), (1, 1), prec=2)
    for prec, known in ((exp(4), 2), (exp(2), 2), (None, 2), (exp(1), 1)):
        out = f.inv(prec)
        assert out.precision == exp(known) and agrees(out, S((0, 1), (1, -1), prec=2))


def test_inv_monomials():
    assert S((-1, 1)).inv() == S((1, 1))
    got = S((2, 2)).inv()
    assert len(got.terms) == 1
    e, c = got.terms[0]
    assert e == exp(-2) and c == QQ.from_fraction(Fraction(1, 2))


def test_inv_no_leading_term():
    with pytest.raises(ZeroLeadingTerm):
        PuiseuxSeries.zero(QQ, exp(3)).inv()


def test_inv_precision_contract():
    # f * inv(f) = 1 + O(t^q), q = prec(f) - 2 val(f)
    f = S((1, 1), (2, 5), prec=6)
    out = f.inv()
    assert out.precision == exp(4)
    prod = f * out
    assert prod.coefficient(EXP_ZERO).is_one()
    assert all(not e < exp(4) for e, _ in (prod - PuiseuxSeries.one(QQ)).terms)


def test_val_res_examples():
    f = S((0, 1), (1, 3))
    assert f.val() == EXP_ZERO and f.res() == QQ.one()
    g = PuiseuxSeries(QQ, [(Exponent(Fraction(0), Fraction(1), 2), QQ.one())], None)
    assert g.val() == Exponent(Fraction(0), Fraction(1), 2)
    assert g.res() == QQ.zero()
    h = S((-1, 1), (0, 1))
    assert h.val() == exp(-1)
    with pytest.raises(NegativeValuation):
        h.res()
    with pytest.raises(PrecisionInsufficient):
        PuiseuxSeries.zero(QQ, exp(3)).val()


def test_subst_geometric():
    c = 2
    f = S((-1, 1))
    s = S((1, 1), (2, c))  # t(1 + 2t)
    out = SeriesPowers.of(s).subst(f, exp(3))
    expect = S((-1, 1), (0, -c), (1, c * c), (2, -c**3), prec=3)
    assert agrees(out, expect)


def test_subst_square_root_oracle():
    # f = t^(1/2), s = t(1+t): squaring the result must give back s
    f = PuiseuxSeries(QQ, [(exp("1/2"), QQ.one())], None)
    s = S((1, 1), (2, 1))
    out = SeriesPowers.of(s).subst(f, exp("9/2"))
    sq = out * out
    assert agrees(sq, s)
    # frozen leading coefficients 1, 1/2, -1/8 verified by the oracle above
    assert out.coefficient(exp("1/2")) == QQ.one()
    assert out.coefficient(exp("3/2")) == QQ.from_fraction(Fraction(1, 2))
    assert out.coefficient(exp("5/2")) == QQ.from_fraction(Fraction(-1, 8))


def test_subst_wild_ramification():
    f = PuiseuxSeries(F5, [(exp("1/5"), F5.one())], None)
    s = PuiseuxSeries(F5, [(exp(1), F5.one()), (exp(2), F5.one())], None)
    with pytest.raises(WildRamification):
        SeriesPowers.of(s).subst(f, exp(3))


def test_series_over_different_rings_do_not_mix():
    """Sums and products need one coefficient ring: Q against F_5 or
    against a polynomial ring over Q raises; two equal FieldSpecs built
    separately are the same ring."""
    q = S((1, 1))
    ring = PolyRing(QQ, ("a",))
    for other in (S((1, 1), dom=F5), PuiseuxSeries.monomial(ring, exp(1), ring.var("a"))):
        with pytest.raises(FieldMismatch):
            q + other
        with pytest.raises(FieldMismatch):
            q * other
    x, y = S((1, 1), dom=FieldSpec("Fp", p=5)), S((2, 3), dom=FieldSpec("Fp", p=5))
    assert x + y == S((1, 1), (2, 3), dom=F5)
    assert x * y == S((3, 3), dom=F5)


F3 = FieldSpec("Fp", p=3)


@pytest.mark.parametrize("ring", [F3, PolyRing(F3, ("a",))], ids=["F3", "Poly"])
def test_binomial_power_rejects_a_wild_binomial_coefficient(ring):
    """binom(1/3, 1) = 1/3 has no image in characteristic 3."""
    w = PuiseuxSeries.monomial(ring, exp(1), ring.one())
    with pytest.raises(WildRamification):
        _binomial_power(PowerList(w, exp(4)), Fraction(1, 3), exp(4))


def test_subst_identity():
    f = S((-2, 3), (0, 1), (5, 2), prec=7)
    t = S((1, 1))
    assert agrees(SeriesPowers.of(t).subst(f), f)


def test_subst_associativity():
    f = S((-1, 1), (2, 3))
    s1 = S((1, 1), (2, 1))
    s2 = S((1, 1), (3, -2))
    lhs = SeriesPowers.of(s2).subst(SeriesPowers.of(s1).subst(f, exp(5)), exp(5))
    rhs = SeriesPowers.of(SeriesPowers.of(s2).subst(s1, exp(6))).subst(f, exp(5))
    assert agrees(lhs, rhs)


RING_AB = PolyRing(QQ, ("a", "b"))


def _random_tail(rng, dom):
    """w with positive valuation; coefficients in dom, exact or truncated."""
    if isinstance(dom, PolyRing):
        pool = [RING_AB.var("a"), RING_AB.var("b"), RING_AB.var("a") * RING_AB.var("b") - RING_AB.from_int(2)]
        coeff = lambda: rng.choice(pool).scale(QQ.from_int(rng.randrange(1, 4)))
    else:
        coeff = lambda: dom.from_int(rng.randrange(1, 5))
    terms = {Fraction(rng.randrange(1, 7), rng.choice([1, 2])): coeff() for _ in range(rng.randrange(1, 4))}
    prec = rng.choice([None, exp(rng.randrange(4, 9))])
    return PuiseuxSeries(dom, [(exp(e), c) for e, c in terms.items()], prec)


BINOMIAL_DOMAINS = pytest.mark.parametrize(
    "dom", [QQ, F5, RING_AB], ids=["Q", "F5", "Poly"]
)
GAMMAS = [Fraction(g) for g in (0, 1, 2, 5)] + [Fraction(-1), Fraction(-3)] + [Fraction(1, 2), Fraction(-2, 3), Fraction(7, 2)]


@BINOMIAL_DOMAINS
def test_binomial_power_truncated_matches_exact(dom):
    """(1 + w)^gamma for integer gamma >= 0 is a finite sum; truncated at
    local_prec it must equal the exact power truncated afterwards, also for
    local_prec <= 0, where nothing is known."""
    rng = random.Random(23)
    one = PuiseuxSeries.one(dom)
    for _ in range(40):
        w = _random_tail(rng, dom)
        gamma = rng.randrange(0, 7)
        local = exp(Fraction(rng.randrange(-3, 10), rng.choice([1, 2])))
        exact = ((one + w) ** gamma).truncate(local)
        assert _binomial_power(PowerList(w, local), Fraction(gamma), local) == exact
    assert _binomial_power(PowerList(w, None), Fraction(3), None) == (one + w) ** 3


def _random_laurent(rng, dom):
    """Terms in half steps from t^(-5/2), exact or truncated."""
    w = _random_tail(rng, dom)
    return PuiseuxSeries(w.dom, [(e - exp(3), c) for e, c in w.terms], None if w.precision is None else w.precision - exp(3))


@BINOMIAL_DOMAINS
def test_bounded_product_is_the_truncated_product(dom):
    """a.mul_below(b, bound) equals (a * b).truncate(bound) in terms and
    precision, for bounds below, inside and above the known terms and for
    no bound."""
    rng = random.Random(29)
    for _ in range(60):
        a, b = _random_laurent(rng, dom), _random_laurent(rng, dom)
        bound = rng.choice([None, exp(Fraction(rng.randrange(-6, 12), rng.choice([1, 2])))])
        assert a.mul_below(b, bound) == (a * b).truncate(bound)


def reference_binomial_power(w, gamma, local_prec, dom):
    """The two-path expansion the power list replaced, kept as an oracle:
    integer gamma >= 0 truncates 1 + w and raises it with **, every other
    gamma runs the binomial loop on powers of its own."""
    if w.is_zero() and w.is_exact():
        return PuiseuxSeries.one(dom)
    vb = w.val_bound()
    if gamma.denominator == 1 and gamma >= 0:
        base = PuiseuxSeries.one(dom) + w
        if local_prec is None:
            return base ** int(gamma)
        if not EXP_ZERO < local_prec:
            return PuiseuxSeries.zero(dom, local_prec)
        return (base.truncate(local_prec) ** int(gamma)).truncate(local_prec)

    def coefficient(q):
        # a field's scalar, or a constant of the ring
        return dom.from_scalar(dom.field.from_fraction(q)) if isinstance(dom, PolyRing) else dom.from_fraction(q)

    acc = PuiseuxSeries.one(dom).truncate(local_prec)
    power = PuiseuxSeries.one(dom)
    bc = Fraction(1)
    k = 0
    bound = EXP_ZERO
    while bound < local_prec:
        bc = bc * (gamma - k) / (k + 1)
        k += 1
        power = (power * w).truncate(local_prec)
        if bc == 0 or (power.is_zero() and power.is_exact()):
            break
        acc = acc + power.scale(coefficient(bc))
        acc = PuiseuxSeries(acc.dom, acc.terms, local_prec)
        bound = bound + vb
    return acc


@BINOMIAL_DOMAINS
def test_binomial_power_matches_the_two_path_reference(dom):
    """Every kind of gamma (integer >= 0, negative integer, fractional) at
    every kind of local_prec (None for integer gamma >= 0, <= 0, positive).
    The reference's binomial loop claimed local_prec even above the
    precision of w, where its terms are unknown, so its result is cut at
    the precision of w there."""
    rng = random.Random(37)
    for gamma in GAMMAS:
        finite = gamma.denominator == 1 and gamma >= 0
        for _ in range(4):
            w = _random_tail(rng, dom)
            locals_ = [exp(Fraction(rng.randrange(-4, 1), 2)), exp(Fraction(rng.randrange(1, 16), 2))]
            for local in locals_ + ([None] if finite else []):
                want = reference_binomial_power(w, gamma, local, dom)
                if not finite:
                    want = want.truncate(w.precision)
                assert _binomial_power(PowerList(w, local), gamma, local) == want, (w, gamma, local)


@BINOMIAL_DOMAINS
def test_one_power_list_serves_every_gamma(dom):
    """A list built to the highest precision asked, read for several gamma
    at several lower targets, gives what a fresh list for each does."""
    rng = random.Random(41)
    for _ in range(6):
        w = _random_tail(rng, dom)
        top = exp(rng.randrange(4, 10))
        shared = PowerList(w, top)
        for gamma in GAMMAS:
            for local in (top, top - exp(Fraction(3, 2)), top - exp(4)):
                assert _binomial_power(shared, gamma, local) == _binomial_power(PowerList(w, local), gamma, local)


def test_power_list_checks_its_series():
    assert _binomial_power(PowerList(PuiseuxSeries.zero(QQ), None), Fraction(-1, 2), None) == PuiseuxSeries.one(QQ)
    with pytest.raises(ValueError):
        PowerList(S((0, 1), (1, 1)), exp(4))
    with pytest.raises(PrecisionInsufficient):
        PowerList(PuiseuxSeries.zero(QQ, EXP_ZERO), exp(4))
    with pytest.raises(PrecisionInsufficient):
        _binomial_power(PowerList(S((1, 1)), None), Fraction(-1), None)


def random_series(rng, dom=QQ, allow_neg=True, max_terms=4, prec_range=(4, 8)):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        num = rng.randrange(-4 if allow_neg else 0, 7)
        den = rng.choice([1, 1, 2])
        coeff = rng.randrange(-5, 6)
        if coeff:
            terms[Fraction(num, den)] = dom.from_int(coeff)
    prec = exp(rng.randrange(*prec_range))
    return PuiseuxSeries(dom, [(exp(e), c) for e, c in terms.items()], prec)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(300):
        f = random_series(rng)
        g = random_series(rng)
        h = random_series(rng)
        assert agrees(f + g, g + f)
        assert agrees(f * g, g * f)
        assert agrees((f + g) + h, f + (g + h))
        assert agrees((f + g) * h, f * h + g * h)
        assert agrees((f * g) * h, f * (g * h))


def test_product_grouping_is_exact():
    """Terms and precision of a product do not depend on its grouping, so
    the relation walk may build each monomial from its parent monomial."""
    rng = random.Random(29)
    for _ in range(300):
        f, g, h = (random_series(rng, prec_range=(2, 8)) if rng.random() < 0.7 else S((-1, 2), (1, 1)) for _ in range(3))
        assert (f * g) * h == f * (g * h)
        assert (f * f) * (f * g) == ((f * f) * f) * g


def test_valuation_rules_randomized():
    rng = random.Random(13)
    checked_product = 0
    for _ in range(200):
        f = random_series(rng)
        g = random_series(rng)
        if f.terms and g.terms:
            assert (f * g).val() == f.val() + g.val()
            checked_product += 1
            if f.val() != g.val():
                s = f + g
                if s.terms:
                    assert s.val() == min(f.val(), g.val())
    assert checked_product > 50


def test_res_multiplicative_on_units():
    rng = random.Random(17)
    one = PuiseuxSeries.constant(QQ, QQ.from_int(1))
    for _ in range(200):
        f = one.scale(QQ.from_int(rng.randrange(1, 9))) + random_series(rng, allow_neg=False).truncate(exp(4))
        g = one.scale(QQ.from_int(rng.randrange(1, 9))) + random_series(rng, allow_neg=False).truncate(exp(4))
        if f.val() == EXP_ZERO and g.val() == EXP_ZERO:
            assert (f * g).res() == f.res() * g.res()


def test_json_roundtrip():
    s = PuiseuxSeries(
        QS2,
        [(exp(-1), QS2.one()), (Exponent(Fraction(0), Fraction(1), 2), QS2.one())],
        exp(12),
    )
    data = series_to_json(s)
    back = parse_series(data, QS2, d=2)
    assert back == s


from hypothesis import given, settings, strategies as st


@st.composite
def laurent_series(draw):
    nterms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nterms):
        e = Fraction(draw(st.integers(-4, 6)), draw(st.sampled_from([1, 2])))
        c = draw(st.integers(-5, 5))
        if c:
            terms[e] = QQ.from_int(c)
    prec = draw(st.integers(4, 8))
    return PuiseuxSeries(QQ, [(exp(e), c) for e, c in terms.items()], exp(prec))


@settings(max_examples=150, deadline=None)
@given(laurent_series(), laurent_series())
def test_hypothesis_commutativity(f, g):
    assert agrees(f + g, g + f)
    assert agrees(f * g, g * f)


@settings(max_examples=150, deadline=None)
@given(laurent_series(), laurent_series(), laurent_series())
def test_hypothesis_distributivity(f, g, h):
    assert agrees((f + g) * h, f * h + g * h)


# -- the ordered-term fast paths against the checking constructor ----------

F9 = FieldSpec("Fq", p=3, modulus=(1, 0, 1))
EXPONENT_POOL = [exp(Fraction(a, n)) for a in range(-4, 7) for n in (1, 2, 3)] + [
    Exponent(Fraction(a, 2), b, 2) for a in range(-4, 5) for b in (-1, 1, 2)
]


def _random_series(rng, dom):
    terms = {rng.choice(EXPONENT_POOL): dom.from_int(rng.randrange(-4, 5)) for _ in range(rng.randrange(0, 7))}
    prec = None if rng.random() < 0.4 else rng.choice(EXPONENT_POOL)
    return PuiseuxSeries(dom, list(terms.items()), prec)


def _ref_min(p, q):
    return q if p is None else p if q is None or p <= q else q


def _ref_add(f, g):
    acc = {}
    for e, c in f.terms + g.terms:
        acc[e] = acc[e] + c if e in acc else c
    return PuiseuxSeries(f.dom, list(acc.items()), _ref_min(f.precision, g.precision))


def _ref_mul(f, g):
    p1 = None if f.precision is None or g.val_bound() is None else f.precision + g.val_bound()
    p2 = None if g.precision is None or f.val_bound() is None else g.precision + f.val_bound()
    prec = _ref_min(p1, p2)
    acc = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = e1 + e2
            if prec is None or e < prec:
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return PuiseuxSeries(f.dom, list(acc.items()), prec)


@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["Q", "F5", "F9"])
def test_ordered_results_match_the_checking_constructor(field):
    """+, -, *, scale, shift and truncate build their results without
    sorting or checking; each equals the parent algorithm's series built by
    the public constructor, and rebuilding it there changes nothing."""
    rng = random.Random(7)
    for _ in range(300):
        f, g = _random_series(rng, field), _random_series(rng, field)
        c = field.from_int(rng.randrange(0, 3))
        e, p = rng.choice(EXPONENT_POOL), rng.choice(EXPONENT_POOL)
        neg_g = PuiseuxSeries(field, [(x, -y) for x, y in g.terms], g.precision)
        cases = [
            (f + g, _ref_add(f, g)),
            (f - g, _ref_add(f, neg_g)),
            (-g, neg_g),
            (f * g, _ref_mul(f, g)),
            (f.scale(c), PuiseuxSeries(field, [(x, y * c) for x, y in f.terms], f.precision)),
            (f.shift(e), PuiseuxSeries(field, [(x + e, y) for x, y in f.terms], None if f.precision is None else f.precision + e)),
            (f.truncate(p), PuiseuxSeries(field, f.terms, _ref_min(f.precision, p))),
        ]
        for got, want in cases:
            rebuilt = PuiseuxSeries(field, list(reversed(got.terms)), got.precision)
            assert (rebuilt.terms, rebuilt.precision) == (got.terms, got.precision)
            assert (got.terms, got.precision) == (want.terms, want.precision)
            assert type(got.terms) is tuple


def test_public_constructor_still_checks():
    one = QQ.one()
    with pytest.raises(ValueError, match="duplicate"):
        PuiseuxSeries(QQ, [(exp(1), one), (exp("2/2"), one)], None)
    r = Exponent(Fraction(0), Fraction(1), 2)
    with pytest.raises(ValueError, match="duplicate"):
        PuiseuxSeries(QQ, [(r, one), (exp(1), QQ.zero()), (Exponent(0, Fraction(2, 2), 2), one)], None)
    s = PuiseuxSeries(QQ, [(exp(3), one), (exp(1), one), (exp(2), QQ.zero())], exp(3))
    assert s.terms == ((exp(1), one),)


INV_STEPS = [exp("1/2"), exp(1), exp("3/2"), exp(2), exp("5/2")]
INV_SQRT2_STEPS = INV_STEPS + [Exponent(0, 1, 2), Exponent(1, 1, 2), Exponent(Fraction(-1, 2), 1, 2)]


@pytest.mark.parametrize("irrational", [False, True], ids=["rational", "sqrt2"])
@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["Q", "F5", "F9"])
def test_inverse_times_the_series_is_one(field, irrational):
    """For f = c t^v (1 + w), f.inv(prec) expands to the target: the lower
    of prec and the precision of w, either one that is known, else
    DEFAULT_PRECISION; its precision is target - v, and f * f.inv(prec) is
    1 below target."""
    from mustab.series import DEFAULT_PRECISION

    one = PuiseuxSeries.one(field)
    steps = INV_SQRT2_STEPS if irrational else INV_STEPS
    leads = [exp(-1), exp(0), exp("1/3"), exp(2)] + ([Exponent(-1, 1, 2)] if irrational else [])
    rng = random.Random(5)

    def coeff():
        c = field.from_int(rng.randrange(1, field.char or 7))
        return c + field.generator() if field.kind == "Fq" and rng.random() < 0.5 else c

    for _ in range(30):
        v = rng.choice(leads)
        terms = {v: coeff()}
        for _ in range(rng.randrange(0, 4)):
            terms[v + rng.choice(steps)] = coeff()
        precision = None if rng.random() < 0.5 else v + rng.choice(steps) + exp(1)
        f = PuiseuxSeries(field, list(terms.items()), precision)
        for prec in (None, exp(3), exp("7/2")):
            inv = f.inv(prec)
            if len(f.terms) == 1 and f.is_exact():
                assert inv.is_exact() and (f * inv) == one
                continue
            w_prec = None if precision is None else precision - v
            known = [q for q in (prec, w_prec) if q is not None]
            target = min(known) if known else DEFAULT_PRECISION
            assert inv.precision == target - v
            prod = f * inv
            assert prod.precision == target
            assert not (prod - one).terms


# -- precision soundness ----------------------------------------------------
# A series known below its precision P stands for every completion: the same
# terms plus any terms at or above P.  An operation on it claims its result
# below the result's precision, so applying it to a completion must give the
# same terms there.

SOUND_HI = exp(16)  # the completions' expansions run this far


def draw_scalar(draw, field):
    if field.order is None:
        return field.from_int(draw(st.integers(-4, 4)))
    return field.element(draw(st.integers(0, field.order - 1)))


@st.composite
def truncated_series(draw, field, lead=None, low=-4):
    """(f, F): f inexact, with terms in half steps from the exponent low
    (or led by lead = (exponent, coefficient)), and F a completion of f:
    exact, with random extra terms at or above f's precision."""

    def scalar():
        return draw_scalar(draw, field)

    half = Fraction(1, 2)
    start = low if lead is None else lead[0] + half
    terms = {} if lead is None else {lead[0]: lead[1]}
    for _ in range(draw(st.integers(0, 3))):
        terms[start + half * draw(st.integers(0, 10))] = scalar()
    precision = start + half * draw(st.integers(0, 12))
    tail = {precision + half * draw(st.integers(0, 6)): scalar() for _ in range(draw(st.integers(0, 3)))}
    known = [(exp(e), c) for e, c in terms.items() if e < precision and not c.is_zero()]
    extra = [(exp(e), c) for e, c in tail.items() if not c.is_zero()]
    return PuiseuxSeries(field, known, exp(precision)), PuiseuxSeries(field, known + extra, None)


def unit_series(field, low=-4):
    """A truncated series with a known nonzero leading term."""
    exponents = st.integers(2 * low, 8).map(lambda k: Fraction(k, 2))
    leads = st.tuples(exponents, st.sampled_from([1, 2, 4]).map(field.from_int))
    return leads.flatmap(lambda lead: truncated_series(field, lead=lead))


def assert_sound(approx, truth):
    """approx, computed from f, agrees with truth, computed from a completion
    of f, everywhere below approx's precision (everywhere if approx is exact)."""
    if approx.precision is None:
        assert approx == truth
        return
    assert truth.precision is None or not truth.precision < approx.precision
    assert approx.terms == truth.truncate(approx.precision).terms, (approx, truth)


SOUND_FIELDS = pytest.mark.parametrize("field", [QQ, F5, F9], ids=["Q", "F5", "F9"])


@SOUND_FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ring_operations_claim_only_known_terms(field, data):
    f, F = data.draw(truncated_series(field))
    g, G = data.draw(truncated_series(field))
    assert_sound(f + g, F + G)
    assert_sound(f * g, F * G)
    k = data.draw(st.integers(2, 3))
    assert_sound(f**k, F**k)


@SOUND_FIELDS
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_inverse_claims_only_known_terms(field, data):
    f, F = data.draw(unit_series(field))
    truth = F.inv(SOUND_HI)
    assert_sound(f.inv(), truth)
    assert_sound(f.inv(exp(Fraction(data.draw(st.integers(1, 16)), 2))), truth)
    assert_sound(f**-2, truth**2)


@SOUND_FIELDS
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_substitution_claims_only_known_terms(field, data):
    """f(s) for s = t^v (1 + ...) with v > 0 and lead coefficient 1, so the
    half-integer powers of the lead need no square root."""
    f, F = data.draw(truncated_series(field))
    v = Fraction(data.draw(st.integers(1, 4)), 2)
    s, S_ = data.draw(truncated_series(field, lead=(v, field.one())))
    truth = SeriesPowers.of(S_).subst(F, SOUND_HI)
    assert_sound(SeriesPowers.of(s).subst(f), truth)
    assert_sound(SeriesPowers.of(s).subst(f, exp(Fraction(data.draw(st.integers(1, 16)), 2))), truth)


@SOUND_FIELDS
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_group_law_claims_only_known_terms(field, data):
    """SL(2) points [[u, f], [g, (1 + f g) / u]] with u = c t^a exact: det 1
    for every f and g, so completing f and g completes the point."""
    from mustab.groups import GroupElement, GroupScheme

    scheme = GroupScheme("SL", 2, field)

    def point():
        c = field.from_int(data.draw(st.sampled_from([1, 2, 4])))
        u = PuiseuxSeries.monomial(field, exp(data.draw(st.integers(-2, 2))), c)
        f, F = data.draw(truncated_series(field, low=-2))
        g, G = data.draw(truncated_series(field, low=-2))

        def entries(a, b):
            return ((u, a), (b, (PuiseuxSeries.one(field) + a * b) * u.inv()))

        return GroupElement(scheme, entries(f, g), check=False), GroupElement(scheme, entries(F, G))

    a, A = point()
    b, B = point()
    for approx, truth in zip(a.entries_flat(), A.entries_flat()):
        assert_sound(approx, truth)
    for approx, truth in zip(a.mul(b).entries_flat(), A.mul(B).entries_flat()):
        assert_sound(approx, truth)
    for approx, truth in zip(a.inv().entries_flat(), A.inv().entries_flat()):
        assert_sound(approx, truth)


@pytest.mark.parametrize("kind", ["SL", "GL"])
@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_iwasawa_claims_only_known_terms(kind, field, data):
    """a = u b from inexact SL(2) and GL(2) entries, against the
    decomposition of a completion; each pivot is inverted through the
    binomial expansion.  SL(2) points are built as in the group law test,
    GL(2) points from any four series whose determinant has a known term."""
    from mustab.errors import SingularAtPrecision, ZeroLeadingTerm
    from mustab.groups import GroupElement, GroupScheme, iwasawa

    scheme = GroupScheme(kind, 2, field)
    if kind == "SL":
        c = field.from_int(data.draw(st.sampled_from([1, 2, 4])))
        u = PuiseuxSeries.monomial(field, exp(data.draw(st.integers(-2, 2))), c)
        (f, F), (g, G) = data.draw(truncated_series(field, low=-2)), data.draw(truncated_series(field, low=-2))

        def entries(x, y):
            return ((u, x), (y, (PuiseuxSeries.one(field) + x * y) * u.inv()))

        approx, truth = entries(f, g), entries(F, G)
    else:
        pairs = [data.draw(truncated_series(field, low=-2)) for _ in range(4)]
        approx = ((pairs[0][0], pairs[1][0]), (pairs[2][0], pairs[3][0]))
        truth = ((pairs[0][1], pairs[1][1]), (pairs[2][1], pairs[3][1]))
    try:
        u, b = iwasawa(GroupElement(scheme, approx, check=False))
    except (SingularAtPrecision, ZeroLeadingTerm):
        return  # no certified pivot, or no known determinant on GL
    U, B = iwasawa(GroupElement(scheme, truth, check=False))
    for x, X in zip(u.entries_flat() + b.entries_flat(), U.entries_flat() + B.entries_flat()):
        assert_sound(x, X)


@st.composite
def another_completion(draw, f):
    """f completed with other random terms at or above its precision."""
    half = Fraction(1, 2)
    base = f.precision.as_fraction()
    tail = {base + half * draw(st.integers(0, 6)): draw_scalar(draw, f.dom) for _ in range(draw(st.integers(0, 3)))}
    extra = [(exp(e), c) for e, c in tail.items() if not c.is_zero()]
    return PuiseuxSeries(f.dom, list(f.terms) + extra, None)


@SOUND_FIELDS
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_mu_correct_certifies_every_completion(field, data):
    """mu_correct(a, b) for an inexact SL(2) point a, built as in the group
    law test, and b a second completion of a at lam * t: the certificate's
    reparameterization s0 gives A(s0) * b^-1 in mu for every completion A
    of a.  s0 fixes lam^r for the ramification r; the r-th root of it the
    certificate used is the one that reproduces its eps from a."""
    from mustab.branches import validate_branch
    from mustab.errors import BudgetExceeded
    from mustab.factor import scalar_roots
    from mustab.groups import GroupElement, GroupScheme
    from mustab.stabilizer import _lead_root, mu_correct

    scheme = GroupScheme("SL", 2, field)
    one = PuiseuxSeries.one(field)
    c = field.from_int(data.draw(st.sampled_from([1, 2])))
    u = PuiseuxSeries.monomial(field, exp(-data.draw(st.integers(1, 2))), c)
    (f, F), (g, G) = data.draw(truncated_series(field, low=-1)), data.draw(truncated_series(field, low=-1))
    F2, G2 = data.draw(another_completion(f)), data.draw(another_completion(g))

    def entries(x, y):
        return ((u, x), (y, (one + x * y) * u.inv()))

    a = validate_branch(scheme, entries(f, g))
    mu = draw_scalar(data.draw, field)
    lam_t = PuiseuxSeries.monomial(field, exp(1), field.one() if mu.is_zero() else mu * mu)
    b = validate_branch(scheme, scheme.map_entries(entries(F2, G2), SeriesPowers.of(lam_t).subst))
    try:
        cert = mu_correct(a, b)
    except BudgetExceeded:
        return  # a is known too coarsely to decide
    if cert is None:
        return
    s0, r, b_inv = cert.s, a.ramification, b.element.inv()
    x = PolyRing(field, ("x",)).var("x")

    def roots_of(c, k):
        return scalar_roots(x**k - x.ring.from_scalar(c))

    lams = [
        lam for lam in roots_of(s0.terms[0][1], r)
        if a.element.map(SeriesPowers.of(s0, _lead_root(lam, lam.inv(), r)).subst).mul(b_inv) == cert.eps
    ]
    assert lams
    for A in (GroupElement(scheme, entries(F, G)), GroupElement(scheme, entries(F2, G2))):
        # a completion can need a finer root of the lead: any m with
        # m^(R/r) = lam serves, where the field has one
        R = math.lcm(r, *(h.ramification() for h in A.entries_flat()))
        for lam in lams:
            for m in roots_of(lam, R // r):
                root = _lead_root(m, m.inv(), R)
                assert A.map(lambda h: SeriesPowers.of(s0, root).subst(h, SOUND_HI)).mul(b_inv).in_mu()


def test_an_irrational_precision_scales_by_a_rational_lower_bound():
    """_rational_lower_bound(a + b*sqrt(d)) drops b*sqrt(d) when b > 0 and
    rounds sqrt(d) up to an integer when b < 0; f(s) for an f known below
    the irrational 3 - sqrt(2) and val(s) = 2 is known below 2 * 1."""
    assert _rational_lower_bound(exp("3/2")) == Fraction(3, 2)
    assert _rational_lower_bound(Exponent(1, 1, 2)) == 1
    assert _rational_lower_bound(Exponent(1, -1, 2)) == -1
    assert _rational_lower_bound(Exponent(0, Fraction(-1, 3), 5)) == -1
    assert _rational_lower_bound(Exponent(0, -1, 17)) == -5
    f = PuiseuxSeries(QQ, [(exp(-1), QQ.one())], Exponent(3, -1, 2))
    s = PuiseuxSeries(QQ, [(exp(2), QQ.one()), (exp(3), QQ.one())], None)
    out = SeriesPowers.of(s).subst(f)
    assert out.precision == exp(2)
    assert str(out) == "t^(-2) - t^(-1) + 1 - t + O(t^(2))"


# -- scale, don't lift: products with a one-term factor and with scalars -----

MIXED_FIELDS = [QQ, F5, F9]


def _nonzero_scalar(draw, field):
    if field.order:
        return field.element(draw(st.integers(1, field.order - 1)))
    return field.from_int(draw(st.sampled_from([-3, -2, -1, 1, 2, 5])))


def _coefficient(draw, dom):
    c = _nonzero_scalar(draw, dom if isinstance(dom, FieldSpec) else dom.field)
    if isinstance(dom, FieldSpec):
        return c
    a, b = dom.var("a"), dom.var("b")
    return draw(st.sampled_from([dom.one(), a, b, a * b - dom.from_int(2), a * a + b])).scale(c)


@st.composite
def _series_over(draw, dom, terms=(0, 4)):
    """A series over dom with up to terms[1] terms from EXPONENT_POOL, exact
    or truncated."""
    exps = draw(st.lists(st.sampled_from(EXPONENT_POOL), min_size=terms[0], max_size=terms[1], unique=True))
    prec = draw(st.none() | st.sampled_from(EXPONENT_POOL))
    return PuiseuxSeries(dom, [(e, _coefficient(draw, dom)) for e in exps], prec)


def _reference_mul_below(f, g, bound):
    """The product known below bound as the general loop forms it: every
    pair of terms below the precision summed in one dict, then the checking
    constructor drops zeros and sorts."""
    prec = bound
    for p, other in ((f.precision, g), (g.precision, f)):
        v = other.val_bound()
        if p is not None and v is not None and (prec is None or p + v < prec):
            prec = p + v
    acc = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = e1 + e2
            if prec is None or e < prec:
                acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
    return PuiseuxSeries(f.dom, list(acc.items()), prec)


def _as_data(s):
    return s.dom, s.terms, s.precision


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_ring_series_times_a_scalar_series_is_the_lifted_product(data):
    """A series over R = k[a, b] times a series over k, bounded or not,
    equals the product with the scalar series lifted to constants of R, in
    terms and precision, and so does the sum; the scalar factor must be
    the right one."""
    field = data.draw(st.sampled_from(MIXED_FIELDS))
    ring = PolyRing(field, ("a", "b"))
    f, g = data.draw(_series_over(ring)), data.draw(_series_over(field))
    bound = data.draw(st.none() | st.sampled_from(EXPONENT_POOL))
    lifted = lift_series(ring, g)
    assert _as_data(f.mul_below(g, bound)) == _as_data(_reference_mul_below(f, lifted, bound))
    assert _as_data(f * g) == _as_data(f * lifted)
    assert _as_data(f + g) == _as_data(f + lifted)
    assert _as_data(f - g) == _as_data(f - lifted)
    with pytest.raises(FieldMismatch):
        g * f


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_product_with_a_one_term_factor_is_the_general_loop(data):
    """With one factor of a single term, on either side, the shift and
    scaling gives the terms and the precision of the general loop, over a
    field and over a polynomial ring, with and without a bound."""
    field = data.draw(st.sampled_from(MIXED_FIELDS))
    dom = data.draw(st.sampled_from([field, PolyRing(field, ("a", "b"))]))
    one_term = data.draw(_series_over(dom, terms=(1, 1)))
    other = data.draw(_series_over(dom))
    bound = data.draw(st.none() | st.sampled_from(EXPONENT_POOL))
    for f, g in ((one_term, other), (other, one_term)):
        assert _as_data(f.mul_below(g, bound)) == _as_data(_reference_mul_below(f, g, bound))
