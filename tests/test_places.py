"""Newton-polygon places at infinity."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from mustab.branches import is_centered_at_infinity, validate_branch
from mustab.errors import CoefficientFieldTooSmall, EmptyVariety, WildRamification
from mustab.factor import uni_factor
from mustab.fields import QQ, FieldSpec
from mustab.groups import GroupScheme, eval_poly_series
from mustab.ideals import Ideal, krull_dim
from mustab.jobs import run_job
from mustab import newton
from mustab.newton import PlaneCurveInput, _dedup_branches, check_irreducible_fragment, places_at_infinity
from mustab.poly import Poly, PolyRing
from mustab.series import parse_series

from tests_helpers import every_root_places, field_elements, is_rescaling

F5 = FieldSpec("Fp", p=5)


def _curve(f_text, embedding, scheme, field):
    ring = PolyRing(field, ("x", "y"))
    f = ring.parse(f_text)
    if isinstance(embedding[0], list):
        emb = [[ring.parse(p) for p in row] for row in embedding]
    else:
        emb = [ring.parse(p) for p in embedding]
    return PlaneCurveInput(f, emb, scheme)


def test_hyperbola_into_sl2_gives_two_branches():
    scheme = GroupScheme("SL", 2, QQ)
    curve = _curve("x*y - 1", [["x", "1"], ["0", "y"]], scheme, QQ)
    branches = places_at_infinity(curve)
    assert len(branches) == 2
    frozen = {str(b.element) for b in branches}
    assert "[t^(-1), 1; 0, t]" in frozen
    assert "[t, 1; 0, t^(-1)]" in frozen
    for b in branches:
        assert is_centered_at_infinity(b)


def test_cusp_single_branch():
    scheme = GroupScheme("Additive", 2, QQ)
    curve = _curve("y^2 - x^3", ["x", "y"], scheme, QQ)
    branches = places_at_infinity(curve)
    assert len(branches) == 1
    b = branches[0]
    assert str(b.element) == "(t^(-2), t^(-3))"


def test_circle_over_q_needs_missing_roots():
    scheme = GroupScheme("Additive", 2, QQ)
    curve = _curve("x^2 + y^2 - 1", ["x", "y"], scheme, QQ)
    with pytest.raises(CoefficientFieldTooSmall):
        places_at_infinity(curve)


def test_circle_over_f5_two_branches():
    scheme = GroupScheme("Additive", 2, F5)
    curve = _curve("x^2 + y^2 - 1", ["x", "y"], scheme, F5)
    branches = places_at_infinity(curve, precision=14)
    assert len(branches) == 2
    leads = sorted(b.element.entries[1].terms[0][1].rep for b in branches)
    assert leads == [2, 3]  # the square roots of -1 mod 5
    ring = PolyRing(F5, ("x", "y"))
    f = ring.parse("x^2 + y^2 - 1")
    for b in branches:
        values = {"x": b.element.entries[0], "y": b.element.entries[1]}
        out = eval_poly_series(f, values, F5)
        assert out.is_zero() and out.precision is not None


def test_line_place():
    scheme = GroupScheme("Additive", 2, QQ)
    curve = _curve("y - 2*x", ["x", "y"], scheme, QQ)
    branches = places_at_infinity(curve)
    assert len(branches) == 1
    assert str(branches[0].element) == "(t^(-1), 2*t^(-1))"


def test_places_deterministic():
    scheme = GroupScheme("SL", 2, QQ)
    curve = _curve("x*y - 1", [["x", "1"], ["0", "y"]], scheme, QQ)
    first = [str(b.element) for b in places_at_infinity(curve)]
    second = [str(b.element) for b in places_at_infinity(curve)]
    assert first == second


def test_residual_vanishing_on_branches():
    scheme = GroupScheme("Additive", 2, QQ)
    curve = _curve("y^2 - x^3", ["x", "y"], scheme, QQ)
    ring = curve.f.ring
    for b in places_at_infinity(curve):
        values = {"x": b.element.entries[0], "y": b.element.entries[1]}
        assert eval_poly_series(curve.f, values, QQ).is_zero()


def test_embedding_must_land_in_scheme():
    scheme = GroupScheme("SL", 2, QQ)
    with pytest.raises(ValueError):
        _curve("x*y - 1", [["x", "1"], ["1", "y"]], scheme, QQ)  # det != 1 on the curve


def test_irreducibility_fragment():
    ring = PolyRing(QQ, ("x", "y"))
    assert check_irreducible_fragment(ring.parse("x + y")) == (True, True)
    assert check_irreducible_fragment(ring.parse("x*y - 1")) == (True, True)
    checked, _ = check_irreducible_fragment(ring.parse("y^2 - x^3"))
    assert not checked  # degree 3: outside the fragment, caller's responsibility
    assert check_irreducible_fragment(ring.parse("x^2 - 1")) == (True, False)


def test_extension_on_demand_over_fp():
    # x^2 - 3 has no root mod 5; the degree form of y^2 - 3*x^2 - 1 needs it
    scheme = GroupScheme("Additive", 2, F5)
    curve = _curve("y^2 - 3*x^2 - 1", ["x", "y"], scheme, F5)
    branches = places_at_infinity(curve, precision=10)
    assert len(branches) == 2
    for b in branches:
        assert b.field.kind == "Fq" and b.field.p == 5


def test_wild_ramification_detected():
    scheme = GroupScheme("Additive", 2, F5)
    curve = _curve("y^2 - x^5", ["x", "y"], scheme, F5)
    with pytest.raises(WildRamification):
        places_at_infinity(curve, precision=8)


def test_ramified_place_char_zero():
    scheme = GroupScheme("Additive", 2, QQ)
    curve = _curve("y^2 - x^5", ["x", "y"], scheme, QQ)
    branches = places_at_infinity(curve, precision=10)
    assert len(branches) == 1
    b = branches[0]
    assert str(b.element) == "(t^(-2), t^(-5))"
    values = {"x": b.element.entries[0], "y": b.element.entries[1]}
    ring = PolyRing(QQ, ("x", "y"))
    assert eval_poly_series(ring.parse("y^2 - x^5"), values, QQ).is_zero()


def test_dedup_lets_unexpected_errors_through(monkeypatch):
    """Only the library's errors mean "no tube certificate" when duplicate
    places are dropped; any other exception is a bug and propagates."""
    from mustab import stabilizer

    def broken(*args, **kwargs):
        raise TypeError("bug in mu_correct")

    monkeypatch.setattr(stabilizer, "mu_correct", broken)
    scheme = GroupScheme("SL", 2, QQ)
    with pytest.raises(TypeError):
        places_at_infinity(_curve("x*y - 1", [["x", "1"], ["0", "y"]], scheme, QQ))


def _count_mu_correct(monkeypatch):
    """A counter of the mu_correct calls made from here on."""
    from mustab import stabilizer

    calls = []
    original = stabilizer.mu_correct

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(stabilizer, "mu_correct", counting)
    return calls


@pytest.mark.parametrize(
    "f_text, field",
    [("y^4 - x", F5), ("y^3 - x^2", FieldSpec("Fp", p=7)), ("y^2 - x", QQ)],
    ids=["y4_x_F5", "y3_x2_F7", "y2_x_Q"],
)
def test_conjugate_expansions_merge_without_the_ansatz(monkeypatch, f_text, field):
    """The k-rational roots of the edge polynomial are conjugate under
    t -> zeta t, so only the first is expanded: one expansion reaches
    _dedup_branches, which needs no mu_correct."""
    seen = []
    dedup = newton._dedup_branches

    def recording(branches):
        seen.extend(branches)
        return dedup(branches)

    monkeypatch.setattr(newton, "_dedup_branches", recording)
    calls = _count_mu_correct(monkeypatch)
    scheme = GroupScheme("Additive", 2, field)
    branches = places_at_infinity(_curve(f_text, ["x", "y"], scheme, field))
    assert len(seen) == 1
    assert branches == seen
    assert calls == []


def _additive_branch(field, entries):
    return validate_branch(GroupScheme("Additive", 2, field), tuple(parse_series(e, field) for e in entries))


@pytest.mark.parametrize(
    "field, a_entries, b_entries",
    [
        (QQ, [[["-2", "1"]], [["-1", "3"], ["0", "5"], ["1", "1"]]], [[["-2", "1/4"]], [["-1", "3/2"], ["0", "5"], ["1", "2"]]]),
        (FieldSpec("QSqrt", d=2), [[["-4", "1"]], [["-1", "1"], ["1", "1"]]], [[["-4", "1"]], [["-1", "-1"], ["1", "-1"]]]),
    ],
    ids=["a_of_2t_Q", "a_of_minus_t_QSqrt2"],
)
def test_dedup_merges_a_reparameterized_branch(monkeypatch, field, a_entries, b_entries):
    """b(t) = a(lam t) is tube-equivalent to a, and mu_correct certifies
    it: lam = 2 over Q, with negative, zero and positive exponents, and
    lam = -1 over Q(sqrt 2) at a leading exponent -4."""
    a, b = _additive_branch(field, a_entries), _additive_branch(field, b_entries)
    calls = _count_mu_correct(monkeypatch)
    assert _dedup_branches([a, b]) == [a]
    assert len(calls) == 1


@pytest.mark.parametrize("field", [{"kind": "Q"}, {"kind": "Fp", "p": 7}, {"kind": "QSqrt", "d": 2}], ids=["Q", "F7", "QSqrt2"])
def test_places_that_a_curve_reparameterizes_share_one_branch(monkeypatch, field):
    """x + 2y on the hyperbola xy = 1 sends its places (t^-1, t) and
    (t, t^-1) to t^-1 + 2t and 2t^-1 + t = a(t/2): mu_correct merges the
    second into the first, so the job reports one branch."""
    calls = _count_mu_correct(monkeypatch)
    report, code = run_job({
        "field": field,
        "group": {"kind": "Additive", "n": 1},
        "command": "places",
        "input": {"plane_curve": {"f": "x*y - 1", "embedding": ["x + 2*y"]}},
        "budgets": {"precision": 4},
    })
    assert code == 0 and len(calls) == 1
    assert report["results"]["branches"] == [{
        "entries": ({"terms": [["-1", "1"], ["1", "2"]]},),
        "ramification": 1,
        "centered_at_infinity": True,
        "trusted_irreducible": False,
        "notes": [],
    }]


F7 = FieldSpec("Fp", p=7)


@pytest.mark.parametrize(
    "f_text, field, expected",
    [
        ("x*y - 1", QQ, [("(t^(-1), t)", 1, "Q"), ("(t, t^(-1))", 1, "Q")]),
        (
            "x^2 - y^2 - 1",
            QQ,
            [
                ("(t^(-1), -t^(-1) + 1/2*t + 1/8*t^3 + 1/16*t^5 + O(t^(6)))", 1, "Q"),
                ("(t^(-1), t^(-1) - 1/2*t - 1/8*t^3 - 1/16*t^5 + O(t^(6)))", 1, "Q"),
            ],
        ),
        ("y - x^2", QQ, [("(-t^(-1), t^(-2))", 1, "Q")]),
        ("y^3 - x^5", QQ, [("(t^(-3), t^(-5))", 1, "Q")]),
        (
            "x^2 + y^2 - 1",
            F7,
            [
                ("(t^(-1), w*t^(-1) + 3*w*t + 6*w*t^3 + 3*w*t^5 + O(t^(6)))", 1, "F_7^2"),
                ("(t^(-1), 6*w*t^(-1) + 4*w*t + w*t^3 + 4*w*t^5 + O(t^(6)))", 1, "F_7^2"),
            ],
        ),
    ],
    ids=["hyperbola_both_charts", "degree_form_with_two_roots", "parabola_vertical_only", "y3_x5_vertical_edge", "circle_F7_to_F49"],
)
def test_places_are_pinned(f_text, field, expected):
    """The branches, in order, with their ramification and field: [1:c:0]
    for each root c of the degree form in turn, then [0:1:0]."""
    branches = places_at_infinity(_curve(f_text, ["x", "y"], GroupScheme("Additive", 2, field), field), precision=6)
    assert [(str(b.element), b.ramification, str(b.field)) for b in branches] == expected


# three places, two of them with the pole orders (-6, -4): telling those
# two apart is a lex basis that is fast only in the order in which the
# tube conditions are triangular, c_N > ... > c_1 > lami > lam
DEGREE_15 = (
    "x^10 - 9*x^9*y + 6*x^9 + 5*x^8*y^3 + 18*x^8*y^2 - 21*x^8*y + 5*x^8 - 36*x^7*y^4 "
    "+ 69*x^7*y^3 - 72*x^7*y^2 + 84*x^7*y - 52*x^7 + 10*x^6*y^6 + 54*x^6*y^5 - 279*x^6*y^4 "
    "+ 330*x^6*y^3 - 81*x^6*y^2 - 54*x^6*y + 52*x^6 - 54*x^5*y^7 + 117*x^5*y^6 + 189*x^5*y^5 "
    "- 540*x^5*y^4 + 335*x^5*y^3 + 45*x^5*y^2 - 18*x^5*y - 5*x^5 + 10*x^4*y^9 + 54*x^4*y^8 "
    "- 252*x^4*y^7 + 78*x^4*y^6 + 324*x^4*y^5 - 252*x^4*y^4 - 16*x^4*y^3 + 99*x^4*y^2 "
    "+ 21*x^4*y - 6*x^4 - 36*x^3*y^10 + 51*x^3*y^9 + 27*x^3*y^8 + 18*x^3*y^7 - 209*x^3*y^6 "
    "+ 135*x^3*y^5 + 129*x^3*y^4 + 32*x^3*y^3 - 9*x^3*y^2 - 3*x^3*y - x^3 + 5*x^2*y^12 "
    "+ 18*x^2*y^11 + 6*x^2*y^10 - 4*x^2*y^9 - 81*x^2*y^8 + 45*x^2*y^7 + 58*x^2*y^6 "
    "+ 27*x^2*y^5 + 6*x^2*y^4 + x^2*y^3 - 9*x*y^13 - 3*x*y^12 + 9*x*y^11 - 6*x*y^10 - 2*x*y^9 "
    "+ y^15 + 1"
)


@pytest.mark.parametrize(
    "field, expected",
    [
        (
            F5,
            [
                "(t^(-3), (w+3)*t^(-2) + (w+2)*t^(-1) + O(t^(12)))",
                "(t^(-6), (w+3)*t^(-4) + (4*w+3)*t^(-2) + (w+2)*t^(-1) + O(t^(24)))",
                "(t^(-6), (w+3)*t^(-4) + (4*w+3)*t^(-2) + 4*t^(-1) + O(t^(24)))",
            ],
        ),
        (
            F7,
            [
                "(t^(-6), 6*t^(-4) + 6*t^(-2) + 5*t^(-1) + O(t^(24)))",
                "(t^(-6), 6*t^(-4) + 6*t^(-2) + 4*t^(-1) + O(t^(24)))",
                "(t^(-3), 6*t^(-2) + t^(-1) + O(t^(12)))",
            ],
        ),
    ],
    ids=["F5", "F7"],
)
def test_places_of_the_degree_15_curve(field, expected):
    """Over F_5 the places lie over F_25 = F_5[w]/(w^2 + 2); mu_correct
    refuses each pair, and with lam > lami > c_1 > ... > c_N its lex basis
    for the (-6, -4) pair ran for minutes."""
    branches = places_at_infinity(_curve(DEGREE_15, ["x", "y"], GroupScheme("Additive", 2, field), field), precision=4)
    assert [str(b.element) for b in branches] == expected
    assert {str(b.field) for b in branches} == {"F_5^2" if field is F5 else "F_7"}


def test_places_over_an_extension_keep_a_subgroup_scheme():
    """Over F_5 the circle x^2 + 2y^2 = 1 needs sqrt(-2), so its places lie
    over F_25; they stay on the plane z = x of the additive 3-space."""
    scheme = GroupScheme.from_json({"kind": "Subgroup", "parent": {"kind": "Additive", "n": 3}, "ideal": ["z - x"]}, F5)
    branches = places_at_infinity(_curve("x^2 + 2*y^2 - 1", ["x", "y", "x"], scheme, F5), precision=6)
    assert len(branches) == 2
    for b in branches:
        assert str(b.field) == "F_5^2"
        assert b.scheme.kind == "Subgroup" and b.scheme.field == b.field
        assert [str(g) for g in b.scheme.subgroup_ideal.gens] == ["4*x + z"]


# prod over zeta, d in mu_3 of (w - zeta z^(1/3) - d zeta^2 z^(2/3)) in the
# chart x = 1/z, y = w/z, plus 1: three places that differ only at z^(2/3)
THREE_PLACES = "y^9 - 3*x*y^6 - 3*x^2*y^6 + 3*x^2*y^3 - 21*x^3*y^3 + 3*x^4*y^3 - 3*x^4 - x^3 - 3*x^5 - x^6 + 1"


@pytest.mark.parametrize(
    "field, code, places, field_of_places",
    [
        ({"kind": "Q"}, 3, 0, None),
        ({"kind": "Fp", "p": 5}, 0, 3, "F_5^2"),
        ({"kind": "Fp", "p": 7}, 0, 3, "F_7"),
        ({"kind": "Fp", "p": 11}, 0, 3, "F_11^2"),
    ],
    ids=["Q", "F5", "F7", "F11"],
)
def test_places_apart_below_the_first_term_need_their_own_roots(field, code, places, field_of_places):
    """At z^(2/3) the edge polynomial is c^3 - 1, whose roots d differ by
    cube roots of unity, but t -> zeta t would move the term z^(1/3) too:
    the roots of c^2 + c + 1 are three places, not conjugates of d = 1.  So
    over Q the places are missing, over F_5 and F_11 they lie over F_25 and
    F_121, and over F_7 all three are rational."""
    job = {
        "field": field,
        "group": {"kind": "Additive", "n": 2},
        "command": "places",
        "input": {"plane_curve": {"f": THREE_PLACES, "embedding": ["x", "y"]}},
        "budgets": {"precision": 4},
    }
    report, exit_code = run_job(job)
    assert exit_code == code
    assert len(report["results"].get("branches", [])) == places
    if code:
        assert report["errors"][0]["type"] == "CoefficientFieldTooSmall"
        return
    k = FieldSpec.from_json(field)
    branches = places_at_infinity(_curve(THREE_PLACES, ["x", "y"], GroupScheme("Additive", 2, k), k), precision=4)
    assert [str(b.field) for b in branches] == [field_of_places] * 3


def _binomial_cases():
    """y^p = x^q, gcd(p, q) = 1, over each field whose characteristic
    divides neither p nor q."""
    fields = {"Q": QQ, "F5": F5, "F7": F7, "F9": FieldSpec("Fq", p=3, modulus=(1, 0, 1))}
    for p in (2, 3, 4):
        for q in range(1, 6):
            for name, field in fields.items():
                if math.gcd(p, q) == 1 and not (field.char and (p % field.char == 0 or q % field.char == 0)):
                    yield pytest.param(f"y^{p} - x^{q}", field, None, id=f"y{p}_x{q}_{name}")


# prod over s = +-1 of ((w - s z^(1/2))^4 - z^3) in the chart, plus 1: two
# places, {(1, +-1), (-1, +-i)} and {(1, +-i), (-1, +-1)} as the
# coefficients of (z^(1/2), z^(3/4)).  Without i in k the second place is
# rational only under s = -1, the root that t -> zeta t relates to s = 1.
SIBLING_PLACES = "x^4 - 4*x^3*y^2 - 2*x^3 + 6*x^2*y^4 - 12*x^2*y^2 + x^2 - 4*x*y^6 - 2*x*y^4 + y^8 + 1"


@pytest.mark.parametrize(
    "f_text, field, rescaled",
    [
        *_binomial_cases(),
        pytest.param("x^2 + y^2 - 1", F5, False, id="circle_F5"),
        pytest.param("x^2 + y^2 - 1", F7, False, id="circle_F7"),
        pytest.param(THREE_PLACES, F7, False, id="three_places_F7"),
        pytest.param(THREE_PLACES, FieldSpec("Fp", p=13), False, id="three_places_F13"),
        pytest.param(SIBLING_PLACES, QQ, True, id="sibling_places_Q"),
        pytest.param(SIBLING_PLACES, F7, True, id="sibling_places_F7"),
        pytest.param(SIBLING_PLACES, FieldSpec("Fp", p=11), True, id="sibling_places_F11"),
        pytest.param(SIBLING_PLACES, FieldSpec("Fp", p=13), True, id="sibling_places_F13"),
    ],
)
def test_one_expansion_per_place_matches_merging_every_conjugate(monkeypatch, f_text, field, rescaled):
    """The places, and the field they lie over, equal those of expanding
    every root in fractional exponents and merging the conjugates in
    _dedup_branches, and exactly one expansion per place reaches
    _dedup_branches.  SIBLING_PLACES has a place that is rational only
    under the root s = -1, which the reference keeps, while Duval's
    variables expand both places under the first root: there the places
    match the reference's up to t -> lam t, in some order."""
    scheme = GroupScheme("Additive", 2, field)
    expected = every_root_places(_curve(f_text, ["x", "y"], scheme, field), 4)
    seen = []
    dedup = newton._dedup_branches

    def recording(branches):
        seen.extend(branches)
        return dedup(branches)

    monkeypatch.setattr(newton, "_dedup_branches", recording)
    branches = places_at_infinity(_curve(f_text, ["x", "y"], scheme, field), 4)
    assert seen == branches
    if not rescaled:
        assert branches == expected
        return
    assert len(branches) == len(expected)
    assert all(b.field == field for b in branches + expected)
    for b in branches:
        assert sum(is_rescaling(a, b) for a in expected) == 1


# the same with ((w - s z^(1/2))^8 - z^6): besides the two places above,
# two whose coefficient at z^(3/4) is a primitive 8th root of unity
EIGHTH_ROOT_PLACES = (
    "x^8 - 8*x^7*y^2 + 28*x^6*y^4 - 2*x^6 - 56*x^5*y^6 - 56*x^5*y^2 + 70*x^4*y^8 - 140*x^4*y^4 + x^4"
    " - 56*x^3*y^10 - 56*x^3*y^6 + 28*x^2*y^12 - 2*x^2*y^8 - 8*x*y^14 + y^16 + 1"
)
# prod over the conjugates (s, u) = (1, 1), (1, -1), (-1, i), (-1, -i) of
# (w - s z^(1/2) - u z^(3/4)) in the chart, plus 1: one place, rational
# under s = 1, while under s = -1 the edge polynomial 4c^2 + 4 has no root
# in k unless i is in k
ONE_PLACE = "y^4 - 2*x*y^2 - 4*x*y + x^2 - x + 1"


@pytest.mark.parametrize(
    "f_text, field, code, places, field_of_places",
    [
        (SIBLING_PLACES, {"kind": "Q"}, 0, 2, "Q"),
        (SIBLING_PLACES, {"kind": "Fp", "p": 7}, 0, 2, "F_7"),
        (EIGHTH_ROOT_PLACES, {"kind": "Q"}, 3, 0, None),
        (EIGHTH_ROOT_PLACES, {"kind": "Fp", "p": 5}, 0, 4, "F_5"),
        (EIGHTH_ROOT_PLACES, {"kind": "Fp", "p": 7}, 0, 4, "F_7^2"),
        (EIGHTH_ROOT_PLACES, {"kind": "Fp", "p": 17}, 0, 4, "F_17"),
        (ONE_PLACE, {"kind": "Q"}, 0, 1, "Q"),
        (ONE_PLACE, {"kind": "Fp", "p": 7}, 0, 1, "F_7"),
        (ONE_PLACE, {"kind": "Fp", "p": 13}, 0, 1, "F_13"),
    ],
    ids=["two_Q", "two_F7", "four_Q", "four_F5", "four_F7", "four_F17", "one_Q", "one_F7", "one_F13"],
)
def test_a_place_rational_only_under_a_conjugate_root(f_text, field, code, places, field_of_places):
    """The place {(1, +-i), (-1, +-1)} has no conjugate with s = 1 and its
    coefficients in k unless i is in k, yet it is rational: the job finds
    both places over Q and F_7.  The places with a primitive 8th root of
    unity u at z^(3/4): over Q they are missing and over F_7 they lie over
    F_49, while over F_5 Frobenius sends u to u^5 = -u and t -> -t maps
    (1, u) to (1, -u), so each of them is F_5-rational, as all four are
    over F_17.  The single place of ONE_PLACE is rational whichever root
    of s^2 = 1 comes first."""
    job = {
        "field": field,
        "group": {"kind": "Additive", "n": 2},
        "command": "places",
        "input": {"plane_curve": {"f": f_text, "embedding": ["x", "y"]}},
        "budgets": {"precision": 4},
    }
    report, exit_code = run_job(job)
    assert exit_code == code
    assert len(report["results"].get("branches", [])) == places
    if code:
        assert report["errors"][0]["type"] == "CoefficientFieldTooSmall"
        return
    k = FieldSpec.from_json(field)
    branches = places_at_infinity(_curve(f_text, ["x", "y"], GroupScheme("Additive", 2, k), k), precision=4)
    assert [str(b.field) for b in branches] == [field_of_places] * places


F9 = FieldSpec("Fq", p=3, modulus=(1, 0, 1))
QS2 = FieldSpec("QSqrt", d=2)


@st.composite
def _edge_polynomials(draw):
    """(coeffs, field, q, m) for phi = a c^i0 psi(c^q), an edge of slope
    -m/q with gcd(m, q) = 1 and q prime to the characteristic: psi a
    product of linear factors u - rho, rho a q-th power, -1 or a unit
    times one, or any scalar, and of random quadratics, with
    multiplicities."""
    field = draw(st.sampled_from([QQ, QS2, F5, F7, F9]))
    q = draw(st.integers(1, 6).filter(lambda n: not field.char or n % field.char))
    m, i0 = draw(st.integers(1, 12).filter(lambda n: math.gcd(n, q) == 1)), draw(st.integers(0, 2))
    if field.order:
        scalars = [field.element(i) for i in range(1, field.order)]
    else:
        scalars = [field.from_int(n) for n in (1, -1, 2, -2, 3, 4)]
        if field.kind == "QSqrt":
            scalars += [field.generator(), field.one() + field.generator()]
    ring = PolyRing(field, ("c",))
    u = ring.var("c")
    psi = ring.from_scalar(draw(st.sampled_from(scalars)))
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.sampled_from(scalars))
        kind = draw(st.sampled_from(["power", "twisted", "any", "quadratic"]))
        if kind == "quadratic":
            g = u**2 + u * ring.from_scalar(r) + ring.from_scalar(draw(st.sampled_from(scalars)))
        else:
            rho = {"power": r**q, "twisted": -(r**q), "any": r}[kind]
            g = u - ring.from_scalar(rho)
        psi = psi * g ** draw(st.integers(1, 2))
    coeffs = [(i0 + q * e[0], a) for e, a in psi.terms.items()]
    return coeffs, field, q, m


def _has_qth_root(rho, q):
    """Whether rho has a q-th root in its field: every element is tried
    over a finite field, and the integer roots of numerator and
    denominator over Q; over Q(sqrt d) only q <= 2 is decided (None
    otherwise)."""
    field = rho.field
    if q == 1:
        return True
    if field.order:
        return any(x**q == rho for x in field_elements(field))
    if field.kind == "QSqrt":
        return rho.sqrt() is not None if q == 2 else None
    r = rho.as_fraction()
    if r < 0 and q % 2 == 0:
        return False
    return all(round(abs(n) ** (1 / q)) ** q == abs(n) for n in (r.numerator, r.denominator))


def _splits(psi, p, degree):
    """Whether psi over F_p splits into linear factors over F_(p^degree),
    built by newton's rule."""
    field = FieldSpec("Fp", p=p) if degree == 1 else newton._extension(p, degree)
    lifted = Poly(PolyRing(field, ("c",)), {e: a.embed(field) for e, a in psi.terms.items()})
    return all(g.total_degree() == 1 for g, _ in uni_factor(lifted).factors)


@settings(max_examples=120, deadline=None)
@given(_edge_polynomials())
# psi = (u + 1)(u^2 + 1) over F_7: only u^2 + 1 asks for an extension, F_49
@example(([(i, F7.one()) for i in (0, 2, 4, 6)], F7, 2, 1))
def test_newton_roots_are_one_duval_root_per_root_of_psi(case):
    """_newton_roots gives one (c, mu) per distinct nonzero root rho of psi
    in phi(c) = c^i0 psi(c^q), ordered by the string of c - r, with
    c^q = rho mu^m, and mu = 1 exactly when rho has a q-th root in k, c
    then the first q-th root in that order.  A nonlinear factor of psi
    raises CoefficientFieldTooSmall, or over a finite field k
    _ExtensionNeeded with the degree over F_p of k(the roots of psi): k's
    degree times the lcm of those factors' degrees, and over F_p the least
    L for which psi splits over F_(p^L)."""
    coeffs, field, q, m = case
    ring = PolyRing(field, ("c",))
    var = ring.var("c")
    i0 = min(i for i, _ in coeffs)
    psi_poly = Poly(ring, {((i - i0) // q,): a for i, a in coeffs})
    psi = uni_factor(psi_poly)
    nonlinear = [g.total_degree() for g, _ in psi.factors + psi.unfactored if g.total_degree() > 1]
    if nonlinear:
        if not field.p:
            with pytest.raises(CoefficientFieldTooSmall):
                newton._newton_roots(coeffs, field, "edge ", q, m)
            return
        with pytest.raises(newton._ExtensionNeeded) as need:
            newton._newton_roots(coeffs, field, "edge ", q, m)
        degree = need.value.degree
        assert degree == field.extension_degree * math.lcm(*nonlinear)
        if field.kind == "Fp":
            assert _splits(psi_poly, field.p, degree)
            assert not any(_splits(psi_poly, field.p, e) for e in range(1, degree) if degree % e == 0)
        return
    roots = newton._newton_roots(coeffs, field, "edge ", q, m)

    def order(r):
        return str(var - ring.from_scalar(r))

    assert [order(c) for c, _ in roots] == sorted(order(c) for c, _ in roots)
    rhos = [c**q / mu**m for c, mu in roots]
    assert sorted(map(order, rhos)) == sorted(order(r) for r, _ in psi.roots())
    for (c, mu), rho in zip(roots, rhos):
        has_root = _has_qth_root(rho, q)
        if has_root is not None:
            assert mu.is_one() == has_root
        if mu.is_one() and field.order:
            assert order(c) == min(order(r) for r in field_elements(field) if r**q == rho)


# the chart's two places (1, -1) and (-1, 1) as coefficients of
# (z^(1/3), z^(2/3)): the edge polynomial at z^(1/3) is c^6 - 1 with
# e = 3, so psi = c^2 - 1, and both places are rational over every field
CUBE_ROOT_PLACES = "-x^4 + 2*x^3 + 9*x^2*y^2 - x^2 + 6*x*y^4 + y^6 + 1"


@pytest.mark.parametrize(
    "field, expected",
    [
        (QQ, ["(t^(-3), -t^(-2) + t^(-1) + 1/6*t^10 + 1/6*t^11 + O(t^(12)))", "(t^(-3), t^(-2) - t^(-1) - 1/6*t^10 - 1/6*t^11 + O(t^(12)))"]),
        (F7, ["(t^(-3), 6*t^(-2) + t^(-1) + 6*t^10 + 6*t^11 + O(t^(12)))", "(t^(-3), 4*t^(-2) + 5*t^(-1) + 4*t^10 + 2*t^11 + O(t^(12)))"]),
    ],
    ids=["Q", "F7"],
)
def test_edge_roots_that_uni_factor_leaves_unsplit_in_phi(field, expected):
    """Over Q, c^6 - 1 = (c - 1)(c + 1)(c^4 + c^2 + 1), and uni_factor
    leaves the quartic unsplit, so factoring phi counted its roots as
    missing and the job exited 3.  psi = c^2 - 1 gives the cube roots 1 and
    -1: two places of ramification 3 (x = t^-3) over Q, and over F_7 the
    same two branches as before."""
    report, code = run_job({
        "field": field.to_json(),
        "group": {"kind": "Additive", "n": 2},
        "command": "places",
        "input": {"plane_curve": {"f": CUBE_ROOT_PLACES, "embedding": ["x", "y"]}},
        "budgets": {"precision": 4},
    })
    assert code == 0 and len(report["results"]["branches"]) == 2
    branches = places_at_infinity(_curve(CUBE_ROOT_PLACES, ["x", "y"], GroupScheme("Additive", 2, field), field), precision=4)
    assert [str(b.element) for b in branches] == expected
    assert all(str(b.field) == str(field) for b in branches)


# the place x = t^-4/9, y = t^-2/3 + t^-1: in the chart its second edge
# polynomial is 4c^2 + 12, so mu = 3 there and lam = 3^2 for z = lam t^4
TWO_EDGES = "y^4 - 2*x*y^2 + x^2 - 12*x*y - 9*x"


@pytest.mark.parametrize(
    "f_text, field, expected",
    [
        pytest.param("y^2 - 3*x", QQ, "(1/3*t^(-2), t^(-1))", id="y2_3x_Q"),
        pytest.param("y^2 - 3*x", F7, "(5*t^(-2), t^(-1))", id="y2_3x_F7"),
        pytest.param("y^3 - 2*x^5", QQ, "(2*t^(-3), 4*t^(-5))", id="y3_2x5_Q"),
        pytest.param("y^2 - x^3", QS2, "(t^(-2), t^(-3))", id="cusp_QS2"),
        pytest.param("y^2 - x^3", FieldSpec("QSqrt", d=-1), "(t^(-2), t^(-3))", id="cusp_QSm1"),
        pytest.param("y^3 - 2*x^2", QS2, "(1/4*t^(-3), 1/2*t^(-2))", id="y3_2x2_QS2"),
        pytest.param("y^3 - 2*sqrt(2)*x^2", QS2, "(1/8*t^(-3), 1/4*sqrt(2)*t^(-2))", id="y3_2s2x2_QS2"),
        pytest.param("y^4 - 2*x", F5, "(3*t^(-4), t^(-1))", id="y4_2x_F5"),
        pytest.param(TWO_EDGES, QQ, "(1/9*t^(-4), 1/3*t^(-2) + t^(-1))", id="two_edges_Q"),
    ],
)
def test_places_rational_under_a_coefficient_on_x(f_text, field, expected):
    """Each curve has one place at infinity, rational over k only as
    x = lam^-1 t^-n with lam != 1 (or, for the cusp over Q(sqrt d), found
    there only through Duval's mu): z = mu T^q with c^q = rho mu^m.  With
    x = t^-n alone, y^2 - 3x over Q and the others over Q(sqrt d) and Q
    had no k-root at their edge (exit 3), and y^2 - 3x over F_7 and
    y^4 - 2x over F_5 were placed over F_49 and F_625; TWO_EDGES needs
    mu != 1 below an edge with mu = 1.  f vanishes on the
    branch up to its precision, and stab under both algorithms passes
    every theorem check it runs."""
    curve = _curve(f_text, ["x", "y"], GroupScheme("Additive", 2, field), field)
    branches = places_at_infinity(curve, precision=4)
    assert [(str(b.element), b.field) for b in branches] == [(expected, field)]
    values = dict(zip("xy", branches[0].element.entries))
    assert eval_poly_series(curve.f, values, field).is_zero()
    report, code = run_job({
        "field": field.to_json(),
        "group": {"kind": "Additive", "n": 2},
        "command": "stab",
        "algorithm": "both",
        "input": {"plane_curve": {"f": f_text, "embedding": ["x", "y"]}},
        "budgets": {"precision": 4},
    })
    assert code == 0
    assert report["checks"]["agreement"] == "pass"
    assert set(report["checks"].values()) <= {"pass", "skipped"}


@st.composite
def _binomial_curves(draw):
    """(f, field): y^p - a x^q with gcd(p, q) = 1, a != 0 and p q prime to
    the characteristic."""
    field = draw(st.sampled_from([QQ, QS2, FieldSpec("QSqrt", d=-1), F5, F7, F9, FieldSpec("Fp", p=11)]))
    p = draw(st.integers(1, 4).filter(lambda n: not field.char or n % field.char))
    q = draw(st.integers(1, 5).filter(lambda n: math.gcd(n, p) == 1 and (not field.char or n % field.char)))
    if field.order:
        a = draw(st.sampled_from([field.element(i) for i in range(1, field.order)]))
    else:
        a = field.from_int(draw(st.sampled_from([1, -1, 2, -3, 5])))
        if field.kind == "QSqrt" and draw(st.booleans()):
            a = a * field.generator()
    ring = PolyRing(field, ("x", "y"))
    return ring.var("y") ** p - ring.from_scalar(a) * ring.var("x") ** q, field


@settings(max_examples=60, deadline=None)
@given(_binomial_curves())
def test_binomial_curve_has_one_place_over_k(case):
    """y^p = a x^q with gcd(p, q) = 1 has one place at infinity, x =
    a^v t^p and y = a^u t^q up to t -> 1/t with up - vq = 1: rational over
    every k, and found over k."""
    f, field = case
    branches = places_at_infinity(PlaneCurveInput(f, [f.ring.var("x"), f.ring.var("y")], GroupScheme("Additive", 2, field)), precision=2)
    assert len(branches) == 1 and branches[0].field == field
    values = dict(zip("xy", branches[0].element.entries))
    assert eval_poly_series(f, values, field).is_zero()


# (x(y - x) - 1)(x(y - x) - 2) + (y - x)^3, irreducible over Q(i): at [1:1:0]
# y - x = w is small, and x w is near 1 or 2: two places
TUBE_EQUIVALENT_PLACES = "x^4 - 2*x^3*y + x^2*y^2 - x^3 + 3*x^2*y - 3*x*y^2 + y^3 + 3*x^2 - 3*x*y + 2"


def test_places_with_tube_equivalent_images_share_one_branch(monkeypatch):
    """Over Q(sqrt -1) the places (t^-1, t^-1 + t + t^4 + ...) and
    (t^-1, t^-1 + 2t - 8t^4 + ...) at [1:1:0] are distinct, but
    mu_correct finds them tube-equivalent, so
    _dedup_branches keeps only the first: places_at_infinity gives one
    branch per tube class, as the stabilizer depends only on it."""
    from mustab.stabilizer import mu_correct

    field = FieldSpec("QSqrt", d=-1)
    seen = []
    dedup = newton._dedup_branches

    def recording(branches):
        seen.extend(branches)
        return dedup(branches)

    monkeypatch.setattr(newton, "_dedup_branches", recording)
    branches = places_at_infinity(_curve(TUBE_EQUIVALENT_PLACES, ["x", "y"], GroupScheme("Additive", 2, field), field), precision=6)
    first, second = seen[:2]
    assert [str(b.element) for b in (first, second)] == [
        "(t^(-1), t^(-1) + t + t^4 + O(t^(6)))",
        "(t^(-1), t^(-1) + 2*t - 8*t^4 + O(t^(6)))",
    ]
    assert mu_correct(first, second) is not None
    assert branches == [first] + seen[2:]


def _places_before_dedup(curve, precision):
    """The branches that reach _dedup_branches in places_at_infinity,
    which here keeps them all."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(newton, "_dedup_branches", lambda branches: seen.extend(branches) or branches)
        places_at_infinity(curve, precision)
    return seen


def _pole_order(branch):
    """n for the place z = lam t^n of a branch under the embedding (x, y):
    z = 1/x, or 1/y at [0:1:0], so n is the larger pole order of the two."""
    return -min(s.val().as_fraction() for s in branch.element.entries if not s.is_zero())


# the degree form's roots need F_9 and F_27, so F_3^6 at once
THREE_AND_TWO = "2 + 2*y^6 + x*y^5 + 2*x^2*y^2 + 2*x^6"
# the degree form's roots need F_27, and then an edge over F_27 needs
# the roots of c^2 + 1: F_3^6 on a second restart
TWO_RESTARTS = "2 + y^2 + x^2*y^4 + 2*x^3*y^3 + x^6"
# psi = u^2 + u + 2 at an edge of slope -1/2, though phi = c^4 + c^2 + 2
# is irreducible over F_5
QUADRATIC_PSI = "y^4 + x*y^2 + 2*x^2 + 1"
# psi = (u^2 + u + 2)(u^4 + 2) at an edge of slope -1/2
QUADRATIC_AND_QUARTIC_PSI = "y^12 + x*y^10 + 2*x^2*y^8 + 2*x^4*y^4 + 2*x^5*y^2 + 4*x^6 + 1"


@pytest.mark.parametrize(
    "f_text, p, field_of_places, places, branches",
    [
        (THREE_AND_TWO, 3, "F_3^6", 6, 6),
        (TWO_RESTARTS, 3, "F_3^6", 6, 5),
        (QUADRATIC_PSI, 5, "F_5^2", 2, 2),
        (QUADRATIC_AND_QUARTIC_PSI, 5, "F_5^4", 6, 6),
    ],
    ids=["three_and_two_F3", "two_restarts_F3", "quadratic_psi_F5", "quadratic_and_quartic_psi_F5"],
)
def test_places_lie_over_the_field_their_roots_need(f_text, p, field_of_places, places, branches):
    """Over F_p the places lie over F_(p^L), L the lcm of the degrees over
    F_p of the roots of every psi met, whatever the order in which the
    roots go missing.  Every place is counted before _dedup_branches, and
    their pole orders add up to the degree of the curve."""
    report, code = run_job({
        "field": {"kind": "Fp", "p": p},
        "group": {"kind": "Additive", "n": 2},
        "command": "places",
        "input": {"plane_curve": {"f": f_text, "embedding": ["x", "y"]}},
        "budgets": {"precision": 4},
    })
    assert code == 0 and len(report["results"]["branches"]) == branches
    k = FieldSpec("Fp", p=p)
    curve = _curve(f_text, ["x", "y"], GroupScheme("Additive", 2, k), k)
    seen = _places_before_dedup(curve, 4)
    assert len(seen) == places
    assert {str(b.field) for b in seen} == {field_of_places}
    assert sum(map(_pole_order, seen)) == curve.f.total_degree()


def test_extension_past_the_cap_is_coefficient_field_too_small(monkeypatch):
    """A curve whose places need a field past _MAX_EXTENSION_ORDER exits 3,
    and the message names the extension."""
    monkeypatch.setattr(newton, "_MAX_EXTENSION_ORDER", 3**5)
    report, code = run_job({
        "field": {"kind": "Fp", "p": 3},
        "group": {"kind": "Additive", "n": 2},
        "command": "places",
        "input": {"plane_curve": {"f": THREE_AND_TWO, "embedding": ["x", "y"]}},
        "budgets": {"precision": 4},
    })
    assert code == 3
    assert report["errors"][0]["type"] == "CoefficientFieldTooSmall"
    assert "F_3^6" in report["errors"][0]["message"]


def _partial(f, i):
    """The derivative of f by its i-th variable."""
    return Poly(f.ring, {m[:i] + (m[i] - 1,) + m[i + 1 :]: c * f.ring.field.from_int(m[i]) for m, c in f.terms.items() if m[i]})


def _is_reduced(f):
    """Whether <f, f_x, f_y> has dimension <= 0, so f has no square factor."""
    try:
        return krull_dim(Ideal(f.ring, (f, _partial(f, 0), _partial(f, 1)))) <= 0
    except EmptyVariety:
        return True


@st.composite
def _plane_curves(draw):
    """A curve of degree 2 to 4 with up to 5 terms over Q, F_3, F_5 or F_7,
    one of them of top degree."""
    field = draw(st.sampled_from([QQ, FieldSpec("Fp", p=3), F5, F7]))
    d = draw(st.integers(2, 4))
    monomials = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    support = {draw(st.sampled_from([m for m in monomials if sum(m) == d]))}
    support |= set(draw(st.lists(st.sampled_from(monomials), max_size=4)))
    values = range(1, field.p) if field.p else (-2, -1, 1, 2)
    ring = PolyRing(field, ("x", "y"))
    return Poly(ring, {m: field.from_int(draw(st.sampled_from(values))) for m in support})


@settings(max_examples=60, deadline=None)
@given(_plane_curves())
@example(PolyRing(F7, ("x", "y")).parse("x^2 + y^2 - 1"))  # one restart, over F_49
@example(PolyRing(F5, ("x", "y")).parse(QUADRATIC_PSI))  # an edge's restart, over F_25
def test_pole_orders_of_the_places_add_up_to_the_degree(f):
    """The line at infinity cuts a reduced curve of degree d in a divisor
    of degree d, and each place z = lam t^n meets it n times, so the pole
    orders n of the places before _dedup_branches add up to d, also after
    a restart over an extension.  Only reduced curves are drawn: p-th
    powers such as x^3 + y^3 + 2 over F_3 and squares such as (xy - 1)^2
    over Q pass the irreducibility fragment and give d/p or d/2.  Those
    are the open witnesses of the degree check (ROADMAP item 18), which is
    to reject them with exit 2; they are left out here for that reason
    alone."""
    if not _is_reduced(f):
        return
    scheme = GroupScheme("Additive", 2, f.ring.field)
    try:
        curve = PlaneCurveInput(f, [f.ring.var("x"), f.ring.var("y")], scheme)
        seen = _places_before_dedup(curve, 4)
    except (ValueError, CoefficientFieldTooSmall, WildRamification):
        return  # reducible by the fragment, roots outside Q, or wild
    assert sum(map(_pole_order, seen)) == f.total_degree()
