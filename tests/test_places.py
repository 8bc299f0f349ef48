"""Newton-polygon places at infinity."""

import pytest

from mustab.branches import is_centered_at_infinity
from mustab.errors import CoefficientFieldTooSmall
from mustab.fields import QQ, FieldSpec
from mustab.groups import GroupScheme, eval_poly_series
from mustab.newton import PlaneCurveInput, check_irreducible_fragment, places_at_infinity
from mustab.poly import PolyRing
from mustab.series import ScalarDomain

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
        out = eval_poly_series(f, values, ScalarDomain(F5))
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
        assert eval_poly_series(curve.f, values, ScalarDomain(QQ)).is_zero()


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
    from mustab.errors import WildRamification

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
    assert eval_poly_series(ring.parse("y^2 - x^5"), values, ScalarDomain(QQ)).is_zero()


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
