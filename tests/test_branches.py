"""Branch validation, boundedness, implicitization, and the type dimension
dim p where certified_dim certifies it."""

from fractions import Fraction

import pytest

from mustab.branches import Branch, certified_dim, implicitize, is_centered_at_infinity, validate_branch
from mustab.errors import NotOnGroup
from mustab.exponents import Exponent, exp
from mustab.fields import QQ, FieldSpec
from mustab.groups import GroupScheme
from mustab.ideals import Ideal, eliminate, ideal, ideal_equal, ideal_member, krull_dim
from mustab.poly import PolyRing
from mustab.series import PuiseuxSeries
from tests_helpers import closure_relations, relation_ideal

QS2 = FieldSpec("QSqrt", d=2)
SL2 = GroupScheme("SL", 2, QQ)
ADD2 = GroupScheme("Additive", 2, QQ)


def S(*terms, prec=None, dom=QQ):
    return PuiseuxSeries(dom, [(exp(e), dom.from_int(c)) for e, c in terms], None if prec is None else exp(prec))


def Z(dom=QQ):
    return PuiseuxSeries.zero(dom)


def test_validate_branch_x1():
    b = validate_branch(SL2, ((S((-1, 1)), S((0, 1))), (Z(), S((1, 1)))))
    assert b.ramification == 1
    assert is_centered_at_infinity(b)


def test_validate_branch_wrong_det():
    with pytest.raises(NotOnGroup):
        validate_branch(SL2, ((S((-1, 1)), S((0, 1))), (Z(), S((1, 2)))))


def test_validate_additive_and_ramification():
    b = validate_branch(ADD2, (S((-2, 1)), S((-3, 1))))
    assert b.ramification == 1
    assert is_centered_at_infinity(b)
    half = PuiseuxSeries(QQ, [(exp("1/2"), QQ.one())], None)
    b2 = validate_branch(ADD2, (half, Z()))
    assert b2.ramification == 2
    assert not is_centered_at_infinity(b2)


def test_bounded_branch_is_not_centered():
    one_plus_t = S((0, 1), (1, 1))
    b = validate_branch(SL2, ((one_plus_t, Z()), (Z(), one_plus_t.inv(prec=exp(10)))))
    assert not is_centered_at_infinity(b)


def test_implicitize_equal_coordinates():
    b = validate_branch(ADD2, (S((-1, 1)), S((-1, 1))))
    out = implicitize(b)
    assert ideal_equal(out, ideal(out.ring, "x - y"))


def test_implicitize_cusp_matches_elimination_oracle():
    b = validate_branch(ADD2, (S((-2, 1)), S((-3, 1))))
    out = implicitize(b)
    # independent oracle: eliminate s from <x s^2 - 1, y s^3 - 1>
    ring = PolyRing(QQ, ("s", "x", "y"))
    oracle = eliminate(ideal(ring, "x*s^2 - 1", "y*s^3 - 1"), ("s",))
    lifted = Ideal(out.ring, tuple(g.restrict(out.ring) for g in oracle.gens))
    assert ideal_equal(out, lifted)


def test_implicitize_x1():
    b = validate_branch(SL2, ((S((-1, 1)), S((0, 1))), (Z(), S((1, 1)))))
    out = implicitize(b)
    expected = ideal(out.ring, "x12 - 1", "x21", "x11*x22 - 1")
    assert ideal_equal(out, expected)
    assert krull_dim(out) == 1


def test_implicitize_monotone_in_degree():
    """The relations of degree <= 2 lie in those of degree <= 3, and both
    in the exact closure."""
    b = validate_branch(SL2, ((S((-1, 1)), S((0, 1))), (Z(), S((1, 1)))))
    ring = PolyRing(QQ, SL2.coordinates())
    small, big = (relation_ideal(ring, closure_relations(b, D)) for D in (2, 3))
    exact = implicitize(b)
    for g in small.gens:
        assert ideal_member(g, big)
    for g in big.gens:
        assert ideal_member(g, exact)


def test_implicitize_substitution_vanishes():
    b = validate_branch(ADD2, (S((-2, 1)), S((-3, 1))))
    out = implicitize(b)
    from mustab.groups import eval_poly_series

    values = {"x": b.element.entries[0], "y": b.element.entries[1]}
    for g in out.gens:
        assert eval_poly_series(g, values, QQ).is_zero()


def test_type_dimension_irrational_pair():
    r = Exponent(Fraction(0), Fraction(1), 2)
    first = S((-1, 1))
    second = PuiseuxSeries(QQ, [(exp(-1), QQ.one()), (r, QQ.one())], None)
    b = validate_branch(ADD2, (first, second))
    assert certified_dim(b) == 2


def test_type_dimension_diagonal_and_cusp():
    assert certified_dim(validate_branch(ADD2, (S((-1, 1)), S((-1, 1))))) == 1
    assert certified_dim(validate_branch(ADD2, (S((-2, 1)), S((-3, 1))))) == 1


def test_certified_dim_where_the_bounds_meet():
    """(t^-2, t^-3) is certified 1, though no relation has degree 2; in
    reduced_a2 the valuations -1 and sqrt(2) certify 2, and so do -1 and
    the valuation sqrt(2) of y - 1 for y = 1 + t^sqrt(2)."""
    cusp = validate_branch(ADD2, (S((-2, 1)), S((-3, 1))))
    assert certified_dim(cusp) == 1 and not closure_relations(cusp, 2)
    r = Exponent(Fraction(0), Fraction(1), 2)
    second = PuiseuxSeries(QQ, [(exp(-1), QQ.one()), (r, QQ.one())], None)
    assert certified_dim(validate_branch(ADD2, (S((-1, 1)), second))) == 2
    shifted = PuiseuxSeries(QQ, [(exp(0), QQ.one()), (r, QQ.one())], None)
    assert certified_dim(validate_branch(ADD2, (S((-1, 1)), shifted))) == 2
    assert certified_dim(validate_branch(ADD2, (S((0, 3)), S((0, -1))))) == 0


def test_certified_dim_leaves_open_bounds_that_differ():
    """x = t^-1 + t^sqrt(2) and y = x^2 have exponents of rank 2, but every
    k-combination of 1, x, y has a rational valuation; and a truncated entry
    bounds nothing."""
    x = PuiseuxSeries(QQ, [(exp(-1), QQ.one()), (Exponent(Fraction(0), Fraction(1), 2), QQ.one())], None)
    square = validate_branch(ADD2, (x, x * x))
    assert certified_dim(square) is None
    assert certified_dim(validate_branch(ADD2, (S((-2, 1)), S((-3, 1), prec=4)))) is None


def test_type_dimension_needs_no_groebner_basis(monkeypatch):
    """certified_dim reads dim p off the exponents, or off the curve of a
    place; it must not compute a Groebner basis."""
    from mustab import ideals
    from mustab.corpus import corpus_entries
    from mustab.jobs import _read_input, parse_budgets
    from mustab.newton import places_at_infinity

    def refuse(*_args):
        raise AssertionError("certified_dim computed a Groebner basis")

    expected = {"x1": [1], "cusp": [1], "circle_f5": [1, 1]}
    cases = {}
    for entry in corpus_entries():
        if entry["name"] not in expected:
            continue
        job = entry["job"]
        scheme = GroupScheme.from_json(job["group"], FieldSpec.from_json(job["field"]))
        budgets, _ = parse_budgets(job.get("budgets"))
        inp = _read_input(job, "stab", scheme, job.get("exponent_d"))
        cases[entry["name"]] = [inp] if "branch" in job["input"] else places_at_infinity(inp, budgets.precision)
    # every path from branches.py to a Groebner basis goes through these
    monkeypatch.setattr(ideals, "groebner_basis", refuse)
    monkeypatch.setattr(ideals, "buchberger", refuse)
    assert {name: [certified_dim(b) for b in found] for name, found in cases.items()} == expected


def test_a_plane_curve_place_has_dim_one_and_its_cuts_are_open():
    """A place of the circle over F_5, known to t^20, is certified 1 by its
    curve alone; its truncation candidates are no places, and the one-entry
    cuts keep a truncated entry, so they are open."""
    from mustab.jobs import parse_plane_curve
    from mustab.newton import places_at_infinity
    from mustab.stabilizer import _truncation_candidates

    F5 = FieldSpec("Fp", p=5)
    circle = parse_plane_curve({"f": "x^2 + y^2 - 1", "embedding": ["x", "y"]}, GroupScheme("Additive", 2, F5))
    for place in places_at_infinity(circle, 20):
        assert place.curve_place and any(s.precision is not None for s in place.element.flat())
        assert certified_dim(place) == 1
        moved = place.translate(GroupScheme("Additive", 2, F5).identity())
        assert moved.curve_place and certified_dim(moved) == 1
        cuts = list(_truncation_candidates(place))
        assert cuts and not any(c.curve_place for c in cuts)
        assert all(certified_dim(c) is None for c in cuts if not all(s.is_exact() for s in c.element.flat()))
    # hidden from equality and repr
    assert place == Branch(place.element, place.ramification, place.trusted_irreducible, place.notes)
    assert "curve_place" not in repr(place)


def _reduced_exact_branches():
    """The exact mu-reduced branches of the corpus and of random Laurent
    points and shear products (the families of the property suites) over Q
    and F_5, each with the degree bounds its walk is compared at."""
    import random

    from mustab.corpus import corpus_entries
    from mustab.jobs import _read_input, parse_budgets
    from mustab.newton import places_at_infinity
    from mustab.stabilizer import mu_reduce
    from tests_helpers import random_laurent_point, shear_product

    out = []
    for entry in corpus_entries():
        job = entry["job"]
        if "skip" in job:
            continue
        scheme = GroupScheme.from_json(job["group"], FieldSpec.from_json(job["field"]))
        budgets, _ = parse_budgets(job.get("budgets"))
        inp = _read_input(job, "stab", scheme, job.get("exponent_d"))
        for b in [inp] if "branch" in job["input"] else places_at_infinity(inp, budgets.precision):
            if is_centered_at_infinity(b):
                out.append((mu_reduce(b)[0], (2, 3, max(2, budgets.degree_bound))))
    rng = random.Random(31)
    for field in (QQ, FieldSpec("Fp", p=5), QQ, FieldSpec("Fp", p=5)):
        for kind, n in (("SL", 2), ("GL", 2), ("SL", 3)):
            out.append((shear_product(GroupScheme(kind, n, field), rng, 2), (2, 3)))
        for kind, n in (("Additive", 2), ("Additive", 3), ("SL", 2), ("GL", 2)):
            g = random_laurent_point(GroupScheme(kind, n, field), rng)
            b = validate_branch(g.scheme, g.entries)
            if is_centered_at_infinity(b):
                out.append((mu_reduce(b)[0], (2, 3)))
    return [(b, degrees) for b, degrees in out if all(s.is_exact() for s in b.element.flat())]


def test_implicitize_is_the_degree_bounded_closure_of_the_right_dimension():
    """On a reduced exact branch, the relations of degree <= D generate the
    exact closure wherever their Krull dimension is the certified dim p.
    (Reduction matters: the unreduced (-2 - 4t^2 - 3t^3, 3t^-1 - t^3,
    2t^-3 - 4t^-2) over Q has relations of Krull dimension 1 at D = 3 that
    miss a generator of the closure.)"""
    compared = 0
    for b, degrees in _reduced_exact_branches():
        V = implicitize(b)
        dim = certified_dim(b)
        assert krull_dim(V) == dim, str(b)
        ring = PolyRing(b.field, b.scheme.coordinates())
        for D in degrees:
            W = relation_ideal(ring, closure_relations(b, D))
            if krull_dim(W) == dim:
                compared += 1
                assert W.gens == V.gens, (str(b), D)
    assert compared >= 30
