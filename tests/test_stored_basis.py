"""An ideal that carries its reduced Groebner basis is never reduced again.

`Ideal.basis_order` names the order under which the generators already are
the reduced, sorted basis.  These tests check that every marked ideal
really is that basis, that membership and dimension answer the same with
or without the mark, that the generic pair of `verify_subgroup` is the
basis of the 2n-variable relations, and that no module outside ideals.py
runs Buchberger itself, so the mark is always read.
"""

import ast
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from mustab import ideals, subgroups
from mustab.errors import EmptyVariety
from mustab.fields import QQ, FieldSpec
from mustab.groups import GroupScheme
from mustab.ideals import (
    Ideal,
    buchberger,
    eliminate,
    groebner_basis,
    ideal,
    ideal_contains,
    ideal_equal,
    ideal_member,
    krull_dim,
)
from mustab.poly import GREVLEX, LEX, Poly, PolyRing
from mustab.subgroups import SubgroupDesc, _generic_pair, _substituted, classify_subgroup
from tests_helpers import points_ideal

ROOT = Path(__file__).resolve().parent.parent
F5 = FieldSpec("Fp", p=5)
F9 = FieldSpec("Fq", p=3, modulus=(1, 0, 1))


def _random_poly(rng, ring, terms=3):
    """Up to `terms` terms of degree 1 or 2, and a constant half of the time."""
    field = ring.field
    monos = {(0,) * ring.nvars} if rng.random() < 0.5 else set()
    for _ in range(terms):
        m = [0] * ring.nvars
        for _ in range(rng.randrange(1, 3)):
            m[rng.randrange(ring.nvars)] += 1
        monos.add(tuple(m))

    def coeff():
        if field.order:
            return field.element(rng.randrange(1, field.order))
        return field.from_int(rng.choice((-2, -1, 1, 3)))

    return Poly(ring, {m: coeff() for m in monos})


def _marked_ideals(rng, field):
    nvars = rng.randrange(2, 5)
    names = ("a", "b", "c", "d")[:nvars]
    ring = PolyRing(field, names)
    I = Ideal(ring, tuple(_random_poly(rng, ring) for _ in range(rng.randrange(2, 4))))
    yield groebner_basis(I)
    yield groebner_basis(I, LEX)
    yield groebner_basis(I, GREVLEX)
    yield eliminate(I, names[:1])
    points = [{v: field.from_int(rng.randrange(5)) for v in names} for _ in range(3)]
    yield points_ideal(points, ring, 2)


@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["Q", "F5", "F9"])
def test_marked_ideals_are_their_reduced_basis(field):
    rng = random.Random(f"stored basis over {field}")
    for _ in range(6):
        for M in _marked_ideals(rng, field):
            assert M.basis_order is not None
            assert tuple(buchberger(list(M.gens), M.basis_order)) == M.gens
            assert groebner_basis(M, M.basis_order) is M
            plain = Ideal(M.ring, M.gens)
            assert plain == M and hash(plain) == hash(M) and plain.basis_order is None
            try:
                dim = krull_dim(M)
            except EmptyVariety:
                with pytest.raises(EmptyVariety):
                    krull_dim(plain)
            else:
                assert krull_dim(plain) == dim
            for _ in range(2):
                f = _random_poly(rng, M.ring)
                assert ideal_member(f, M) == ideal_member(f, plain)
                J = Ideal(M.ring, (f,) + M.gens[:1])
                assert ideal_contains(M, J) == ideal_contains(plain, J)
                assert ideal_contains(J, M) == ideal_contains(J, plain)


@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["Q", "F5", "F9"])
def test_two_bases_under_one_order_are_equal_exactly_when_their_ideals_are(field, monkeypatch):
    """ideal_equal compares the generators of two ideals marked with the
    same order object, and answers as containment both ways does: over
    shuffled and redundant generators, a smaller ideal, eliminations and
    the unit ideal."""
    rng = random.Random(f"ideal equality over {field}")
    contained = []
    real = ideals.ideal_contains
    monkeypatch.setattr(ideals, "ideal_contains", lambda I, J: contained.append(1) or real(I, J))
    for _ in range(5):
        ring = PolyRing(field, ("a", "b", "c"))
        gens = [_random_poly(rng, ring) for _ in range(rng.randrange(2, 4))]
        shuffled = rng.sample(gens, len(gens)) + [gens[0] * gens[-1] + gens[-1]]
        plain = [Ideal(ring, tuple(g)) for g in (gens, shuffled, gens[:-1], [ring.one()], [gens[0], ring.from_int(2)])]
        for order in (GREVLEX, LEX):
            marked = [groebner_basis(I, order) for I in plain]
            for (A, P), (B, Q) in combinations(list(zip(marked, plain)), 2):
                want = real(P, Q) and real(Q, P)
                contained.clear()
                assert ideal_equal(A, B) == want
                assert not contained
                assert ideal_equal(P, Q) == want and ideal_equal(A, Q) == want
        cut = [eliminate(I, ("a",)) for I in plain]
        for A, B in combinations(cut, 2):
            assert ideal_equal(A, B) == (real(Ideal(A.ring, A.gens), B) and real(Ideal(B.ring, B.gens), A))


def test_a_marked_basis_is_computed_once(monkeypatch):
    calls = []
    real = ideals.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ideals, "buchberger", counting)
    ring = PolyRing(QQ, ("x", "y", "z"))
    I = ideal(ring, "x^2 - y*z", "y^2 - x*z", "z^2 - x*y")
    krull_dim(groebner_basis(I))
    assert len(calls) == 1


@pytest.mark.parametrize("gens, name", [
    (("x11 - 1", "x21", "x22 - 1"), "upper unipotent"),
    (("x12", "x21", "x11*x22 - 1"), "diagonal torus"),
    (("x21", "x11 - x22"), "Borel-contained subgroup of dimension 1"),
])
def test_classifying_again_runs_no_buchberger(monkeypatch, gens, name):
    """The SL(2) templates are reduced bases built once per ring, so a
    stabilizer that carries its basis is classified without Buchberger.
    The memo of names is cleared first, so the second call classifies H
    itself."""
    sl2 = GroupScheme("SL", 2, QQ)
    H = SubgroupDesc(sl2, groebner_basis(ideal(sl2.coordinate_ring(), *gens)), 1)
    assert classify_subgroup(H) == name
    subgroups._classified.cache_clear()
    calls = []
    real = ideals.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ideals, "buchberger", counting)
    assert classify_subgroup(H) == name
    assert not calls


@pytest.mark.parametrize("kind", ["SL", "GL"])
def test_classifying_the_trivial_group_again_runs_no_buchberger(monkeypatch, kind):
    """The identity ideal is compared as a reduced basis built once per
    scheme, so a trivial stabilizer that carries its basis is classified
    again without Buchberger, the memo of names cleared before each call."""
    scheme = GroupScheme(kind, 2, QQ)
    H = SubgroupDesc(scheme, groebner_basis(scheme.identity_ideal), 0)
    assert classify_subgroup(H) == "trivial"
    calls = []
    real = ideals.buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ideals, "buchberger", counting)
    for _ in range(3):
        subgroups._classified.cache_clear()
        assert classify_subgroup(H) == "trivial"
    assert not calls


def _substituted_pair_basis(I: Ideal, scheme: GroupScheme) -> set:
    """The reduced basis of the substituted relations over 2n variables."""
    names = scheme.coordinates()
    big = PolyRing(scheme.field, tuple("u" + n for n in names) + tuple("v" + n for n in names))
    u = tuple(big.var("u" + n) for n in names)
    v = tuple(big.var("v" + n) for n in names)
    rel = []
    for f in list(I.gens) + scheme.defining_polys(I.ring):
        rel.append(_substituted(f, scheme, u, big))
        rel.append(_substituted(f, scheme, v, big))
    return set(groebner_basis(Ideal(big, tuple(rel))).gens)


def _corpus_stabilizers():
    golden = json.loads((ROOT / "tests" / "data" / "golden_reports.json").read_text())
    for name, entry in sorted(golden.items()):
        inputs = entry["report"]["inputs"]
        field = FieldSpec.from_json(inputs["field"])
        scheme = GroupScheme.from_json(inputs["group"], field)
        ring = scheme.coordinate_ring()
        for run in entry["report"]["results"].get("stabilizers", []):
            ideals_seen = [run["subgroup"]["ideal"]]
            if "degeneration" in run:
                ideals_seen += [run["degeneration"]["ideal"], run["degeneration"]["fiber"]]
            for gens in ideals_seen:
                yield name, scheme, Ideal(ring, tuple(ring.parse(g) for g in gens))


def _hand_made():
    sl2 = GroupScheme("SL", 2, QQ)
    gl2 = GroupScheme("GL", 2, F5)
    plane = GroupScheme("Additive", 2, QQ)
    yield "SL2 torus", sl2, ideal(sl2.coordinate_ring(), "x12", "x21")
    yield "SL2 unipotent", sl2, ideal(sl2.coordinate_ring(), "x21", "x11 - 1", "x22 - 1")
    yield "SL2 empty", sl2, ideal(sl2.coordinate_ring(), "x11", "x12", "x21")
    yield "GL2 torus", gl2, ideal(gl2.coordinate_ring(), "x12", "x21")
    yield "GL2 scalars", gl2, ideal(gl2.coordinate_ring(), "x12", "x21", "x11 - x22")
    yield "plane line", plane, ideal(plane.coordinate_ring(), "x - 2*y")
    yield "plane whole", plane, Ideal(plane.coordinate_ring(), ())


@pytest.mark.parametrize("name, scheme, I", [*_corpus_stabilizers(), *_hand_made()], ids=lambda x: x if isinstance(x, str) else "")
def test_generic_pair_is_the_basis_of_both_copies(name, scheme, I):
    want = _substituted_pair_basis(I, scheme)
    for J in (I, groebner_basis(I)):
        big, u, v, gb = _generic_pair(J, scheme)
        assert set(gb) == want, name


def test_only_ideals_py_runs_buchberger():
    """Every basis comes through groebner_basis or the stored-basis helper."""
    files = [*(ROOT / "src" / "mustab").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    offenders = []
    for f in files:
        if f.name == "ideals.py":
            continue
        for node in ast.walk(ast.parse(f.read_text())):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            if name == "buchberger":
                offenders.append(f"{f.name}:{node.lineno}")
    assert not offenders, "buchberger used outside ideals.py: " + ", ".join(offenders)


def test_elimination_basis_is_marked_grevlex():
    ring = PolyRing(QQ, ("s", "x", "y"))
    out = eliminate(ideal(ring, "x*s^2 - 1", "y*s^3 - 1"), ("s",))
    assert out.basis_order is GREVLEX
    assert krull_dim(out) == 1
