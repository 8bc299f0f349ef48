"""Acceptance suite: exact reproduction of the worked examples plus the
theorem property checks, each with its stated time budget.

Every test prints one [PASS]/[FAIL] line so the suite doubles as a
checklist; run `pytest tests/test_acceptance.py -s` to see them all.
"""

import random
import time
from fractions import Fraction

from mustab.branches import certified_dim, implicitize, validate_branch
from mustab.degeneration import identity_component
from mustab.exponents import EXP_ZERO, Exponent, exp
from mustab.fields import QQ, FieldSpec
from mustab.groups import GroupScheme, KPoint, iwasawa, random_kpoint
from mustab.ideals import Budgets, Ideal, eliminate, ideal, ideal_equal, krull_dim
from mustab.newton import PlaneCurveInput, places_at_infinity
from mustab.pipeline import compute_stabilizer, halevi_lift_check
from mustab.poly import PolyRing
from mustab.series import PuiseuxSeries
from mustab.stabilizer import mu_correct, mu_reduce
from mustab.subgroups import SubgroupDesc, TubeCertificate, conjugate_stab, is_solvable
from tests_helpers import (
    agrees,
    ideal_intersect,
    random_integral_point,
    random_laurent_point,
    random_mu_point,
    random_series,
)

F5 = FieldSpec("Fp", p=5)
BUDGETS = Budgets(degree_bound=4)


def S(*terms, prec=None, dom=QQ):
    return PuiseuxSeries(dom, [(exp(e), dom.from_int(c)) for e, c in terms], None if prec is None else exp(prec))


def Z(dom=QQ):
    return PuiseuxSeries.zero(dom)


def sl2(field=QQ):
    return GroupScheme("SL", 2, field)


def add2(field=QQ):
    return GroupScheme("Additive", 2, field)


def x1_branch(field=QQ):
    return validate_branch(
        sl2(field),
        ((S((-1, 1), dom=field), S((0, 1), dom=field)), (Z(field), S((1, 1), dom=field))),
    )


def x2_branch(field=QQ):
    return validate_branch(
        sl2(field),
        ((S((-1, 1), dom=field), Z(field)), (S((0, 1), dom=field), S((1, 1), dom=field))),
    )


def cusp_branch():
    return validate_branch(add2(), (S((-2, 1)), S((-3, 1))))


def circle_branches():
    ring = PolyRing(F5, ("x", "y"))
    curve = PlaneCurveInput(ring.parse("x^2 + y^2 - 1"), [ring.parse("x"), ring.parse("y")], add2(F5))
    return places_at_infinity(curve, precision=20)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_x1_unipotent_both_algorithms():
    t0 = time.monotonic()
    run = compute_stabilizer(x1_branch(), "both", BUDGETS)
    elapsed = time.monotonic() - t0
    want = ideal(run.subgroup.ideal.ring, "x11 - 1", "x21", "x22 - 1")
    ok = (
        ideal_equal(run.reparam.ideal, want)
        and ideal_equal(run.degeneration.desc.ideal, want)
        and run.subgroup.dim == 1
        and elapsed < 10.0
    )
    report("criterion 1: X1 stabilizer is the upper unipotent by both algorithms", ok, f"{elapsed:.2f}s")


def test_criterion_02_x2_torus_both_algorithms():
    t0 = time.monotonic()
    run = compute_stabilizer(x2_branch(), "both", BUDGETS)
    elapsed = time.monotonic() - t0
    want = ideal(run.subgroup.ideal.ring, "x12", "x21", "x11*x22 - 1")
    ok = (
        ideal_equal(run.reparam.ideal, want)
        and ideal_equal(run.degeneration.desc.ideal, want)
        and run.subgroup.dim == 1
        and elapsed < 10.0
    )
    report("criterion 2: X2 stabilizer is the diagonal torus by both algorithms", ok, f"{elapsed:.2f}s")


def test_criterion_03_irrational_pair_reduction():
    t0 = time.monotonic()
    r = Exponent(Fraction(0), Fraction(1), 2)
    second = PuiseuxSeries(QQ, [(exp(-1), QQ.one()), (r, QQ.one())], None)
    branch = validate_branch(add2(), (S((-1, 1)), second))
    dim_p = certified_dim(branch)
    reduced, cert, dim_before, dim_after = mu_reduce(branch)
    run = compute_stabilizer(branch, "both", Budgets(degree_bound=6))
    elapsed = time.monotonic() - t0
    eps = cert.eps
    ok = (
        dim_p == 2
        and str(reduced.element) == "(t^(-1), t^(-1))"
        and isinstance(cert, TubeCertificate)
        and eps.in_mu()
        and eps.entries[0].is_zero()
        and str(eps.entries[1]) == "t^(sqrt(2))"
        and ideal_equal(run.subgroup.ideal, ideal(run.subgroup.ideal.ring, "x - y"))
        and run.subgroup.dim == 1 == dim_after
        and dim_before == 2
        and elapsed < 10.0
    )
    report("criterion 3: irrational-exponent pair reduces to the diagonal", ok, f"{elapsed:.2f}s")


def test_criterion_04_two_places_of_the_hyperbola():
    t0 = time.monotonic()
    ring = PolyRing(QQ, ("x", "y"))
    curve = PlaneCurveInput(
        ring.parse("x*y - 1"),
        [[ring.parse("x"), ring.parse("1")], [ring.parse("0"), ring.parse("y")]],
        sl2(),
    )
    branches = places_at_infinity(curve)
    elapsed = time.monotonic() - t0
    inequivalent = True
    if len(branches) == 2:
        out = mu_correct(branches[0], branches[1])
        inequivalent = not isinstance(out, TubeCertificate)
    ok = len(branches) == 2 and inequivalent and elapsed < 5.0
    report("criterion 4: the hyperbola has exactly two inequivalent places at infinity", ok, f"{elapsed:.2f}s")


_RUNS_CACHE: list = []


def one_dimensional_corpus_runs():
    if _RUNS_CACHE:
        return _RUNS_CACHE
    runs = []
    runs.append(("x1", compute_stabilizer(x1_branch(), "both", BUDGETS)))
    runs.append(("x2", compute_stabilizer(x2_branch(), "both", BUDGETS)))
    runs.append(("cusp", compute_stabilizer(cusp_branch(), "both", Budgets(degree_bound=4))))
    for i, b in enumerate(circle_branches()):
        runs.append((f"circle_f5[{i}]", compute_stabilizer(b, "both", Budgets(degree_bound=3))))
    _RUNS_CACHE.extend(runs)
    return _RUNS_CACHE


def test_criterion_05_dimension_one():
    runs = one_dimensional_corpus_runs()
    bad = [(name, run.subgroup.dim) for name, run in runs if run.subgroup.dim != 1]
    report("criterion 5: every 1-dimensional unbounded corpus branch has a 1-dimensional stabilizer",
           not bad, str(bad))


def test_criterion_06_solvability():
    runs = one_dimensional_corpus_runs()
    failures = []
    for name, run in runs:
        out = is_solvable(run.subgroup)
        if out.value is not True:
            failures.append((name, out.note))
    ring = sl2().coordinate_ring()
    control = SubgroupDesc(sl2(), ideal(ring, "x11*x22 - x12*x21 - 1"), 3)
    control_out = is_solvable(control)
    ok = not failures and control_out.value is False
    report("criterion 6: every corpus stabilizer is solvable and full SL2 is not",
           ok, f"failures={failures}, control={control_out.value}")


def test_criterion_07_conjugation_coherence():
    rng = random.Random(77)
    failures = []
    for maker in (x1_branch, x2_branch):
        base = maker(F5)
        run = compute_stabilizer(base, "reparam", BUDGETS)
        for _ in range(5):
            g = random_kpoint(sl2(F5), rng)
            moved = base.translate(g)
            moved_run = compute_stabilizer(moved, "reparam", BUDGETS)
            conj = conjugate_stab(run.subgroup, g)
            if not ideal_equal(moved_run.subgroup.ideal, conj):
                failures.append(str(g))
    report("criterion 7: stab(g.a) equals g stab(a) g^-1 for 10 random SL2(F5) points",
           not failures, str(failures))


def test_criterion_08_bounded_branch_trivial():
    one_plus_t = S((0, 1), (1, 1))
    branch = validate_branch(sl2(), ((one_plus_t, Z()), (Z(), one_plus_t.inv(prec=exp(10)))))
    run = compute_stabilizer(branch, "both", BUDGETS)
    want = ideal(run.subgroup.ideal.ring, "x11 - 1", "x12", "x21", "x22 - 1")
    ok = run.bounded and ideal_equal(run.subgroup.ideal, want) and run.subgroup.dim == 0
    report("criterion 8: the bounded branch diag(1+t, (1+t)^-1) has trivial stabilizer", ok)


def test_criterion_09_iwasawa_roundtrip():
    t0 = time.monotonic()
    rng = random.Random(99)
    count = 0
    for field in (QQ, F5):
        for _ in range(25):
            _check_iwasawa(random_laurent_point(sl2(field), rng))
            count += 1
        for _ in range(25):
            _check_iwasawa(random_laurent_point(GroupScheme("GL", 3, field), rng))
            count += 1
    elapsed = time.monotonic() - t0
    ok = count == 100 and elapsed < 30.0
    report("criterion 9: 100 Iwasawa decompositions reproduce the input exactly", ok, f"{elapsed:.2f}s")


def _check_iwasawa(a):
    u, b = iwasawa(a)
    assert u.is_integral()
    n = len(b.entries)
    for i in range(n):
        for j in range(i):
            assert not b.entries[i][j].terms
    prod = u.mul(b)
    for i in range(n):
        for j in range(n):
            assert agrees(prod.entries[i][j], a.entries[i][j])


def test_criterion_10_halevi_surjectivity():
    rng = random.Random(123)
    scheme = sl2()
    run1 = compute_stabilizer(x1_branch(), "both", BUDGETS)
    pts1 = []
    while len(pts1) < 10:
        b = QQ.from_int(rng.randrange(-9, 10))
        pts1.append(KPoint(scheme, ((QQ.one(), b), (QQ.zero(), QQ.one()))))
    out1 = halevi_lift_check(run1, pts1)
    run2 = compute_stabilizer(x2_branch(), "both", BUDGETS)
    pts2 = []
    while len(pts2) < 10:
        u = QQ.from_int(rng.randrange(-9, 10))
        if u.is_zero():
            continue
        pts2.append(KPoint(scheme, ((u, QQ.zero()), (QQ.zero(), u.inv()))))
    out2 = halevi_lift_check(run2, pts2)
    ok = (
        out1["lifted"] == out1["exact_residue"] == out1["on_flat_model"] == 10
        and out2["lifted"] == out2["exact_residue"] == out2["on_flat_model"] == 10
    )
    report("criterion 10: 20 special-fiber points lift to integral points with exact residues",
           ok, f"{out1} {out2}")


def test_criterion_11_property_suites():
    failures = []

    # series ring axioms, 1000 randomized cases
    rng = random.Random(2024)
    for _ in range(1000):
        f, g, h = (random_series(rng) for _ in range(3))
        if not (agrees(f + g, g + f) and agrees(f * g, g * f)
                and agrees((f + g) + h, f + (g + h))
                and agrees((f * g) * h, f * (g * h))
                and agrees((f + g) * h, f * h + g * h)):
            failures.append("series axioms")
            break

    # residue multiplicativity on valuation-0 series
    one = PuiseuxSeries.constant(QQ, QQ.one())
    for _ in range(200):
        f = one.scale(QQ.from_int(rng.randrange(1, 9))) + random_series(rng, allow_neg=False).truncate(exp(4))
        g = one.scale(QQ.from_int(rng.randrange(1, 9))) + random_series(rng, allow_neg=False).truncate(exp(4))
        if f.terms and g.terms and f.val() == EXP_ZERO and g.val() == EXP_ZERO:
            if (f * g).res() != f.res() * g.res():
                failures.append("res multiplicativity")
                break

    # mu normality in G(O), 100 cases
    for field in (QQ, F5):
        scheme = sl2(field)
        for _ in range(50):
            g = random_integral_point(scheme, rng)
            epsln = random_mu_point(scheme, rng)
            if not g.mul(epsln).mul(g.inv()).in_mu():
                failures.append("mu normality")
                break

    # implicitize vs eliminate on the cusp
    out = implicitize(cusp_branch())
    ring = PolyRing(QQ, ("s", "x", "y"))
    oracle = eliminate(ideal(ring, "x*s^2 - 1", "y*s^3 - 1"), ("s",))
    lifted = Ideal(out.ring, tuple(gg.restrict(out.ring) for gg in oracle.gens))
    if not ideal_equal(out, lifted):
        failures.append("implicitize vs eliminate")

    # cross-algorithm agreement on every corpus branch
    for name, run in one_dimensional_corpus_runs():
        if run.agreement is not True:
            failures.append(f"agreement {name}")
    reduced_run = compute_stabilizer(
        validate_branch(add2(), (S((-1, 1)),
                                 PuiseuxSeries(QQ, [(exp(-1), QQ.one()), (Exponent(Fraction(0), Fraction(1), 2), QQ.one())], None))),
        "both",
        Budgets(degree_bound=6),
    )
    if reduced_run.agreement is not True:
        failures.append("agreement reduced_a2")

    report("criterion 11: property suites (series axioms, residues, mu normality, oracles, agreement)",
           not failures, str(failures))


def test_criterion_12_equidimensional_components():
    failures = []
    # corpus decompositions
    for name, run in one_dimensional_corpus_runs():
        if run.degeneration is None:
            continue
        dims = run.degeneration.component_dims
        if len(set(dims)) > 1:
            failures.append(f"{name}: {dims}")
    # synthetic fixtures
    scheme = sl2()
    ring = scheme.coordinate_ring()
    fiber = ideal(ring, "x21", "(x11 - 1)*(x11 + 1)", "x11*x22 - 1")
    comp, cosets, _ = identity_component(fiber, scheme)
    dims = [krull_dim(comp)] + [krull_dim(c) for c in cosets]
    if len(set(dims)) > 1:
        failures.append(f"roots-of-unity fixture: {dims}")
    torus = ideal(ring, "x12", "x21", "x11*x22 - 1")
    w_translate = ideal(ring, "x11", "x22", "x12*x21 + 1")
    union = ideal_intersect(torus, w_translate)
    comp, cosets, _ = identity_component(union, scheme)
    dims = [krull_dim(comp)] + [krull_dim(c) for c in cosets]
    if len(set(dims)) > 1:
        failures.append(f"torus-union fixture: {dims}")
    report("criterion 12: every component decomposition is equi-dimensional", not failures, str(failures))
