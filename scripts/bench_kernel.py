#!/usr/bin/env python3
"""Time the import, Groebner basis runs, linear bases, a long division, closures, the powers of a series (the ansatz quotient among them), a tube certificate, places, solvability, an Iwasawa frame, the conjugation check and scalar products alone on fixed inputs.

Usage:
    python scripts/bench_kernel.py [--runs N]
    python scripts/bench_kernel.py PARENT_DIR CHANGE_DIR [--runs N] [--pairs P] [--kernels NAME ...]

With two source checkouts the script compares them kernel by kernel, as
scripts/bench_pairs.py compares whole runs: for each kernel named in
PAIRED (all of them unless --kernels picks some), P pairs of fresh
`python -I` processes, one per checkout, each importing its checkout's
src/ and timing that kernel N times (this script's own code, run with
`--src DIR --kernel NAME`), the parent first on even pairs and the change
first on odd ones.  It prints one JSON object: per kernel and per timed
figure (each `median_ms` of the kernel's output, named by its path), each
side's per-process medians, their median and quartiles, and the number
of pairs in which the change was faster.  One process per side per pair
keeps a slow spell of a shared host from landing on one side only.

The setup: perfbench's setup probe (perfbench/run.py), `import mustab`
then `corpus_entries()`, timed inside each of N fresh `python -I`
interpreters; then again with dataclasses, fractions and json imported
before the clock starts, so that the share of the standard library shows.

The Groebner inputs:
  * twisted_cubic: `eliminate` of x from <y - x^2, z - x^3>;
  * sl2_shear_flat_closure: the `eliminate` of `_s` that `flat_closure`
    runs for the SL2(Q) shear [[t^-1, t^-1 - t^2], [0, t]] (an `sl2_q` job);
  * sl2_shear_curve: the `eliminate` of `_s` and `_u` that
    `branches.curve_ideal` runs for the closure V of that job's reduced
    branch.
Each is one Buchberger run, and the little work around it is the same on
every run.  The last two inputs are captured by running the job once
through `run_job` with both modules' `eliminate` wrapped.  Each run gets
fresh copies of the generators, so no leading monomial cached by an
earlier run is reused.

The linear bases: `groebner_basis` (one Buchberger run, wrapped in an
Ideal) on two inputs of degree <= 1 met on the workloads:
  * sl2_q_elimination: [c2, c1, lami - 1, lam - 1, -96*c3 + x11 - 1,
    128*c3 + x12, -72*c3 + x21, 96*c3 + x22 - 1] over
    k[lam, lami, c1..c4, x11..x22], under the block order that drops the
    ansatz variables lam, lami, c1..c4, as `eliminate` runs it;
  * grevlex_system: [9*x11 + 6*x12 - 12*x21 - 8*x22 - 1,
    -12*x11 - 9*x12 + 16*x21 + 12*x22, -8*x11 - 6*x12 + 12*x21 + 9*x22 - 1]
    over k[x11, x12, x21, x22] under grevlex.
Each call takes well under a millisecond, so a run times LINEAR_CALLS
calls, each on its own fresh copy made before the clock starts.

The long division: `groebner_basis` of the ansatz constraints of the
ramification-5 witness (t^-5, t^(-1/5)) on the additive plane over Q
(row 5-ram5-add2 of tests/data/witnesses.json), the grevlex basis in 31
variables that `stab_reparam` computes first, captured by running the job
up to that call.  It takes seconds, so it runs at most LONG_DIVISION_RUNS
times, each on fresh copies of the generators.

The closures: `implicitize` of that shear, and of the place (t^-3, t^-5)
of y^3 = x^5 on the additive plane, from the branch, each run on fresh
series.

The flat closures: `flat_closure` end to end (the closure V, pullback,
saturation and renaming) on the reduced branch that `stab` hands it,
captured the same way, for that shear and for the `sl2_q` closure
[[4t^-2 + 1, -2t^-1], [-2t^-1, 1]], the heaviest of seed 1.

The division kernel: the normal forms, through one `ideals.reducer`, of
the S-polynomials of every pair of the reduced basis (under its ring's
order) of that heaviest flat closure, against that basis (all reduce to
0).  Each run builds the
reducer from fresh copies of the basis.

The subgroup checks: `verify_subgroup` on the stabilizer ideal that
`stab_reparam` certifies for that shear and for that heaviest closure,
captured the same way.  A process certifies each ideal once and answers
repeats from a memo, so the memo is cleared before each run, which times
the check itself.

The powers of a series, each read through `series.SeriesPowers`:
  * ser_subst_circle_f5: `ser_subst(y, t + t^2 + t^3)` for the y
    coordinate of the first place of the circle x^2 + y^2 = 1 over F_5 at
    precision 20 (the `circle_f5` corpus input), a truncated series;
  * inv_sl2_cofactor: `inv(prec=t^12)` of the entry t^-1 - t^2 of that
    shear, the cofactor of its other off-diagonal entry;
  * ansatz_quotient: `stabilizer.Ansatz(b, b.element, cap=6).quotient()`
    for the reduced branch b of that shear (the branch `flat_closure`
    gets, captured the same way), the series arithmetic over the
    polynomial coefficient ring k[lam, lami, c_i] that `stab_reparam` runs
    before its Groebner basis at order_budget 6; each run builds its own
    Ansatz;
  * mu_correct_eps: the certificate's eps = a(s0) * b^-1 for the pair
    below, from one SeriesPowers of the s0 that `mu_correct` returns.

The tube certificate: `mu_correct(a, b)` for a = (t^-1, t^-7) and
b = (t^-1, t^-7 - 7) on the additive plane over Q, tube-equivalent over
s = t + t^8, so the ansatz must reach gamma = 7; each run parses its own
branches.

The ansatz quotient and the tube certificate run cold, with the
process-wide ansatz kernels emptied before each run, and warm, reading
what earlier runs left there.

The places at infinity: `places_at_infinity` on the additive plane
(embedding [x, y]) for the circle x^2 + y^2 = 1 over F_5 at precision 20
(the `circle_f5` corpus input), and at precision 12 for y^2 = x^3 over
Q, for the circle over F_7, whose places need F_49, for y^4 = x over
F_5, whose edge polynomial has four rational roots conjugate under
t -> zeta t, for y^4 = x^5 over F_9, a binomial edge of ramification 4,
and for y^3 = 2x^5 and y^2 = 3x over Q, whose edge polynomials
-2c^5 + 1 and c^2 - 3 have no root in Q, so their places come from
Duval's z = mu T^q with mu != 1; and at precision 12 for xy = 1 over Q
into the additive line under x + 2y, whose two places map to
t^-1 + 2t and 2t^-1 + t, merged into one branch by `mu_correct`; and at
precision 4 for the degree-15 curve of tests/test_places.py over F_5
(places over F_25) and F_7, three places each, where `mu_correct` refuses
each pair (over F_5 the lex basis of the (-6, -4) pair ran past 60 s in
the order lam > lami > c_1 > ... > c_N, and takes milliseconds in the
reverse order); and at precision 4 for 2 + 2y^6 + xy^5 + 2x^2y^2 + 2x^6
over F_3, whose degree form has roots of degrees 1, 2 and 3, so that its
six places lie over F_3^6, and for y^4 + xy^2 + 2x^2 + 1 over F_5, whose
edge polynomial psi = u^2 + u + 2 puts its two places over F_25 (the
pass over F_p that asks for the extension is timed too); each run
parses its own curve and scheme.

The solvability check: `is_solvable` on the whole of SL(2, Q) and of
GL(2, Q) (the tangent space and its derived series, which stops at sl2)
and on the stabilizer of the SL(3, Q) branch [1, 0, 1; 0, t^-3, 0;
2t^-2, t^-1, 2t^-2 + t^3], mu_5 x| G_a, and of that branch in the
top-left block of SL(4, Q), in the frame res(u) of the branch's Iwasawa
decomposition (the tangent space, its derived series, the decomposition,
which inverts by minors, and the Borel containment; each branch is its
own mu-reduction).  Each run builds its SubgroupDesc from fresh
copies of the generators; `verify_subgroup`'s memo is filled before the
clock starts, as a job certifies its stabilizer before checking it.

The dimension: `krull_dim` of that SL(4) stabilizer ideal in 16
variables (its grevlex basis, then the fewest variables meeting every
leading monomial's support), on fresh copies of the generators.

The Iwasawa frame: `iwasawa(a)[0].res()`, the frame `stab`'s solvability
check reads, for the unipotent SL(6, Q) branch a with 1 on the diagonal,
t^-1 below it and 0 above; each run parses its own branch.

The conjugation check: `jobs._conjugation_check` on the run that
`compute_stabilizer` returns for the x1 corpus fixture
[[t^-1, 1], [0, t]] under its job's algorithm and budgets, with the
job's S-polynomial cap in force, as `run_job` calls it: Stab(g . a) for
the reduced branch a at two random points g, against g Stab(a) g^-1.  It
runs cold, with the ansatz kernels and `verify_subgroup`'s memo emptied
before each run, and warm.

The scalar products: SCALAR_MULS products `a * b` of `Scalar`s drawn
once from a seeded generator, for each of three operand kinds: Q
integers in [-64, 64] (most of the Q values the workloads build), Q
fractions with numerator and denominator below 100 in absolute value,
and F_5 residues.

Prints one JSON line: for the setup the median and quartiles in ms, per input the generator count (per linear basis
also the calls one run times, for the long division the variables, terms
and runs, per flat closure
the S-polynomials one run forms, for the division kernel the basis size and the S-polynomials
reduced, per power kernel its stats, for the ansatz quotient its parameter
count and cold and warm stats, for the tube certificate the s it returns or null and cold and warm
stats, for the solvability check the answer, for the conjugation check its
answer and cold and warm stats, for the dimension the
answer, for the Iwasawa frame whether it is the identity, per curve the
precision, the number of places and the number of expansions that reach
`_dedup_branches`, or the error a run ends in, per scalar product kind the
products one run times) and the size of the resulting basis,
and the median, min and max milliseconds of N runs.  The package is
imported from the src/ next to this script, or from the one --src names.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path


def _src() -> Path:
    """The src/ this process imports: the one after --src, else the one
    next to this script."""
    if "--src" in sys.argv:
        return Path(sys.argv[sys.argv.index("--src") + 1]).resolve()
    return Path(__file__).resolve().parent.parent / "src"


SRC = _src()
sys.path.insert(0, str(SRC))

from mustab import branches, degeneration, ideals, newton, stabilizer, subgroups  # noqa: E402
from mustab.branches import implicitize  # noqa: E402
from mustab.corpus import corpus_entries  # noqa: E402
from mustab.errors import MustabError  # noqa: E402
from mustab.exponents import exp  # noqa: E402
from mustab.fields import QQ, FieldSpec  # noqa: E402
from mustab.groups import GroupScheme, iwasawa  # noqa: E402
from mustab.ideals import Ideal, eliminate, groebner_basis, ideal, krull_dim, spoly_budget  # noqa: E402
from mustab.jobs import _conjugation_check, parse_branch, parse_budgets, parse_plane_curve, run_job  # noqa: E402
from mustab.newton import places_at_infinity  # noqa: E402
from mustab.pipeline import compute_stabilizer  # noqa: E402
from mustab.poly import GREVLEX, BlockOrder, Poly, PolyRing  # noqa: E402
from mustab.series import PuiseuxSeries, SeriesPowers, ser_subst  # noqa: E402
from mustab.subgroups import SubgroupDesc, is_solvable, verify_subgroup  # noqa: E402


def _series(*terms) -> dict:
    return {"terms": [[str(e), str(c)] for e, c in terms]}


SHEAR_JOB = {
    "field": {"kind": "Q"},
    "group": {"kind": "SL", "n": 2},
    "command": "stab",
    "algorithm": "both",
    "input": {"branch": {"entries": [
        [_series((-1, 1)), _series((-1, 1), (2, -1))],
        [_series(), _series((1, 1))],
    ]}},
    "budgets": {"precision": 12, "degree_bound": 4, "order_budget": 6},
}


HEAVY_JOB = dict(SHEAR_JOB, input={"branch": {"entries": [
    [_series((-2, 4), (0, 1)), _series((-1, -2))],
    [_series((-1, -2)), _series((0, 1))],
]}})


def capture(job: dict) -> dict:
    """The first ideal `flat_closure` eliminates from, the first one
    `curve_ideal` eliminates from, the first branch `flat_closure` gets and
    the first subgroup `stab_reparam` verifies while job runs."""
    found: dict = {}
    real = degeneration.eliminate, branches.eliminate, degeneration.flat_closure, stabilizer.verify_subgroup

    def spy_eliminate(I, drop):
        found.setdefault("flat_closure", (I, tuple(drop)))
        return real[0](I, drop)

    def spy_curve_eliminate(I, drop):
        found.setdefault("curve", (I, tuple(drop)))
        return real[1](I, drop)

    def spy_flat_closure(branch):
        found.setdefault("closure_input", branch)
        return real[2](branch)

    def spy_verify_subgroup(H):
        found.setdefault("subgroup", H)
        return real[3](H)

    degeneration.eliminate, branches.eliminate, degeneration.flat_closure, stabilizer.verify_subgroup = (
        spy_eliminate, spy_curve_eliminate, spy_flat_closure, spy_verify_subgroup)
    try:
        _, code = run_job(job)
    finally:
        degeneration.eliminate, branches.eliminate, degeneration.flat_closure, stabilizer.verify_subgroup = real
    if code != 0 or len(found) != 4:
        raise RuntimeError(f"the job exited {code} and reached {sorted(found)}")
    return found


def inputs(shear: dict) -> dict:
    """name -> (ideal, the variables to eliminate, or None for a plain
    grevlex basis)."""
    ring = PolyRing(QQ, ("x", "y", "z"))
    return {
        "twisted_cubic": (ideal(ring, "y - x^2", "z - x^3"), ("x",)),
        "sl2_shear_flat_closure": shear["flat_closure"],
        "sl2_shear_curve": shear["curve"],
    }


LINEAR_CALLS = 100
LONG_DIVISION_RUNS = 3
WITNESSES = SRC.parent / "tests" / "data" / "witnesses.json"


def linear_inputs() -> dict:
    """name -> (an ideal generated in degree <= 1, the order of its basis)."""
    ansatz = PolyRing(QQ, ("lam", "lami", "c1", "c2", "c3", "c4", "x11", "x12", "x21", "x22"))
    gl2 = PolyRing(QQ, ("x11", "x12", "x21", "x22"))
    elimination = ("c2", "c1", "lami - 1", "lam - 1", "-96*c3 + x11 - 1", "128*c3 + x12", "-72*c3 + x21", "96*c3 + x22 - 1")
    system = ("9*x11 + 6*x12 - 12*x21 - 8*x22 - 1", "-12*x11 - 9*x12 + 16*x21 + 12*x22", "-8*x11 - 6*x12 + 12*x21 + 9*x22 - 1")
    return {
        "sl2_q_elimination": (ideal(ansatz, *elimination), BlockOrder(tuple(range(6)), tuple(range(6, 10)))),
        "grevlex_system": (ideal(gl2, *system), GREVLEX),
    }


def time_linear_basis(I: Ideal, order, runs: int) -> dict:
    times = []
    for _ in range(runs):
        copies = [_fresh(I) for _ in range(LINEAR_CALLS)]
        start = time.perf_counter()
        for fresh in copies:
            basis = groebner_basis(fresh, order)
        times.append((time.perf_counter() - start) * 1e3)
    return {"gens": len(I.gens), "basis": len(basis.gens), "calls_per_run": LINEAR_CALLS, **_stats(times)}


def ansatz_ideal(row_id: str) -> Ideal:
    """The first ideal `stab_reparam` hands `groebner_basis` while the
    witness row's job runs; the job stops there."""
    job = next(row["job"] for row in json.loads(WITNESSES.read_text()) if row["id"] == row_id)
    found = []
    real = stabilizer.groebner_basis

    def spy_groebner_basis(I, *args):
        found.append(I)
        raise MustabError("captured")

    stabilizer.groebner_basis = spy_groebner_basis
    try:
        run_job(job)
    finally:
        stabilizer.groebner_basis = real
    return found[0]


def time_long_division(I: Ideal, runs: int) -> dict:
    times = []
    for _ in range(min(runs, LONG_DIVISION_RUNS)):
        fresh = _fresh(I)
        start = time.perf_counter()
        basis = groebner_basis(fresh)
        times.append((time.perf_counter() - start) * 1e3)
    terms = sum(len(g.terms) for g in I.gens)
    return {"vars": I.ring.nvars, "gens": len(I.gens), "terms": terms, "basis": len(basis.gens), "runs": len(times), **_stats(times)}


def closures() -> dict:
    """name -> (branch entries as parse_branch reads them, its scheme)."""
    return {
        "sl2_shear": (SHEAR_JOB["input"]["branch"], GroupScheme("SL", 2, QQ)),
        "y3_x5": ({"entries": [_series((-3, 1)), _series((-5, 1))]}, GroupScheme("Additive", 2, QQ)),
    }


# the three places of this curve are told apart by mu_correct alone
DEGREE_15 = (
    "x^10 - 9*x^9*y + 6*x^9 + 5*x^8*y^3 + 18*x^8*y^2 - 21*x^8*y + 5*x^8 - 36*x^7*y^4 + 69*x^7*y^3 - 72*x^7*y^2"
    " + 84*x^7*y - 52*x^7 + 10*x^6*y^6 + 54*x^6*y^5 - 279*x^6*y^4 + 330*x^6*y^3 - 81*x^6*y^2 - 54*x^6*y + 52*x^6"
    " - 54*x^5*y^7 + 117*x^5*y^6 + 189*x^5*y^5 - 540*x^5*y^4 + 335*x^5*y^3 + 45*x^5*y^2 - 18*x^5*y - 5*x^5"
    " + 10*x^4*y^9 + 54*x^4*y^8 - 252*x^4*y^7 + 78*x^4*y^6 + 324*x^4*y^5 - 252*x^4*y^4 - 16*x^4*y^3 + 99*x^4*y^2"
    " + 21*x^4*y - 6*x^4 - 36*x^3*y^10 + 51*x^3*y^9 + 27*x^3*y^8 + 18*x^3*y^7 - 209*x^3*y^6 + 135*x^3*y^5"
    " + 129*x^3*y^4 + 32*x^3*y^3 - 9*x^3*y^2 - 3*x^3*y - x^3 + 5*x^2*y^12 + 18*x^2*y^11 + 6*x^2*y^10 - 4*x^2*y^9"
    " - 81*x^2*y^8 + 45*x^2*y^7 + 58*x^2*y^6 + 27*x^2*y^5 + 6*x^2*y^4 + x^2*y^3 - 9*x*y^13 - 3*x*y^12 + 9*x*y^11"
    " - 6*x*y^10 - 2*x*y^9 + y^15 + 1"
)
PLANE = ["x", "y"]
PLACES = {
    "circle_f5": (FieldSpec("Fp", p=5), "x^2 + y^2 - 1", PLANE, 20),
    "cusp_q": (QQ, "y^2 - x^3", PLANE, 12),
    "circle_f7": (FieldSpec("Fp", p=7), "x^2 + y^2 - 1", PLANE, 12),
    "y4_x_f5": (FieldSpec("Fp", p=5), "y^4 - x", PLANE, 12),
    "y4_x5_f9": (FieldSpec("Fq", p=3, modulus=(1, 0, 1)), "y^4 - x^5", PLANE, 12),
    "y3_2x5_q": (QQ, "y^3 - 2*x^5", PLANE, 12),
    "y2_3x_q": (QQ, "y^2 - 3*x", PLANE, 12),
    "xy_1_x2y_q": (QQ, "x*y - 1", ["x + 2*y"], 12),
    "degree_15_f5": (FieldSpec("Fp", p=5), DEGREE_15, PLANE, 4),
    "degree_15_f7": (FieldSpec("Fp", p=7), DEGREE_15, PLANE, 4),
    "three_and_two_f3": (FieldSpec("Fp", p=3), "2 + 2*y^6 + x*y^5 + 2*x^2*y^2 + 2*x^6", PLANE, 4),
    "quadratic_psi_f5": (FieldSpec("Fp", p=5), "y^4 + x*y^2 + 2*x^2 + 1", PLANE, 4),
}

# perfbench's setup probe; {preload} runs before the clock starts
SETUP_PROBE = """
import sys, time
{preload}
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mustab
from mustab.corpus import corpus_entries
corpus_entries()
print(time.perf_counter() - t0)
"""


def _stats(times: list[float]) -> dict:
    return {
        "median_ms": round(statistics.median(times), 3),
        "min_ms": round(min(times), 3),
        "max_ms": round(max(times), 3),
    }


def time_setup(preload: str, runs: int) -> dict:
    times = []
    for _ in range(runs):
        probe = SETUP_PROBE.format(preload=preload)
        done = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC)], capture_output=True, text=True, check=True)
        times.append(float(done.stdout) * 1e3)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_ms": round(median, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3)}


def time_basis(I: Ideal, drop, runs: int) -> dict:
    times = []
    for _ in range(runs):
        fresh = _fresh(I)
        start = time.perf_counter()
        basis = groebner_basis(fresh) if drop is None else eliminate(fresh, drop)
        times.append((time.perf_counter() - start) * 1e3)
    return {"gens": len(I.gens), "basis": len(basis.gens), **_stats(times)}


def _fresh(I: Ideal) -> Ideal:
    return Ideal(I.ring, tuple(Poly(I.ring, dict(g.terms)) for g in I.gens))


def time_flat_closure(branch, runs: int) -> dict:
    calls = 0
    real_s_poly = ideals.s_poly

    def counting_s_poly(f, g, order):
        nonlocal calls
        calls += 1
        return real_s_poly(f, g, order)

    ideals.s_poly = counting_s_poly
    try:
        closure, _ = degeneration.flat_closure(branch)
    finally:
        ideals.s_poly = real_s_poly
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        degeneration.flat_closure(branch)
        times.append((time.perf_counter() - start) * 1e3)
    return {"s_polys": calls, "basis": len(closure.gens), **_stats(times)}


def time_division(branch, runs: int) -> dict:
    closure = groebner_basis(degeneration.flat_closure(branch)[0])
    order = closure.basis_order
    spolys = [ideals.s_poly(f, g, order) for f, g in combinations(closure.gens, 2)]
    times = []
    for _ in range(runs):
        basis = _fresh(closure).gens
        start = time.perf_counter()
        nf = ideals.reducer(basis, order)
        nonzero = sum(not nf(f).is_zero() for f in spolys)
        times.append((time.perf_counter() - start) * 1e3)
    return {"basis": len(closure.gens), "s_polys": len(spolys), "nonzero": nonzero, **_stats(times)}


def time_verify(H: SubgroupDesc, runs: int) -> dict:
    times = []
    for _ in range(runs):
        fresh = SubgroupDesc(H.scheme, _fresh(H.ideal), H.dim)
        subgroups._verified.cache_clear()
        start = time.perf_counter()
        ok, _ = verify_subgroup(fresh)
        times.append((time.perf_counter() - start) * 1e3)
    return {"gens": len(H.ideal.gens), "verified": ok, **_stats(times)}


def _cold_and_warm(run, runs: int, empty=stabilizer._kernel.cache_clear) -> dict:
    """The stats of `runs` calls of run() with empty() (by default, the
    ansatz kernels emptied) before each, then of as many calls that find
    them filled."""
    out = {}
    for mode in ("cold", "warm"):
        times = []
        for _ in range(runs):
            if mode == "cold":
                empty()
            times.append(run())
        out[mode] = _stats(times)
    return out


def time_ansatz_quotient(branch, runs: int) -> dict:
    def run():
        start = time.perf_counter()
        stabilizer.Ansatz(branch, branch.element, cap=6).quotient()
        return (time.perf_counter() - start) * 1e3

    params = stabilizer.Ansatz(branch, branch.element, cap=6).ring.nvars
    return {"params": params, **_cold_and_warm(run, runs)}


def _timed(run, runs: int) -> dict:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) * 1e3)
    return _stats(times)


def time_powers(shear: dict, runs: int) -> dict:
    field, f_text, embedding, precision = PLACES["circle_f5"]
    curve = parse_plane_curve({"f": f_text, "embedding": embedding}, GroupScheme("Additive", len(embedding), field))
    y = places_at_infinity(curve, precision)[0].element.flat()[1]
    s = PuiseuxSeries(field, [(exp(k), field.one()) for k in (1, 2, 3)], None)
    cofactor = parse_branch(SHEAR_JOB["input"]["branch"], GroupScheme("SL", 2, QQ), None).element.flat()[1]
    scheme = GroupScheme("Additive", 2, QQ)
    a, b = (parse_branch({"entries": entries}, scheme, None) for entries in ORDER_7_PAIR)
    s0, b_inv = stabilizer.mu_correct(a, b).s, b.element.inv()
    return {
        "ser_subst_circle_f5": _timed(lambda: ser_subst(y, s), runs),
        "inv_sl2_cofactor": _timed(lambda: cofactor.inv(prec=exp(12)), runs),
        "ansatz_quotient": time_ansatz_quotient(shear["closure_input"], runs),
        "mu_correct_eps": _timed(lambda: a.element.map(SeriesPowers.of(s0).subst).mul(b_inv), runs),
    }


# (t^-1, t^-7) and (t^-1, t^-7 - 7): one tube over s = t + t^8
ORDER_7_PAIR = ([_series((-1, 1)), _series((-7, 1))], [_series((-1, 1)), _series((-7, 1), (0, -7))])


def time_mu_correct(pair, runs: int) -> dict:
    scheme = GroupScheme("Additive", 2, QQ)

    def run():
        a, b = (parse_branch({"entries": entries}, scheme, None) for entries in pair)
        start = time.perf_counter()
        stabilizer.mu_correct(a, b)
        return (time.perf_counter() - start) * 1e3

    a, b = (parse_branch({"entries": entries}, scheme, None) for entries in pair)
    cert = stabilizer.mu_correct(a, b)
    return {"s": None if cert is None else str(cert.s), **_cold_and_warm(run, runs)}


def time_conjugation_check(runs: int) -> dict:
    job = next(entry["job"] for entry in corpus_entries() if entry["name"] == "x1")
    budgets, cap = parse_budgets(job["budgets"])
    scheme = GroupScheme.from_json(job["group"], FieldSpec.from_json(job["field"]))
    branch = parse_branch(job["input"]["branch"], scheme, None)
    with spoly_budget(cap):
        stab_run = compute_stabilizer(branch, job["algorithm"], budgets)

        def run():
            start = time.perf_counter()
            _conjugation_check(stab_run, budgets)
            return (time.perf_counter() - start) * 1e3

        def empty():
            stabilizer._kernel.cache_clear()
            subgroups._verified.cache_clear()

        return {"passes": _conjugation_check(stab_run, budgets), **_cold_and_warm(run, runs, empty)}


def time_closure(branch: dict, scheme: GroupScheme, runs: int) -> dict:
    times = []
    for _ in range(runs):
        fresh = parse_branch(branch, scheme, None)
        start = time.perf_counter()
        V = implicitize(fresh)
        times.append((time.perf_counter() - start) * 1e3)
    return {"basis": len(V.gens), **_stats(times)}


MU5_GA_SL3 = [
    [_series((0, 1)), _series(), _series((0, 1))],
    [_series(), _series((-3, 1)), _series()],
    [_series((-2, 2)), _series((-1, 1)), _series((-2, 2), (3, 1))],
]
# the same branch in the top-left block of SL(4), 1 in the corner
MU5_GA_SL4 = [row + [_series()] for row in MU5_GA_SL3] + [[_series()] * 3 + [_series((0, 1))]]


def solvability_inputs() -> dict:
    """name -> (SubgroupDesc, the branch whose Iwasawa frame is_solvable
    reads, or None) for the solvability check."""
    sl2, gl2, sl3, sl4 = (GroupScheme(kind, n, QQ) for kind, n in (("SL", 2), ("GL", 2), ("SL", 3), ("SL", 4)))
    mu5_ga = ("x32", "x23", "x21", "x13", "x12", "x11 - 1", "x22*x33 - 1", "x33^3 - x22^2", "x22^3 - x33^2")
    corner = ("x44 - 1", "x43", "x42", "x41", "x34", "x24", "x14")
    return {
        "whole_sl2": (SubgroupDesc(sl2, ideal(sl2.coordinate_ring(), "x11*x22 - x12*x21 - 1"), 3), None),
        "whole_gl2": (SubgroupDesc(gl2, ideal(gl2.coordinate_ring(), "x11*x22*y - x12*x21*y - 1"), 4), None),
        "sl3_mu5_ga": (SubgroupDesc(sl3, ideal(sl3.coordinate_ring(), *mu5_ga), 1),
                       parse_branch({"entries": MU5_GA_SL3}, sl3, None)),
        "sl4_mu5_ga": (SubgroupDesc(sl4, ideal(sl4.coordinate_ring(), *mu5_ga, *corner), 1),
                       parse_branch({"entries": MU5_GA_SL4}, sl4, None)),
    }


def time_solvability(H: SubgroupDesc, branch, runs: int) -> dict:
    verify_subgroup(H)
    times = []
    for _ in range(runs):
        fresh = SubgroupDesc(H.scheme, _fresh(H.ideal), H.dim)
        frame = None if branch is None else lambda: iwasawa(branch.element)[0].res()
        start = time.perf_counter()
        out = is_solvable(fresh, frame)
        times.append((time.perf_counter() - start) * 1e3)
    return {"solvable": out.value, **_stats(times)}


def time_krull_dim(H: SubgroupDesc, runs: int) -> dict:
    times = []
    for _ in range(runs):
        fresh = _fresh(H.ideal)
        start = time.perf_counter()
        dim = krull_dim(fresh)
        times.append((time.perf_counter() - start) * 1e3)
    return {"gens": len(H.ideal.gens), "dim": dim, **_stats(times)}


def unipotent_branch(n: int) -> list:
    """The SL(n) branch with 1 on the diagonal, t^-1 below it, 0 above."""
    return [[_series((-1, 1)) if i > j else _series((0, 1)) if i == j else _series() for j in range(n)] for i in range(n)]


def time_iwasawa_frame(n: int, runs: int) -> dict:
    scheme = GroupScheme("SL", n, QQ)
    times = []
    for _ in range(runs):
        branch = parse_branch({"entries": unipotent_branch(n)}, scheme, None)
        start = time.perf_counter()
        frame = iwasawa(branch.element)[0].res()
        times.append((time.perf_counter() - start) * 1e3)
    return {"frame_is_identity": frame == scheme.identity(), **_stats(times)}


def time_places(field: FieldSpec, f_text: str, embedding: list[str], precision: int, runs: int) -> dict:
    def curve():
        scheme = GroupScheme("Additive", len(embedding), field)
        return parse_plane_curve({"f": f_text, "embedding": embedding}, scheme)

    expansions = 0
    real_dedup = newton._dedup_branches

    def counting_dedup(found):
        nonlocal expansions
        expansions += len(found)
        return real_dedup(found)

    def places(fresh):
        try:
            return {"places": len(places_at_infinity(fresh, precision))}
        except MustabError as exc:
            return {"error": type(exc).__name__}

    newton._dedup_branches = counting_dedup
    try:
        places(curve())
    finally:
        newton._dedup_branches = real_dedup
    times = []
    for _ in range(runs):
        fresh = curve()
        start = time.perf_counter()
        found = places(fresh)
        times.append((time.perf_counter() - start) * 1e3)
    return {"precision": precision, **found, "expansions": expansions, **_stats(times)}


SCALAR_MULS = 10_000


def time_scalar_mul(runs: int) -> dict:
    rng = random.Random(48)
    f5 = FieldSpec("Fp", p=5)
    operands = {
        "q_small_int": lambda: QQ.from_int(rng.randint(-64, 64)),
        "q_fraction": lambda: QQ.from_fraction(Fraction(rng.randint(-99, 99), rng.randint(1, 99))),
        "f5": lambda: f5.from_int(rng.randint(0, 4)),
    }
    out = {}
    for name, draw in operands.items():
        pairs = [(draw(), draw()) for _ in range(SCALAR_MULS)]

        def run():
            for a, b in pairs:
                a * b

        out[name] = {"products": SCALAR_MULS, **_timed(run, runs)}
    return out


# the kernels the two-checkout mode times: name -> a function of the runs
PAIRED = {
    "scalar_mul": time_scalar_mul,
    "ansatz_quotient": lambda runs: time_ansatz_quotient(capture(SHEAR_JOB)["closure_input"], runs),
    "mu_correct_order_7": lambda runs: time_mu_correct(ORDER_7_PAIR, runs),
    "long_division_ram5": lambda runs: time_long_division(ansatz_ideal("5-ram5-add2"), runs),
    "conjugation_check": time_conjugation_check,
}


def _medians(result, path: str = "") -> dict:
    """Every median_ms in a kernel's output, keyed by its path."""
    out = {}
    for key, value in result.items():
        if key == "median_ms":
            out[path or key] = value
        elif isinstance(value, dict):
            out.update(_medians(value, f"{path}.{key}" if path else key))
    return out


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": values}


def compare_checkouts(parent: Path, change: Path, names: list[str], runs: int, pairs: int) -> dict:
    """Per kernel and timed figure, both sides' per-process medians over
    pairs of fresh processes, alternating which side runs first."""
    out = {"runs": runs, "pairs": pairs, "kernels": {}}
    for name in names:
        medians = {"parent": [], "change": []}
        for i in range(pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                src = (parent if side == "parent" else change) / "src"
                cmd = [sys.executable, "-I", __file__, "--src", str(src), "--kernel", name, "--runs", str(runs)]
                done = subprocess.run(cmd, capture_output=True, text=True, check=True)
                medians[side].append(_medians(json.loads(done.stdout)))
            print(name, i + 1, {side: medians[side][-1] for side in medians}, file=sys.stderr)
        figures = {}
        for figure in medians["change"][0]:
            before = [m[figure] for m in medians["parent"]]
            after = [m[figure] for m in medians["change"]]
            figures[figure] = {
                "parent": _spread(before),
                "change": _spread(after),
                "change_wins": sum(a < b for a, b in zip(after, before)),
            }
        out["kernels"][name] = figures
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="*", type=Path, help="PARENT_DIR CHANGE_DIR: compare two checkouts")
    ap.add_argument("--runs", type=int, default=50)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--kernels", nargs="+", choices=sorted(PAIRED), default=sorted(PAIRED))
    ap.add_argument("--src", type=Path, help="the src/ to import (read before the imports)")
    ap.add_argument("--kernel", choices=sorted(PAIRED), help="time this kernel alone and print its result")
    args = ap.parse_args()
    if args.kernel:
        print(json.dumps(PAIRED[args.kernel](args.runs)))
        return 0
    if args.checkouts:
        if len(args.checkouts) != 2:
            ap.error("give two checkouts, PARENT_DIR CHANGE_DIR, or none")
        print(json.dumps(compare_checkouts(*args.checkouts, args.kernels, args.runs, args.pairs)))
        return 0
    setup = {"cold": time_setup("", args.runs), "stdlib_preloaded": time_setup("import dataclasses, fractions, json", args.runs)}
    shear, heavy = capture(SHEAR_JOB), capture(HEAVY_JOB)
    out = {name: time_basis(I, drop, args.runs) for name, (I, drop) in inputs(shear).items()}
    linear = {name: time_linear_basis(*spec, args.runs) for name, spec in linear_inputs().items()}
    long_division = time_long_division(ansatz_ideal("5-ram5-add2"), args.runs)
    closed = {name: time_closure(*spec, args.runs) for name, spec in closures().items()}
    flat = {
        name: time_flat_closure(found["closure_input"], args.runs)
        for name, found in (("sl2_shear", shear), ("sl2_q_heavy", heavy))
    }
    division = time_division(heavy["closure_input"], args.runs)
    checked = {
        name: time_verify(found["subgroup"], args.runs)
        for name, found in (("sl2_shear", shear), ("sl2_q_heavy", heavy))
    }
    powers = time_powers(shear, args.runs)
    certificate = time_mu_correct(ORDER_7_PAIR, args.runs)
    places = {name: time_places(*spec, args.runs) for name, spec in PLACES.items()}
    solvability = {name: time_solvability(*spec, args.runs) for name, spec in solvability_inputs().items()}
    dimension = time_krull_dim(solvability_inputs()["sl4_mu5_ga"][0], args.runs)
    frame = time_iwasawa_frame(6, args.runs)
    print(json.dumps({"runs": args.runs, "setup": setup, "inputs": out, "linear_basis": linear,
                      "long_division_ram5": long_division, "implicitize": closed, "flat_closure": flat,
                      "division": division, "verify_subgroup": checked, "powers": powers,
                      "mu_correct_order_7": certificate, "places": places,
                      "is_solvable": solvability, "conjugation_check": time_conjugation_check(args.runs),
                      "krull_dim_sl4_mu5_ga": dimension,
                      "iwasawa_sl6_unipotent": frame, "scalar_mul": time_scalar_mul(args.runs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
