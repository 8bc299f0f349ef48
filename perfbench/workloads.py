"""Seeded job generators for the benchmark workloads.

Every generator returns a list of mustab job dicts (plain JSON data); the
program never sees the seed.  Each family and its bounds are fixed here,
before any job runs, and jobs are never filtered by their outcome: a job
that fails, is unsupported or times out stays in the list and is counted.
The reasons for each bound are given next to it and in README.md.

Inputs are built with exact `Fraction` arithmetic in this file, not with
the program's own helpers, so a change to the program cannot change the
inputs it is measured on.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

# Budgets of the bundled corpus entries of the same kind (x1/x2 for SL2,
# cusp/reduced_a2 for the additive plane).
SL2_BUDGETS = {"precision": 12, "degree_bound": 4, "order_budget": 6}
PLANE_BUDGETS = {"precision": 12, "degree_bound": 6, "order_budget": 6}

# Nominal seconds of one round of each generated workload on the reference
# machine (see README.md); --seconds picks the number of rounds, so the work
# of a run is fixed by (workload, seed, seconds) and never by the clock.
ROUND_SECONDS = {"sl2_q": 22.0, "plane_puiseux": 15.0}

FIELDS = {
    "Q": {"kind": "Q"},
    "F5": {"kind": "Fp", "p": 5},
    "F7": {"kind": "Fp", "p": 7},
    "F9": {"kind": "Fq", "p": 3, "modulus": [1, 0, 1]},  # F_3[w]/(w^2 + 1), w = i
}
CHAR = {"Q": 0, "F5": 5, "F7": 7, "F9": 3}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def canonical(job: dict) -> str:
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def _fresh(make, seen: set) -> dict:
    """A job from make() that is not in `seen`.  Redrawing a repeated input
    is a choice on the input only, never on an outcome."""
    for _ in range(50):
        job = make()
        key = canonical(job)
        if key not in seen:
            seen.add(key)
            return job
    raise RuntimeError("job family too small for the requested number of distinct jobs")


# -- Laurent polynomials over Q: dict exponent -> Fraction -------------------


def _lmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ladd(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _mat_mul(A, B):
    return [[_ladd(_lmul(A[i][0], B[0][j]), _lmul(A[i][1], B[1][j])) for j in range(2)] for i in range(2)]


def _const(c) -> dict:
    return {0: Fraction(c)} if c else {}


def _series(laurent: dict) -> dict:
    return {"terms": [[str(e), str(c)] for e, c in sorted(laurent.items())]}


# The two tori of the corpus: x1 = [[1/t, 1], [0, t]], x2 = [[1/t, 0], [1, t]].
X1 = [[{-1: Fraction(1)}, {0: Fraction(1)}], [{}, {1: Fraction(1)}]]
X2 = [[{-1: Fraction(1)}, {}], [{0: Fraction(1)}, {1: Fraction(1)}]]


def _sl2_job(M) -> dict:
    return {
        "field": FIELDS["Q"],
        "group": {"kind": "SL", "n": 2},
        "command": "stab",
        "algorithm": "both",
        "input": {"branch": {"entries": [[_series(M[i][j]) for j in range(2)] for i in range(2)]}},
        "budgets": dict(SL2_BUDGETS),
    }


# -- sl2_q -----------------------------------------------------------------

# k-points g = [[a, b], [c, d]] of SL2(Q) of height 1: a in {1, -1},
# b, c in {-1, 0, 1}, d = (1 + bc) / a.  Up to the sign of g and leaving out
# the identity, those in the cells c = 0 or d = 0 are the four below; a
# translate or conjugate of x1 or x2 by one of them takes 1-2.5 s.  The
# generic points (c d != 0) send the degeneration into a lattice search
# that ran past 8 s for every one of them tried on x1.
CHEAP_POINTS = ((1, -1, 0), (1, 1, 0), (1, 1, -1), (1, -1, 1))
GENERIC_POINTS = tuple(
    (a, b, c) for a in (1, -1) for b in (-1, 0, 1) for c in (-1, 1) if 1 + b * c != 0
)


def _kpoint(a, b, c):
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    d = (1 + b * c) / a
    return [[_const(a), _const(b)], [_const(c), _const(d)]], [[_const(d), _const(-b)], [_const(-c), _const(a)]]


def _move(kind: str, base, point):
    g, g_inv = _kpoint(*point)
    if kind == "left":
        return _mat_mul(g, base)
    return _mat_mul(_mat_mul(g, base), g_inv)


def _upper(f: dict):
    return [[_const(1), f], [{}, _const(1)]]


def _lower(f: dict):
    return [[_const(1), {}], [f, _const(1)]]


def _diag(c: Fraction, k: int):
    return [[{k: c}, {}], [{}, {-k: 1 / c}]]


# Products of elementary shears and diagonal units, the two moves of
# samples.random_sl_laurent, at fixed exponents; (a, b) are drawn from
# {-2, -1, 1, 2}.  The last one reports agreement: fail (exit 5) today.
SHEARS = (
    lambda a, b: _mat_mul(_upper({-2: a, 1: b}), _diag(Fraction(1), -1)),
    lambda a, b: _mat_mul(_upper({-1: a}), _lower({-1: b})),
    lambda a, b: _mat_mul(_lower({1: a}), _upper({-1: b})),
    lambda a, b: _mat_mul(_diag(a, 2), _upper({-3: b})),
)


def _variant(M, rng: random.Random):
    """One of -M, M(-t) and -M(-t), or M itself: the same structure and,
    as measured, the same cost, but a distinct input."""
    sign = rng.choice((1, -1))
    flip = rng.choice((1, -1))
    return [[{e: c * sign * (flip if e % 2 else 1) for e, c in x.items()} for x in row] for row in M]


def sl2_q(seed: int, seconds: float) -> list[dict]:
    """SL2(Q) Laurent branches with algorithm both; the conjugation check
    runs for every unbounded SL2 branch.  One round is 13 jobs:

    * left translates of x1 by the first three CHEAP_POINTS and of x2 by
      the last three (6),
    * the conjugate of x1 by the last point (d = 0) and of x2 by the first
      (c = 0) (2),
    * each of SHEARS (4),
    * one left translate of x1 by a generic point.  It runs into the lattice
      search that ROADMAP item 4e leaves unbounded and ends as a timeout:
      one per round keeps that visible at a bounded cost.

    The seed picks the variant of each job, the coefficients of the shears,
    the generic point and the order; the structure of a round is fixed, so
    runs with different seeds do comparable work.
    """
    rng = random.Random(f"sl2_q:{seed}")
    seen: set = set()
    jobs: list[dict] = []
    coeffs = tuple(Fraction(v) for v in (-2, -1, 1, 2))
    for _ in range(rounds_for("sl2_q", seconds)):
        moves = [(X1, "left", p) for p in CHEAP_POINTS[:3]] + [(X2, "left", p) for p in CHEAP_POINTS[1:]]
        moves += [(X1, "conj", CHEAP_POINTS[3]), (X2, "conj", CHEAP_POINTS[0])]
        batch = []
        for base, kind, point in moves:
            M = _move(kind, base, point)
            batch.append(_fresh(lambda: _sl2_job(_variant(M, rng)), seen))
        for shear in SHEARS:
            batch.append(_fresh(lambda: _sl2_job(shear(rng.choice(coeffs), rng.choice(coeffs))), seen))
        batch.append(_fresh(lambda: _sl2_job(_variant(_move("left", X1, rng.choice(GENERIC_POINTS)), rng)), seen))
        rng.shuffle(batch)
        jobs += batch
    return jobs


# -- plane_puiseux -----------------------------------------------------------

# Monomial curves y^p = x^q with gcd(p, q) = 1.  p in {2, 3, 4} and
# q in {1..5}; the characteristic may divide neither p nor q, since the
# place at infinity is then wildly ramified and the program reports exit 3
# (documented as unsupported) without doing any work.
MONOMIAL_SHAPES = [
    (field, p, q)
    for field in ("Q", "F5", "F7", "F9")
    for p in (2, 3, 4)
    for q in range(1, 6)
    if math.gcd(p, q) == 1 and (CHAR[field] == 0 or (p * q) % CHAR[field] != 0)
]

# Irrational-exponent branches (x(t), y(t)) in the additive plane, with an
# exponent e = r + s*sqrt(d): each shape lists the terms of x and y as
# (rational exponent, multiple of e) pairs.  The shapes are the corpus entry
# reduced_a2 = (1/t, 1/t + t^sqrt(2)) and two variants with terms in e and
# 2e, which put irrational exponents in both coordinates and in products.
IRRATIONAL_SHAPES = [
    ([(-1, 0)], [(-1, 0), (0, 1)]),
    ([(-1, 0), (0, 1)], [(-1, 0), (0, 2)]),
    ([(-1, 0)], [(-1, 0), (0, 1), (0, 2)]),
]
IRRATIONAL_FIELDS = ("Q", "F5", "F7")
IRRATIONAL_D = (2, 3, 5)
# e = r + s*sqrt(d), all positive
IRRATIONAL_E = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1)), (Fraction(0), Fraction(1, 2)))


def _nonzero(field: str, rng: random.Random) -> str:
    if field == "Q":
        return str(rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2))))
    if field == "F9":
        return rng.choice(("1", "2", "w", "2*w", "w + 1", "w + 2", "2*w + 1", "2*w + 2"))
    return str(rng.randrange(1, CHAR[field]))


def _monomial_job(shape, affine: bool, rng: random.Random) -> dict:
    """y^p = x^q embedded by (x, y) -> (a x, c y), or with affine=True by
    (x, y) -> (a x + b, c y + e) with b, e nonzero."""
    field, p, q = shape
    a, c = _nonzero(field, rng), _nonzero(field, rng)
    b, e = (_nonzero(field, rng), _nonzero(field, rng)) if affine else ("0", "0")
    return {
        "field": FIELDS[field],
        "group": {"kind": "Additive", "n": 2},
        "command": "stab",
        "algorithm": "both",
        "input": {"plane_curve": {"f": f"y^{p} - x^{q}", "embedding": [f"({a})*x + ({b})", f"({c})*y + ({e})"]}},
        "budgets": dict(PLANE_BUDGETS),
    }


def _exponent(rational: int, multiple: int, e, d: int) -> str:
    r, s = e
    a = rational + multiple * r
    b = multiple * s
    if b == 0:
        return str(a)
    return f"{a}+{b}*sqrt({d})"


def _irrational_job(field: str, d: int, shape, e, rng: random.Random) -> dict:
    entries = []
    for terms in shape:
        entries.append({"terms": [[_exponent(r, m, e, d), _nonzero(field, rng)] for r, m in terms]})
    return {
        "field": FIELDS[field],
        "group": {"kind": "Additive", "n": 2},
        "exponent_d": d,
        "command": "stab",
        "algorithm": "both",
        "input": {"branch": {"entries": entries}},
        "budgets": dict(PLANE_BUDGETS),
    }


def plane_puiseux(seed: int, seconds: float) -> list[dict]:
    """One round is 58 jobs: every monomial shape, with a linear and an
    affine embedding in turn, and every (field, d, irrational shape), where the
    exponent form depends on (d, shape) so that each shape meets each form.
    The seed draws the coefficients and the order; the structure of a round
    is fixed."""
    rng = random.Random(f"plane_puiseux:{seed}")
    seen: set = set()
    jobs: list[dict] = []
    for _ in range(rounds_for("plane_puiseux", seconds)):
        batch = []
        for i, shape in enumerate(MONOMIAL_SHAPES):
            batch.append(_fresh(lambda: _monomial_job(shape, i % 2 == 1, rng), seen))
        for field in IRRATIONAL_FIELDS:
            for i, d in enumerate(IRRATIONAL_D):
                for j, shape in enumerate(IRRATIONAL_SHAPES):
                    e = IRRATIONAL_E[(i + j) % len(IRRATIONAL_E)]
                    batch.append(_fresh(lambda: _irrational_job(field, d, shape, e, rng), seen))
        rng.shuffle(batch)
        jobs += batch
    return jobs


GENERATED = {"sl2_q": sl2_q, "plane_puiseux": plane_puiseux}
