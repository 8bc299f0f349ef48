"""Deterministic random sample generators for property checks.

Matrices are built from elementary shears and diagonal units so that
determinants stay monomial and entries stay exact Laurent polynomials.
"""

from __future__ import annotations

import random

from .exponents import exp
from .fields import FieldSpec
from .groups import GroupElement, GroupScheme, KPoint, with_unit_det
from .series import PuiseuxSeries, ScalarDomain


def _random_scalar(field: FieldSpec, rng: random.Random, nonzero=False):
    while True:
        if field.char == 0:
            c = field.from_int(rng.randrange(-4, 5))
        else:
            c = field.element(rng.randrange(field.order))
        if not (nonzero and c.is_zero()):
            return c


def random_laurent(field: FieldSpec, rng: random.Random, lo=-3, hi=4, terms=3) -> PuiseuxSeries:
    dom = ScalarDomain(field)
    out = PuiseuxSeries.zero(dom)
    for _ in range(rng.randrange(0, terms + 1)):
        e = rng.randrange(lo, hi)
        out = out + PuiseuxSeries.monomial(dom, exp(e), _random_scalar(field, rng))
    return out


def _identity_rows(n, dom, field):
    one = PuiseuxSeries.constant(dom, field.one())
    zero = PuiseuxSeries.zero(dom)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def random_sl_laurent(n: int, field: FieldSpec, rng: random.Random, steps=4, integral=False) -> GroupElement:
    """Random element of SL_n with exact Laurent entries; integral=True
    restricts to SL_n(O) by keeping shear exponents nonnegative and
    diagonal units constant."""
    scheme = GroupScheme("SL", n, field)
    dom = ScalarDomain(field)
    rows = _identity_rows(n, dom, field)
    lo = 0 if integral else -3
    for _ in range(steps):
        kind = rng.randrange(2)
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            f = random_laurent(field, rng, lo=lo)
            for c in range(n):
                rows[i][c] = rows[i][c] + f * rows[j][c]
        else:
            i, j = rng.sample(range(n), 2)
            c = _random_scalar(field, rng, nonzero=True)
            k = 0 if integral else rng.randrange(-2, 3)
            u = PuiseuxSeries.monomial(dom, exp(k), c)
            uinv = PuiseuxSeries.monomial(dom, exp(-k), c.inv())
            rows[i] = [u * x for x in rows[i]]
            rows[j] = [uinv * x for x in rows[j]]
    return GroupElement(scheme, tuple(tuple(r) for r in rows), check=True)


def random_gl_laurent(n: int, field: FieldSpec, rng: random.Random, steps=3) -> GroupElement:
    """Random element of GL_n whose determinant is a unit times t^k.

    Built from diagonal units and shears, so the determinant is a tracked
    monomial and y comes for free; the construction is on-group by design.
    """
    scheme = GroupScheme("GL", n, field)
    dom = ScalarDomain(field)
    rows = _identity_rows(n, dom, field)
    det = PuiseuxSeries.one(dom)
    for i in range(n):
        c = _random_scalar(field, rng, nonzero=True)
        k = rng.randrange(-2, 3)
        u = PuiseuxSeries.monomial(dom, exp(k), c)
        det = det * u
        rows[i] = [u * x for x in rows[i]]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        f = random_laurent(field, rng, lo=-2, hi=3, terms=2)
        for c in range(n):
            rows[i][c] = rows[i][c] + f * rows[j][c]
    return GroupElement(scheme, tuple(tuple(r) for r in rows), det.inv(), check=False)


def random_positive_val(field: FieldSpec, rng: random.Random, prec: int = 8) -> PuiseuxSeries:
    dom = ScalarDomain(field)
    out = PuiseuxSeries.zero(dom)
    for _ in range(rng.randrange(1, 3)):
        out = out + PuiseuxSeries.monomial(dom, exp(rng.randrange(1, prec // 2 + 1)), _random_scalar(field, rng))
    return out.truncate(exp(prec))


def random_mu_element(scheme: GroupScheme, rng: random.Random, prec: int = 8) -> GroupElement:
    """Identity perturbed by positive-valuation entries, projected onto the
    scheme (det corrected through the last diagonal entry)."""
    field = scheme.field
    dom = ScalarDomain(field)
    r = scheme.root
    if r.kind == "Additive":
        return GroupElement(scheme, tuple(random_positive_val(field, rng, prec) for _ in range(r.n)), check=False)
    n = r.n
    one = PuiseuxSeries.constant(dom, field.one())
    rows = [
        [
            (one + random_positive_val(field, rng, prec)) if i == j else random_positive_val(field, rng, prec)
            for j in range(n)
        ]
        for i in range(n)
    ]
    if r.kind == "SL":
        rows = with_unit_det(rows)
        return GroupElement(scheme, tuple(tuple(r2) for r2 in rows), check=True)
    return GroupElement(scheme, tuple(tuple(r2) for r2 in rows), check=False)


def random_kpoint_sl2(field: FieldSpec, rng: random.Random) -> KPoint:
    scheme = GroupScheme("SL", 2, field)
    a = _random_scalar(field, rng, nonzero=True)
    b = _random_scalar(field, rng)
    c = _random_scalar(field, rng)
    d = (field.one() + b * c) / a
    return KPoint(scheme, ((a, b), (c, d)))
