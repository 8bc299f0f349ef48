"""Shared test helpers: a random-series generator for property suites,
series agreement on a common window, the identity test for group points
and the intersection of two ideals."""

from fractions import Fraction

from mustab.exponents import exp
from mustab.fields import QQ
from mustab.ideals import DEFAULT_SPOLY_BUDGET, Ideal, eliminate
from mustab.poly import PolyRing
from mustab.series import PuiseuxSeries, ScalarDomain

DQ = ScalarDomain(QQ)


def random_series(rng, dom=DQ, allow_neg=True, max_terms=4, prec_range=(4, 8)):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        num = rng.randrange(-4 if allow_neg else 0, 7)
        den = rng.choice([1, 1, 2])
        coeff = rng.randrange(-5, 6)
        if coeff:
            terms[Fraction(num, den)] = dom.field.from_int(coeff)
    prec = exp(rng.randrange(*prec_range))
    return PuiseuxSeries(dom, [(exp(e), c) for e, c in terms.items()], prec)


def agrees(f: PuiseuxSeries, g: PuiseuxSeries) -> bool:
    """f and g are equal below the smaller of their precisions (exactly
    equal when both are exact)."""
    known = [p for p in (f.precision, g.precision) if p is not None]
    cut = min(known) if known else None
    return all(cut is not None and not e < cut for e, _ in (f - g).terms)


def is_identity(g) -> bool:
    """g, a KPoint, is the identity of its scheme."""
    return g == g.scheme.identity()


def ideal_intersect(I: Ideal, J: Ideal, budget: int = DEFAULT_SPOLY_BUDGET) -> Ideal:
    """I cap J via the u-trick: eliminate u from u*I + (1-u)*J."""
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    ring = I.ring
    aux = PolyRing(ring.field, ("_u",) + ring.variables, ring.order_name)
    u = aux.var("_u")
    lift = {v: v for v in ring.variables}
    gens = [u * g.rename(lift, aux) for g in I.gens]
    gens += [(aux.one() - u) * g.rename(lift, aux) for g in J.gens]
    elim = eliminate(Ideal(aux, tuple(gens)), ("_u",), budget)
    back = [g.rename(lift, ring) for g in elim.gens]
    return Ideal(ring, tuple(back))
