"""Shared test helpers: random series and random points of G(K), G(O)
and mu for property suites, branches at shear products, series agreement
on a common window, the identity test for group points, the intersection
of two ideals, the dimension of a monomial ideal by every variable
subset, the product of a factorization, the list of a finite
field's elements, the relations among monomials found one monomial at
a time, as a point cloud's and an exact branch's closure of bounded
degree, and their ideal, k-points of a parameterized subgroup, and the places at
infinity from every conjugate
expansion in fractional exponents merged by `_dedup_branches`, with the
edge-root classifier that factors phi (the reference for one expansion
per place in Duval's variables), the exact test b(t) = a(lam t) that
relates the places of the two, univariate division by factor.py's
dense routines, and the earlier routes kept as references: the polynomial
scanner character by character, ser_subst and the series inverse each
over their own list of powers, and the ansatz quotient substituted entry
by entry."""

import math
from itertools import combinations, combinations_with_replacement
from fractions import Fraction

from mustab.exponents import EXP_ZERO, exp
from mustab.fields import QQ
from mustab.groups import GroupElement, GroupScheme, KPoint, eval_poly_series, mat_det, mat_mul, random_entries, random_scalar
from mustab import newton
from mustab.branches import is_centered_at_infinity, validate_branch
from mustab.errors import BudgetExceeded, CoefficientFieldTooSmall, IrrationalExponentInSubstitution, WildRamification, ZeroLeadingTerm
from mustab import factor
from mustab.factor import scalar_roots, uni_factor
from mustab import ideals
from mustab.ideals import Ideal, eliminate
from mustab.linalg import Echelon
from mustab.poly import Poly, PolyRing
from mustab.series import DEFAULT_PRECISION, PowerList, PuiseuxSeries, _binomial_power, _collected, _min_prec, _rational_lower_bound
from mustab.subgroups import solve_point



def reference_ser_subst(f, s, prec=None, lead_root=None, parts=None):
    """f(s) by the route series.ser_subst took before SeriesPowers: the
    lead's powers, the precision target and one PowerList assembled here,
    each term's (1 + w)^gamma by _binomial_power times coeff * lead^gamma.
    `parts` = (v, PowerList of w) stands for s = lead t^v (1 + w) with the
    lead known only through lead_root, as the ansatz substituted."""
    if f.has_irrational_exponent():
        raise IrrationalExponentInSubstitution(f"cannot substitute into {f}")
    char = f.dom.char
    for e, _ in f.terms:
        if char and e.as_fraction().denominator % char == 0:
            raise WildRamification(f"exponent denominator divisible by characteristic {char}")
    if parts is not None:
        v, powers = parts
        w = powers.w
    else:
        if not s.terms:
            raise ZeroLeadingTerm("substitution by a series with no known term")
        v, c_lead = s.terms[0]
        cinv = c_lead.inv()
        w = s.shift(-v).scale(cinv) - PuiseuxSeries.one(f.dom)
        powers = None
    if not EXP_ZERO < v:
        raise ValueError(f"substitution requires positive valuation, got val = {v}")

    def lead_pow(gamma):
        if lead_root is not None:
            return lead_root(gamma)
        num, den = gamma.numerator, gamma.denominator
        if den == 1:
            return c_lead**num if num >= 0 else cinv ** (-num)
        root = c_lead.kth_root(den)
        return root**num if num >= 0 else root.inv() ** (-num)

    target = prec
    if f.precision is not None:
        target = _min_prec(target, v.scale(_rational_lower_bound(f.precision)))
    if w.precision is not None and f.terms:
        target = _min_prec(target, v.scale(f.terms[0][0].as_fraction()) + w.precision)
    infinite = any(e.as_fraction().denominator != 1 or e.sign() < 0 for e, _ in f.terms)
    if target is None and infinite and not (w.is_zero() and w.is_exact()):
        target = DEFAULT_PRECISION
    if powers is None and f.terms:
        powers = PowerList(w, None if target is None else target - v.scale(f.terms[0][0].as_fraction()))
    acc: dict = {}
    for e, coeff in f.terms:
        gamma = e.as_fraction()
        shift = v.scale(gamma)
        lead = coeff * lead_pow(gamma)
        for ee, c in _binomial_power(powers, gamma, None if target is None else target - shift).terms:
            ee, c = ee + shift, c * lead
            old = acc.get(ee)
            acc[ee] = c if old is None else old + c
    return _collected(f.dom, acc, target)


def reference_inv(f, prec=None):
    """f^-1 by the route PuiseuxSeries.inv took before SeriesPowers:
    c^-1 t^-v times (1 + w)^-1 from its own PowerList, for the leading
    term c t^v of f."""
    v, c = f.terms[0]
    cinv = c.inv()
    lead_inv = PuiseuxSeries.monomial(f.dom, -v, cinv)
    w = f.shift(-v).scale(cinv) - PuiseuxSeries.one(f.dom)
    if w.is_zero() and w.is_exact():
        return lead_inv
    target = _min_prec(prec, w.precision)
    if target is None:
        target = DEFAULT_PRECISION
    return lead_inv * _binomial_power(PowerList(w, target), Fraction(-1), target)


def reference_tokens(text: str) -> list[str]:
    """The token list of poly._Tokens by the character-by-character scanner
    it used before its one pattern: digit runs by str.isdigit, names from
    a letter or "_" on by str.isalnum or "_", operators, whitespace
    skipped; any other character raises ValueError."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        elif ch in "+-*/^()":
            toks.append(ch)
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    return toks


def lift_series(ring: PolyRing, f: PuiseuxSeries) -> PuiseuxSeries:
    """f with each scalar coefficient lifted to a constant of ring."""
    return PuiseuxSeries(ring, [(e, ring.from_scalar(c)) for e, c in f.terms], f.precision)


def direct_quotient(ansatz) -> GroupElement:
    """a(s) * b^-1 with each entry of a substituted by reference_ser_subst
    over one fresh list of the tail's powers: the per-entry path that the
    ansatz kernel's powers s^e replace, kept as their reference."""
    s = ansatz.kernel
    powers = PowerList(s.w, ansatz.prec - ansatz.low)

    def subst(f):
        return reference_ser_subst(lift_series(ansatz.ring, f), None, prec=ansatz.prec, lead_root=s.lead_root, parts=(exp(1), powers))

    return ansatz.branch.element.map(subst).mul(ansatz.b_inv.map(lambda f: lift_series(ansatz.ring, f)))


def uni_divmod(f, g):
    """Quotient and remainder of f by a nonzero g, both univariate in one
    variable, by factor.py's dense division."""
    (a, i), (b, j) = factor._dense(f), factor._dense(g)
    return tuple(factor._poly(h, f.ring, j if len(b) > 1 else i) for h in factor._divmod(a, b))


def field_elements(field) -> list:
    """Every element of a finite field, in element(i) order."""
    return [field.element(i) for i in range(field.order)]


def monomials_up_to(nvars: int, degree: int):
    """Exponent tuples of total degree <= degree, ascending by degree and,
    within a degree, by tuple (deglex)."""
    for d in range(degree + 1):
        for combo in reversed(list(combinations_with_replacement(range(nvars), d))):
            m = [0] * nvars
            for i in combo:
                m[i] += 1
            yield tuple(m)


def monomial_relations(nvars: int, degree: int, vector) -> list:
    """The linear relations among the vectors of the monomials of degree <=
    degree, found one monomial at a time up `monomials_up_to`
    (Buchberger-Moeller): a monomial m whose sparse row vector(m) depends on
    the earlier standard ones gives (m, {s: c}), the relation m + sum(c *
    s).  The multiples of a relation's leading monomial are skipped, which
    is sound for values that are exact."""
    ech = Echelon()
    relations = []
    for m in monomials_up_to(nvars, degree):
        if any(all(a <= b for a, b in zip(lead, m)) for lead, _ in relations):
            continue
        comb = ech.add(vector(m), m)
        if comb is not None:
            relations.append((m, comb))
    return relations


def closure_relations(branch, degree: int) -> list:
    """The relations of degree <= degree among the coordinates of an exact
    branch a(t), y included on GL: a monomial's vector holds the
    coefficients of a(t)^m by exponent slot."""
    point = branch.element.flat()
    values = {}
    slot = {}

    def value(m):
        if m not in values:
            i = max((j for j, e in enumerate(m) if e), default=None)
            if i is None:
                values[m] = PuiseuxSeries.one(branch.field)
            else:
                values[m] = value(m[:i] + (m[i] - 1,) + m[i + 1 :]) * point[i]
        return values[m]

    return monomial_relations(len(point), degree, lambda m: {slot.setdefault(e, len(slot)): c for e, c in value(m).terms})


def relation_ideal(ring: PolyRing, relations) -> Ideal:
    """The ideal the relations of `monomial_relations` generate, as
    its reduced basis under the ring's order, through the module's
    `groebner_basis` so that a test may watch it."""
    one = ring.field.one()
    return ideals.groebner_basis(Ideal(ring, tuple(Poly(ring, {m: one, **comb}) for m, comb in relations)))


def points_ideal(points: list[dict], ring: PolyRing, degree: int) -> Ideal:
    """The vanishing ideal of a point cloud up to a degree bound: the
    relations among the monomials' vectors of values at the points."""
    one = ring.field.one()

    def vector(m):
        return [Poly(ring, {m: one}).eval_scalars(pt) for pt in points]

    return relation_ideal(ring, monomial_relations(ring.nvars, degree, vector))


def param_kpoints(H, rng, count: int) -> list[KPoint]:
    """k-points of H from its parameterized family: one `solve_point` on
    the family's relations per try, lam = lami = 1 and a random default for
    every other parameter, at most 30 tries per point."""
    field = H.scheme.field
    out = []
    for _ in range(count * 30):
        if len(out) == count:
            break
        defaults = {v: field.one() if v in ("lam", "lami") else random_scalar(field, rng) for v in H.param.ring.variables}
        sol = solve_point(H.param.relations, defaults)
        if sol is not None:
            out.append(KPoint(H.scheme, H.scheme.map_entries(H.param.entries, lambda p: p.eval_scalars(sol))))
    return out


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


def agrees(f: PuiseuxSeries, g: PuiseuxSeries) -> bool:
    """f and g are equal below the smaller of their precisions (exactly
    equal when both are exact)."""
    known = [p for p in (f.precision, g.precision) if p is not None]
    cut = min(known) if known else None
    return all(cut is not None and not e < cut for e, _ in (f - g).terms)


def is_identity(g) -> bool:
    """g, a KPoint, is the identity of its scheme."""
    return g == g.scheme.identity()


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via the u-trick: eliminate u from u*I + (1-u)*J."""
    if I.ring != J.ring:
        raise ValueError("ideals in different rings")
    ring = I.ring
    aux = PolyRing(ring.field, ("_u",) + ring.variables)
    u = aux.var("_u")
    lift = {v: v for v in ring.variables}
    gens = [u * g.rename(lift, aux) for g in I.gens]
    gens += [(aux.one() - u) * g.rename(lift, aux) for g in J.gens]
    elim = eliminate(Ideal(aux, tuple(gens)), ("_u",))
    back = [g.rename(lift, ring) for g in elim.gens]
    return Ideal(ring, tuple(back))


def dim_by_subsets(lead_monos, nvars: int) -> int:
    """The Krull dimension of the monomial ideal of lead_monos, by trying
    every variable set, largest first, for one that contains the support
    of no monomial: the reference for `ideals._dim_from_leading_monomials`."""
    if not lead_monos:
        return nvars
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            sset = set(subset)
            if all(any(e and i not in sset for i, e in enumerate(m)) for m in lead_monos):
                return size
    return 0


def factorization_product(fac):
    """The product unit * prod f^m over the factors and unfactored parts of
    a Factorization: the oracle that it factors its input."""
    acc = fac.ring.from_scalar(fac.unit)
    for f, m in fac.factors + fac.unfactored:
        acc = acc * f**m
    return acc


# -- random points of G(K), G(O) and mu, all through groups.random_entries --

def random_laurent(field, rng, lo=-3, hi=4, terms=3) -> PuiseuxSeries:
    """An exact Laurent polynomial: up to `terms` monomials with exponents
    in [lo, hi)."""
    out = PuiseuxSeries.zero(field)
    for _ in range(rng.randrange(0, terms + 1)):
        out = out + PuiseuxSeries.monomial(field, exp(rng.randrange(lo, hi)), random_scalar(field, rng))
    return out


def random_positive_val(field, rng, prec=8) -> PuiseuxSeries:
    """A series of positive valuation, truncated at t^prec."""
    out = PuiseuxSeries.zero(field)
    for _ in range(rng.randrange(1, 3)):
        out = out + PuiseuxSeries.monomial(field, exp(rng.randrange(1, prec // 2 + 1)), random_scalar(field, rng))
    return out.truncate(exp(prec))


def random_laurent_point(scheme, rng) -> GroupElement:
    """A point of G(K) with exact Laurent entries: Laurent draws, and units
    c * t^k, so every corner is divided by a monomial."""
    field = scheme.field

    def unit():
        return PuiseuxSeries.monomial(field, exp(rng.randrange(-2, 3)), random_scalar(field, rng, nonzero=True))

    return GroupElement(scheme, *random_entries(scheme, lambda: random_laurent(field, rng), unit))


def random_integral_point(scheme, rng) -> GroupElement:
    """A point of G(O): integral Laurent draws and constant units, then, on
    a matrix group, a random signed permutation on the left (determinant 1),
    so the residue need not lie in the big cell."""
    field = scheme.field
    g = GroupElement(scheme, *random_entries(
        scheme,
        lambda: random_laurent(field, rng, lo=0),
        lambda: PuiseuxSeries.constant(field, random_scalar(field, rng, nonzero=True)),
    ))
    if scheme.kind == "Additive":
        return g
    n = scheme.n
    perm = rng.sample(range(n), n)
    rows = [[field.from_int(rng.choice((1, -1))) if j == perm[i] else field.zero() for j in range(n)] for i in range(n)]
    if mat_det(rows) != field.one():
        rows[0] = [-c for c in rows[0]]
    return KPoint(scheme, tuple(tuple(row) for row in rows)).to_series().mul(g)


def random_mu_point(scheme, rng, prec=8) -> GroupElement:
    """A point of mu: draws of positive valuation and units 1 + (positive
    valuation), truncated at t^prec."""
    field = scheme.field
    one = PuiseuxSeries.one(field)
    return GroupElement(scheme, *random_entries(
        scheme, lambda: random_positive_val(field, rng, prec), lambda: one + random_positive_val(field, rng, prec)
    ))


def shear_product(scheme, rng, most=3):
    """A branch at a product of one to `most` elementary shears
    I + c t^e E_ij (e in [-2, 1], c in {1, -1, 2}) on SL(n) or GL(n); on
    GL(n) its first row is then scaled by a unit c t^e, and y is that
    unit's inverse, which GroupElement computes from the determinant."""
    field = scheme.field
    n = scheme.n
    one, zero = PuiseuxSeries.one(field), PuiseuxSeries.zero(field)

    def monomial():
        return PuiseuxSeries.monomial(field, exp(rng.randrange(-2, 2)), field.from_int(rng.choice([1, -1, 2])))

    acc = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    for _ in range(rng.randrange(1, most + 1)):
        i, j = rng.sample(range(n), 2)
        shear = [[one if r == c else zero for c in range(n)] for r in range(n)]
        shear[i][j] = monomial()
        acc = mat_mul(acc, shear)
    if scheme.kind == "SL":
        return validate_branch(scheme, acc)
    unit = monomial()
    return validate_branch(scheme, ((tuple(x * unit for x in acc[0]),) + acc[1:]))


def phi_factoring_roots(coeffs, field, what, e=1):
    """The k-roots of phi = sum a c^i over coeffs (i, a), with
    multiplicities, as newton found them before it factored psi in
    phi(c) = c^i0 psi(c^e): phi itself is factored, and a nonlinear factor
    h is conjugate to a root when it divides c^e - r^e for a k-root r or
    when c^e mod h is a constant with an e-th root in k; any other
    nonlinear factor is missing."""
    ring = PolyRing(field, ("c",))
    phi = Poly(ring, {(i,): a for i, a in coeffs})
    if phi.is_constant():
        return []
    fac = uni_factor(phi)
    roots = fac.roots()
    c = ring.var("c")
    missing = []
    for h, _ in fac.factors + fac.unfactored:
        if h.total_degree() < 2 or any(uni_divmod(c**e - ring.from_scalar(r**e), h)[1].is_zero() for r, _ in roots):
            continue
        power = uni_divmod(c**e, h)[1]  # rho^e
        if not (power.is_constant() and uni_factor(c**e - power).roots()):
            missing.append(h)
    if missing:
        if field.p:
            raise newton._ExtensionNeeded(field.extension_degree * math.lcm(*(h.total_degree() for h in missing)))
        raise CoefficientFieldTooSmall(f"Newton-polygon {what}roots of {phi} are not all in {field}")
    return roots


# -- places at infinity from every conjugate expansion, merged -------------
# newton.py as it was before Duval's change of variables: Puiseux
# polynomials in z with fractional exponents, every k-root of every edge
# polynomial expanded, x = t^-e, and the conjugate expansions of one place
# merged by _dedup_branches: the reference for one expansion per place.

def _fractional_hull_edges(pp):
    """Edges of the lower-left Newton polygon with positive gamma = -slope,
    as (gamma, the exponents on the edge)."""
    best = {}
    for (i, j) in pp:
        if i not in best or j < best[i]:
            best[i] = j
    hull = []
    for p in sorted(best.items()):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    edges = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        if slope < 0:
            level = y1 - x1 * slope
            edges.append((-slope, [(i, j) for (i, j) in pp if j - i * slope == level]))
    return edges


def _fractional_substitute(pp, gamma, c, field):
    """w -> z^gamma (c + w), then division by the least z-power."""
    out = {}
    for (i, j), a in pp.items():
        for k in range(i + 1):
            x = a * field.from_int(math.comb(i, k)) * c ** (i - k)
            key = (k, j + i * gamma)
            out[key] = out[key] + x if key in out else x
    out = {key: v for key, v in out.items() if not v.is_zero()}
    low = min(j for _, j in out)
    return {(i, j - low): v for (i, j), v in out.items()}


def _every_root_expansions(pp, field, prec_left, budget=newton._NEWTON_BUDGET):
    """Every Puiseux expansion w(z) with positive valuation solving pp = 0,
    one per k-root of each edge polynomial, as (terms, exact) with terms
    ascending (Fraction, Scalar)."""
    if budget <= 0:
        raise BudgetExceeded("Newton polygon recursion budget exhausted")
    out = []
    k = min(i for i, _ in pp)
    if k >= 1:
        out.append(([], True))
        pp = {(i - k, j): c for (i, j), c in pp.items()}
    if (0, 0) in pp:
        return out
    if prec_left <= 0:
        return out + [([], False)]
    for gamma, edge_terms in _fractional_hull_edges(pp):
        if field.char and gamma.denominator % field.char == 0:
            raise WildRamification(f"edge exponent {gamma} is wildly ramified")
        edge = [(i, pp[(i, j)]) for i, j in edge_terms]
        for root, _mult in phi_factoring_roots(edge, field, "edge ", gamma.denominator):
            if root.is_zero():
                continue
            if gamma >= prec_left:
                out.append(([(gamma, root)], False))
                continue
            sub = _fractional_substitute(pp, gamma, root, field)
            for tail, tail_exact in _every_root_expansions(sub, field, prec_left - gamma, budget - 1):
                out.append(([(gamma, root)] + [(gamma + g2, c2) for g2, c2 in tail], tail_exact))
    return out


def _every_root_branches(curve, precision):
    f, field = curve.f, curve.f.ring.field
    prec_z = Fraction(precision + 1)
    gx = newton._chart(f, False)
    points = [(False, c0) for c0, _ in phi_factoring_roots([(i, c) for (i, j), c in gx.items() if not j], field, "")]
    if (f.total_degree(), 0) not in gx:
        points.append((True, field.zero()))
    expansions = []
    for swap, c0 in points:
        pp = _fractional_substitute(newton._chart(f, swap), Fraction(0), c0, field)
        expansions += [(swap, c0, *found) for found in _every_root_expansions(pp, field, prec_z)]
    branches = []
    for swap, c0, terms, exact in expansions:
        e = math.lcm(*(g.denominator for g, _ in terms))
        pole = PuiseuxSeries.monomial(field, exp(-e), field.one())
        w_terms = [(exp(0), c0)] + [(exp(g * e), c) for g, c in terms]
        xs, ys = pole, PuiseuxSeries(field, w_terms, None if exact else exp(e * prec_z)) * pole
        if swap:
            xs, ys = ys, xs
        values = {"x": xs, "y": ys}
        entries = curve.scheme.map_entries(curve.embedding, lambda p: eval_poly_series(p, values, field))
        branch = validate_branch(curve.scheme, entries)
        branch.trusted_irreducible = curve.trusted_irreducible or not curve.irreducibility_checked
        if is_centered_at_infinity(branch):
            branches.append(branch)
    return newton._dedup_branches(branches)


def every_root_places(curve, precision):
    """places_at_infinity with every conjugate expansion built into a
    branch and merged by `_dedup_branches`; over F_p a missing root
    restarts it over the extension of the degree named, built by
    newton's rule, and over any other field it is fatal."""
    lifted = curve
    while True:
        try:
            return _every_root_branches(lifted, precision)
        except newton._ExtensionNeeded as need:
            field = curve.f.ring.field
            if field.kind != "Fp":
                raise CoefficientFieldTooSmall(f"the places need F_{field.p}^{need.degree}, not {field}")
            lifted = newton._lift_curve(curve, newton._extension(field.p, need.degree))


def is_rescaling(a, b) -> bool:
    """Whether b(t) = a(lam t) for some lam in k^*: every coordinate (y
    included) has the same integral exponents and the same precision in a
    and b, and c_b = lam^m c_a at each exponent m.  The candidates for lam
    are the roots of lam^m = c_b/c_a at the first term with m != 0."""
    pairs = []
    for sa, sb in zip(a.element.flat(), b.element.flat()):
        if sa.precision != sb.precision or len(sa.terms) != len(sb.terms):
            return False
        for (ea, ca), (eb, cb) in zip(sa.terms, sb.terms):
            if ea != eb or not ea.is_rational() or ea.denominator != 1:
                return False
            pairs.append((ea.as_fraction().numerator, ca, cb))
    lead = next(((m, cb / ca) for m, ca, cb in pairs if m), None)
    if lead is None:
        return False
    m, ratio = lead  # lam^m = ratio
    lam = PolyRing(a.field, ("lam",)).var("lam")
    try:
        roots = scalar_roots(lam ** abs(m) - lam.ring.from_scalar(ratio if m > 0 else ratio.inv()))
    except CoefficientFieldTooSmall:
        return False
    return any(all(cb == r**e * ca for e, ca, cb in pairs) for r in roots)
