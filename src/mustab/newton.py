"""Places at infinity of plane curves, by Newton polygon iteration.

The projective closure of V(f) meets the line at infinity in the points
[1:c:0], c a root of the degree form, and in [0:1:0] when f has no y^d
term.  One chart serves them all: around [1:c:0] the local branches are
Puiseux series for y/x in z = 1/x, and [0:1:0] is the c = 0 point of the
same chart for f with x and y exchanged.  The parameterizations are then
pushed through the embedding into the group scheme.  An edge's roots are
the e-th roots of the roots of its reduced polynomial psi, phi(c) =
c^i0 psi(c^e), so only psi is factored.  Each edge expands one root per
class of roots conjugate under t -> zeta t, so each place is expanded
once, unless a place has its k-rational expansions only under a skipped
root; that point then expands every root.

Over F_p a missing Newton-polygon root triggers one automatic extension to
F_{p^n}; over Q and Q(sqrt d) it surfaces as CoefficientFieldTooSmall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .branches import Branch, is_centered_at_infinity, validate_branch
from .errors import BudgetExceeded, CoefficientFieldTooSmall, MustabError, WildRamification
from .exponents import exp
from .factor import scalar_roots, uni_divmod, uni_factor
from .fields import FieldSpec, Scalar
from .groups import GroupScheme, eval_poly_series, mat_det
from .ideals import Ideal, ideal_member
from .poly import Poly, PolyRing
from .series import PuiseuxSeries

# depth of the Newton-polygon recursion before BudgetExceeded
_NEWTON_BUDGET = 200


@dataclass
class PlaneCurveInput:
    """An irreducible plane curve with an embedding into a group scheme.

    embedding is a vector of polynomials in (x, y) for Additive schemes or
    an n x n matrix of polynomials for matrix schemes.
    """

    f: Poly
    embedding: list
    scheme: GroupScheme
    trusted_irreducible: bool = False
    irreducibility_checked: bool = dc_field(init=False)  # decided by check_irreducible_fragment

    def __post_init__(self):
        ring = self.f.ring
        if set(ring.variables) != {"x", "y"}:
            raise ValueError("plane curves use variables x, y")
        self.irreducibility_checked, irreducible = check_irreducible_fragment(self.f)
        if not irreducible:
            raise ValueError(f"{self.f} is reducible; places are per irreducible curve")
        self._check_embedding_lands_in_scheme()

    def _check_embedding_lands_in_scheme(self):
        ring = self.f.ring
        values = dict(zip(self.scheme.coordinates(), self.scheme.flatten(self.embedding)))
        curve = Ideal(ring, (self.f,))
        for eq in self.scheme.defining_polys():
            if not eq.variables_used() <= values.keys():
                continue  # the embedding gives no y on GL: det^-1 is not polynomial in (x, y)
            pulled = eq.subs_polys(values, ring)
            if not ideal_member(pulled, curve):
                raise ValueError(f"embedding does not land in the scheme: {eq} pulls back to {pulled}")


def check_irreducible_fragment(f: Poly) -> tuple[bool, bool]:
    """(checked, irreducible) within the supported fragment: linear always,
    univariate via factorization, nondegenerate conics via the 3x3
    determinant (char != 2)."""
    deg = f.total_degree()
    if deg == 1:
        return True, True
    used = f.variables_used()
    if len(used) <= 1:
        fac = uni_factor(f)
        if fac.complete:
            total = sum(m for _, m in fac.factors)
            return True, total == 1
        return False, True
    if deg == 2 and f.ring.field.char != 2:
        field = f.ring.field
        half = field.from_int(2).inv()
        y_first = f.ring.variables[0] == "y"

        def coeff(ex, ey):
            return f.terms.get((ey, ex) if y_first else (ex, ey), field.zero())

        a, b, c = coeff(2, 0), coeff(1, 1), coeff(0, 2)
        d, e, g = coeff(1, 0), coeff(0, 1), coeff(0, 0)
        m = [
            [a, b * half, d * half],
            [b * half, c, e * half],
            [d * half, e * half, g],
        ]
        if not mat_det(m).is_zero():
            return True, True
        return False, True
    return False, True


# -- Puiseux-polynomial support (terms w^i z^j with fractional j) -----------

def _chart(f: Poly, swap: bool) -> dict:
    """The terms {(i, j): c} of c w^i z^j in G(w, z) = z^d f(1/z, w/z), the
    chart x = 1/z, y = w/z of the points [1:c:0]; with swap, of f with x
    and y exchanged, whose point c = 0 is [0:1:0].  The degree-d terms of f
    are the terms of z-degree 0."""
    d = f.total_degree()
    xi, yi = f.ring.variables.index("x"), f.ring.variables.index("y")
    if swap:
        xi, yi = yi, xi
    return {(m[yi], Fraction(d - m[xi] - m[yi])): c for m, c in f.terms.items()}


def _lower_hull_edges(pp: dict) -> list[tuple[Fraction, list[tuple[int, Fraction]]]]:
    """Edges of the lower-left Newton polygon with positive gamma = -slope."""
    best: dict[int, Fraction] = {}
    for (i, j) in pp:
        if i not in best or j < best[i]:
            best[i] = j
    pts = sorted(best.items())
    hull = []
    for p in pts:
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
            gamma = -slope
            mu = y1 + x1 * gamma
            on_edge = [(i, j) for (i, j) in pp if j + i * gamma == mu]
            edges.append((gamma, on_edge))
    return edges


def _pp_substitute(pp: dict, gamma: Fraction, c: Scalar, field: FieldSpec) -> dict:
    """w -> z^gamma (c + w), then divide by the minimal z-power.  The powers
    of c and each w-degree's row of binomial terms are built once per call."""
    cpow = [field.one()]
    for _ in range(max(i for i, _ in pp)):
        cpow.append(cpow[-1] * c)
    rows: dict = {}  # i -> the nonzero C(i, m) c^(i - m) by m
    out: dict = {}
    for (i, j), a in pp.items():
        row = rows.get(i)
        if row is None:
            row, b = [], 1
            for m in range(i + 1):
                x = field.from_int(b) * cpow[i - m]
                if not x.is_zero():
                    row.append((m, x))
                b = b * (i - m) // (m + 1)
            rows[i] = row
        jj = j + i * gamma
        for m, x in row:
            key = (m, jj)
            cur = out.get(key)
            out[key] = a * x if cur is None else cur + a * x
    out = {k: v for k, v in out.items() if not v.is_zero()}
    mu = min(j for (_, j) in out)
    return {(i, j - mu): v for (i, j), v in out.items()}


class _ExtensionNeeded(Exception):
    def __init__(self, factor: Poly):
        self.factor = factor


class _SiblingNeeded(Exception):
    """A place whose k-rational expansions may all lie under a root that
    _np_expansions skipped as the conjugate of one it expanded."""


def _newton_roots(coeffs, field: FieldSpec, what: str, e: int = 1, n0: int = 1, num: int = 0):
    """Roots in k of phi = sum a c^i over coeffs (i, a): the degree form
    (e = 1) or the polynomial of an edge that ramifies e-fold beyond the
    earlier terms, whose exponents have denominators dividing n0; the
    edge's own term has exponent num/(n0 e).  Returns the k-roots, ordered
    by the string of c - r as uni_factor orders its linear factors, and
    whether a root outside k is rational only under a skipped root (below).

    The exponents i on an edge differ by multiples of e (two terms on it
    differ in z-exponent by a multiple of 1/n0), so phi(c) = c^i0 psi(c^e)
    with i0 the least i, and only psi is factored: degree (max i - i0)/e,
    1 on a binomial edge.  The nonzero k-roots of phi are the e-th roots in
    k of the k-roots rho of psi (Scalar.kth_roots: over F_q one root times
    the memoized mu_g; none over Q(sqrt d) for e > 2, where uni_factor does
    not split c^e - rho either).

    t -> omega t multiplies the term of exponent m/(n0 e) by eta^m, eta an
    (n0 e)-th root of unity, and keeps the earlier coefficients in k
    exactly when lam = eta^e does (their numerators m have gcd e with
    n0 e).  The roots of c^e - rho, for a root rho of psi, are
    - redundant when rho has an e-th root r in k: with lam = 1, t -> omega
      t keeps every earlier term and takes each of them to an r;
    - rational under another root of an earlier edge when lam^num rho has
      an e-th root in k for some lam in mu_n0(k): t -> omega t takes the
      earlier terms to k-rational ones that differ from them, those of a
      root that _np_expansions skips unless it expands every root;
    - missing otherwise, as are the roots of a nonlinear factor of psi: no
      conjugate of their place has its terms so far in k, which is fatal
      here (or triggers an extension over F_p).  Only then is phi itself
      factored, over F_p, to name the extension: its first nonlinear
      factor in uni_factor's order whose roots are missing.
    """
    i0 = min(i for i, _ in coeffs)
    roots = [field.zero()] if i0 else []
    if len(coeffs) == 1:  # a c^i0: psi is constant
        return roots, False
    ring = PolyRing(field, ("c",))
    fac = uni_factor(Poly(ring, {((i - i0) // e,): a for i, a in coeffs}))
    sibling, missing = False, []  # missing: the factors of psi whose roots are missing
    for g, _ in fac.factors + fac.unfactored:
        if g.total_degree() > 1:
            missing.append(g)
            continue
        rho = -g.constant_coefficient()
        found = _eth_roots(rho, e)
        if found:
            roots += found
        elif any(_eth_roots(lam**num * rho, e) for lam in _eth_roots(field.one(), n0)):
            sibling = True
        else:
            missing.append(g)
    if missing:
        phi = Poly(ring, {(i,): a for i, a in coeffs})
        if field.kind == "Fp":
            rhos = {-g.constant_coefficient() for g in missing if g.total_degree() == 1}
            raise _ExtensionNeeded(next(h for h, _ in uni_factor(phi).factors if _is_missing(h, e, rhos)))
        raise CoefficientFieldTooSmall(f"Newton-polygon {what}roots of {phi} are not all in {field}")
    if len(roots) > 1:
        c = ring.var("c")
        roots.sort(key=lambda r: str(c - ring.from_scalar(r)))
    return roots, sibling


def _eth_roots(a: Scalar, e: int) -> list[Scalar]:
    """a.kth_roots(e); none over Q(sqrt d) for e > 2."""
    return [] if a.field.kind == "QSqrt" and e > 2 else a.kth_roots(e)


def _is_missing(h: Poly, e: int, rhos: set) -> bool:
    """Whether the roots beta of an irreducible factor h of phi are
    missing: h is nonlinear and beta^e is outside k or one of rhos, the
    roots of psi whose e-th roots are missing."""
    if h.total_degree() < 2:
        return False
    power = uni_divmod(h.ring.var("c") ** e, h)[1]  # beta^e
    return not power.is_constant() or power.constant_coefficient() in rhos


def _np_expansions(pp: dict, field: FieldSpec, prec_left: Fraction, every_root: bool = False,
                   g0: Fraction = Fraction(0), n0: int = 1, budget: int = _NEWTON_BUDGET):
    """One Puiseux expansion w(z) with positive valuation solving pp = 0
    per place, as (terms, exact) pairs; terms are ascending (Fraction,
    Scalar).  g0 is the exponent reached before pp and n0 the lcm of the
    denominators of the exponents chosen so far.  At an edge of slope
    -gamma the roots r and zeta r with zeta^e = 1, e the denominator of
    n0 gamma, differ by t -> zeta t, which fixes every earlier term: one
    place, so only the first root of each class (by r^e) is expanded.

    Such a place may still have its k-rational expansions only under the
    skipped root zeta r, when a later root is rational only after a
    conjugation that moves the earlier terms (see _newton_roots).  That
    raises _SiblingNeeded; with every_root, every k-root is expanded and
    _dedup_branches merges the conjugate expansions."""
    if budget <= 0:
        raise BudgetExceeded("Newton polygon recursion budget exhausted")
    out = []
    k = min(i for i, _ in pp)
    if k >= 1:
        out.append(([], True))  # the exact branch w = 0
        pp = {(i - k, j): c for (i, j), c in pp.items()}
    if (0, Fraction(0)) in pp:
        return out  # remaining part does not vanish at the origin
    if prec_left <= 0:
        return out + [([], False)]
    for gamma, edge_terms in _lower_hull_edges(pp):
        if field.char and gamma.denominator % field.char == 0:
            raise WildRamification(
                f"edge exponent {gamma} is wildly ramified in characteristic {field.char}"
            )
        e = (n0 * gamma).denominator
        num = int((g0 + gamma) * n0 * e)
        roots, sibling = _newton_roots([(i, pp[(i, j)]) for i, j in edge_terms], field, "edge ", e, n0, num)
        if sibling and not every_root:
            raise _SiblingNeeded()
        expanded = []  # r^e of each root expanded at this edge
        for root in roots:
            power = root**e
            if root.is_zero() or (power in expanded and not every_root):
                continue
            expanded.append(power)
            sub = _pp_substitute(pp, gamma, root, field)
            if gamma >= prec_left:
                out.append(([(gamma, root)], False))
                continue
            tails = _np_expansions(sub, field, prec_left - gamma, every_root, g0 + gamma, n0 * e, budget - 1)
            for tail, tail_exact in tails:
                shifted = [(gamma + g2, c2) for g2, c2 in tail]
                out.append(([(gamma, root)] + shifted, tail_exact))
    return out


def places_at_infinity(curve: PlaneCurveInput, precision: int = 12) -> list[Branch]:
    """One validated Branch per place of the curve at infinity whose image
    under the embedding is centered at infinity."""
    try:
        return _places(curve, precision)
    except _ExtensionNeeded as need:
        p = curve.f.ring.field.p
        ext = FieldSpec("Fq", p=p, modulus=_monic_int_coeffs(need.factor))
        try:
            lifted = _lift_curve(curve, ext)
        except ValueError:  # a univariate f irreducible over F_p may split over ext
            raise CoefficientFieldTooSmall(f"the places of {curve.f} need {ext}, over which it is reducible")
        try:
            return _places(lifted, precision)
        except _ExtensionNeeded:
            raise CoefficientFieldTooSmall(f"roots escape one extension level over F_{p}")


def _monic_int_coeffs(g: Poly) -> tuple[int, ...]:
    """The F_p residues of a monic factor in c, lowest degree first."""
    coeffs = [0] * (g.total_degree() + 1)
    for (e,), c in g.terms.items():
        coeffs[e] = c.rep
    return tuple(coeffs)


def _lift_curve(curve: PlaneCurveInput, ext: FieldSpec) -> PlaneCurveInput:
    def lift_poly(p: Poly, ring: PolyRing) -> Poly:
        return Poly(ring, {m: c.embed(ext) for m, c in p.terms.items()})

    fring = PolyRing(ext, curve.f.ring.variables, curve.f.ring.order_name)
    scheme = GroupScheme.from_json(curve.scheme.to_json(), ext)
    emb = scheme.map_entries(curve.embedding, lambda p: lift_poly(p, fring))
    return PlaneCurveInput(lift_poly(curve.f, fring), emb, scheme, curve.trusted_irreducible)


def _places(curve: PlaneCurveInput, precision: int) -> list[Branch]:
    f = curve.f
    field = f.ring.field
    trusted = curve.trusted_irreducible or not curve.irreducibility_checked
    prec_z = Fraction(precision + 1)

    gx = _chart(f, False)
    degree_form = [(i, c) for (i, j), c in gx.items() if not j]
    points = [(False, c0) for c0 in _newton_roots(degree_form, field, "")[0]]
    if (f.total_degree(), 0) not in gx:  # no y^d: [0:1:0] lies on the curve
        points.append((True, field.zero()))
    # every expansion before any branch: an error from a later point is
    # raised before any validate_branch runs
    expansions = []
    for swap, c0 in points:
        pp = _pp_substitute(_chart(f, swap), Fraction(0), c0, field)  # w -> c0 + w
        try:
            found = _np_expansions(pp, field, prec_z)
        except _SiblingNeeded:
            found = _np_expansions(pp, field, prec_z, every_root=True)
        expansions += [(swap, c0, terms, exact) for terms, exact in found]

    branches: list[Branch] = []
    for swap, c0, terms, exact in expansions:
        e = math.lcm(*(g.denominator for g, _ in terms))
        pole = PuiseuxSeries.monomial(field, exp(-e), field.one())
        w_terms = [(exp(0), c0)] + [(exp(g * e), c) for g, c in terms]
        w_series = PuiseuxSeries(field, w_terms, None if exact else exp(e * prec_z))
        xs, ys = pole, w_series * pole
        if swap:
            xs, ys = ys, xs
        values = {"x": xs, "y": ys}
        entries = curve.scheme.map_entries(curve.embedding, lambda p: eval_poly_series(p, values, field))
        branch = validate_branch(curve.scheme, entries)
        branch.trusted_irreducible = trusted
        if is_centered_at_infinity(branch):
            branches.append(branch)

    return _dedup_branches(branches)


def _dedup_branches(branches: list[Branch]) -> list[Branch]:
    """Drop duplicates, keeping the first branch of each class: identical
    parameterizations first, then rescalings b(t) = a(lam t) of an earlier
    branch a (s = lam t with eps = 1 is the tube certificate), then
    anything else mu_correct finds tube-equivalent to an earlier branch.
    _np_expansions gives one expansion per place unless it expands every
    root, so a class of more than one branch comes from the conjugate
    expansions of that case or from distinct places that the embedding
    identifies."""
    from .stabilizer import mu_correct  # lazy: avoids an import cycle

    def equivalent(a: Branch, b: Branch) -> bool:
        if b.element.entries == a.element.entries or _is_rescaling(a, b):
            return True
        try:
            return mu_correct(a, b, order_budget=4) is not None
        except MustabError:
            return False

    out: list[Branch] = []
    for b in branches:
        if not any(equivalent(seen, b) for seen in out):
            out.append(b)
    return out


def _is_rescaling(a: Branch, b: Branch) -> bool:
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
