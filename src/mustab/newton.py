"""Places at infinity of plane curves, by Newton polygon iteration.

The projective closure of V(f) meets the line at infinity in the points
[1:c:0], c a root of the degree form, and in [0:1:0] when f has no y^d
term.  One chart serves them all: around [1:c:0] the local branches are
Puiseux series for y/x in z = 1/x, and [0:1:0] is the c = 0 point of the
same chart for f with x and y exchanged.  The parameterizations are then
pushed through the embedding into the group scheme.

The expansions use Duval's rational change of variables (D. Duval,
"Rational Puiseux expansions", Compositio Math. 1989): at an edge of
slope -m/q each k-root rho of the reduced edge polynomial psi, phi(c) =
c^i0 psi(c^q), is one place, expanded through z -> mu T^q and
w -> T^m (c + w) with c^q = rho mu^m.  Exponents stay integral, and each
place whose expansion is k-rational is expanded once, over k, as
z = lam t^n; its x = 1/z = lam^-1 t^-n may carry a coefficient.

Over F_p a root of psi missing from the field restarts the whole
computation over F_{p^L}, L the lcm of the degrees over F_p of every root
met; over Q, Q(sqrt d) and a given F_q it surfaces as
CoefficientFieldTooSmall.
"""

from __future__ import annotations

import math

from . import stabilizer
from .branches import Branch, is_centered_at_infinity, validate_branch
from .errors import BudgetExceeded, CoefficientFieldTooSmall, MustabError, WildRamification
from .exponents import exp
from .factor import uni_factor
from .fields import FieldSpec, Scalar
from .groups import GroupScheme, eval_poly_series, mat_det
from .ideals import Ideal, ideal_member
from .poly import Poly, PolyRing
from .records import Record
from .series import PuiseuxSeries

# depth of the Newton-polygon recursion before BudgetExceeded
_NEWTON_BUDGET = 200
# the most elements of an extension F_{p^L} that holds the places of a
# curve over F_p; a curve whose places need more is CoefficientFieldTooSmall
_MAX_EXTENSION_ORDER = 10**6


class PlaneCurveInput(Record):
    """An irreducible plane curve with an embedding into a group scheme.

    embedding is a vector of polynomials in (x, y) for Additive schemes or
    an n x n matrix of polynomials for matrix schemes.
    """

    __slots__ = ("f", "embedding", "scheme", "trusted_irreducible", "irreducibility_checked")

    def __init__(self, f: Poly, embedding: list, scheme: GroupScheme, trusted_irreducible: bool = False):
        if set(f.ring.variables) != {"x", "y"}:
            raise ValueError("plane curves use variables x, y")
        self.f = f
        self.embedding = embedding
        self.scheme = scheme
        self.trusted_irreducible = trusted_irreducible
        self.irreducibility_checked, irreducible = check_irreducible_fragment(f)
        if not irreducible:
            raise ValueError(f"{f} is reducible; places are per irreducible curve")
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


# -- Puiseux-polynomial support (terms w^i z^j, integral j) -----------------

def _chart(f: Poly, swap: bool) -> dict:
    """The terms {(i, j): c} of c w^i z^j in G(w, z) = z^d f(1/z, w/z), the
    chart x = 1/z, y = w/z of the points [1:c:0]; with swap, of f with x
    and y exchanged, whose point c = 0 is [0:1:0].  The degree-d terms of f
    are the terms of z-degree 0."""
    d = f.total_degree()
    xi, yi = f.ring.variables.index("x"), f.ring.variables.index("y")
    if swap:
        xi, yi = yi, xi
    return {(m[yi], d - m[xi] - m[yi]): c for m, c in f.terms.items()}


def _lower_hull_edges(pp: dict) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """Edges of the lower-left Newton polygon of negative slope -m/q,
    gcd(m, q) = 1, as (m, q, the exponents (i, j) on the edge)."""
    best: dict[int, int] = {}
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
        if y2 < y1:
            g = math.gcd(y1 - y2, x2 - x1)
            m, q = (y1 - y2) // g, (x2 - x1) // g
            level = q * y1 + m * x1
            edges.append((m, q, [(i, j) for (i, j) in pp if q * j + m * i == level]))
    return edges


def _pp_substitute(pp: dict, m: int, q: int, c: Scalar, mu: Scalar) -> dict:
    """Duval's change of variables z -> mu T^q, w -> T^m (c + w), then
    division by the least power of T; T is written z again.  The powers of
    c and each w-degree's row of binomial terms are built once per call;
    mu = 1 multiplies nothing."""
    field = c.field
    cpow = [field.one()]
    for _ in range(max(i for i, _ in pp)):
        cpow.append(cpow[-1] * c)
    scaled = not mu.is_one()
    rows: dict = {}  # i -> the nonzero C(i, k) c^(i - k) by k
    out: dict = {}
    for (i, j), a in pp.items():
        row = rows.get(i)
        if row is None:
            row, b = [], 1
            for k in range(i + 1):
                x = field.from_int(b) * cpow[i - k]
                if not x.is_zero():
                    row.append((k, x))
                b = b * (i - k) // (k + 1)
            rows[i] = row
        if scaled:
            a = a * mu**j
        jj = q * j + m * i
        for k, x in row:
            key = (k, jj)
            cur = out.get(key)
            out[key] = a * x if cur is None else cur + a * x
    out = {k: v for k, v in out.items() if not v.is_zero()}
    low = min(j for (_, j) in out)
    return {(i, j - low): v for (i, j), v in out.items()}


class _ExtensionNeeded(Exception):
    """Roots of psi missing from a finite field; degree is that over F_p
    of the least extension of the field that holds them."""

    def __init__(self, degree: int):
        self.degree = degree


def _newton_roots(coeffs, field: FieldSpec, what: str, q: int = 1, m: int = 0) -> list[tuple[Scalar, Scalar]]:
    """One (c, mu) per distinct nonzero k-root rho of psi, where phi = sum
    a c^i over coeffs (i, a) is the degree form (q = 1) or the polynomial
    of an edge of slope -m/q, gcd(m, q) = 1; ordered by the string of
    c - r as uni_factor orders its linear factors.

    The exponents i on an edge differ by multiples of q, so phi(c) =
    c^i0 psi(c^q) with i0 the least i, and only psi is factored: degree
    (max i - i0)/q, 1 on a binomial edge.  Duval's change of variables
    z -> mu T^q, w -> T^m (c + w) turns the edge's terms into
    mu^j0 c^i0 psi(c^q / mu^m), so (c, mu) expands the place of rho when
    c^q = rho mu^m:
    - when rho has a q-th root in k (Scalar.kth_roots; none is searched
      over Q(sqrt d) for q > 2), mu = 1 and c is the first of them: the
      others differ from it by T -> zeta T, zeta^q = 1, which fixes z and
      every earlier term, so they give the same place;
    - otherwise mu = rho^v and c = rho^u with uq - vm = 1, 0 <= v < q.
    The roots of a nonlinear factor of psi lie over an extension of k.
    Over a finite field that raises _ExtensionNeeded with the degree of k
    over F_p times the lcm of those factors' degrees, and elsewhere it is
    CoefficientFieldTooSmall.
    """
    i0 = min(i for i, _ in coeffs)
    if len(coeffs) == 1:  # a c^i0: psi is constant
        return []
    ring = PolyRing(field, ("c",))
    var = ring.var("c")

    def order(r: Scalar) -> str:
        return str(var - ring.from_scalar(r))

    fac = uni_factor(Poly(ring, {((i - i0) // q,): a for i, a in coeffs}))
    roots, missing = [], []
    for g, _ in fac.factors + fac.unfactored:
        if g.total_degree() > 1:
            missing.append(g.total_degree())
            continue
        rho = -g.constant_coefficient()
        found = [] if field.kind == "QSqrt" and q > 2 else rho.kth_roots(q)
        if found:
            roots.append((found[0] if len(found) == 1 else min(found, key=order), field.one()))
        else:
            v = -pow(m, -1, q) % q
            roots.append((rho ** ((1 + v * m) // q), rho**v))
    if missing:
        if field.p:
            raise _ExtensionNeeded(field.extension_degree * math.lcm(*missing))
        phi = Poly(ring, {(i,): a for i, a in coeffs})
        raise CoefficientFieldTooSmall(f"Newton-polygon {what}roots of {phi} are not all in {field}")
    if len(roots) > 1:
        roots.sort(key=lambda root: order(root[0]))
    return roots


def _np_expansions(pp: dict, field: FieldSpec, prec: int, budget: int = _NEWTON_BUDGET):
    """One Puiseux expansion per place of pp(w, z) = 0 with w of positive
    valuation, in Duval's variables: (n, lam, terms, exact) with z =
    lam t^n and w the sum of c t^k over terms (k, c), ascending, wanted
    below z^prec.  At an edge of slope -m/q each root (c, mu) from
    _newton_roots is one place, expanded in z -> mu T^q, w -> T^m (c + w);
    the tail's T = lam' t^n' then gives n = q n', lam = mu lam'^q and
    multiplies every term by lam'^m."""
    if budget <= 0:
        raise BudgetExceeded("Newton polygon recursion budget exhausted")
    one = field.one()
    out = []
    k = min(i for i, _ in pp)
    if k >= 1:
        out.append((1, one, [], True))  # the exact branch w = 0
        pp = {(i - k, j): c for (i, j), c in pp.items()}
    if (0, 0) in pp:
        return out  # remaining part does not vanish at the origin
    if prec <= 0:
        return out + [(1, one, [], False)]
    for m, q, edge_terms in _lower_hull_edges(pp):
        if field.char and q % field.char == 0:
            raise WildRamification(f"edge exponent {m}/{q} is wildly ramified in characteristic {field.char}")
        for c, mu in _newton_roots([(i, pp[(i, j)]) for i, j in edge_terms], field, "edge ", q, m):
            if m >= q * prec:
                out.append((q, mu, [(m, c)], False))
                continue
            sub = _pp_substitute(pp, m, q, c, mu)
            for n, lam, tail, exact in _np_expansions(sub, field, q * prec - m, budget - 1):
                terms = [(m * n, c)] + [(m * n + k2, c2) for k2, c2 in tail]
                if lam == one:
                    out.append((q * n, mu, terms, exact))
                else:
                    scale = lam**m
                    out.append((q * n, mu * lam**q, [(k2, c2 * scale) for k2, c2 in terms], exact))
    return out


def places_at_infinity(curve: PlaneCurveInput, precision: int = 12) -> list[Branch]:
    """One validated Branch per tube class of the places of the curve at
    infinity whose image under the embedding is centered at infinity:
    places whose images are identical or tube-equivalent under mu_correct
    (_dedup_branches) share one branch, as they share one stabilizer.

    Over F_p, a root missing from the field restarts the computation:
    each pass rebuilds the F_p curve over F_{p^L}, L the degree that
    _ExtensionNeeded names, until no root is missing.  Past
    _MAX_EXTENSION_ORDER elements, and over any other field, a missing
    root is CoefficientFieldTooSmall."""
    field = curve.f.ring.field
    lifted = curve
    while True:
        try:
            return _places(lifted, precision)
        except _ExtensionNeeded as need:
            ext = f"F_{field.p}^{need.degree}"
            if field.kind != "Fp":
                raise CoefficientFieldTooSmall(f"the places of {curve.f} need {ext}, not {field}")
            if field.p**need.degree > _MAX_EXTENSION_ORDER:
                raise CoefficientFieldTooSmall(f"the places of {curve.f} need {ext}, past {_MAX_EXTENSION_ORDER} elements")
            try:
                lifted = _lift_curve(curve, _extension(field.p, need.degree))
            except ValueError:  # a univariate f irreducible over F_p may split over F_{p^L}
                raise CoefficientFieldTooSmall(f"the places of {curve.f} need {ext}, over which it is reducible")


def _extension(p: int, degree: int) -> FieldSpec:
    """F_{p^degree} by a rule that depends on (p, degree) alone, so that
    reports are deterministic: its modulus is the first monic polynomial
    of that degree, with the base-p digits of 0, 1, 2, ... as its lower
    coefficients from the lowest up, that is irreducible over F_p."""
    for i in range(p**degree):
        try:
            return FieldSpec("Fq", p=p, modulus=(*(i // p**k % p for k in range(degree)), 1))
        except ValueError:  # reducible
            continue


def _lift_curve(curve: PlaneCurveInput, ext: FieldSpec) -> PlaneCurveInput:
    def lift_poly(p: Poly, ring: PolyRing) -> Poly:
        return Poly(ring, {m: c.embed(ext) for m, c in p.terms.items()})

    fring = PolyRing(ext, curve.f.ring.variables)
    scheme = GroupScheme.from_json(curve.scheme.to_json(), ext)
    emb = scheme.map_entries(curve.embedding, lambda p: lift_poly(p, fring))
    return PlaneCurveInput(lift_poly(curve.f, fring), emb, scheme, curve.trusted_irreducible)


def _places(curve: PlaneCurveInput, precision: int) -> list[Branch]:
    f = curve.f
    field = f.ring.field
    trusted = curve.trusted_irreducible or not curve.irreducibility_checked
    prec_z = precision + 1

    gx = _chart(f, False)
    degree_form = [(i, c) for (i, j), c in gx.items() if not j]
    points = [(False, c0) for c0, _ in _newton_roots(degree_form, field, "")]
    if min(i for i, _ in degree_form):  # c divides the degree form: [1:0:0]
        points.insert(0, (False, field.zero()))
    if (f.total_degree(), 0) not in gx:  # no y^d: [0:1:0] lies on the curve
        points.append((True, field.zero()))
    # every expansion before any branch: an error from a later point is
    # raised before any validate_branch runs
    expansions = []
    for swap, c0 in points:
        pp = _pp_substitute(_chart(f, swap), 0, 1, c0, field.one())  # w -> c0 + w
        expansions += [(swap, c0, *found) for found in _np_expansions(pp, field, prec_z)]

    branches: list[Branch] = []
    for swap, c0, n, lam, terms, exact in expansions:
        pole = PuiseuxSeries.monomial(field, exp(-n), lam.inv())  # x = 1/z, z = lam t^n
        w_terms = [(exp(0), c0)] + [(exp(k), c) for k, c in terms]
        w_series = PuiseuxSeries(field, w_terms, None if exact else exp(n * prec_z))
        xs, ys = pole, w_series * pole
        if swap:
            xs, ys = ys, xs
        values = {"x": xs, "y": ys}
        entries = curve.scheme.map_entries(curve.embedding, lambda p: eval_poly_series(p, values, field))
        branch = validate_branch(curve.scheme, entries)
        branch.trusted_irreducible = trusted
        branch.curve_place = True
        if is_centered_at_infinity(branch):
            branches.append(branch)

    return _dedup_branches(branches)


def _dedup_branches(branches: list[Branch]) -> list[Branch]:
    """Drop duplicates, keeping the first branch of each tube class: a
    branch joins an earlier one when their parameterizations are identical
    or mu_correct finds them tube-equivalent.  _np_expansions gives one
    expansion per place, so no conjugate expansions reach here: a class of
    more than one branch comes from distinct places that the embedding
    identifies, or whose images are tube-equivalent, and the stabilizer
    depends only on the class."""
    def equivalent(a: Branch, b: Branch) -> bool:
        if b.element.entries == a.element.entries:
            return True
        try:
            return stabilizer.mu_correct(a, b) is not None
        except MustabError:
            return False

    out: list[Branch] = []
    for b in branches:
        if not any(equivalent(seen, b) for seen in out):
            out.append(b)
    return out

