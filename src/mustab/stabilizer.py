"""Tube equivalence, mu-reduction and the reparameterization stabilizer.

The common engine is a polynomial ansatz s = lam^r * t * (1 + sum c_i
t^{gamma_i}) whose coefficients live in k[lam, lami, c_1..c_m] with
lam * lami = 1.  Substituting the ansatz into a branch and multiplying by
a reference realization turns "the quotient is infinitesimal/integral"
into polynomial constraints on the parameters; solving or eliminating
those constraints yields tube certificates and the stabilizer family.
Every substitution, the ansatz's and a certificate's eps = a(s0) * b^-1,
reads the powers s^gamma from one series.SeriesPowers of s.

mu-reduction and the stabilizer read dim p only where
branches.certified_dim certifies it: a reduced branch is a certified
tube-equivalent truncation, and the stabilizer must reach its dim p.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from fractions import Fraction
from math import ceil

from .branches import Branch, certified_dim, is_centered_at_infinity, validate_branch
from .errors import (
    BudgetExceeded,
    IrrationalExponentInSubstitution,
    MustabError,
    NotCenteredAtInfinity,
    OrderBudgetTooSmall,
    PrecisionInsufficient,
    SelfCheckFailed,
    WildRamification,
)
from .exponents import EXP_ONE, EXP_ZERO, exp
from .groups import GroupElement, GroupScheme, mat_adjugate, with_det
from .ideals import Budgets, Ideal, eliminate, groebner_basis, krull_dim, reducer
from .poly import Poly, PolyRing
from .series import PuiseuxSeries, SeriesPowers
from .subgroups import _MEMO_SIZE, ParamFamily, SubgroupDesc, TubeCertificate, solve_point, verify_subgroup


class Ansatz:
    """Symbolic reparameterization of a against b, with polynomial coefficients.

    `quotient()` expands a(s) only as far as `_mu_conditions` reads the
    quotient a(s) * b^-1: its terms at exponents <= 0 and the sign of each
    entry's precision.  With a(s) known below P, each product term
    a(s)_ik * b^-1_kj is known below P + val(b^-1_kj), so P = 1 + max(0,
    -v) for the least valuation bound v over every coordinate of b^-1, y
    included, leaves every such product known beyond exponent 0; on the
    additive scheme the law is a sum and P = 1.  Any larger P gives the
    same terms at exponents <= 0 and the same precision signs, so the
    conditions are exact.

    The same P bounds the reach of s = lam^r t (1 + sum c_i t^gamma_i):
    c t^gamma first moves a(s) at t^(low + gamma), low the lowest exponent
    of a, y included, so the conditions read gamma = k/r only below P - low.
    The ansatz takes all of them, those up to `cap` if one is given; `cut`
    is the largest gamma the cap left out, else None.  Its ring and the
    powers of s come from the process-wide kernel of (field, r, N)."""

    def __init__(self, branch: Branch, b: GroupElement, cap: int | None = None):
        self.branch = branch
        self.r = branch.ramification
        self.b_inv = b.inv()
        self.prec = EXP_ONE
        if b.scheme.root.kind != "Additive":
            bounds = [v for v in map(PuiseuxSeries.val_bound, self.b_inv.flat()) if v is not None]
            self.prec += max([EXP_ZERO] + [-v for v in bounds])
        # one list of tail powers serves every coordinate substituted if it
        # reaches prec - low for the lowest exponent low of all, y included
        # (on GL, y = det^-1 can lie below every entry)
        self.low = min((f.terms[0][0] for f in branch.element.flat() if f.terms), default=EXP_ZERO)
        self.reach = reach = self.prec - self.low
        gammas = []
        while exp(gamma := Fraction(len(gammas) + 1, self.r)) < reach:
            gammas.append(gamma)
        self.gammas = tuple(g for g in gammas if cap is None or g <= cap)
        self.cut = gammas[-1] if len(self.gammas) < len(gammas) else None
        self.kernel, self.relation = _kernel(branch.field, self.r, len(self.gammas))
        self.ring = self.kernel.dom

    def quotient(self) -> GroupElement:
        """a(s) * b(t)^-1 over the ansatz ring, each coordinate of a
        substituted from the kernel's powers of s; b^-1 stays over the
        field, its scalars scaling the ring's coefficients."""
        a_s = self.branch.element.map(lambda f: self.kernel.subst(f, self.prec, self.reach))
        return a_s.mul(self.b_inv)


_KERNEL_ENTRIES = 512


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _kernel(field, r: int, n: int) -> tuple[SeriesPowers, Poly]:
    """What every Ansatz over one field, ramification r and n parameters
    shares: the powers of s = lam^r t (1 + sum c_i t^(i/r)) over the ring
    k[lam, lami, c_1..c_n], which keep the tail's powers and each s^e in
    a memo of at most _KERNEL_ENTRIES entries, and lam * lami - 1."""
    ring = PolyRing(field, ("lam", "lami") + tuple(f"c{i}" for i in range(1, n + 1)))
    lam, lami = ring.var("lam"), ring.var("lami")
    tail = PuiseuxSeries(ring, [(exp(Fraction(i, r)), ring.var(f"c{i}")) for i in range(1, n + 1)], None)
    return SeriesPowers(ring, EXP_ONE, tail, _lead_root(lam, lami, r), _KERNEL_ENTRIES), lam * lami - ring.one()


def _lead_root(lam, lami, r: int):
    """gamma -> lead^gamma for the lead lam^r of a reparameterization, where
    lami is the inverse of lam: symbols in the ansatz ring, or scalars."""

    def root(gamma: Fraction):
        e = gamma * r
        if e.denominator != 1:
            raise SelfCheckFailed(f"exponent {gamma} times the ansatz ramification {r} is not an integer")
        e = int(e)
        return lam**e if e >= 0 else lami ** (-e)

    return root


def _mu_conditions(e: GroupElement, require_identity_residue: bool):
    """Constraint polynomials from 'E is integral (and residues to the
    identity)'; returns (constraints, residues in coordinates() order)."""
    id_vals = e.scheme.identity()._values()
    constraints = []
    residue = []
    for name, s in zip(e.scheme.coordinates(), e.flat()):
        if s.precision is not None and s.precision.sign() <= 0:
            raise PrecisionInsufficient(f"entry {name} known only below t^({s.precision})")
        res_poly = None
        for ee, c in s.terms:
            sign = ee.sign()
            if sign < 0:
                constraints.append(c)
            elif sign == 0:
                res_poly = c
        if res_poly is None:
            res_poly = s.dom.zero()
        if require_identity_residue:
            idc = id_vals.get(name)
            if idc is not None:
                constraints.append(res_poly - s.dom.from_scalar(idc))
        residue.append(res_poly)
    return constraints, residue


def mu_correct(a: Branch, b: Branch) -> TubeCertificate | None:
    """Certificate that mu . a = mu . b (a reparameterization s and a
    correction eps in mu with a(s) = eps * b), or None when none is found.
    The ansatz for s reaches as far as the pair's mu-conditions read.
    Whether the solved s0 puts eps = a(s0) * b^-1 in mu is read off eps
    known below the quotient's precision, which decides every entry's terms
    at exponents <= 0 (see Ansatz); the certificate's eps, at the precision
    a plain substitution gives, is built when first read."""
    if a.scheme != b.scheme:
        return None
    # direct attempt without reparameterization
    try:
        eps = a.element.mul(b.element.inv())
        if eps.in_mu():
            t = PuiseuxSeries.monomial(a.field, exp(1), a.field.one())
            return TubeCertificate(t, eps)
    except PrecisionInsufficient:
        pass
    if any(s.has_irrational_exponent() for s in a.element.entries_flat()):
        return None  # a cannot go through substitution

    ansatz = Ansatz(a, b.element)
    try:
        constraints, _ = _mu_conditions(ansatz.quotient(), require_identity_residue=True)
    except PrecisionInsufficient as exc:
        raise BudgetExceeded(f"precision too low to decide equivalence: {exc}")
    # the condition where c_k first appears is linear in c_k (with a unit
    # coefficient when p does not divide the pole order), so the system is
    # triangular from lam up: lex with c_N > ... > c_1 > lami > lam lets
    # solve_point back-substitute from lam
    ring = PolyRing(ansatz.ring.field, ansatz.ring.variables[::-1])
    J = Ideal(ring, tuple(g.restrict(ring) for g in (*constraints, ansatz.relation)))
    sol = solve_point(J, defaults={"lam": a.field.one(), "lami": a.field.one()})
    if sol is None:
        return None
    # s0 = lam^r t (1 + sum c_i t^gamma_i) at the solved point
    lead = sol["lam"] ** ansatz.r
    tail = [(g, sol[f"c{i + 1}"]) for i, g in enumerate(ansatz.gammas)]
    terms = [(EXP_ONE, lead)] + [(EXP_ONE + exp(g), lead * c) for g, c in tail if not c.is_zero()]
    s0 = PuiseuxSeries(a.field, terms, None)
    powers = SeriesPowers.of(s0, _lead_root(sol["lam"], sol["lami"], ansatz.r))
    eps_low = a.element.map(lambda f: powers.subst(f, ansatz.prec, ansatz.reach)).mul(ansatz.b_inv)
    if not eps_low.in_mu():
        return None
    return TubeCertificate(s0, build=lambda: a.element.map(powers.subst).mul(ansatz.b_inv))


def _certify(a: Branch, b: Branch) -> TubeCertificate | None:
    """mu_correct(a, b), with a budget limit read as no certificate."""
    try:
        return mu_correct(a, b)
    except BudgetExceeded:
        return None


def mu_reduce(branch: Branch):
    """Best-effort minimal-dimension representative of the tube class.

    Enumerates truncations of positive-exponent tails (with a determinant
    repair for matrix schemes), keeps candidates whose dim p certified_dim
    decides and that mu_correct certifies tube-equivalent, and returns one
    minimizing (dim p, term count), the branch itself included when its
    own dim p is certified.  A branch whose dim p is open reports its
    reduction's as dim_before.  With no certified candidate more precision
    may help when an entry is truncated (PrecisionInsufficient); for exact
    entries the exponents have rational rank 2, where no bound meets
    (IrrationalExponentInSubstitution).
    """
    dim_before = certified_dim(branch)
    best = None
    if dim_before is not None:
        ident_cert = TubeCertificate(
            PuiseuxSeries.monomial(branch.field, exp(1), branch.field.one()),
            build=lambda: branch.scheme.identity().to_series(),
        )
        best = (dim_before, _term_count(branch.element.entries_flat()), branch, ident_cert)
    irrational = any(s.has_irrational_exponent() for s in branch.element.entries_flat())
    # an unbounded branch has type dimension >= 1, so a candidate cannot
    # beat (1, its term count)
    unbounded = is_centered_at_infinity(branch)

    def beaten(term_count: int) -> bool:
        return best is not None and unbounded and (1, term_count) >= (best[0], best[1])

    for cand in _truncation_candidates(branch, beaten):
        dim_cand = certified_dim(cand)
        if dim_cand is None:
            continue
        cert = _certify(branch, cand)
        if cert is None and irrational:
            # the original cannot go through substitution; certify from the
            # rational-exponent side instead
            cert = _certify(cand, branch)
        if cert is None:
            continue
        key = (dim_cand, _term_count(cand.element.entries_flat()))
        if best is None or key < (best[0], best[1]):
            best = (dim_cand, key[1], cand, cert)
    if best is None:
        if any(s.precision is not None for s in branch.element.entries_flat()):
            raise PrecisionInsufficient("no tube-equivalent cut of the branch has a certified dim p; raise precision")
        raise IrrationalExponentInSubstitution("dim p of exponents of rational rank 2 is not certified")
    dim_after, _, reduced, cert = best
    if dim_before is None:
        dim_before = dim_after
    notes = set(reduced.notes)
    if dim_after == 1:
        notes.add("reduction_certified_minimal")
    reduced = Branch(
        reduced.element, reduced.ramification, reduced.trusted_irreducible, tuple(sorted(notes)), reduced.curve_place
    )
    return reduced, cert, dim_before, dim_after


def _term_count(entries) -> int:
    return sum(len(s.terms) for s in entries)


def _truncation_candidates(branch: Branch, beaten: Callable[[int], bool] = lambda term_count: False) -> Iterator[Branch]:
    """Branches cut from this one, one at a time: one entry without its
    tail from a positive exponent on, and every entry without its positive
    part.  A cut entry, like every entry of the all-cut candidate, is
    exact: the dropped tail, known or not, is what mu_correct moves into
    eps.  The entries a candidate does not cut are kept as they were,
    truncated ones included, so a candidate can be inexact; candidates
    differ by their terms or their precision, so an exact cut is kept
    beside an inexact one with the same terms.  A cut whose term count
    `beaten` rejects, asked when the cut is reached, is neither validated
    nor yielded, and neither is a cut of an entry `_pinned_entries` pins,
    which would fail validation."""
    el = branch.element
    scheme = el.scheme
    r = scheme.root
    flat = el.entries_flat()
    pinned = _pinned_entries(scheme, flat)
    seen = set()

    def key(entries):
        return tuple((tuple(x.terms), x.precision) for x in entries)

    for idx, s in enumerate(flat):
        for cut_at, (e, _) in enumerate(s.terms):
            if e.sign() <= 0:
                continue
            truncated = PuiseuxSeries(s.dom, s.terms[:cut_at], None)
            new_flat = list(flat)
            new_flat[idx] = truncated
            k = key(new_flat)
            if k in seen:
                continue
            seen.add(k)
            if pinned[idx] or beaten(_term_count(new_flat)):
                continue
            cand = _try_candidate(scheme, new_flat, branch)
            if cand is not None:
                yield cand
    # all-entries truncation, with determinant repair on SL
    all_cut = [PuiseuxSeries(s.dom, [(e, c) for e, c in s.terms if e.sign() <= 0], None) for s in flat]
    if r.kind != "GL" and any(a.terms != b.terms for a, b in zip(all_cut, flat)):
        if r.kind == "SL":
            try:
                all_cut = scheme.flatten(with_det(scheme.shape(all_cut)[0]))
            except (MustabError, ValueError):
                return
        if key(all_cut) not in seen and not beaten(_term_count(all_cut)):
            cand = _try_candidate(scheme, all_cut, branch)
            if cand is not None:
                yield cand


def _pinned_entries(scheme: GroupScheme, flat) -> list[bool]:
    """Per entry, whether every cut of it leaves the group: on an exact
    point of SL(n), det = 1 is linear in each entry x_ij, so dropping a
    tail from x_ij leaves det = 1 - tail * C_ij, which is not 1 when the
    cofactor C_ij is nonzero.  Nothing is pinned elsewhere."""
    if scheme.root.kind != "SL" or any(s.precision is not None for s in flat):
        return [False] * len(flat)
    # the adjugate is the transposed matrix of cofactors
    n, adj = scheme.root.n, mat_adjugate(scheme.shape(flat)[0])
    return [not adj[j][i].is_zero() for i in range(n) for j in range(n)]


def _try_candidate(scheme: GroupScheme, flat, original: Branch) -> Branch | None:
    try:
        b = validate_branch(scheme, scheme.shape(flat)[0])
    except (MustabError, ValueError):
        return None
    return Branch(b.element, b.ramification, original.trusted_irreducible, original.notes)


def stab_reparam(branch: Branch, budgets: Budgets | None = None) -> SubgroupDesc:
    """Stabilizer via the reparameterization ansatz: integrality of
    a(s) a(t)^-1 carves the parameter variety; its residue family
    implicitizes to the subgroup ideal.  The stabilizer must reach the
    branch's certified dim p, as mu_reduce leaves it.  Short of it, it is
    OrderBudgetTooSmall if order_budget cut the ansatz; at its full reach
    no budget helps, so it is WildRamification in characteristic p (the
    answer needs exponents with p in the denominator) and SelfCheckFailed
    in characteristic 0."""
    budgets = budgets or Budgets()
    if not is_centered_at_infinity(branch):
        raise NotCenteredAtInfinity("stabilizer ansatz requires an unbounded branch")
    if any(s.has_irrational_exponent() for s in branch.element.entries_flat()):
        raise IrrationalExponentInSubstitution("run mu_reduce first: irrational exponents in the branch")

    ansatz = Ansatz(branch, branch.element, cap=budgets.order_budget)
    constraints, residue = _mu_conditions(ansatz.quotient(), require_identity_residue=False)
    J = groebner_basis(Ideal(ansatz.ring, tuple(constraints) + (ansatz.relation,)))

    nf = reducer(list(J.gens), ansatz.ring.order)
    residue = [nf(p) for p in residue]

    scheme = branch.scheme
    coords = scheme.coordinates()
    big = PolyRing(branch.field, ansatz.ring.variables + coords)
    lift = {v: v for v in ansatz.ring.variables}
    big_gens = [g.rename(lift, big) for g in J.gens]
    for name, rp in zip(coords, residue):
        big_gens.append(big.var(name) - rp.rename(lift, big))
    # the elimination ideal lives in scheme.coordinate_ring(), as its
    # reduced grevlex basis
    ideal_out = eliminate(Ideal(big, tuple(big_gens)), ansatz.ring.variables)
    dim = krull_dim(ideal_out) if ideal_out.gens else len(coords)

    param = ParamFamily(ansatz.ring, scheme.shape(residue)[0], J)
    # soundness: every generator of the ideal must vanish identically on the
    # residue family modulo the constraint relations
    family_values = dict(zip(coords, residue))
    for g in ideal_out.gens:
        composed = g.subs_polys({v: family_values[v] for v in coords}, ansatz.ring)
        if not nf(composed).is_zero():
            raise SelfCheckFailed(f"stabilizer generator {g} does not vanish on its own family")
    desc = SubgroupDesc(scheme, ideal_out, dim, param, {"algorithm": "reparam"})
    ok, report = verify_subgroup(desc)
    if not ok:
        raise SelfCheckFailed(f"the reparameterization ideal is not a subgroup: {report['witness']}")

    type_dim = certified_dim(branch)
    if type_dim is not None and dim < type_dim:
        short = f"stabilizer dimension {dim} below certified type dimension {type_dim}"
        if ansatz.cut is not None:
            raise OrderBudgetTooSmall(f"{short}; raise order_budget (now {budgets.order_budget}) to {ceil(ansatz.cut)}")
        if branch.field.char:
            raise WildRamification(f"{short} at full reach: it needs exponents with {branch.field.char} in the denominator")
        raise SelfCheckFailed(f"{short} at the full reach of the ansatz")
    desc.flags["type_dimension"] = type_dim
    return desc
