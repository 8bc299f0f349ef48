"""The stabilizer engine: tube certificates, reduction, both algorithms,
verification, solvability, conjugation, component splitting."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mustab.branches import Branch, _uniformizer, implicitize, validate_branch
from mustab.degeneration import flat_closure, identity_component, special_fiber, stab_degeneration
from mustab.errors import (
    BudgetExceeded,
    MustabError,
    NotCenteredAtInfinity,
    OrderBudgetTooSmall,
    PrecisionInsufficient,
    SelfCheckFailed,
    WildRamification,
)
from mustab.exponents import Exponent, exp
from mustab.factor import scalar_roots
from mustab.fields import QQ, FieldSpec
from mustab.groups import GroupScheme, KPoint
from mustab.ideals import Budgets, Ideal, eliminate, groebner_basis, ideal, ideal_equal, krull_dim, spoly_budget
from mustab.poly import Poly, PolyRing
from mustab.pipeline import compute_stabilizer
from mustab.series import PowerList, PuiseuxSeries, SeriesPowers
from mustab import degeneration, ideals, jobs, pipeline, stabilizer, subgroups
from mustab.corpus import corpus_entries
from mustab.jobs import parse_budgets, parse_plane_curve
from mustab.newton import places_at_infinity
from mustab.stabilizer import mu_correct, mu_reduce, stab_reparam
from mustab.subgroups import (
    SubgroupDesc,
    TubeCertificate,
    classify_subgroup,
    conjugate_stab,
    is_solvable,
    verify_subgroup,
)
from tests_helpers import direct_quotient, ideal_intersect, is_identity, lift_series, reference_inv, reference_ser_subst, param_kpoints, random_laurent_point, shear_product

F5 = FieldSpec("Fp", p=5)
F9 = FieldSpec("Fq", p=3, modulus=(1, 0, 1))
SL2 = GroupScheme("SL", 2, QQ)
ADD2 = GroupScheme("Additive", 2, QQ)
BUDGETS = Budgets(degree_bound=4)


def S(*terms, prec=None, dom=QQ):
    return PuiseuxSeries(dom, [(exp(e), dom.from_int(c)) for e, c in terms], None if prec is None else exp(prec))


def Z(dom=QQ):
    return PuiseuxSeries.zero(dom)


def x1_branch():
    return validate_branch(SL2, ((S((-1, 1)), S((0, 1))), (Z(), S((1, 1)))))


def x2_branch():
    return validate_branch(SL2, ((S((-1, 1)), Z()), (S((0, 1)), S((1, 1)))))


def irrational_pair_branch():
    r = Exponent(Fraction(0), Fraction(1), 2)
    second = PuiseuxSeries(QQ, [(exp(-1), QQ.one()), (r, QQ.one())], None)
    return validate_branch(ADD2, (S((-1, 1)), second))


# -- the ansatz's power list ----------------------------------------------------

def _gl2_y_below_entries():
    """GL(2) [[t^-1, 1], [0, t^3]], where y = det^-1 = t^-2 lies below every entry."""
    return validate_branch(GroupScheme("GL", 2, QQ), ((S((-1, 1)), S((0, 1))), (Z(), S((3, 1)))))


def _parabola_branch():
    return validate_branch(GroupScheme("Additive", 3, QQ), (S((-1, 1)), S((-1, 1)), S((-2, 1))))


@pytest.mark.parametrize("make", [_gl2_y_below_entries, x1_branch, _parabola_branch], ids=["GL2", "SL2", "additive"])
def test_ansatz_power_list_covers_every_coordinate(make):
    """At the precision quotient picks, the ansatz's substitution, from its
    kernel's one list of tail powers, gives every coordinate, y included,
    what the earlier per-entry ser_subst (reference_ser_subst) gives from a
    fresh list reaching that coordinate's lowest exponent: the same terms
    and the same precision."""
    branch = make()
    ansatz = stabilizer.Ansatz(branch, branch.element)
    prec = ansatz.prec
    for v in branch.element.flat():
        f = lift_series(ansatz.ring, v)
        fresh = PowerList(ansatz.kernel.w, prec - f.terms[0][0] if f.terms else None)
        want = reference_ser_subst(f, None, prec=prec, lead_root=ansatz.kernel.lead_root, parts=(exp(1), fresh))
        got = ansatz.kernel.subst(v, prec, ansatz.reach)
        assert (got.terms, got.precision) == (want.terms, want.precision)


def test_gl2_y_lies_below_every_entry():
    element = _gl2_y_below_entries().element
    assert element.y.val() < min(v.val() for v in element.entries_flat() if v.terms)


# -- the precision of the quotient ----------------------------------------------

def _reference_quotient(ansatz, b):
    """a(s) * b^-1 with a(s) expanded to pole * n + 2, for the largest pole
    of a's entries: a fixed precision that does not read b."""
    a = ansatz.branch
    leads = [s.terms[0][0] for s in a.element.entries_flat() if s.terms]
    pole = max([Fraction(0)] + [-e.as_fraction() for e in leads if e.sign() < 0 and e.is_rational()])
    prec = exp(pole * a.scheme.root.n + 2)
    return a.element.map(lambda f: ansatz.kernel.subst(f, prec, prec - ansatz.low)).mul(b.inv().map(lambda f: lift_series(ansatz.ring, f)))


def _conditions(quotient):
    """The constraints and residues of quotient() read both ways, or the
    precision error they stop at."""
    try:
        e = quotient()
        return [stabilizer._mu_conditions(e, flag) for flag in (False, True)]
    except PrecisionInsufficient:
        return PrecisionInsufficient


def _assert_quotient_keeps_the_conditions(a, bs):
    for b in bs:
        ansatz = stabilizer.Ansatz(a, b.element)
        got = _conditions(ansatz.quotient)
        assert got == _conditions(lambda: _reference_quotient(ansatz, b.element)), (a.element, b.element)


def _scalar(data, field):
    if field.order is None:
        return field.from_int(data.draw(st.integers(-3, 3)))
    return field.element(data.draw(st.integers(0, field.order - 1)))


def _series(data, field, low=-2, high=2, r=1):
    """Up to three terms at exponents k/r in [low, high], exact or known
    below a precision k/r in (low, high + 1]."""
    prec = data.draw(st.one_of(st.none(), st.integers(low * r + 1, (high + 1) * r)))
    terms = {}
    for _ in range(data.draw(st.integers(0, 3))):
        k = data.draw(st.integers(low * r, high * r))
        if prec is None or k < prec:
            terms[k] = _scalar(data, field)
    known = [(exp(Fraction(k, r)), c) for k, c in sorted(terms.items()) if not c.is_zero()]
    return PuiseuxSeries(field, known, None if prec is None else exp(Fraction(prec, r)))


def _lead(data, field, k):
    c = field.from_int(data.draw(st.sampled_from([1, 2])))
    return PuiseuxSeries.monomial(field, exp(-k), c)


def _sl2_point(data, field, r=1):
    u = _lead(data, field, data.draw(st.integers(1, 2)))
    f, g = _series(data, field, r=r), _series(data, field, r=r)
    one = PuiseuxSeries.one(f.dom)
    return validate_branch(GroupScheme("SL", 2, field), ((u, f), (g, (one + f * g) * u.inv())))


def _gl2_point(data, field, r=1):
    """[[c t^-1, f], [0, d t^3]] with val f >= -1: y = t^-2 / (c d)."""
    u = _lead(data, field, 1)
    v = _lead(data, field, -3)
    return validate_branch(GroupScheme("GL", 2, field), ((u, _series(data, field, low=-1, r=r)), (Z(u.dom), v)))


def _additive_point(data, field, r=1):
    first = _lead(data, field, data.draw(st.integers(1, 3))) + _series(data, field, low=-1, r=r)
    return validate_branch(GroupScheme("Additive", 2, field), (first, _series(data, field, low=-3, r=r)))


def _sl3_point(data, field):
    """[t^-2, f, g; 0, t^-1, 0; 0, h, t^3]: determinant 1 for every f, g, h."""
    z = Z(field)
    rows = (
        (PuiseuxSeries.monomial(field, exp(-2), field.one()), _series(data, field), _series(data, field)),
        (z, PuiseuxSeries.monomial(field, exp(-1), field.one()), z),
        (z, _series(data, field), PuiseuxSeries.monomial(field, exp(3), field.one())),
    )
    return validate_branch(GroupScheme("SL", 3, field), rows)


QUOTIENT_SHAPES = {"SL2": _sl2_point, "GL2": _gl2_point, "additive": _additive_point, "SL3": _sl3_point}


@pytest.mark.parametrize("shape", QUOTIENT_SHAPES)
@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["Q", "F5", "F9"])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_quotient_precision_keeps_the_mu_conditions(shape, field, data):
    """Expanding a(s) only to the precision read off b^-1 gives the same
    constraints and residues as a fixed larger precision, for a against
    itself and against each of its truncation candidates, and the same
    precision error where there is one."""
    a = QUOTIENT_SHAPES[shape](data, field)
    _assert_quotient_keeps_the_conditions(a, [a] + list(stabilizer._truncation_candidates(a)))


# -- the ansatz kernel -----------------------------------------------------------

def _outcome(compute):
    """compute()'s entries as (terms, precision), or the class of the
    MustabError it raises."""
    try:
        return [(f.terms, f.precision) for f in compute().flat()]
    except MustabError as exc:
        return type(exc)


def _certificate(a, b):
    try:
        cert = mu_correct(a, b)
    except MustabError as exc:
        return type(exc)
    return None if cert is None else cert.to_json()


KERNEL_SHAPES = {"SL2": _sl2_point, "GL2": _gl2_point, "additive": _additive_point}


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["Q", "F5", "F9"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_kernel_quotient_matches_the_direct_substitution(shape, field, data):
    """The quotient from the kernel's powers s^e equals the one that
    substitutes each entry by reference_ser_subst, on exact and truncated branches at
    ramification 1 to 3, against the branch itself or one of its
    truncation candidates, with or without a cap (which lets one kernel
    serve several precisions), on a first and a second call; mu_correct
    gives the same certificate either way.  Ramification 3 over F_9 raises
    WildRamification both ways."""
    a = KERNEL_SHAPES[shape](data, field, data.draw(st.integers(1, 3)))
    b = data.draw(st.sampled_from([a] + list(stabilizer._truncation_candidates(a))))
    cap = data.draw(st.sampled_from([None, 1, 2]))
    direct = _outcome(lambda: direct_quotient(stabilizer.Ansatz(a, b.element, cap=cap)))
    for _ in range(2):
        assert _outcome(lambda: stabilizer.Ansatz(a, b.element, cap=cap).quotient()) == direct
    certificate = _certificate(a, b)
    with mock.patch.object(stabilizer.Ansatz, "quotient", direct_quotient):
        assert _certificate(a, b) == certificate


def _in_mu(eps):
    """eps.in_mu(), or the class of the MustabError it raises."""
    try:
        return eps.in_mu()
    except MustabError as exc:
        return type(exc)


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["Q", "F5", "F9"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_mu_correct_decides_eps_below_t_and_builds_it_when_read(shape, field, data):
    """mu_correct(a, b), for b one of a's truncation candidates and a
    reparameterized to a(c t) (c = 1 included, so that most pairs need a
    solved s0), either way round, decides eps = a(s0) * b^-1 in mu on eps
    known below the quotient's precision: its verdict is the one on the
    eps a plain substitution of s0 gives.  A certificate's eps is that
    eps and prints as it.  Ramification divisible by the characteristic is
    left out: it raises before any s0."""
    a = KERNEL_SHAPES[shape](data, field, data.draw(st.sampled_from([r for r in (1, 2, 3) if r % 3 or field.char != 3])))
    b = data.draw(st.sampled_from(list(stabilizer._truncation_candidates(a)) or [a]))
    lam = field.element(data.draw(st.integers(1, field.order - 1))) if field.p else field.from_int(data.draw(st.sampled_from([1, 2, -1])))
    r = a.ramification
    s = PuiseuxSeries.monomial(field, exp(1), lam**r)
    a = Branch(a.element.map(SeriesPowers.of(s, stabilizer._lead_root(lam, lam.inv(), r)).subst), r)
    if data.draw(st.booleans()):
        a, b = b, a
    real_of = SeriesPowers.of
    solved = []  # the s0 mu_correct substitutes, with its lead roots

    def spy_of(s, lead_root=None):
        if lead_root is not None:
            solved.append((s, lead_root))
        return real_of(s, lead_root)

    with mock.patch.object(SeriesPowers, "of", spy_of):
        try:
            cert = mu_correct(a, b)
        except MustabError as exc:
            cert = type(exc)
    if not solved:
        return  # decided without a solved s0
    s0, lead_root = solved[-1]
    ansatz = stabilizer.Ansatz(a, b.element)
    low = a.element.map(lambda f: real_of(s0, lead_root).subst(f, ansatz.prec, ansatz.reach)).mul(ansatz.b_inv)
    full = a.element.map(real_of(s0, lead_root).subst).mul(ansatz.b_inv)
    assert _in_mu(low) == _in_mu(full)
    if _in_mu(full) is not True:
        assert cert is None or cert == _in_mu(full)
        return
    assert isinstance(cert, TubeCertificate) and cert.s == s0
    assert str(cert.eps) == str(full) and cert.eps == full


def _route(compute):
    """compute()'s (terms, precision), or the class of the MustabError it
    raises."""
    try:
        f = compute()
    except MustabError as exc:
        return type(exc)
    return f.terms, f.precision


@pytest.mark.parametrize("shape", KERNEL_SHAPES)
@pytest.mark.parametrize("field", [QQ, F5, F9], ids=["Q", "F5", "F9"])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_shared_powers_match_the_three_earlier_routes(shape, field, data):
    """On exact and truncated branches a at ramification r = 1 to 3, the
    shared powers give what the earlier routes gave: one SeriesPowers of
    s0 = lam^r t (1 + sum c_i t^(i/r)), as for a certificate's eps, gives
    every coordinate of a what reference_ser_subst gives it, and so does
    a fresh SeriesPowers of s0; the ansatz quotient equals direct_quotient; and each
    coordinate's inverse, exact or below t^2, equals reference_inv's.
    Ramification 3 over F_9 raises WildRamification on both sides."""
    r = data.draw(st.integers(1, 3))
    a = KERNEL_SHAPES[shape](data, field, r)
    lam = field.from_int(data.draw(st.sampled_from([1, 2])))
    lead = lam**r
    tail = [(exp(Fraction(i, r)), _scalar(data, field)) for i in range(1, 2 * r + 1)]
    s0 = PuiseuxSeries(field, [(exp(1), lead)] + [(exp(1) + g, lead * c) for g, c in tail], None)
    lead_root = stabilizer._lead_root(lam, lam.inv(), r)
    shared = SeriesPowers.of(s0, lead_root)
    for f in a.element.flat():
        want = _route(lambda: reference_ser_subst(f, s0, lead_root=lead_root))
        assert _route(lambda: shared.subst(f)) == want
        assert _route(lambda: SeriesPowers.of(s0, lead_root).subst(f)) == want
        if f.terms:
            for prec in (None, exp(2)):
                assert _route(lambda: f.inv(prec)) == _route(lambda: reference_inv(f, prec))
    ansatz = stabilizer.Ansatz(a, a.element)
    assert _outcome(ansatz.quotient) == _outcome(lambda: direct_quotient(ansatz))


def test_kernels_are_keyed_by_field_ramification_and_length():
    """One kernel per (field, r, N): F_5 and F_7 at the same (r, N) get
    rings over their own fields, and an equal FieldSpec finds the same
    kernel."""
    F7 = FieldSpec("Fp", p=7)
    k5, k7 = stabilizer._kernel(F5, 2, 3)[0], stabilizer._kernel(F7, 2, 3)[0]
    assert k5 is not k7 and (k5.dom.field, k7.dom.field) == (F5, F7)
    assert stabilizer._kernel(FieldSpec("Fp", p=5), 2, 3)[0] is k5
    assert stabilizer._kernel(F5, 1, 3)[0] is not k5 and stabilizer._kernel(F5, 2, 4)[0] is not k5
    branches = [validate_branch(GroupScheme("Additive", 2, F), (S((-1, 1), dom=F), S((-2, 1), dom=F))) for F in (F5, F7)]
    ansatze = [stabilizer.Ansatz(b, b.element) for b in branches]
    assert ansatze[0].kernel is not ansatze[1].kernel
    assert [x.quotient().flat()[0].dom.field for x in ansatze] == [F5, F7]


def test_one_kernel_serves_two_precisions():
    """x1 against itself (P = 2, low = -1) and [[t^-2, t^-1], [0, t^2]]
    against the identity (P = 1, low = -2) both reach 3, so they share a
    kernel; each reads s^-1 at its own precision, the lower one first."""
    stabilizer._kernel.cache_clear()
    a = x1_branch()
    b = validate_branch(SL2, ((S((-2, 1)), S((-1, 1))), (Z(), S((2, 1)))))
    first, second = stabilizer.Ansatz(a, a.element), stabilizer.Ansatz(b, SL2.identity().to_series())
    assert first.kernel is second.kernel and (first.prec, second.prec) == (exp(2), exp(1))
    for ansatz in (second, first, second):
        assert _outcome(ansatz.quotient) == _outcome(lambda: direct_quotient(ansatz))


def test_a_wild_expansion_raises_on_every_call_and_is_not_kept():
    """(t^-1, t^(-1/3)) over F_3: s^(-1/3) needs a cube root in
    characteristic 3.  Every quotient raises WildRamification, and the
    kernel keeps the tail's powers and s^-1, which later calls read from
    it, but no s^(-1/3)."""
    F3 = FieldSpec("Fp", p=3)
    second = PuiseuxSeries(F3, [(exp(Fraction(-1, 3)), F3.one())], None)
    a = validate_branch(GroupScheme("Additive", 2, F3), (S((-1, 1), dom=F3), second))
    stabilizer._kernel.cache_clear()
    for _ in range(2):
        ansatz = stabilizer.Ansatz(a, a.element)
        with pytest.raises(WildRamification):
            ansatz.quotient()
    reach = ansatz.prec - ansatz.low
    memo = ansatz.kernel._memo
    assert set(memo) == {reach, (ansatz.prec, exp(-1))}
    assert ansatz.kernel.power(exp(-1), ansatz.prec, reach) is memo[ansatz.prec, exp(-1)]


def _ram5_branch():
    """(t^-5, t^(-1/5)) on the additive plane, ramification 5."""
    second = PuiseuxSeries(QQ, [(exp(Fraction(-1, 5)), QQ.one())], None)
    return validate_branch(ADD2, (S((-5, 1)), second))


def test_ansatz_reaches_below_p_minus_low_at_any_ramification():
    """Against itself, the ram-5 branch has P = 1 and lowest exponent
    low = -5: the ansatz takes every k/5 below P - low = 6, k = 1..29, and
    a cap cuts that list without changing the reach."""
    a = _ram5_branch()
    ansatz = stabilizer.Ansatz(a, a.element)
    assert (ansatz.prec, ansatz.low) == (exp(1), exp(-5))
    assert ansatz.gammas == tuple(Fraction(k, 5) for k in range(1, 30))
    assert ansatz.cut is None
    capped = stabilizer.Ansatz(a, a.element, cap=4)
    assert capped.gammas == tuple(Fraction(k, 5) for k in range(1, 21))
    assert capped.cut == Fraction(29, 5)


def test_ansatz_of_a_ram5_branch_reaches_gamma_5():
    """Against itself, (t^-5, t^(-1/5)) takes the t^0 term of s^-5 from
    gamma = 5: the ansatz carries that parameter, c25, and the residue of
    the first coordinate reads it."""
    a = _ram5_branch()
    ansatz = stabilizer.Ansatz(a, a.element)
    assert ansatz.gammas[24] == Fraction(5)
    _, residue = stabilizer._mu_conditions(ansatz.quotient(), require_identity_residue=False)
    assert "c25" in residue[0].variables_used()


def _sl2_irrational_tail():
    r = Exponent(Fraction(0), Fraction(1), 2)
    return validate_branch(SL2, ((S((-1, 1)), PuiseuxSeries(QQ, [(exp(0), QQ.one()), (r, QQ.one())], None)), (Z(), S((1, 1)))))


@pytest.mark.parametrize("make", [_sl2_irrational_tail, irrational_pair_branch], ids=["SL2", "additive"])
def test_quotient_precision_against_an_irrational_branch(make):
    """mu_reduce certifies a rational candidate a against a branch b with
    irrational exponents as mu_correct(a, b): the quotient by that b keeps
    the conditions too."""
    b = make()
    candidates = [a for a in stabilizer._truncation_candidates(b) if not any(s.has_irrational_exponent() for s in a.element.entries_flat())]
    assert candidates
    for a in candidates:
        _assert_quotient_keeps_the_conditions(a, [b])


def test_quotient_precision_below_an_irrational_pole():
    """b^-1 with a pole at t^(-sqrt 2) sets an irrational precision."""
    r = Exponent(Fraction(0), Fraction(-1), 2)
    b = validate_branch(SL2, ((S((-1, 1)), PuiseuxSeries(QQ, [(r, QQ.one())], None)), (Z(), S((1, 1)))))
    a = x1_branch()
    assert not stabilizer.Ansatz(a, b.element).prec.is_rational()
    _assert_quotient_keeps_the_conditions(a, [b])


# -- mu_correct ---------------------------------------------------------------

def test_mu_correct_reflexive():
    a = x1_branch()
    cert = mu_correct(a, a)
    assert isinstance(cert, TubeCertificate)
    assert cert.s == S((1, 1))
    assert is_identity(cert.eps.res())


def test_mu_correct_irrational_correction():
    a = irrational_pair_branch()
    b = validate_branch(ADD2, (S((-1, 1)), S((-1, 1))))
    cert = mu_correct(a, b)
    assert isinstance(cert, TubeCertificate)
    assert cert.s == S((1, 1))
    eps = cert.eps
    assert eps.entries[0].is_zero()
    assert str(eps.entries[1]) == "t^(sqrt(2))"


def test_mu_correct_distinct_tubes_fail():
    assert mu_correct(x1_branch(), x2_branch()) is None


def test_mu_correct_with_unit_reparameterization():
    # same place, parameter scaled by 3: certifiably equivalent
    a = x2_branch()
    b = validate_branch(SL2, ((S((-1, 3)), Z()), (S((0, 1)), S((1, 1)).scale(QQ.from_int(3).inv()))))
    cert = mu_correct(a, b)
    assert isinstance(cert, TubeCertificate)


def test_mu_correct_reaches_the_order_the_pair_needs():
    """(t^-1, t^-7) and (t^-1, t^-7 - 7) are one tube over s = t + t^8:
    s^-7 = t^-7 - 7 + O(t^7).  The pair reads gamma up to 7, beyond any
    fixed order below it."""
    a = validate_branch(ADD2, (S((-1, 1)), S((-7, 1))))
    b = validate_branch(ADD2, (S((-1, 1)), S((-7, 1), (0, -7))))
    cert = mu_correct(a, b)
    assert isinstance(cert, TubeCertificate)
    assert cert.s == S((1, 1), (8, 1))
    assert cert.eps.in_mu()


# -- mu_reduce ----------------------------------------------------------------

def test_mu_reduce_irrational_pair():
    reduced, cert, dim_before, dim_after = mu_reduce(irrational_pair_branch())
    assert (dim_before, dim_after) == (2, 1)
    assert str(reduced.element) == "(t^(-1), t^(-1))"
    assert isinstance(cert, TubeCertificate)
    assert cert.eps.in_mu()


def test_mu_reduce_already_minimal():
    reduced, _, dim_before, dim_after = mu_reduce(x1_branch())
    assert dim_before == dim_after == 1
    assert reduced.element.entries == x1_branch().element.entries


def test_mu_reduce_strips_positive_tail():
    a = validate_branch(SL2, ((S((-1, 1)), S((0, 1), (2, 1))), (Z(), S((1, 1)))))
    reduced, cert, _, dim_after = mu_reduce(a)
    assert str(reduced.element) == "[t^(-1), 1; 0, t]"
    assert isinstance(cert, TubeCertificate)
    eps = cert.eps
    assert eps.in_mu()
    assert str(eps.entries[0][1]) == "t"  # the correction [[1, t], [0, 1]]


def test_truncation_candidates_keep_an_exact_cut_with_the_terms_of_an_inexact_one():
    """Over F_3, cutting t^2 off the first entry of (t^-3 + 2t^-2 + t^2 +
    O(t^3), -t^-2 + O(t^3)) leaves the terms of the exact all-cut (t^-3 +
    2t^-2, -t^-2), but not its precision: both are candidates."""
    F3 = FieldSpec("Fp", p=3)
    add2 = GroupScheme("Additive", 2, F3)
    a = PuiseuxSeries(F3, [(exp(-3), F3.one()), (exp(-2), F3.from_int(2)), (exp(2), F3.one())], exp(3))
    b = PuiseuxSeries(F3, [(exp(-2), -F3.one())], exp(3))
    cuts = [tuple(c.element.flat()) for c in stabilizer._truncation_candidates(validate_branch(add2, (a, b)))]
    polar = PuiseuxSeries(F3, a.terms[:2], None)
    assert (polar, b) in cuts
    assert (polar, PuiseuxSeries(F3, b.terms, None)) in cuts


@pytest.mark.parametrize("n", [2, 3])
def test_pinned_cuts_of_an_exact_sl_branch_are_the_ones_validation_rejects(n, monkeypatch):
    """On an exact SL(n) branch, dropping a tail from an entry whose
    cofactor is nonzero leaves det = 1 - tail * cofactor, not 1: skipping
    those cuts yields the candidates of the unpinned enumeration while
    validating fewer cuts.  An inexact branch pins nothing."""
    rng = random.Random(f"pinned cuts of SL({n})")
    scheme = GroupScheme("SL", n, QQ)
    tried = []
    original = stabilizer._try_candidate
    monkeypatch.setattr(stabilizer, "_try_candidate", lambda *args: tried.append(args) or original(*args))
    fewer = 0
    for k in range(16):
        branch = shear_product(scheme, rng, most=4) if k % 2 else validate_branch(scheme, random_laurent_point(scheme, rng).entries)
        got = [(c.element, c.ramification, c.notes) for c in stabilizer._truncation_candidates(branch)]
        pinned_tries = len(tried)
        tried.clear()
        with monkeypatch.context() as m:
            m.setattr(stabilizer, "_pinned_entries", lambda scheme, flat: [False] * len(flat))
            want = [(c.element, c.ramification, c.notes) for c in stabilizer._truncation_candidates(branch)]
        assert got == want
        fewer += pinned_tries < len(tried)
        tried.clear()
    assert fewer
    inexact = [s.truncate(exp(5)) for s in branch.element.entries_flat()]
    assert stabilizer._pinned_entries(scheme, inexact) == [False] * n * n


def _truncated_tail_branch():
    """SL(2) [[1/t, 0], [1 + t + ... + t^29 + O(t^30), t]]: 30 candidates."""
    tail = S(*[(k, 1) for k in range(30)], prec=30)
    return [validate_branch(SL2, ((S((-1, 1)), Z()), (tail, S((1, 1)))))]


def _circle_f5_places():
    job = next(e["job"] for e in corpus_entries() if e["job"]["name"] == "circle_f5")
    budgets, _ = parse_budgets(job["budgets"])
    scheme = GroupScheme("Additive", 2, F5)
    curve = parse_plane_curve(job["input"]["plane_curve"], scheme)
    return places_at_infinity(curve, budgets.precision)


@pytest.mark.parametrize("places", [_truncated_tail_branch, _circle_f5_places], ids=["x2_truncated_tail", "circle_f5"])
def test_mu_reduce_pruning_keeps_the_result(places, monkeypatch):
    """Skipping the candidates that cannot beat (1, their term count)
    changes no output of mu_reduce, only the number of candidates tried."""
    inputs = places()
    calls = []
    original = stabilizer.mu_correct

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(stabilizer, "mu_correct", counted)
    for branch in inputs:
        pruned = mu_reduce(branch)
        n_pruned = len(calls)
        # the bound applies to unbounded branches only: call them bounded
        with monkeypatch.context() as m:
            m.setattr(stabilizer, "is_centered_at_infinity", lambda b: False)
            full = mu_reduce(branch)
        n_full = len(calls) - n_pruned
        calls.clear()
        (red_p, cert_p, *dims_p), (red_f, cert_f, *dims_f) = pruned, full
        assert red_p.element == red_f.element and red_p.notes == red_f.notes
        assert red_p.ramification == red_f.ramification
        assert (cert_p.s, cert_p.eps) == (cert_f.s, cert_f.eps)
        assert dims_p == dims_f
        assert n_pruned < n_full


# -- stab_reparam ---------------------------------------------------------------

def test_stab_reparam_x1_unipotent():
    desc = stab_reparam(x1_branch(), BUDGETS)
    assert ideal_equal(desc.ideal, ideal(desc.ideal.ring, "x11 - 1", "x21", "x22 - 1"))
    assert desc.dim == 1
    assert desc.flags["verified_subgroup"]
    assert desc.classification() == "upper unipotent"


def test_stab_reparam_x2_torus():
    desc = stab_reparam(x2_branch(), BUDGETS)
    assert ideal_equal(desc.ideal, ideal(desc.ideal.ring, "x12", "x21", "x11*x22 - 1"))
    assert desc.dim == 1
    assert desc.classification() == "diagonal torus"


def test_stab_reparam_cusp():
    b = validate_branch(ADD2, (S((-2, 1)), S((-3, 1))))
    desc = stab_reparam(b, BUDGETS)
    assert ideal_equal(desc.ideal, ideal(desc.ideal.ring, "x"))
    assert desc.dim == 1


def test_stab_reparam_cusp_order_by_order_oracle():
    # oracle: s = t(1 + c3 t^3) by hand forces the residue family (0, -3 c3)
    # s enters as its powers, the way the ansatz substitutes: lead 1 * t^1
    # and the powers of the tail w = c3 t^3, reaching 2 + 3 for x^-3
    ring = PolyRing(QQ, ("c3",))
    c3 = ring.var("c3")
    s = SeriesPowers(ring, exp(1), PuiseuxSeries.monomial(ring, exp(3), c3), lambda gamma: ring.one())

    x_of_s = s.subst(PuiseuxSeries.monomial(ring, exp(-2), ring.one()), exp(2), exp(5))
    y_of_s = s.subst(PuiseuxSeries.monomial(ring, exp(-3), ring.one()), exp(2), exp(5))
    ex = x_of_s - PuiseuxSeries.monomial(ring, exp(-2), ring.one())
    ey = y_of_s - PuiseuxSeries.monomial(ring, exp(-3), ring.one())
    for e, c in list(ex.terms) + list(ey.terms):
        if e.sign() < 0:
            assert c.is_zero() or c == ring.zero() or str(c) in ("0",) or c.total_degree() > 0
    assert str(ex.coefficient(exp(0))) == "0"
    assert str(ey.coefficient(exp(0))) == "-3*c3"


def test_stab_reparam_requires_centered():
    one_plus_t = S((0, 1), (1, 1))
    bounded = validate_branch(SL2, ((one_plus_t, Z()), (Z(), one_plus_t.inv(prec=exp(10)))))
    with pytest.raises(NotCenteredAtInfinity):
        stab_reparam(bounded, BUDGETS)


def test_shortfall_below_a_certified_dimension_is_a_budget_limit():
    """y^2 = x^7: dim p is certified 1, and order_budget 6 finds no
    stabilizer of that dimension."""
    curve = parse_plane_curve({"f": "y^2 - x^7", "embedding": ["x", "y"]}, ADD2)
    (place,) = places_at_infinity(curve, 12)
    with pytest.raises(OrderBudgetTooSmall, match="below certified type dimension 1; raise order_budget"):
        stab_reparam(place, Budgets(precision=12, degree_bound=6, order_budget=6))


# -- stab_degeneration ------------------------------------------------------------

def test_degeneration_x1():
    b = x1_branch()
    out = stab_degeneration(b)
    assert ideal_equal(out.desc.ideal, ideal(out.desc.ideal.ring, "x11 - 1", "x21", "x22 - 1"))
    assert not out.desc.cosets
    assert out.desc.flags["decomposition_complete"]
    # fiber ideal contains the translated-relation residues seen by hand
    fiber = out.fiber
    assert ideal_equal(fiber, ideal(fiber.ring, "x11 - 1", "x21", "x22 - 1"))


def test_degeneration_x2():
    b = x2_branch()
    out = stab_degeneration(b)
    assert ideal_equal(out.fiber, ideal(out.fiber.ring, "x12", "x21", "x11*x22 - 1"))


def test_degeneration_agrees_with_reparam_on_cusp():
    b = validate_branch(ADD2, (S((-2, 1)), S((-3, 1))))
    out = stab_degeneration(b)
    rp = stab_reparam(b, BUDGETS)
    assert ideal_equal(out.desc.ideal, rp.ideal)


def test_degeneration_closure_vanishes_on_the_translate():
    # the flat closure is an ideal of k[u][X] that vanishes on V . a(t)^-1
    # at u = t^(1/N): at the identity, at a lifted point, not off it
    from mustab.degeneration import verify_flat_closure_at
    from mustab.pipeline import lift_residue_point

    run = compute_stabilizer(x1_branch(), "both", BUDGETS)
    deg = run.degeneration
    assert deg.closure.ring.variables == ("_u",) + SL2.coordinates()
    assert deg.u_exponent == exp(1)
    assert verify_flat_closure_at(deg, SL2.identity().to_series())
    h = KPoint(SL2, ((QQ.one(), QQ.from_int(3)), (QQ.zero(), QQ.one())))
    lifted = lift_residue_point(run, h)
    assert lifted is not None and lifted.res() == h
    assert verify_flat_closure_at(deg, lifted)
    off = KPoint(SL2, ((QQ.from_int(2), QQ.zero()), (QQ.zero(), QQ.from_fraction(Fraction(1, 2)))))
    assert not verify_flat_closure_at(deg, off.to_series())
    # the lift reads only the reduced branch, so a degeneration-only run
    # lifts h as well
    alone = compute_stabilizer(x1_branch(), "degeneration", BUDGETS)
    lifted = lift_residue_point(alone, h)
    assert lifted is not None and lifted.res() == h
    assert verify_flat_closure_at(alone.degeneration, lifted)


def test_degeneration_needs_exact_entries():
    from mustab.errors import PrecisionInsufficient

    b = validate_branch(ADD2, (S((-2, 1)), S((-3, 1), (1, 1), prec=4)))
    with pytest.raises(PrecisionInsufficient):
        stab_degeneration(b)


def su_first_closure(branch: Branch, V: Ideal) -> Ideal:
    """The flat closure as the saturation with s and u the first two
    variables, ("_s", "_u") + coords: s eliminated from the pulled-back
    generators with their poles cleared and u-content divided out, the
    scheme equations and s*u - 1.  The result lies in ("_u",) + coords."""
    scheme = branch.scheme
    _, laurent = _uniformizer(branch.element.flat())
    coords = scheme.coordinates()
    ring = PolyRing(scheme.field, ("_s", "_u") + coords)
    zeros = (0,) * len(coords)
    a = []
    for terms in laurent:
        p = ring.zero()
        for k, c in terms:
            p = p + ring.monomial((max(-k, 0), max(k, 0)) + zeros, c)
        a.append(p)
    values = dict(zip(coords, scheme.mul_values(tuple(ring.var(x) for x in coords), tuple(a))))
    gens = []
    for g in V.gens:
        p = g.subs_polys(values, ring)
        top = max(m[0] for m in p.terms)
        cleared = ring.zero()
        for (k, j, *rest), c in p.terms.items():
            cleared = cleared + ring.monomial((0, top - k + j, *rest), c)
        low = min(m[1] for m in cleared.terms)
        gens.append(Poly(ring, {(0, j - low, *rest): c for (_, j, *rest), c in cleared.terms.items()}))
    gens += scheme.defining_polys(ring)
    gens.append(ring.var("_s") * ring.var("_u") - ring.one())
    return eliminate(Ideal(ring, tuple(gens)), ("_s",))


def u_zero_fiber(closure: Ideal, scheme: GroupScheme) -> Ideal:
    """The reduced basis of the closure's generators at u, the first
    variable, = 0."""
    ring = scheme.coordinate_ring()
    gens = [Poly(ring, {m[1:]: c for m, c in g.terms.items() if not m[0]}) for g in closure.gens]
    return groebner_basis(Ideal(ring, tuple(gens)))


def _additive_plane_branch(field, rng):
    g = random_laurent_point(GroupScheme("Additive", 2, field), rng)
    return validate_branch(g.scheme, g.entries)


CLOSURE_FAMILIES = {
    # name -> branch from (field, rng)
    "sl2": lambda field, rng: shear_product(GroupScheme("SL", 2, field), rng, 2),
    "gl2": lambda field, rng: shear_product(GroupScheme("GL", 2, field), rng, 2),
    "additive_plane": _additive_plane_branch,
    "sl3": lambda field, rng: shear_product(GroupScheme("SL", 3, field), rng, 2),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(CLOSURE_FAMILIES)), st.sampled_from([QQ, F5]), st.integers(0, 2**32))
def test_flat_closure_with_u_last_has_the_fiber_of_the_su_first_saturation(family, field, seed):
    """The saturation with u the last grevlex variable, and the principal
    closures that skip it, give the fiber the saturation in
    ("_s", "_u") + coords gives; a principal closure is that saturation's
    very basis.  The u-content of the pulled-back generators changes no
    saturation, and on the additive plane it is always 1, so it is checked
    on the generators themselves (on GL(2) most branches have some)."""
    branch = CLOSURE_FAMILIES[family](field, random.Random(seed))
    V = implicitize(branch)
    cleared = []
    real = degeneration._clear_poles
    degeneration._clear_poles = lambda p: cleared.append(real(p)) or cleared[-1]
    try:
        closure, _ = flat_closure(branch)
    finally:
        degeneration._clear_poles = real
    # every pulled-back generator is free of s, with its u-content divided out
    assert all(not any(m[0] for m in g.terms) and min(m[-1] for m in g.terms) == 0 for g in cleared)
    reference = su_first_closure(branch, V)
    assert closure.ring == reference.ring
    assert special_fiber(closure, branch.scheme).gens == u_zero_fiber(reference, branch.scheme).gens
    if len(V.gens) == 1 and family == "additive_plane":
        assert closure.gens == reference.gens


# -- identity_component ---------------------------------------------------------

def test_identity_component_irreducible():
    ring = SL2.coordinate_ring()
    fiber = ideal(ring, "x11 - 1", "x21", "x22 - 1")
    comp, cosets, complete = identity_component(fiber, SL2)
    assert ideal_equal(comp, fiber)
    assert not cosets and complete


def test_identity_component_split_roots_of_unity():
    ring = SL2.coordinate_ring()
    fiber = ideal(ring, "x21", "(x11 - 1)*(x11 + 1)", "x11*x22 - 1")
    comp, cosets, complete = identity_component(fiber, SL2)
    assert ideal_equal(comp, ideal(ring, "x21", "x11 - 1", "x22 - 1"))
    assert len(cosets) == 1 and complete
    assert ideal_equal(cosets[0], ideal(ring, "x21", "x11 + 1", "x22 + 1"))
    assert krull_dim(comp) == krull_dim(cosets[0]) == 1


def test_identity_component_leaves_an_unfactored_generator_incomplete():
    """x^5 + x^3 + x splits into x and x^4 + x^2 + 1, which uni_factor
    leaves unfactored over Q: the identity's piece is <x>, the other piece
    is kept whole, and the split is not complete."""
    scheme = GroupScheme("Additive", 1, QQ)
    ring = scheme.coordinate_ring()
    comp, cosets, complete = identity_component(ideal(ring, "x^5 + x^3 + x"), scheme)
    assert ideal_equal(comp, ideal(ring, "x"))
    assert len(cosets) == 1 and ideal_equal(cosets[0], ideal(ring, "x^4 + x^2 + 1"))
    assert not complete


def test_identity_component_torus_union_translate():
    # synthetic fixture: diagonal torus union its Weyl translate, from an
    # honest ideal intersection
    ring = SL2.coordinate_ring()
    torus = ideal(ring, "x12", "x21", "x11*x22 - 1")
    w_translate = ideal(ring, "x11", "x22", "x12*x21 + 1")
    union = ideal_intersect(torus, w_translate)
    comp, cosets, complete = identity_component(union, SL2)
    assert ideal_equal(comp, torus)
    assert len(cosets) == 1
    assert ideal_equal(cosets[0], w_translate)
    assert krull_dim(comp) == krull_dim(cosets[0])


@pytest.mark.parametrize("gens, pieces", [
    # the torus is split off inside the Borel subgroup
    (("x12*x21", "x21*(x11 - 1)"), [("x21", "x11*x22 - 1"), ("x12", "x11 - 1", "x22 - 1")]),
    # the torus is split off twice, once beside each unipotent subgroup
    (
        ("x12*x21", "x12*(x22 - 1)", "x21*(x22 - 1)"),
        [("x12", "x21", "x11*x22 - 1"), ("x21", "x11 - 1", "x22 - 1"), ("x12", "x11 - 1", "x22 - 1")],
    ),
])
def test_identity_component_drops_contained_and_repeated_pieces(gens, pieces):
    ring = SL2.coordinate_ring()
    fiber = ideal(ring, *gens, "x11*x22 - x12*x21 - 1")
    comp, cosets, _ = identity_component(fiber, SL2)
    kept = [comp, *cosets]
    assert len(kept) == len(pieces)
    for want in pieces:
        assert sum(ideal_equal(I, ideal(ring, *want)) for I in kept) == 1


# -- verify_subgroup ---------------------------------------------------------------

def test_verify_subgroup_templates():
    ring = SL2.coordinate_ring()
    unipotent = SubgroupDesc(SL2, ideal(ring, "x11 - 1", "x21", "x22 - 1"), 1)
    torus = SubgroupDesc(SL2, ideal(ring, "x12", "x21", "x11*x22 - 1"), 1)
    assert verify_subgroup(unipotent)[0]
    assert verify_subgroup(torus)[0]
    coset = SubgroupDesc(SL2, ideal(ring, "x11 - 2", "x21", "x12", "2*x22 - 1"), 0)
    ok, report = verify_subgroup(coset)
    assert not ok and "identity" in report["witness"]


def test_verify_subgroup_borel():
    ring = SL2.coordinate_ring()
    borel = SubgroupDesc(SL2, ideal(ring, "x21"), 2)
    assert verify_subgroup(borel)[0]


def _counting(monkeypatch, module, name):
    """The list that collects the calls of module.name from now on."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_verifying_an_equal_ideal_again_runs_no_buchberger(monkeypatch):
    """An ideal equal to one verified before, from a fresh scheme, is
    answered from the memo: no generic pair, no Buchberger, and the flag is
    still set on the new descriptor."""
    gens = ("x11 - x22", "x12 + x21")
    assert verify_subgroup(SubgroupDesc(SL2, ideal(SL2.coordinate_ring(), *gens), 1))[0]
    pairs = _counting(monkeypatch, subgroups, "_generic_pair")
    runs = _counting(monkeypatch, ideals, "buchberger")
    scheme = GroupScheme("SL", 2, QQ)
    H = SubgroupDesc(scheme, ideal(scheme.coordinate_ring(), *gens), 1)
    assert verify_subgroup(H) == (True, {"identity": True, "product": True, "inverse": True})
    assert H.flags["verified_subgroup"] is True
    assert not pairs and not runs


def test_changing_a_report_leaves_the_next_answer():
    ring = SL2.coordinate_ring()
    H = SubgroupDesc(SL2, ideal(ring, "x11 - 1", "x21", "x22 - 1"), 1)
    ok, report = verify_subgroup(H)
    want = dict(report)
    report["product"] = False
    report["witness"] = "changed by the caller"
    assert verify_subgroup(H) == (ok, want)


def test_a_failing_ideal_fails_again_with_its_witness():
    """Symmetric matrices of SL(2) are closed under inverse, not product."""
    ring = SL2.coordinate_ring()
    answers = []
    for _ in range(2):
        H = SubgroupDesc(SL2, ideal(ring, "x12 - x21"), 2)
        answers.append(verify_subgroup(H))
        assert H.flags["verified_subgroup"] is False
    assert answers[0] == answers[1]
    assert answers[0] == (False, {"identity": True, "product": False, "inverse": False, "witness": "product leaves the ideal at x12 - x21"})


def test_a_budget_error_is_raised_again(monkeypatch):
    """A verification over its S-polynomial budget is not kept: the second
    call builds the generic pair again and raises again."""
    pairs = _counting(monkeypatch, subgroups, "_generic_pair")
    H = SubgroupDesc(SL2, ideal(SL2.coordinate_ring(), "x12*x21", "x11^2 - x22^2"), 1)
    for n in (1, 2):
        with pytest.raises(BudgetExceeded), spoly_budget(1):
            verify_subgroup(H)
        assert len(pairs) == n
    assert "verified_subgroup" not in H.flags


def test_every_basis_runs_under_the_cap_of_its_block():
    """krull_dim, conjugate_stab and classify_subgroup build their bases
    under the cap of the enclosing `spoly_budget` block, also after an
    answer under the default cap; after the block, raised out of or left,
    the cap is the default again."""
    ring = SL2.coordinate_ring()
    gens = ("x11^2 + x12*x21", "x12^2 + x11*x21", "x21^2 + x11*x12")
    for call in (
        lambda: krull_dim(ideal(ring, *gens)),
        lambda: conjugate_stab(SubgroupDesc(SL2, ideal(ring, *gens), 1), SL2.identity()),
        lambda: classify_subgroup(SubgroupDesc(SL2, ideal(ring, *gens), 1)),
    ):
        for _ in range(2):
            with pytest.raises(BudgetExceeded), spoly_budget(1):
                call()
            assert ideals.current_spoly_budget() == ideals.DEFAULT_SPOLY_BUDGET
            call()
    with spoly_budget(3):
        with spoly_budget(1):
            assert ideals.current_spoly_budget() == 1
        assert ideals.current_spoly_budget() == 3
    assert ideals.current_spoly_budget() == ideals.DEFAULT_SPOLY_BUDGET


def test_classification_reads_the_dimension():
    ring = SL2.coordinate_ring()
    I = ideal(ring, "x21", "x11 - x22")
    names = [classify_subgroup(SubgroupDesc(SL2, I, dim)) for dim in (1, 2, 1)]
    assert names == [
        "Borel-contained subgroup of dimension 1",
        "Borel-contained subgroup of dimension 2",
        "Borel-contained subgroup of dimension 1",
    ]


# -- is_solvable -------------------------------------------------------------------

def test_solvable_abelian_cases():
    ring = SL2.coordinate_ring()
    unipotent = SubgroupDesc(SL2, ideal(ring, "x11 - 1", "x21", "x22 - 1"), 1)
    torus = SubgroupDesc(SL2, ideal(ring, "x12", "x21", "x11*x22 - 1"), 1)
    assert is_solvable(unipotent).value is True
    assert is_solvable(torus).value is True


def test_solvable_borel_two_steps():
    """The Borel's Lie algebra span(h, e) has derived series 2 -> 1 -> 0,
    and the group lies in the upper triangular Borel of the identity
    frame."""
    ring = SL2.coordinate_ring()
    borel = SubgroupDesc(SL2, ideal(ring, "x21"), 2)
    out = is_solvable(borel)
    assert (out.value, out.note) == (True, "contained in a Borel subgroup")


def test_solvable_mu5_semidirect_ga_in_the_frame_of_its_branch():
    """The stabilizer of the SL(3) branch [1, 0, 1; 0, t^-3, 0; 2t^-2,
    t^-1, 2t^-2 + t^3], mu_5 x| G_a: diag(1, a, 1/a) with a^5 = 1 and x31
    free.  It is not abelian and its Lie algebra span(E31) is; the group
    is lower triangular, so the identity frame leaves it open, and the
    frame res(u) of the branch's Iwasawa decomposition, read off the
    branch, puts it in its Borel subgroup."""
    scheme = GroupScheme("SL", 3, QQ)
    ring = scheme.coordinate_ring()
    gens = ("x32", "x23", "x21", "x13", "x12", "x11 - 1", "x22*x33 - 1", "x33^3 - x22^2", "x22^3 - x33^2")
    H = SubgroupDesc(scheme, ideal(ring, *gens), 1)
    o, z = QQ.one(), QQ.zero()
    frame = KPoint(scheme, ((z, z, -o), (z, o, z), (o, z, z)))
    out = is_solvable(H, lambda: frame)
    assert (out.value, out.note) == (True, "contained in a Borel subgroup")
    out = is_solvable(H)
    assert out.value is None and "Borel" in out.note


def test_solvable_calls_the_frame_only_past_the_lie_algebra():
    """The frame is read only when the Lie algebra leaves the question open:
    not on an abelian group, not on a non-solvable one."""
    def frame():
        raise AssertionError("frame called")

    ring = SL2.coordinate_ring()
    torus = SubgroupDesc(SL2, ideal(ring, "x12", "x21", "x11*x22 - 1"), 1)
    full = SubgroupDesc(SL2, ideal(ring, "x11*x22 - x12*x21 - 1"), 3)
    assert is_solvable(torus, frame).value is True
    assert is_solvable(full, frame).value is False


@pytest.mark.parametrize("field, value, note", [
    (QQ, True, "contained in a Borel subgroup"),
    (F5, None, "tangent space at e of dimension 2, not 1"),
], ids=["Q", "F5"])
def test_solvable_needs_the_tangent_space_of_the_group_dimension(field, value, note):
    """<x21, x11^5 - 1> in SL(2) is mu_5 x| G_a.  Over Q, mu_5 is reduced
    and the Borel holds the group; over F_5, x11^5 - 1 = (x11 - 1)^5, the
    scheme is not reduced and its tangent space at e is 2-dimensional
    against the group's 1, so nothing is certified."""
    scheme = GroupScheme("SL", 2, field)
    H = SubgroupDesc(scheme, ideal(scheme.coordinate_ring(), "x21", "x11^5 - 1"), 1)
    out = is_solvable(H)
    assert H.flags["verified_subgroup"] and (out.value, out.note) == (value, note)


def test_solve_point_lets_unexpected_errors_through(monkeypatch):
    """solve_point reads the library's errors and factor.py's ValueError as
    "no root"; any other exception from the root finder propagates."""
    from mustab import subgroups
    from mustab.poly import PolyRing

    ring = PolyRing(QQ, ("c1",))
    J = Ideal(ring, (ring.parse("c1^2 - 4"),))
    assert subgroups.solve_point(J)["c1"] ** 2 == QQ.from_int(4)

    def raising(exc):
        def roots(*args):
            raise exc("from scalar_roots")
        return roots

    monkeypatch.setattr(subgroups, "scalar_roots", raising(ValueError))
    assert subgroups.solve_point(J) is None
    monkeypatch.setattr(subgroups, "scalar_roots", raising(TypeError))
    with pytest.raises(TypeError):
        subgroups.solve_point(J)


def test_not_solvable_full_sl2():
    ring = SL2.coordinate_ring()
    full = SubgroupDesc(SL2, ideal(ring, "x11*x22 - x12*x21 - 1"), 3)
    out = is_solvable(full)
    assert (out.value, out.note) == (False, "the Lie algebra's derived series stops at dimension 3")


def test_not_solvable_full_sl2_f5():
    scheme = GroupScheme("SL", 2, F5)
    ring = scheme.coordinate_ring()
    full = SubgroupDesc(scheme, ideal(ring, "x11*x22 - x12*x21 - 1"), 3)
    out = is_solvable(full)
    assert out.value is False


# -- conjugate_stab ---------------------------------------------------------------

def test_conjugate_identity_fixes():
    desc = stab_reparam(x1_branch(), BUDGETS)
    out = conjugate_stab(desc, SL2.identity())
    assert ideal_equal(out, desc.ideal)


def test_conjugate_by_weyl_element():
    desc = stab_reparam(x1_branch(), BUDGETS)
    w = KPoint(SL2, ((QQ.zero(), QQ.one()), (-QQ.one(), QQ.zero())))
    out = conjugate_stab(desc, w)
    assert ideal_equal(out, ideal(out.ring, "x11 - 1", "x12", "x22 - 1"))


def test_conjugation_coherence_with_translation():
    g = KPoint(SL2, ((QQ.one(), QQ.one()), (QQ.zero(), QQ.one())))
    base = x1_branch()
    desc = stab_reparam(base, BUDGETS)
    moved = base.translate(g)
    moved_run = compute_stabilizer(moved, "reparam", BUDGETS)
    conj = conjugate_stab(desc, g)
    assert ideal_equal(moved_run.subgroup.ideal, conj)


def _counted(monkeypatch, name: str) -> list:
    """The arguments of every call of stabilizer's `name`, through whichever
    module calls it."""
    calls = []
    real = getattr(stabilizer, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (stabilizer, pipeline, jobs):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


def _sl2_check_branches():
    """x1 and x2 over Q and F_5, then the four shear products of the sl2_q
    benchmark workload over Q, at (a, b) = (1, 2), (-1, 1), (2, -1), (2, 2):
    [1, a t^-2 + b t; 0, 1] diag(t^-1, t), [1, a t^-1; 0, 1] [1, 0; b t^-1, 1],
    [1, 0; a t, 1] [1, b t^-1; 0, 1] and diag(a t^2, t^-2 / a) [1, b t^-3; 0, 1]."""
    out = []
    for field in (QQ, F5):
        scheme = GroupScheme("SL", 2, field)
        out.append(validate_branch(scheme, ((S((-1, 1), dom=field), S((0, 1), dom=field)), (Z(field), S((1, 1), dom=field)))))
        out.append(validate_branch(scheme, ((S((-1, 1), dom=field), Z(field)), (S((0, 1), dom=field), S((1, 1), dom=field)))))
    half = PuiseuxSeries.monomial(QQ, exp(-2), QQ.from_fraction(Fraction(1, 2)))
    return out + [
        validate_branch(SL2, ((S((-1, 1)), S((-1, 1), (2, 2))), (Z(), S((1, 1))))),
        validate_branch(SL2, ((S((0, 1), (-2, -1)), S((-1, -1))), (S((-1, 1)), S((0, 1))))),
        validate_branch(SL2, ((S((0, 1)), S((-1, -1))), (S((1, 2)), S((0, -1))))),
        validate_branch(SL2, ((S((2, 2)), S((-1, 4))), (Z(), half))),
    ]


def test_the_conjugation_check_reparameterizes_without_reducing_again(monkeypatch):
    """The check translates the reduced branch and runs stab_reparam on it,
    once per point: no mu_reduce and no tube certificate."""
    run = compute_stabilizer(x1_branch(), "reparam", BUDGETS)
    reduced, certified, reparameterized = (_counted(monkeypatch, name) for name in ("mu_reduce", "mu_correct", "stab_reparam"))
    assert jobs._conjugation_check(run, BUDGETS)
    assert (len(reduced), len(certified), len(reparameterized)) == (0, 0, 2)


def test_the_conjugation_check_fails_a_wrong_subgroup():
    """x1's stabilizer is the upper unipotent group; a run carrying the
    lower one fails the check."""
    run = compute_stabilizer(x1_branch(), "reparam", BUDGETS)
    ring = SL2.coordinate_ring()
    run.reparam = SubgroupDesc(SL2, groebner_basis(ideal(ring, "x11 - 1", "x12", "x22 - 1")), 1)
    assert not jobs._conjugation_check(run, BUDGETS)


@pytest.mark.parametrize("index", range(8), ids=["x1_Q", "x2_Q", "x1_F5", "x2_F5", "shear1", "shear2", "shear3", "shear4"])
def test_the_translate_of_a_reduced_branch_needs_no_second_reduction(monkeypatch, index):
    """At the check's two points g, stab_reparam(g . a) for the reduced
    branch a gives the ideal that the full pipeline, mu_reduce included,
    gives for g . a."""
    run = compute_stabilizer(_sl2_check_branches()[index], "reparam", BUDGETS)
    moved = _counted(monkeypatch, "stab_reparam")
    jobs._conjugation_check(run, BUDGETS)
    monkeypatch.undo()
    assert len(moved) == 2
    for branch, budgets in moved:
        full = compute_stabilizer(branch, "reparam", budgets).subgroup.ideal
        assert ideal_equal(stab_reparam(branch, budgets).ideal, full)


def test_conjugating_an_additive_subgroup_is_the_identity():
    """Additive(2) is abelian: g H g^-1 = H, so the pull-back gives H's
    own line back, as its reduced basis."""
    ring = ADD2.coordinate_ring()
    H = SubgroupDesc(ADD2, ideal(ring, "x - 2*y"), 1)
    g = KPoint(ADD2, (QQ.from_int(3), QQ.from_int(5)))
    assert conjugate_stab(H, g) == groebner_basis(ideal(ring, "x - 2*y"))


def test_conjugating_the_gl2_torus_moves_y_with_it():
    """g diag(a, d) g^-1 = [[a, d - a], [0, d]] for g = [[1, 1], [0, 1]],
    and y = 1/(ad) is unchanged: the torus <x12, x21, x11*x22*y - 1>
    goes to <x21, x12 + x11 - x22, x11*x22*y - 1>."""
    gl2 = GroupScheme("GL", 2, QQ)
    ring = gl2.coordinate_ring()
    H = SubgroupDesc(gl2, ideal(ring, "x12", "x21", "x11*x22*y - 1"), 2)
    g = KPoint(gl2, ((QQ.one(), QQ.one()), (QQ.zero(), QQ.one())))
    assert conjugate_stab(H, g) == groebner_basis(ideal(ring, "x21", "x12 + x11 - x22", "x11*x22*y - 1"))


# -- soundness ---------------------------------------------------------------------

def test_sampled_stabilizer_points_stabilize_the_tube():
    for branch in (x1_branch(), x2_branch()):
        run = compute_stabilizer(branch, "reparam", BUDGETS)
        rng = random.Random(3)
        pts = param_kpoints(run.subgroup, rng, 5)
        assert len(pts) >= 3
        for h in pts:
            moved = run.reduced.translate(h)
            cert = mu_correct(moved, run.reduced)
            assert isinstance(cert, TubeCertificate), f"{h} does not stabilize the tube"


@pytest.mark.parametrize("make", [
    lambda: validate_branch(ADD2, (S((-2, 1)), S((-3, 1)))),
    lambda: _gl2_y_below_entries(),
], ids=["cusp", "GL2"])
def test_sampling_solves_the_relations_on_the_c_parameters(make):
    """When the family's relations pin some c_i (here c1 = c2 = 0), one
    solve with random defaults for the c_i still gives every requested
    point, each in the stabilizer."""
    H = compute_stabilizer(make(), "reparam", BUDGETS).subgroup
    pinned = {v for g in H.param.relations.gens for v in g.variables_used() if v.startswith("c")}
    assert pinned == {"c1", "c2"}
    pts = param_kpoints(H, random.Random(5), 6)
    assert len(pts) == 6
    for h in pts:
        values = h._values()
        assert all(g.eval_scalars(values).is_zero() for g in H.ideal.gens)


def test_ramification_mismatch_is_a_self_check_failure():
    """An ansatz built for ramification 1 on a branch with a t^(-1/2) entry
    cannot take that root of its lead: the job fails its self-check rather
    than an assert."""
    el = validate_branch(ADD2, (S((-1, 1)), S((Fraction(-1, 2), 1)))).element
    with pytest.raises(SelfCheckFailed, match="-1/2"):
        stab_reparam(Branch(el, 1))


def test_dim_bound_and_equality():
    for branch, expect in ((x1_branch(), 1), (x2_branch(), 1)):
        run = compute_stabilizer(branch, "reparam", BUDGETS)
        assert run.subgroup.dim == expect == run.dim_after


def test_gl1_full_torus_stabilizer():
    # Gm acting on itself: every k-point stabilizes the tube at infinity,
    # so the stabilizer is all of GL(1)
    gl1 = GroupScheme("GL", 1, QQ)
    b = validate_branch(gl1, ((S((-1, 1)),),))
    desc = stab_reparam(b, BUDGETS)
    scheme_ideal = Ideal(desc.ideal.ring, tuple(gl1.defining_polys(desc.ideal.ring)))
    assert ideal_equal(desc.ideal, scheme_ideal)
    assert desc.dim == 1
    assert desc.flags["verified_subgroup"]


def test_stabilizer_over_f9():
    F9 = FieldSpec("Fq", p=3, modulus=(1, 0, 1))
    scheme = GroupScheme("SL", 2, F9)
    one = PuiseuxSeries.constant(F9, F9.one())
    tneg = PuiseuxSeries.monomial(F9, exp(-1), F9.one())
    tpos = PuiseuxSeries.monomial(F9, exp(1), F9.one())
    zero = PuiseuxSeries.zero(F9)
    b = validate_branch(scheme, ((tneg, one), (zero, tpos)))
    desc = stab_reparam(b, BUDGETS)
    want = ideal(desc.ideal.ring, "x11 - 1", "x21", "x22 - 1")
    assert ideal_equal(desc.ideal, want)
    assert desc.dim == 1 and desc.flags["verified_subgroup"]


def test_parabola_branch_in_additive3():
    # branch (1/t, 1/t, 1/t^2): closure is the curve y = x, z = x^2; the
    # stabilizer is the z-axis line, reached through a nonlinear residue
    # family (second-order reparameterization coefficients)
    add3 = GroupScheme("Additive", 3, QQ)
    b = validate_branch(add3, (S((-1, 1)), S((-1, 1)), S((-2, 1))))
    desc = stab_reparam(b, BUDGETS)
    assert ideal_equal(desc.ideal, ideal(desc.ideal.ring, "x", "y"))
    assert desc.dim == 1
    run = compute_stabilizer(b, "both", Budgets(degree_bound=3))
    assert run.agreement is True
    assert run.subgroup.dim == 1 == run.dim_after


def test_parabola_with_irrational_tail_reduces():
    add3 = GroupScheme("Additive", 3, QQ)
    r = Exponent(Fraction(0), Fraction(1), 2)
    middle = PuiseuxSeries(QQ, [(exp(-1), QQ.one()), (r, QQ.one())], None)
    b = validate_branch(add3, (S((-1, 1)), middle, S((-2, 1))))
    reduced, cert, dim_before, dim_after = mu_reduce(b)
    assert (dim_before, dim_after) == (2, 1)
    assert isinstance(cert, TubeCertificate)
    desc = stab_reparam(reduced, BUDGETS)
    assert ideal_equal(desc.ideal, ideal(desc.ideal.ring, "x", "y"))
