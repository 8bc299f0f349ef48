"""Groebner bases, elimination, membership, Krull dimension, and the
polynomial evaluation behind substitutions.

Membership is cross-checked against an independent brute-force
bounded-degree linear-algebra oracle, and elimination examples are checked
by substituting explicit parameterizations.
"""

import random
from itertools import combinations, combinations_with_replacement
from operator import add, le, mul

import pytest

from mustab.errors import BudgetExceeded, EmptyVariety, FieldMismatch
from mustab.fields import QQ, FieldSpec
from mustab.ideals import (
    Ideal,
    buchberger,
    eliminate,
    groebner_basis,
    ideal,
    ideal_equal,
    ideal_member,
    krull_dim,
    _dim_from_leading_monomials,
    _interreduce,
    _Overflow,
    _packer,
    _Packed,
    reducer,
    s_poly,
    spoly_budget,
)
from mustab.groups import eval_poly_series, random_scalar
from mustab.poly import GREVLEX, LEX, BlockOrder, GrevLex, Lex, Poly, PolyRing
from mustab.series import PuiseuxSeries
from tests_helpers import closure_relations, dim_by_subsets, ideal_intersect, random_laurent, random_series, relation_ideal

F5 = FieldSpec("Fp", p=5)


def brute_force_member(f, I, max_degree=6):
    """Oracle: coefficient matching for f = sum h_i g_i with deg h_i bounded.

    Solves the linear system in the unknown coefficients of the h_i by
    Gaussian elimination over the field; independent of any Groebner code.
    """
    ring = I.ring
    n = ring.nvars
    monos = []
    for d in range(max_degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            m = [0] * n
            for i in combo:
                m[i] += 1
            monos.append(tuple(m))
    unknowns = []  # (gen index, multiplier monomial)
    for gi, g in enumerate(I.gens):
        gd = g.total_degree()
        for m in monos:
            if sum(m) + gd <= max_degree:
                unknowns.append((gi, m))
    # rows indexed by product monomials
    rows = {}
    for col, (gi, m) in enumerate(unknowns):
        shifted = ring.monomial(m) * I.gens[gi]
        for mono, c in shifted.terms.items():
            rows.setdefault(mono, {})[col] = c
    target = dict(f.terms)
    all_monos = set(rows) | set(target)
    matrix = []
    rhs = []
    for mono in sorted(all_monos):
        matrix.append([rows.get(mono, {}).get(col, ring.field.zero()) for col in range(len(unknowns))])
        rhs.append(target.get(mono, ring.field.zero()))
    # Gaussian elimination, solving matrix * x = rhs
    nrows, ncols = len(matrix), len(unknowns)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not matrix[i][c].is_zero()), None)
        if piv is None:
            continue
        matrix[r], matrix[piv] = matrix[piv], matrix[r]
        rhs[r], rhs[piv] = rhs[piv], rhs[r]
        inv = matrix[r][c].inv()
        matrix[r] = [x * inv for x in matrix[r]]
        rhs[r] = rhs[r] * inv
        for i in range(nrows):
            if i != r and not matrix[i][c].is_zero():
                factor = matrix[i][c]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
                rhs[i] = rhs[i] - factor * rhs[r]
        r += 1
        if r == nrows:
            break
    for i in range(nrows):
        if all(x.is_zero() for x in matrix[i]) and not rhs[i].is_zero():
            return False
    return True


def test_gb_single_variable():
    ring = PolyRing(QQ, ("x",))
    I = ideal(ring, "x")
    gb = groebner_basis(I)
    assert [str(g) for g in gb.gens] == ["x"]


def test_gb_linear_substitution_lex():
    ring = PolyRing(QQ, ("x11", "x12", "x21", "x22"))
    I = ideal(ring, "x11 - 1", "x21", "x11*x22 - 1")
    gb = groebner_basis(I, LEX)
    expected = ideal(ring, "x11 - 1", "x21", "x22 - 1")
    assert ideal_equal(gb, expected)


def test_gb_twisted_cubic_elimination():
    # oracle: y^3 - z^2 vanishes on (s, s^2, s^3); frozen after checking
    ring = PolyRing(QQ, ("x", "y", "z"))
    I = ideal(ring, "y - x^2", "z - x^3")
    out = eliminate(I, ("x",))
    target = out.ring.parse("y^3 - z^2")
    s_ring = PolyRing(QQ, ("s",))
    sub = {"x": s_ring.var("s"), "y": s_ring.var("s") ** 2, "z": s_ring.var("s") ** 3}
    assert ring.parse("y^3 - z^2").subs_polys(sub, s_ring).is_zero()
    assert ideal_member(target, out)


def test_gb_idempotent_and_spolys_reduce():
    ring = PolyRing(QQ, ("x", "y", "z"))
    I = ideal(ring, "x^2 + y", "x*y - z", "y^3 - z*x")
    gb = groebner_basis(I)
    gb2 = groebner_basis(gb)
    assert [str(g) for g in gb.gens] == [str(g) for g in gb2.gens]
    order = GrevLex()
    basis = list(gb.gens)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert reducer(basis, order)(s_poly(basis[i], basis[j], order)).is_zero()


def test_eliminate_nothing_is_groebner():
    ring = PolyRing(QQ, ("x", "y"))
    I = ideal(ring, "x*y - 1", "x^2")
    assert ideal_equal(eliminate(I, ()), groebner_basis(I))


def test_eliminate_laurent_relation():
    # oracle: x = t^-2, y = t^-3 satisfies x^3 - y^2; degree bound excludes
    # lower-order relations, so the eliminant is exactly <x^3 - y^2>
    ring = PolyRing(QQ, ("s", "x", "y"))
    I = ideal(ring, "x*s^2 - 1", "y*s^3 - 1")
    out = eliminate(I, ("s",))
    expected = Ideal(out.ring, (out.ring.parse("x^3 - y^2"),))
    assert ideal_equal(out, expected)


def test_eliminate_translated_sl2_chart():
    # opaque unit symbols T, U standing for t and 1/t
    ring = PolyRing(QQ, ("x", "T", "U", "g11", "g12", "g21", "g22"))
    I = ideal(
        ring,
        "g11 - x*T",
        "g12 - (U - x)",
        "g21",
        "g22*x*T - 1",
        "T*U - 1",
    )
    out = eliminate(I, ("x",))
    g21 = out.ring.parse("g21")
    rel = out.ring.parse("g11*g22 - 1")
    assert ideal_member(g21, out)
    assert ideal_member(rel, out)


def test_ideal_member_trivial_cases():
    ring = PolyRing(QQ, ("g11", "g12", "g21", "g22"))
    I = ideal(ring, "g11 - 1", "g22 - 1")
    f = ring.parse("g11*g22 - 1")
    assert ideal_member(f, I)
    ring2 = PolyRing(QQ, ("x",))
    assert not ideal_member(ring2.parse("x"), ideal(ring2, "x^2"))


def test_ideal_member_elimination_consequence():
    ring = PolyRing(QQ, ("s", "x", "y"))
    I = ideal(ring, "x*s^2 - 1", "y*s^3 - 1")
    out = eliminate(I, ("s",))
    assert ideal_member(out.ring.parse("y^2 - x^3"), out)


def test_member_agrees_with_brute_force_on_random_ideals():
    rng = random.Random(7)
    ring = PolyRing(F5, ("x", "y"))
    monos = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for _ in range(25):
        gens = []
        for _ in range(2):
            terms = {m: F5.from_int(rng.randrange(5)) for m in rng.sample(monos, 3)}
            g = ring.zero()
            for m, c in terms.items():
                g = g + ring.monomial(m, c)
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        I = Ideal(ring, tuple(gens))
        f = ring.monomial((1, 0), F5.from_int(rng.randrange(1, 5))) + ring.monomial((0, 2), F5.from_int(rng.randrange(5)))
        gb_answer = ideal_member(f, I)
        oracle = brute_force_member(f, I, max_degree=6)
        if gb_answer:
            assert oracle, f"GB claims member, oracle disagrees: {f} in {I}"
        if not gb_answer and oracle:
            # oracle found a bounded-degree certificate the GB missed: impossible
            raise AssertionError(f"oracle found membership GB denies: {f} in {I}")


def test_krull_dim_examples():
    ring = PolyRing(QQ, ("x", "y"))
    assert krull_dim(ideal(ring, "x^3 - y^2")) == 1
    ring4 = PolyRing(QQ, ("x11", "x12", "x21", "x22"))
    assert krull_dim(ideal(ring4, "x11 - 1", "x21", "x22 - 1")) == 1
    ring3 = PolyRing(QQ, ("a", "b", "c"))
    assert krull_dim(Ideal(ring3, ())) == 3
    with pytest.raises(EmptyVariety):
        krull_dim(ideal(ring, "x", "x - 1"))


def test_krull_dim_monotone_under_elimination():
    ring = PolyRing(QQ, ("s", "x", "y"))
    cases = [
        ideal(ring, "x*s^2 - 1", "y*s^3 - 1"),
        ideal(ring, "x - s^2", "y - s^3"),
        ideal(ring, "x*y - s"),
    ]
    for I in cases:
        out = eliminate(I, ("s",))
        assert krull_dim(out) <= krull_dim(I)


def test_budget_exceeded_is_raised():
    ring = PolyRing(QQ, ("x", "y", "z"))
    I = ideal(ring, "x^2 + y*z", "y^2 + x*z", "z^2 + x*y")
    with pytest.raises(BudgetExceeded), spoly_budget(1):
        groebner_basis(I)


def test_generators_enter_through_the_pair_queue(monkeypatch):
    # the degree-4 relations of the x1 corpus branch number in the dozens but
    # reduce to a basis of three elements one at a time; pairing them all up
    # front made 58 S-polynomials
    from mustab import ideals
    from mustab.corpus import corpus_entries
    from mustab.groups import GroupScheme
    from mustab.jobs import parse_branch

    job = next(e["job"] for e in corpus_entries() if e["name"] == "x1")
    branch = parse_branch(job["input"]["branch"], GroupScheme.from_json(job["group"], QQ), None)
    calls = []
    real = ideals.s_poly
    monkeypatch.setattr(ideals, "s_poly", lambda f, g, order: calls.append(1) or real(f, g, order))
    out = relation_ideal(PolyRing(QQ, branch.scheme.coordinates()), closure_relations(branch, 4))
    assert calls == []
    assert [str(g) for g in out.gens] == ["x21", "x12 - 1", "x11*x22 - 1"]


def test_ideal_intersection():
    ring = PolyRing(QQ, ("x", "y"))
    I = ideal(ring, "x")
    J = ideal(ring, "y")
    K = ideal_intersect(I, J)
    assert ideal_equal(K, ideal(ring, "x*y"))


def test_lex_vs_grevlex_orders():
    assert Lex().key((1, 0)) > Lex().key((0, 5))
    assert GrevLex().key((1, 0)) < GrevLex().key((0, 5))
    assert GrevLex().key((0, 2, 0)) > GrevLex().key((1, 0, 1))


from hypothesis import given, settings, strategies as st


@st.composite
def small_f5_ideal(draw):
    ring = PolyRing(F5, ("x", "y", "z"))
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (2, 0, 0), (0, 0, 2)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = ring.zero()
        for m in draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True)):
            g = g + ring.monomial(m, F5.from_int(draw(st.integers(1, 4))))
        if not g.is_zero():
            gens.append(g)
    return Ideal(ring, tuple(gens))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=6))))
def test_dim_of_leading_monomials_matches_every_subset(case):
    """The fewest variables meeting every support give the dimension that
    trying every variable set gives, a constant monomial included."""
    nvars, monos = case
    assert _dim_from_leading_monomials(monos, nvars) == dim_by_subsets(monos, nvars)


def test_dim_of_leading_monomials_in_many_variables():
    """x0, x3, ..., x15 and x1*x2 in 16 variables: the fewest variables
    meeting every support are 15 of them, so the dimension is 1, and 2
    without x0; the subset loop would try every set of 2 to 16 variables
    first."""
    monos = [tuple(1 if j == i else 0 for j in range(16)) for i in range(3, 16)]
    monos.append((0, 1, 1) + (0,) * 13)
    monos.append((1, 0, 0) + (0,) * 13)
    assert _dim_from_leading_monomials(monos, 16) == 1
    assert _dim_from_leading_monomials(monos[:-1], 16) == 2


@settings(max_examples=40, deadline=None)
@given(small_f5_ideal())
def test_hypothesis_gb_idempotent_and_spolys_vanish(I):
    gb = groebner_basis(I)
    again = groebner_basis(gb)
    assert [str(g) for g in gb.gens] == [str(g) for g in again.gens]
    order = GrevLex()
    basis = list(gb.gens)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert reducer(basis, order)(s_poly(basis[i], basis[j], order)).is_zero()
    for g in I.gens:
        assert ideal_member(g, gb)


QS2 = FieldSpec("QSqrt", d=2)
F9 = FieldSpec("Fq", p=3, modulus=(1, 0, 1))  # F_3[w]/(w^2 + 1)


def reference_reduce_poly(f, basis, order):
    """The division `reducer` replaced: one Poly per step, the leading
    monomial taken afresh by max over the terms each time; returns the
    remainder."""
    ring = f.ring
    rem = ring.zero()
    p = f
    lead = []
    for g in basis:
        lm = max(g.terms, key=order.key)
        lead.append((lm, g.terms[lm]))
    while not p.is_zero():
        m = max(p.terms, key=order.key)
        c = p.terms[m]
        for i, (lm, lc) in enumerate(lead):
            if all(x <= y for x, y in zip(lm, m)):
                factor = ring.monomial(tuple(x - y for x, y in zip(m, lm)), c / lc)
                p = p - factor * basis[i]
                break
        else:
            t = ring.monomial(m, c)
            rem = rem + t
            p = p - t
    return rem


@st.composite
def division_cases(draw, count):
    """count dividends and a list of divisors, all over one drawn ring."""
    field = draw(st.sampled_from([QQ, QS2, F5, F9]))
    ring = PolyRing(field, ("x", "y", "z"))
    theta = field.generator() if field.modulus else field.one()

    def scalar():
        # a + b*theta over a denominator c: fractions over Q, sqrt(2) over
        # Q(sqrt 2), the generator w over F_9
        a, b = draw(st.integers(-4, 4)), draw(st.integers(-2, 2))
        c = field.from_int(draw(st.sampled_from([1, 2, 3])))
        return (field.from_int(a) + field.from_int(b) * theta) / (field.one() if c.is_zero() else c)

    def poly(max_terms, max_exp):
        mono = st.tuples(*[st.integers(0, max_exp)] * 3)
        terms = {m: scalar() for m in draw(st.lists(mono, min_size=1, max_size=max_terms, unique=True))}
        return Poly(ring, terms)

    fs = [poly(6, 3) for _ in range(count)]
    divisors = [g for g in (poly(3, 2) for _ in range(draw(st.integers(1, 3)))) if not g.is_zero()]
    if not divisors:
        divisors = [ring.var("x")]
    return fs, divisors


def division_case():
    return division_cases(1).map(lambda case: (case[0][0], case[1]))


@settings(max_examples=300, deadline=None)
@given(division_case(), st.sampled_from([Lex(), GrevLex(), BlockOrder((1,), (0, 2))]))
def test_reducer_matches_the_allocating_division(case, order):
    f, divisors = case
    rem = reducer(divisors, order)(f)
    assert rem == reference_reduce_poly(f, divisors, order)
    leads = [g.leading_monomial(order) for g in divisors]
    assert not any(all(a <= b for a, b in zip(lm, m)) for lm in leads for m in rem.terms)
    assert not any(c.is_zero() for c in rem.terms.values())


ORDERS = [Lex(), GrevLex(), BlockOrder((1,), (0, 2)), BlockOrder((0, 1), (2,))]


def assert_lead_cached(p, order):
    assert p._lead is not None and p._lead[0] is order
    assert p._lead[1] == max(p.terms, key=order.key)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(division_cases), st.sampled_from(ORDERS), st.booleans())
def test_normal_form_is_the_division_remainder(case, order, reducer_first):
    # one reducer serves many normal forms: its divisor table and packer
    # outlive each call, and fresh divisions before or after it must see
    # the same remainders, each with its leading monomial cached
    fs, divisors = case
    nf = reducer(divisors, order)
    if reducer_first:
        reused = [nf(f) for f in fs]
    fresh = [reducer(divisors, order)(f) for f in fs]
    if not reducer_first:
        reused = [nf(f) for f in fs]
    for r, a in zip(reused, fresh):
        assert r == a
        for rem in (r, a):
            if not rem.is_zero():
                assert_lead_cached(rem, order)


def nested_grevlex(m):
    """Reference grevlex key: (degree, the exponents reversed and negated)."""
    return (sum(m), tuple(-e for e in reversed(m)))


def nested_block(order, m):
    a = tuple(m[i] for i in order.first)
    b = tuple(m[i] for i in order.second)
    return nested_grevlex(a) + nested_grevlex(b)


def _cmp(x, y):
    return (x > y) - (x < y)


@st.composite
def monomial_pair_and_blocks(draw):
    n = draw(st.integers(1, 5))
    mono = st.tuples(*[st.integers(0, 4)] * n)
    perm = draw(st.permutations(range(n)))
    # splits at 0, 1, n - 1 and n give empty and single-index blocks
    k = draw(st.integers(0, n))
    return draw(mono), draw(mono), BlockOrder(tuple(perm[:k]), tuple(perm[k:]))


@settings(max_examples=200, deadline=None)
@given(monomial_pair_and_blocks())
def test_flat_order_keys_compare_as_the_nested_ones(case):
    a, b, block = case
    grevlex = GrevLex()
    assert _cmp(grevlex.key(a), grevlex.key(b)) == _cmp(nested_grevlex(a), nested_grevlex(b))
    assert _cmp(block.key(a), block.key(b)) == _cmp(nested_block(block, a), nested_block(block, b))
    for key in (grevlex.key(a), block.key(a)):
        assert type(key) is tuple and all(type(e) is int for e in key)


def test_twisted_cubic_elimination_forms_four_s_polynomials(monkeypatch):
    # pins the pair selection: the coprime and chain criteria leave four
    # of the basis's S-pairs
    from mustab import ideals

    calls = []
    real = ideals.s_poly
    monkeypatch.setattr(ideals, "s_poly", lambda f, g, order: calls.append(1) or real(f, g, order))
    ring = PolyRing(QQ, ("x", "y", "z"))
    out = eliminate(ideal(ring, "y - x^2", "z - x^3"), ("x",))
    assert [str(g) for g in out.gens] == ["y^3 - z^2"]
    assert len(calls) == 4


def test_leading_monomial_cache_follows_the_order():
    ring = PolyRing(QQ, ("x", "y", "z"))
    p = ring.parse("x^2*y + y^4 + x*z^3 + z^5 + x*y*z")
    orders = [Lex(), GrevLex(), BlockOrder((0,), (1, 2)), BlockOrder((1,), (0, 2))]
    leads = [max(p.terms, key=order.key) for order in orders]
    assert len(set(leads)) == 3  # x^2*y, z^5, x^2*y, y^4: neighbours differ
    for order in orders * 2 + orders[::-1] + [GrevLex(), Lex()]:
        assert p.leading_monomial(order) == max(p.terms, key=order.key)
    assert GREVLEX is ring.order is PolyRing(QQ, ("a",)).order


@pytest.mark.parametrize("field", [F5, QS2, QQ], ids=["F5", "QS2", "Q"])
def test_arithmetic_results_store_no_zero_coefficient(field):
    ring = PolyRing(field, ("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    if field.kind == "Fp":
        # 1 + 4 and 2 + 3 vanish mod 5
        a, b = x + y * 2, x * 4 + y * 3
        prod = (x + y) * (x + y * 4)  # x^2 + 5xy + 4y^2
    elif field.kind == "QSqrt":
        s = field.generator()
        a, b = x * s + y, -(x * s) + y
        prod = (x + y * s) * (x - y * s)  # x^2 - 2y^2
    else:
        a, b = x, -x
        prod = (x - y) * (x + y)
    results = [a + b, a - a, x - x, b + (-b), -(a + b), prod, prod * ring.zero(), (a + b) * (a - b), a.scale(field.from_int(3))]
    for r in results:
        assert not any(c.is_zero() for c in r.terms.values())
        rebuilt = Poly(ring, dict(r.terms))
        assert r == rebuilt and hash(r) == hash(rebuilt)
    assert (x - x).is_zero() and (a - a).is_zero()
    assert set(prod.terms) == {(2, 0), (0, 2)}


@pytest.mark.parametrize("field", [F5, QS2, QQ], ids=["F5", "QS2", "Q"])
def test_a_scalar_factor_scales_the_polynomial(field):
    """p * c for a scalar c is p.scale(c), the product with c lifted to a
    constant, zero included; a scalar of another field is refused as
    from_scalar refuses it."""
    ring = PolyRing(field, ("x", "y"))
    p = ring.parse("x^2 + 3*x*y - 2")
    for c in (field.from_int(3), field.zero(), field.one(), -field.one()):
        assert p * c == p * ring.from_scalar(c) == p.scale(c)
        assert not any(v.is_zero() for v in (p * c).terms.values())
    with pytest.raises(FieldMismatch):
        p * FieldSpec("Fp", p=7).one()


def test_rename_moves_each_variable_and_refuses_only_a_used_missing_one():
    ring = PolyRing(QQ, ("x", "y", "z"))
    p = ring.parse("x^2*z + 3*y - 1")
    target = PolyRing(QQ, ("b", "a", "w", "z2"))
    assert p.rename({"x": "a", "y": "b", "z": "z2"}, target) == target.parse("a^2*z2 + 3*b - 1")
    assert ring.parse("x*z + 1").restrict(PolyRing(QQ, ("z", "x"))) == PolyRing(QQ, ("z", "x")).parse("x*z + 1")
    with pytest.raises(ValueError):
        p.restrict(PolyRing(QQ, ("x", "z")))


@st.composite
def generator_list(draw):
    field = draw(st.sampled_from([QQ, F5]))
    ring = PolyRing(field, ("x", "y", "z"))
    monos = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (2, 0, 0), (0, 0, 2)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        gens.append(Poly(ring, {m: field.from_int(draw(st.integers(1, 4))) for m in terms}))
    return ring, gens


@settings(max_examples=40, deadline=None)
@given(generator_list(), st.sampled_from([GrevLex(), Lex(), BlockOrder((1,), (0, 2))]), st.randoms(use_true_random=False))
def test_reduced_basis_ignores_generator_order_and_redundant_generators(case, order, rnd):
    ring, gens = case
    expected = buchberger(gens, order)
    shuffled = list(gens)
    rnd.shuffle(shuffled)
    assert buchberger(shuffled, order) == expected
    products = [ring.var(v) * g for v in ring.variables for g in gens]
    sums = [g + h for g, h in combinations(gens, 2)]
    padded = shuffled + products + sums
    rnd.shuffle(padded)
    assert buchberger(padded, order) == expected


@settings(max_examples=60, deadline=None)
@given(generator_list(), st.sampled_from(ORDERS))
def test_results_carry_their_leading_monomial(case, order):
    ring, gens = case
    for g in buchberger(gens, order):
        assert_lead_cached(g, order)
    fresh = [Poly(ring, dict(g.terms)) for g in gens]
    pk = _packer(order, ring.nvars, 64)
    for g in _interreduce(ring, order, [_Packed(pk.packed(g), pk) for g in fresh], pk):
        assert_lead_cached(g, order)
    for g in (Poly(ring, dict(g.terms)) for g in gens):
        assert_lead_cached(g.monic(order), order)


@settings(max_examples=60, deadline=None)
@given(generator_list(), st.sampled_from(ORDERS))
def test_the_basis_of_one_generator_is_that_generator_made_monic(case, order):
    ring, gens = case
    g = gens[0]
    assert buchberger([g], order) == buchberger([g, ring.var("x") * g], order) == [g.monic(order)]


LINEAR_ORDERS = [GREVLEX, LEX, BlockOrder((1, 3), (0, 2))]


@st.composite
def linear_generators(draw):
    """A list of generators of degree <= 1 in four variables over Q, F_5,
    F_9 or Q(sqrt 2), with zero, repeated and dependent ones among them."""
    field = draw(st.sampled_from([QQ, F5, F9, QS2]))
    ring = PolyRing(field, ("w", "x", "y", "z"))
    rng = random.Random(draw(st.integers(0, 2**32)))
    theta = field.generator() if field.modulus else field.one()
    monos = [(0, 0, 0, 0)] + [tuple(int(i == j) for j in range(4)) for i in range(4)]

    def scalar():
        return field.from_int(rng.randrange(-3, 4)) + field.from_int(rng.randrange(-1, 2)) * theta

    gens: list[Poly] = []
    for _ in range(rng.randrange(2, 7)):
        kind = rng.random()
        if gens and kind < 0.15:
            gens.append(rng.choice(gens))
        elif gens and kind < 0.4:
            g, h = rng.choice(gens), rng.choice(gens)
            gens.append(g.scale(scalar()) + h.scale(scalar()))
        elif kind < 0.5:
            gens.append(ring.zero())
        else:
            # a constant term only now and then, so that most inputs are proper
            support = rng.sample(monos[1:], rng.randrange(1, 5)) + [monos[0]] * (rng.random() < 0.3)
            gens.append(Poly(ring, {m: scalar() for m in support}))
    return ring, gens


def assert_same_polys(got, expected):
    assert len(got) == len(expected)
    for p, q in zip(got, expected):
        assert list(p.terms.items()) == list(q.terms.items())
        assert p._lead == q._lead


@settings(max_examples=150, deadline=None)
@given(linear_generators(), st.sampled_from(LINEAR_ORDERS))
def test_linear_basis_is_the_general_path_basis(case, order):
    # x*g has degree 2, so the second run goes through the pair queue;
    # the reduced basis is unique, term order and cached lead included
    ring, gens = case
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        assert buchberger(gens, order) == []
        return
    g = nonzero[-1]
    fresh = [Poly(ring, dict(h.terms)) for h in gens]
    got, expected = buchberger(gens, order), buchberger(fresh + [ring.var("x") * g], order)
    if len(nonzero) == 1:
        assert got == expected  # the principal shortcut keeps g's term order
    else:
        assert_same_polys(got, expected)


@pytest.mark.parametrize("order", LINEAR_ORDERS, ids=["grevlex", "lex", "block"])
def test_linear_unit_ideal_carries_its_leading_monomial(order):
    ring = PolyRing(QQ, ("w", "x", "y", "z"))
    gens = [ring.parse("x + y - 1"), ring.parse("x + y"), ring.parse("w - z")]
    basis = buchberger(gens, order)
    assert basis == [ring.one()]
    assert_lead_cached(basis[0], order)
    assert_same_polys(basis, buchberger(gens + [ring.parse("x^2")], order))


def test_linear_basis_forms_no_s_polynomial(monkeypatch):
    from mustab import ideals

    calls = []
    real = ideals.s_poly
    monkeypatch.setattr(ideals, "s_poly", lambda f, g, order: calls.append(1) or real(f, g, order))
    ring = PolyRing(QQ, ("w", "x", "y", "z"))
    gens = [ring.parse(t) for t in ("w + x + y + z - 1", "x - y", "2*w + 3*z", "y + z - 2")]
    with spoly_budget(1):
        basis = buchberger(gens, GREVLEX)
    assert [str(g) for g in basis] == ["z - 6/5", "y - 4/5", "x - 4/5", "w + 9/5"]
    assert calls == []


def termwise_eval(p, values, lift, acc):
    """The evaluation eval_poly replaced: each term multiplies lift(c) by
    the value of each variable, once per unit of its exponent."""
    names = p.ring.variables
    for m, c in p.terms.items():
        term = lift(c)
        for i, e in enumerate(m):
            for _ in range(e):
                term = term * values[names[i]]
        acc = acc + term
    return acc


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, F5]), st.integers(0, 2**32))
def test_eval_poly_equals_termwise_evaluation(field, seed):
    """Shared powers change no value: on Scalars and Polys the values are
    equal, on truncated series the terms and the precision are."""
    rng = random.Random(seed)
    ring = PolyRing(field, ("x", "y", "z"))
    p = ring.zero()
    for _ in range(rng.randrange(1, 7)):
        m = tuple(rng.randrange(0, 4) for _ in range(3))
        p = p + ring.monomial(m, random_scalar(field, rng))
    names = ring.variables

    at = {v: random_scalar(field, rng) for v in names}
    assert p.eval_scalars(at) == termwise_eval(p, at, lambda c: c, field.zero())

    target = PolyRing(field, ("a", "b"))
    polys = {}
    for v in names:
        q = target.zero()
        for _ in range(rng.randrange(0, 4)):
            q = q + target.monomial((rng.randrange(0, 3), rng.randrange(0, 3)), random_scalar(field, rng))
        polys[v] = q
    assert p.subs_polys(polys, target) == termwise_eval(p, polys, target.from_scalar, target.zero())

    series = {v: random_series(rng, field, max_terms=3) for v in names}
    series[rng.choice(names)] = random_laurent(field, rng)  # an exact one too
    got = eval_poly_series(p, series, field)
    want = termwise_eval(p, series, lambda c: PuiseuxSeries.constant(field, c), PuiseuxSeries.zero(field))
    assert got.terms == want.terms and got.precision == want.precision


PACKED_ORDERS = [Lex(), GrevLex(), BlockOrder((1,), (0, 2))]


def packable_exponents(limit):
    """Three exponents, small or just below a third of the packer's input
    limit, so that every sum stays packable."""
    return st.tuples(*[st.integers(0, 3) | st.integers(limit // 3 - 3, limit // 3 - 1)] * 3)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PACKED_ORDERS), st.data())
def test_packed_monomials_compare_add_and_divide_as_tuples(order, data):
    # BlockOrder((1,), (0, 2)) puts its second degree digit between
    # exponent digits
    pk = _packer(order, 3, 64)
    a, b = data.draw(packable_exponents(pk.limit)), data.draw(packable_exponents(pk.limit))
    ka, kb = pk.pack(a), pk.pack(b)
    assert (ka < kb) == (order.key(a) < order.key(b))
    assert (ka == kb) == (a == b)
    assert pk.unpack(ka) == a and pk.unpack(kb) == b
    assert pk.unpack(ka + kb) == tuple(map(add, a, b))
    assert pk.divides(ka, kb) == all(map(le, a, b))
    assert pk.divides(kb, ka) == all(map(le, b, a))


@pytest.mark.parametrize("order", PACKED_ORDERS, ids=["lex", "grevlex", "block"])
def test_packed_monomials_are_sound_below_a_quarter_digit(order):
    """_divide takes a packed monomial only while every key digit is below
    2^62 in absolute value, and pack refuses total degrees from its limit."""
    pk = _packer(order, 3, 64)
    quarter = 1 << 62
    for m in [(quarter - 1, 0, 0), (0, 0, quarter - 1), (quarter, 0, 0), (0, quarter, 0),
              (quarter // 2, quarter // 2, 0), (quarter // 2, 0, quarter // 2 - 1), (1, 2, 3)]:
        k = sum(map(mul, m, pk.weights))
        assert ((k + pk.off) & pk.guard == pk.sound) == all(abs(d) < quarter for d in order.key(m))
    with pytest.raises(_Overflow):
        pk.pack((pk.limit - 1, 1, 0))
    assert pk.unpack(pk.pack((pk.limit - 2, 1, 0))) == (pk.limit - 2, 1, 0)


@pytest.mark.parametrize("order", [LEX, GREVLEX])
def test_exponents_beyond_the_first_digit_width(order):
    # <x^N - y, x^(N+1)> = <x^N - y, x*y, y^2>: x^(N+1) - x(x^N - y) = xy,
    # and y(x^N - y) - x^(N-1)(xy) = -y^2
    n = 2**64 + 1
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.var("x"), ring.var("y")
    basis = buchberger([x**n - y, x ** (n + 1)], order)
    assert basis == [y**2, x * y, x**n - y]
    nf = reducer(basis, order)
    assert nf(x ** (2 * n) + x * y**3).is_zero()
    assert nf(x ** (n - 1) + y) == x ** (n - 1) + y
    assert nf(x ** (2**80) * y + x ** (n + 3) + x ** (n - 2)) == x ** (n - 2)
    # accepted at the first width, then an lcm of degree past its limit
    a = _packer(order, 2, 64).limit - 3
    assert set(buchberger([x**a * y, x * y**a], order)) == {x**a * y, x * y**a}
