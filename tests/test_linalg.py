"""Sparse elimination in linalg; the relation walk of the test helpers, on
exact branches and on point clouds, against a dense kernel computation,
and the exact closure against it; and certified_dim against the
dimension counted at a degree bound, which can only overcount."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mustab.branches import certified_dim, implicitize, validate_branch
from mustab.exponents import Exponent
from mustab.fields import QQ, FieldSpec
from mustab.groups import GroupScheme
from mustab.ideals import Ideal, _dim_from_leading_monomials, groebner_basis, ideal_member
from mustab.linalg import Echelon, echelon
from mustab.poly import Poly, PolyRing
from mustab.series import PuiseuxSeries
from tests_helpers import (
    closure_relations,
    field_elements,
    monomials_up_to,
    points_ideal,
    random_laurent_point,
    relation_ideal,
    shear_product,
)

F5 = FieldSpec("Fp", p=5)
F9 = FieldSpec("Fq", p=3, modulus=(1, 0, 1))
FIELDS = (QQ, F5, F9)


# -- the dense reference ------------------------------------------------------

def dense_rref(rows):
    """Gauss-Jordan on dense rows with row swaps: (reduced rows, pivots)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def dense_nullspace(rows, ncols, field):
    red, pivots = dense_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for ri, pc in enumerate(pivots):
            vec[pc] = -red[ri][fc]
        basis.append(vec)
    return basis


def dense_kernel(branch, degree_bound):
    """The relation kernel of an exact branch as a dense slot x monomial
    matrix: the monomials in deglex order and the full kernel vectors."""
    field = branch.field
    series_list = branch.element.flat()
    monos = sorted(monomials_up_to(len(series_list), degree_bound), key=lambda m: (sum(m), m))
    by_mono = {}
    for m in monos:
        if any(m):
            i = max(j for j, e in enumerate(m) if e)
            by_mono[m] = by_mono[m[:i] + (m[i] - 1,) + m[i + 1 :]] * series_list[i]
        else:
            by_mono[m] = PuiseuxSeries.one(field)
    evaluated = [by_mono[m] for m in monos]
    slots = sorted({e for s in evaluated for e, _ in s.terms})
    rows = [[s.coefficient(e) for s in evaluated] for e in slots]
    return monos, dense_nullspace(rows, len(monos), field)


def dense_type_dimension(branch, degree_bound):
    """The dimension read through full kernel vectors (the last nonzero
    entry of each)."""
    monos, basis = dense_kernel(branch, degree_bound)
    leads = [[m for c, m in zip(vec, monos) if not c.is_zero()][-1] for vec in basis]
    return _dim_from_leading_monomials(leads, len(branch.scheme.coordinates()))


def kernel_basis(ring, monos, basis):
    """The reduced basis of the ideal the kernel vectors' polynomials
    generate: the whole kernel handed to Buchberger."""
    gens = [Poly(ring, {m: c for m, c in zip(monos, vec) if not c.is_zero()}) for vec in basis]
    return groebner_basis(Ideal(ring, tuple(gens))).gens


def dense_implicitize(branch, degree_bound):
    ring = PolyRing(branch.field, branch.scheme.coordinates())
    return kernel_basis(ring, *dense_kernel(branch, degree_bound))


# -- certified_dim against the count ---------------------------------------------

def laurent_branches(rng):
    """Exact branches over Q, F_5 and F_9 on the additive 3-space and SL2."""
    branches = []
    for field in FIELDS:
        add3 = GroupScheme("Additive", 3, field)
        sl2 = GroupScheme("SL", 2, field)
        branches += [validate_branch(add3, random_laurent_point(add3, rng).entries) for _ in range(6)]
        branches += [validate_branch(sl2, random_laurent_point(sl2, rng).entries) for _ in range(4)]
    return branches


def sqrt_branches(rng):
    """Exact plane branches over Q with exponents in Q + Q*sqrt(d)."""
    add2 = GroupScheme("Additive", 2, QQ)
    branches = []
    for d in (2, 3, 5):
        for _ in range(4):
            entries = []
            for _ in range(2):
                terms = {}
                for _ in range(rng.randrange(1, 4)):
                    e = Exponent(Fraction(rng.randrange(-3, 3)), Fraction(rng.choice([0, 1, -1])), d)
                    terms[e] = QQ.from_int(rng.choice([1, -1, 2]))
                entries.append(PuiseuxSeries(QQ, list(terms.items()), None))
            branches.append(validate_branch(add2, tuple(entries)))
    return branches


def test_certified_dim_is_below_every_degree_bounded_count():
    """Where the rank bounds meet, their value is dim p, which the closure
    at any degree bound can only overcount."""
    rng = random.Random(13)
    cases = [(b, (2, 3)) for b in laurent_branches(rng) + laurent_branches(rng)]
    cases += [(b, (2, 3, 4)) for b in sqrt_branches(rng) + sqrt_branches(rng)]
    for field in FIELDS:
        add2 = GroupScheme("Additive", 2, field)
        cases += [(validate_branch(add2, random_laurent_point(add2, rng).entries), (2, 3, 4)) for _ in range(8)]
    certified = set()
    for b, degrees in cases:
        dim = certified_dim(b)
        if dim is not None:
            assert all(dim <= dense_type_dimension(b, D) for D in degrees), (str(b), dim)
        certified.add(dim)
    assert {0, 1, 2} <= certified


# -- echelon, rref and nullspace -------------------------------------------------

@st.composite
def matrices(draw):
    """A random sparse matrix of low rank over Q, F_5 or F_9, dense rows."""
    field = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ncols = rng.randrange(1, 9)
    elements = [field.from_int(k) for k in range(-3, 4)] if field.char == 0 else field_elements(field)

    def scalar():
        return field.zero() if rng.random() < 0.5 else rng.choice(elements)

    base = [[scalar() for _ in range(ncols)] for _ in range(rng.randrange(0, 5))]
    rows = []
    for _ in range(rng.randrange(0, 9)):
        row = [field.zero()] * ncols
        for b in base:
            f = scalar()
            row = [x + f * y for x, y in zip(row, b)]
        rows.append(row)
    return field, ncols, rows


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_echelon_window_rank_is_prefix_rank(m):
    _field, _ncols, rows = m
    pivots = echelon(rows)
    assert pivots == dense_rref(rows)[1]
    for w in range(len(rows) + 1):
        assert len(echelon(rows[:w])) == len(dense_rref(rows[:w])[1])


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_echelon_combinations_are_relations(m):
    """A row that reduces to zero returns the combination of the earlier
    rows that cancels it; the others are independent of the rows before."""
    field, ncols, rows = m
    ech = Echelon()
    for k, row in enumerate(rows):
        comb = ech.add(row, k)
        independent = len(dense_rref(rows[: k + 1])[1]) > len(dense_rref(rows[:k])[1])
        assert (comb is None) == independent
        if comb is not None:
            assert all(j < k and not c.is_zero() for j, c in comb.items())
            total = list(row)
            for j, c in comb.items():
                total = [x + c * y for x, y in zip(total, rows[j])]
            assert all(x.is_zero() for x in total)


@st.composite
def sparse_rows(draw):
    """Random sparse rows (dicts) over Q, F_5 or F_9, many of them sums of
    earlier rows, so that long chains of pivots feed each relation."""
    field = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ncols = rng.randrange(1, 16)
    elements = [field.from_int(k) for k in range(-3, 4)] if field.char == 0 else field_elements(field)
    nonzero = [x for x in elements if not x.is_zero()]
    rows: list[dict] = []
    for _ in range(rng.randrange(0, 24)):
        if rows and rng.random() < 0.4:
            row: dict = {}
            for src in rng.sample(rows, rng.randrange(1, min(3, len(rows)) + 1)):
                f = rng.choice(nonzero)
                for c, x in src.items():
                    row[c] = row[c] + f * x if c in row else f * x
            row = {c: x for c, x in row.items() if not x.is_zero()}
        else:
            row = {c: rng.choice(nonzero) for c in rng.sample(range(ncols), rng.randrange(0, min(4, ncols) + 1))}
        rows.append(row)
    return field, rows


@settings(max_examples=150, deadline=None)
@given(sparse_rows())
def test_echelon_combinations_cancel_sparse_rows_exactly(case):
    """On sparse rows with long chains of pivots, each returned combination
    cancels its row exactly, and unkeyed rows give the same pivot
    columns."""
    field, rows = case
    ech = Echelon()
    for k, row in enumerate(rows):
        comb = ech.add(row, k)
        if comb is not None:
            total = dict(row)
            for j, c in comb.items():
                for col, x in rows[j].items():
                    total[col] = total[col] + c * x if col in total else c * x
            assert all(x.is_zero() for x in total.values())
    assert echelon(rows) == ech._cols


@settings(max_examples=150, deadline=None)
@given(sparse_rows())
def test_reduced_echelon_form_spans_the_rows(case):
    """Each reduced row is zero at every other pivot column, the pivot
    columns are those of `echelon`, and every input row reduces to zero
    against the reduced rows."""
    field, rows = case
    ech = Echelon()
    for row in rows:
        ech.add(row)
    reduced = ech.reduced()
    assert list(reduced) == echelon(rows)
    for c, tail in reduced.items():
        assert min(tail, default=c + 1) > c
        assert not set(tail) & set(reduced)
        assert not any(x.is_zero() for x in tail.values())
    span = Echelon()
    for c, tail in reduced.items():
        assert span.add({c: field.one(), **tail}) is None
    for row in rows:
        assert span.add(row) == {}


# -- the relation walk against the dense kernel -----------------------------------

def laurent_point_branch(kind, n):
    """A branch at a random Laurent point of G(K), y included on GL."""
    def build(field, rng):
        g = random_laurent_point(GroupScheme(kind, n, field), rng)
        return validate_branch(g.scheme, g.entries)
    return build


BRANCH_FAMILIES = {
    # name -> (branch from (field, rng), the degree bounds tried)
    "additive3": (laurent_point_branch("Additive", 3), (1, 2, 3)),
    "sl2": (laurent_point_branch("SL", 2), (1, 2, 3)),
    "gl2": (laurent_point_branch("GL", 2), (1, 2, 3)),
    "sl3_shears": (lambda field, rng: shear_product(GroupScheme("SL", 3, field), rng), (1, 2)),
    "sqrt": (lambda _field, rng: rng.choice(sqrt_branches(rng)), (1, 2, 3, 4)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BRANCH_FAMILIES)), st.sampled_from(FIELDS), st.integers(0, 2**32))
def test_implicitize_matches_the_dense_kernel(family, field, seed):
    """The walk's relations generate the ideal of the whole kernel: the
    same reduced basis.  On a branch with exponents of rational rank 1 the
    exact closure contains them."""
    build, degrees = BRANCH_FAMILIES[family]
    rng = random.Random(seed)
    branch = build(field, rng)
    ring = PolyRing(branch.field, branch.scheme.coordinates())
    closure = implicitize(branch) if family != "sqrt" else None
    for D in degrees:
        got = relation_ideal(ring, closure_relations(branch, D)).gens
        assert got == dense_implicitize(branch, D), (str(branch), D)
        if closure is not None:
            assert all(ideal_member(g, closure) for g in got), (str(branch), D)


@st.composite
def point_clouds(draw):
    field = draw(st.sampled_from(FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ring = PolyRing(field, ("a", "b", "c")[: rng.randrange(1, 4)])
    small = [field.from_int(k) for k in range(-2, 3)] if field.char == 0 else field_elements(field)
    points = [{v: rng.choice(small) for v in ring.variables} for _ in range(rng.randrange(0, 7))]
    return ring, points, rng.randrange(1, 4)


@settings(max_examples=80, deadline=None)
@given(point_clouds())
def test_point_relations_match_the_dense_kernel(cloud):
    ring, points, degree = cloud
    monos = sorted(monomials_up_to(ring.nvars, degree), key=lambda m: (sum(m), m))
    rows = [[Poly(ring, {m: ring.field.one()}).eval_scalars(pt) for m in monos] for pt in points]
    expected = kernel_basis(ring, monos, dense_nullspace(rows, len(monos), ring.field))
    assert points_ideal(points, ring, degree).gens == expected
