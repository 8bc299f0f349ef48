"""Linear algebraic groups as matrix schemes over the series field.

GL(n) carries an explicit inverse-determinant coordinate y (so all
defining data stays polynomial), SL(n) is cut out by det = 1, Additive(n)
is the vector group, and Subgroup wraps a parent scheme with extra
equations.  GroupElement holds series entries; KPoint holds residue-field
entries.  The residue retraction, the infinitesimal kernel test, the
Iwasawa decomposition and the one builder of random points (bordering
leading blocks, random_entries) live here.

Coordinate layout.  This module alone knows how a point is laid out, and
the other modules go through GroupScheme.flatten / shape / map_entries and
the group law on flat tuples (mul_values / inv_values):
- Additive(n): `entries` is the vector (v1, ..., vn); the coordinates are
  the first n of x, y, z when n <= 3, else x1, ..., xn;
- SL(n): `entries` is a tuple of n rows; the coordinates are x11, x12,
  ..., xnn, row by row;
- GL(n): the SL layout, plus y = det^-1 stored beside the rows and listed
  last among the coordinates;
- Subgroup: the layout of its root scheme.
A flat tuple holds a point's values in coordinates() order.  The group law
on it uses only + - *, so one implementation serves points over k, k[x],
the series field and k[x] with series coefficients.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice

from .errors import (
    NotIntegral,
    NotOnGroup,
    PivotUnknown,
    PrecisionInsufficient,
    SingularAtPrecision,
)
from .exponents import exp
from .fields import FieldSpec, Scalar
from .ideals import Ideal
from .poly import Poly, PolyRing, eval_poly
from .records import Frozen
from .series import PuiseuxSeries


def additive_coordinates(n: int) -> tuple[str, ...]:
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def matrix_coordinates(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}{j + 1}" for i in range(n) for j in range(n))


class GroupScheme(Frozen):
    # __dict__ holds the cached properties
    __slots__ = ("kind", "n", "field", "parent", "subgroup_ideal", "__dict__")

    def __init__(
        self,
        kind: str,  # GL | SL | Additive | Subgroup
        n: int,
        field: FieldSpec,
        parent: GroupScheme | None = None,
        subgroup_ideal: Ideal | None = None,
    ):
        if kind not in ("GL", "SL", "Additive", "Subgroup"):
            raise ValueError(f"unknown scheme kind {kind!r}")
        if kind == "Subgroup":
            if parent is None or subgroup_ideal is None:
                raise ValueError("Subgroup requires a parent scheme and an ideal")
            if subgroup_ideal.ring.variables != parent.coordinates():
                raise ValueError("subgroup ideal must live in the parent's coordinates")
        self._set(kind, n, field, parent, subgroup_ideal)

    @property
    def root(self) -> GroupScheme:
        return self.parent.root if self.kind == "Subgroup" else self

    @property
    def is_matrix(self) -> bool:
        return self.root.kind in ("GL", "SL")

    def coordinates(self) -> tuple[str, ...]:
        return self._coordinates

    @cached_property
    def _coordinates(self) -> tuple[str, ...]:
        r = self.root
        if r.kind == "Additive":
            return additive_coordinates(r.n)
        coords = matrix_coordinates(r.n)
        return coords + ("y",) if r.kind == "GL" else coords

    # -- the coordinate layout and the group law -----------------------------
    def flatten(self, entries, y=None) -> tuple:
        """A point's values in coordinates() order: the vector, or the rows
        one after another, then y when one is given (GL).  Raises
        ValueError when the entries are not n values or n rows of n."""
        r = self.root
        if r.kind == "Additive":
            flat = tuple(entries)
            if len(flat) != r.n:
                raise ValueError(f"{r.kind}({r.n}) takes {r.n} entries, not {len(flat)}")
        else:
            lengths = list(map(len, entries))
            if lengths != [r.n] * r.n:
                raise ValueError(f"{r.kind}({r.n}) takes {r.n} rows of {r.n} entries, not rows of {lengths}")
            flat = tuple(chain.from_iterable(entries))
        return flat if y is None else flat + (y,)

    def shape(self, flat) -> tuple:
        """(entries, y) from a sequence in coordinates() order, the inverse
        of flatten; y is None off GL and when the sequence stops before it."""
        r = self.root
        if r.kind == "Additive":
            return tuple(flat), None
        n = r.n
        # n rows of n drawn from one iterator over the entries, y left out
        rows = tuple(zip(*[islice(flat, n * n)] * n))
        return rows, (flat[n * n] if len(flat) > n * n else None)

    def map_entries(self, entries, f):
        """Entries of the same layout holding f of each entry."""
        return self.shape([f(e) for e in self.flatten(entries)])[0]

    def mul_values(self, u, v) -> tuple:
        """The product of two points given as flat value tuples.

        Only + and * are used, so the values may be Scalar, Poly or
        PuiseuxSeries; y is carried when both factors carry it."""
        if self.root.kind == "Additive":
            return tuple(a + b for a, b in zip(u, v))
        (a, ya), (b, yb) = self.shape(u), self.shape(v)
        return self.flatten(mat_mul(a, b), None if ya is None or yb is None else ya * yb)

    def inv_values(self, u) -> tuple:
        """The inverse of a point given as a flat value tuple, by + - * only:
        the adjugate on SL (det = 1); on GL the adjugate times y, whose
        inverse is det."""
        r = self.root
        if r.kind == "Additive":
            return tuple(-a for a in u)
        a, y = self.shape(u)
        adj = mat_adjugate(a)
        if r.kind == "SL":
            return self.flatten(adj)
        return self.flatten(tuple(tuple(e * y for e in row) for row in adj), mat_det(a))

    # -- equations, built once per scheme -------------------------------------
    @cached_property
    def _ring(self) -> PolyRing:
        return PolyRing(self.field, self.coordinates())

    @cached_property
    def _equations(self) -> tuple[Poly, ...]:
        ring = self._ring
        if self.kind == "Subgroup":
            return self.parent._equations + tuple(g.restrict(ring) for g in self.subgroup_ideal.gens)
        if self.kind == "Additive":
            return ()
        det = symbolic_det(ring, self.n)
        return (det - ring.one(),) if self.kind == "SL" else (det * ring.var("y") - ring.one(),)

    def coordinate_ring(self) -> PolyRing:
        return self._ring

    def defining_polys(self, ring: PolyRing | None = None) -> list[Poly]:
        """The scheme equations, in coordinate_ring() unless another ring
        holding the coordinates is given."""
        if ring is None or ring == self._ring:
            return list(self._equations)
        return [g.restrict(ring) for g in self._equations]

    def identity(self) -> KPoint:
        r = self.root
        if r.kind == "Additive":
            return KPoint(self, tuple(self.field.zero() for _ in range(r.n)))
        rows = tuple(
            tuple(self.field.one() if i == j else self.field.zero() for j in range(r.n)) for i in range(r.n)
        )
        y = self.field.one() if r.kind == "GL" else None
        return KPoint(self, rows, y)

    @cached_property
    def identity_ideal(self) -> Ideal:
        """The ideal of the identity point in coordinate_ring()."""
        ring = self._ring
        ident = self.identity()._values()
        return Ideal(ring, tuple(ring.var(n) - ring.from_scalar(ident[n]) for n in self.coordinates()))

    def to_json(self) -> dict:
        if self.kind == "Subgroup":
            return {
                "kind": "Subgroup",
                "parent": self.parent.to_json(),
                "ideal": [str(g) for g in self.subgroup_ideal.gens],
            }
        return {"kind": self.kind, "n": self.n}

    @staticmethod
    def from_json(data: dict, field: FieldSpec) -> GroupScheme:
        kind = data["kind"]
        if kind == "Subgroup":
            parent = GroupScheme.from_json(data["parent"], field)
            ring = parent.coordinate_ring()
            gens = tuple(ring.parse(s) for s in data["ideal"])
            return GroupScheme("Subgroup", parent.n, field, parent, Ideal(ring, gens))
        n = data["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"group size n must be an integer >= 1, not {n!r}")
        return GroupScheme(kind, n, field)

    def __str__(self):
        if self.kind == "Subgroup":
            return f"Subgroup of {self.parent}"
        return f"{self.kind}({self.n}) over {self.field}"


def symbolic_det(ring: PolyRing, n: int) -> Poly:
    """Determinant of the matrix of coordinate variables x_ij."""
    return mat_det([[ring.var(f"x{i + 1}{j + 1}") for j in range(n)] for i in range(n)])


def eval_poly_series(p: Poly, values: dict[str, PuiseuxSeries], dom) -> PuiseuxSeries:
    return eval_poly(p, values, lambda c: PuiseuxSeries.constant(dom, c), PuiseuxSeries.zero(dom))


# -- matrices over k, k[x] and the series field -------------------------------

def mat_mul(a, b):
    """Product of n x n matrices by + and * only: Poly and truncated series have no exact division."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for k in range(1, n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_det(rows):
    """Cofactor expansion along the first row, by + - * only: Poly and truncated series have no exact division."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * mat_det(minor)
        if acc is None:
            acc = term
        else:
            acc = acc + term if j % 2 == 0 else acc - term
    return acc


def mat_adjugate(rows):
    """Transposed cofactor matrix, by + - * only: Poly and truncated series have no exact division."""
    n = len(rows)
    if n == 1:
        # the cofactor of a 1 x 1 matrix is the empty determinant, 1;
        # x ** 0 is the one of x's ring
        return ((rows[0][0] ** 0,),)
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            cof = mat_det(minor)
            out_row.append(cof if (i + j) % 2 == 0 else -cof)
        out.append(tuple(out_row))
    return tuple(out)


def with_det(rows, target=None) -> list[list]:
    """A copy of the square matrix rows with its last diagonal entry solved
    so that the determinant is target, the entries' one when omitted.  The
    entries lie in a field (Scalar or series); the leading minor must be
    invertible."""
    n = len(rows)
    # x ** 0 is the one of x's ring
    one = rows[0][0] ** 0
    target = one if target is None else target
    rows = [list(row) for row in rows]
    rows[n - 1][n - 1] = one
    cof = mat_det([row[: n - 1] for row in rows[: n - 1]]) if n > 1 else one
    full = mat_det(rows)
    # det is affine in the entry: det = full - cof + cof * x
    rows[n - 1][n - 1] = (target - (full - cof)) * cof.inv()
    return rows


class _Point:
    """What GroupElement and KPoint share: the flat values and the group law."""

    __slots__ = ()

    def flat(self) -> tuple:
        """Every coordinate value in coordinates() order, y included."""
        return self.scheme.flatten(self.entries, self.y)

    def entries_flat(self) -> tuple:
        """The vector or matrix entries in coordinates() order, without y."""
        return self.scheme.flatten(self.entries)

    def _values(self) -> dict:
        return dict(zip(self.scheme.coordinates(), self.flat()))

    def mul(self, other):
        if self.scheme != other.scheme:
            raise NotOnGroup("elements of different schemes")
        return self._from_flat(self.scheme.mul_values(self.flat(), other.flat()))

    def inv(self):
        return self._from_flat(self.scheme.inv_values(self.flat()))

    def map(self, f) -> GroupElement:
        """The series point whose every coordinate, y included, is f of this
        point's; not validated."""
        return GroupElement(self.scheme, *self.scheme.shape([f(v) for v in self.flat()]), check=False)

    def __str__(self):
        if self.scheme.root.kind == "Additive":
            return "(" + ", ".join(str(s) for s in self.entries) + ")"
        return "[" + "; ".join(", ".join(str(s) for s in row) for row in self.entries) + "]"


class GroupElement(_Point):
    """A point of the scheme over the series field; entries are validated
    against the defining equations up to their tracked precision."""

    __slots__ = ("scheme", "entries", "y")

    def __init__(self, scheme: GroupScheme, entries, y: PuiseuxSeries | None = None, check: bool = True):
        self.scheme = scheme
        self.entries, _ = scheme.shape(scheme.flatten(entries))
        if scheme.root.kind == "GL":
            self.y = mat_det(self.entries).inv() if y is None else y
        else:
            self.y = None
        if check:
            self._validate()

    def _from_flat(self, flat) -> GroupElement:
        return GroupElement(self.scheme, *self.scheme.shape(flat), check=False)

    def _dom(self):
        return self.entries_flat()[0].dom

    def _validate(self):
        values = self._values()
        dom = self._dom()
        for eq in self.scheme._equations:
            out = eval_poly_series(eq, values, dom)
            if out.terms:
                e, c = out.terms[0]
                raise NotOnGroup(f"equation {eq} has residual {c} * t^({e})")

    def _residues(self) -> list | None:
        """The entries' residues, in entries_flat order, when the point is
        integral: every entry has valuation >= 0 and (matrix case) det is a
        unit; else None.  Every entry is then known at t^0, so the residue
        of det is the det of the residues, a unit exactly when nonzero."""
        out = []
        for s in self.entries_flat():
            if s.terms:
                if s.terms[0][0].sign() < 0:
                    return None
            elif s.precision is not None and s.precision.sign() <= 0:
                raise PrecisionInsufficient(f"entry {s} has no certified leading term")
            out.append(s.res())
        if self.scheme.is_matrix and mat_det(self.scheme.shape(out)[0]).is_zero():
            return None
        return out

    def is_integral(self) -> bool:
        """All entries have valuation >= 0 and (matrix case) det is a unit."""
        return self._residues() is not None

    def res(self) -> KPoint:
        """Entrywise residue; a group retraction on integral points.  On GL
        the residue's y is recomputed from its entries."""
        out = self._residues()
        if out is None:
            raise NotIntegral(f"cannot take residues of {self}")
        return KPoint(self.scheme, *self.scheme.shape(out))

    def in_mu(self) -> bool:
        """Kernel of the residue retraction: integral with identity residue."""
        try:
            return self.res() == self.scheme.identity()
        except NotIntegral:
            return False

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.scheme == other.scheme
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"GroupElement({self})"


class KPoint(_Point, Frozen):
    """A point over the residue field k."""

    __slots__ = ("scheme", "entries", "y")

    def __init__(self, scheme: GroupScheme, entries: tuple, y: Scalar | None = None):
        if scheme.root.kind == "GL" and y is None:
            y = mat_det(entries).inv()
        self._set(scheme, entries, y)
        values = self._values()
        for eq in self.scheme._equations:
            v = eq.eval_scalars(values)
            if not v.is_zero():
                raise NotOnGroup(f"k-point fails {eq} (value {v})")

    def _from_flat(self, flat) -> KPoint:
        return KPoint(self.scheme, *self.scheme.shape(flat))

    def to_series(self) -> GroupElement:
        """Embed as an exact constant series point."""
        field = self.scheme.field
        return self.map(lambda c: PuiseuxSeries.constant(field, c))


# -- random points -------------------------------------------------------------

def random_scalar(field: FieldSpec, rng: random.Random, nonzero: bool = False) -> Scalar:
    """A random element of field: an integer in [-4, 4] in characteristic
    0, else the element at a uniform index, so no draw lists the field."""
    while True:
        if field.char == 0:
            c = field.from_int(rng.randrange(-4, 5))
        else:
            c = field.element(rng.randrange(field.order))
        if not (nonzero and c.is_zero()):
            return c


def random_entries(scheme: GroupScheme, draw, unit) -> tuple:
    """(entries, y) of a random point of Additive(n), SL(n) (n >= 2) or
    GL(n), from draw() for a free entry and unit() for an invertible one.

    Additive(n) takes n draws.  A matrix grows from [[unit()]]: each leading
    block is bordered by a column and then a row of draws, and its corner is
    solved so that the block's determinant is a fresh unit(), 1 for the
    whole matrix on SL.  Every leading minor is a unit, so the point lies
    in the big cell; y is the inverse of the last unit on GL."""
    n = scheme.n
    if scheme.kind == "Additive":
        return tuple(draw() for _ in range(n)), None
    if scheme.kind not in ("SL", "GL") or (scheme.kind == "SL" and n < 2):
        raise ValueError(f"no random points on {scheme}")
    det = unit()
    rows = [[det]]
    for k in range(1, n):
        for row in rows:
            row.append(draw())
        rows.append([draw() for _ in range(k)] + [None])  # the corner, solved next
        det = det ** 0 if scheme.kind == "SL" and k == n - 1 else unit()
        rows = with_det(rows, det)
    return tuple(tuple(row) for row in rows), (det.inv() if scheme.kind == "GL" else None)


def random_kpoint(scheme: GroupScheme, rng: random.Random) -> KPoint:
    """A random k-point of Additive(n), SL(n) or GL(n) (random_entries over
    random_scalar).  On SL(2) it draws a, b, c and sets d = (1 + bc)/a."""
    field = scheme.field
    return KPoint(scheme, *random_entries(
        scheme, lambda: random_scalar(field, rng), lambda: random_scalar(field, rng, nonzero=True)
    ))


# -- Iwasawa decomposition ---------------------------------------------------

def iwasawa(a: GroupElement) -> tuple[GroupElement, GroupElement]:
    """Factor a = u * b with u integral (in G(O)) and b upper triangular.

    Column elimination with minimal-valuation pivoting; valuation ties break
    toward the lowest row index so the output is deterministic.  Row swaps
    are realized as rotations (det 1) to stay inside SL.
    """
    r = a.scheme.root
    if r.kind not in ("GL", "SL"):
        raise ValueError("Iwasawa decomposition applies to GL/SL only")
    n = r.n
    rows = [list(row) for row in a.entries]
    # a = u * rows throughout: each row operation on rows applies its
    # inverse to u's columns, so u is built without inverting a matrix
    ident = a.scheme.identity().to_series()
    u_cols = [list(col) for col in zip(*ident.entries)]
    # inversion window wide enough that intermediate entries (valuations
    # bounded by n times the input exponent span) keep visible leading terms
    span = Fraction(0)
    for entry in a.entries_flat():
        for e, _ in entry.terms:
            bound = abs(e.a) + abs(e.b) * 2
            if bound > span:
                span = bound
    inv_prec = exp(span * (n + 1) + 8)

    for j in range(n):
        piv, piv_val = None, None
        unknown = []  # (precision, row) of the entries with no known term
        for i in range(j, n):
            s = rows[i][j]
            if s.terms:
                v = s.val()
                if piv_val is None or v < piv_val:
                    piv, piv_val = i, v
            elif s.precision is not None:
                unknown.append((s.precision, i))
        if piv is None and not unknown:
            raise SingularAtPrecision(f"column {j} has no usable pivot")
        # an entry known only to lie at or above its precision may still
        # have the least valuation, or tie with it from a lower row
        if piv is None or any(p < piv_val or (p == piv_val and i < piv) for p, i in unknown):
            raise PivotUnknown(f"column {j} pivot unknown at current precision")
        if piv != j:
            # rotation swap: row_j <- row_piv, row_piv <- -row_j (det 1)
            rows[j], rows[piv] = rows[piv], [-s for s in rows[j]]
            u_cols[j], u_cols[piv] = u_cols[piv], [-s for s in u_cols[j]]
        for i in range(j + 1, n):
            s = rows[i][j]
            if s.is_zero() and s.is_exact():
                continue
            m = s * rows[j][j].inv(prec=inv_prec)
            rows[i] = [x - m * yv for x, yv in zip(rows[i], rows[j])]
            u_cols[j] = [x + m * yv for x, yv in zip(u_cols[j], u_cols[i])]
    # every operation has det 1, so on GL u's y is the identity's and b's
    # is a's: neither determinant is expanded
    u = GroupElement(a.scheme, tuple(zip(*u_cols)), ident.y, check=False)
    b = GroupElement(a.scheme, tuple(tuple(row) for row in rows), a.y, check=False)
    return u, b

