"""Linear algebraic groups as matrix schemes over the series field.

GL(n) carries an explicit inverse-determinant coordinate y (so all
defining data stays polynomial), SL(n) is cut out by det = 1, Additive(n)
is the vector group, and Subgroup wraps a parent scheme with extra
equations.  GroupElement holds series entries; KPoint holds residue-field
entries.  The residue retraction, the infinitesimal kernel test and the
Iwasawa decomposition live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NotIntegral,
    NotOnGroup,
    PrecisionInsufficient,
    SingularAtPrecision,
)
from .exponents import exp
from .fields import FieldSpec, Scalar
from .ideals import Ideal
from .poly import Poly, PolyRing, eval_poly
from .series import PuiseuxSeries, ScalarDomain


def additive_coordinates(n: int) -> tuple[str, ...]:
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{i + 1}" for i in range(n))


def matrix_coordinates(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}{j + 1}" for i in range(n) for j in range(n))


@dataclass(frozen=True)
class GroupScheme:
    kind: str                       # GL | SL | Additive | Subgroup
    n: int
    field: FieldSpec
    parent: GroupScheme | None = None
    subgroup_ideal: Ideal | None = None

    def __post_init__(self):
        if self.kind not in ("GL", "SL", "Additive", "Subgroup"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "Subgroup":
            if self.parent is None or self.subgroup_ideal is None:
                raise ValueError("Subgroup requires a parent scheme and an ideal")
            if self.subgroup_ideal.ring.variables != self.parent.coordinates():
                raise ValueError("subgroup ideal must live in the parent's coordinates")

    @property
    def root(self) -> GroupScheme:
        return self.parent.root if self.kind == "Subgroup" else self

    @property
    def is_matrix(self) -> bool:
        return self.root.kind in ("GL", "SL")

    def coordinates(self) -> tuple[str, ...]:
        r = self.root
        if r.kind == "Additive":
            return additive_coordinates(r.n)
        coords = matrix_coordinates(r.n)
        return coords + ("y",) if r.kind == "GL" else coords

    def coordinate_ring(self, order: str = "grevlex") -> PolyRing:
        return PolyRing(self.field, self.coordinates(), order)

    def defining_polys(self, ring: PolyRing | None = None) -> list[Poly]:
        ring = ring or self.coordinate_ring()
        r = self.root
        polys: list[Poly] = []
        if r.kind in ("GL", "SL"):
            det = symbolic_det(ring, r.n)
            if r.kind == "SL":
                polys.append(det - ring.one())
            else:
                polys.append(det * ring.var("y") - ring.one())
        if self.kind == "Subgroup":
            polys = self.parent.defining_polys(ring) + [g.restrict(ring) for g in self.subgroup_ideal.gens]
        return polys

    def identity(self) -> KPoint:
        r = self.root
        if r.kind == "Additive":
            return KPoint(self, tuple(self.field.zero() for _ in range(r.n)))
        rows = tuple(
            tuple(self.field.one() if i == j else self.field.zero() for j in range(r.n)) for i in range(r.n)
        )
        y = self.field.one() if r.kind == "GL" else None
        return KPoint(self, rows, y)

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
        return GroupScheme(kind, int(data["n"]), field)

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


def with_unit_det(rows) -> list[list[PuiseuxSeries]]:
    """A copy of the series matrix rows with its last diagonal entry solved from det = 1."""
    n = len(rows)
    one = PuiseuxSeries.one(rows[0][0].dom)
    rows = [list(row) for row in rows]
    rows[n - 1][n - 1] = one
    cof = mat_det([row[: n - 1] for row in rows[: n - 1]]) if n > 1 else one
    full = mat_det(rows)
    # det is affine in the entry: det = full - cof + cof * x
    rows[n - 1][n - 1] = (one - (full - cof)) * cof.inv()
    return rows


class GroupElement:
    """A point of the scheme over the series field; entries are validated
    against the defining equations up to their tracked precision."""

    __slots__ = ("scheme", "entries", "y")

    def __init__(self, scheme: GroupScheme, entries, y: PuiseuxSeries | None = None, check: bool = True):
        self.scheme = scheme
        r = scheme.root
        if r.kind == "Additive":
            self.entries = tuple(entries)
            self.y = None
        else:
            self.entries = tuple(tuple(row) for row in entries)
            if r.kind == "GL":
                if y is None:
                    y = mat_det(self.entries).inv()
                self.y = y
            else:
                self.y = None
        if check:
            self._validate()

    def _dom(self):
        r = self.scheme.root
        first = self.entries[0] if r.kind == "Additive" else self.entries[0][0]
        return first.dom

    def _values(self) -> dict[str, PuiseuxSeries]:
        r = self.scheme.root
        names = self.scheme.coordinates()
        if r.kind == "Additive":
            vals = dict(zip(names, self.entries))
        else:
            flat = [self.entries[i][j] for i in range(r.n) for j in range(r.n)]
            if r.kind == "GL":
                flat.append(self.y)
            vals = dict(zip(names, flat))
        return vals

    def _validate(self):
        ring = self.scheme.coordinate_ring()
        values = self._values()
        dom = self._dom()
        for eq in self.scheme.defining_polys(ring):
            out = eval_poly_series(eq, values, dom)
            if out.terms:
                e, c = out.terms[0]
                raise NotOnGroup(f"equation {eq} has residual {c} * t^({e})")

    # -- group operations ------------------------------------------------
    def mul(self, other: GroupElement) -> GroupElement:
        if self.scheme != other.scheme:
            raise NotOnGroup("elements of different schemes")
        r = self.scheme.root
        if r.kind == "Additive":
            return GroupElement(self.scheme, tuple(a + b for a, b in zip(self.entries, other.entries)), check=False)
        y = self.y * other.y if r.kind == "GL" else None
        return GroupElement(self.scheme, mat_mul(self.entries, other.entries), y, check=False)

    def inv(self) -> GroupElement:
        r = self.scheme.root
        if r.kind == "Additive":
            return GroupElement(self.scheme, tuple(-a for a in self.entries), check=False)
        adj = mat_adjugate(self.entries)
        if r.kind == "SL":
            return GroupElement(self.scheme, adj, check=False)
        det = mat_det(self.entries)
        entries = tuple(tuple(e * self.y for e in row) for row in adj)
        return GroupElement(self.scheme, entries, det, check=False)

    def _flat(self):
        r = self.scheme.root
        if r.kind == "Additive":
            return list(self.entries)
        return [self.entries[i][j] for i in range(r.n) for j in range(r.n)]

    def is_integral(self) -> bool:
        """All entries have valuation >= 0 and (matrix case) det is a unit."""
        for s in self._flat():
            if s.terms:
                if s.terms[0][0].sign() < 0:
                    return False
            elif s.precision is not None and s.precision.sign() <= 0:
                raise PrecisionInsufficient(f"entry {s} has no certified leading term")
        r = self.scheme.root
        if r.kind in ("GL", "SL"):
            det = mat_det(self.entries)
            if not det.terms:
                if det.precision is not None and det.precision.sign() <= 0:
                    raise PrecisionInsufficient("determinant has no certified leading term")
                return False
            if det.val().sign() != 0:
                return False
        return True

    def res(self) -> KPoint:
        """Entrywise residue; a group retraction on integral points."""
        if not self.is_integral():
            raise NotIntegral(f"cannot take residues of {self}")
        r = self.scheme.root
        if r.kind == "Additive":
            return KPoint(self.scheme, tuple(s.res() for s in self.entries))
        rows = tuple(tuple(s.res() for s in row) for row in self.entries)
        y = None
        if r.kind == "GL":
            det = mat_det(self.entries)
            y = det.res().inv()
        return KPoint(self.scheme, rows, y)

    def in_mu(self) -> bool:
        """Kernel of the residue retraction: integral with identity residue."""
        try:
            if not self.is_integral():
                return False
        except PrecisionInsufficient:
            raise
        return self.res() == self.scheme.identity()

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and self.scheme == other.scheme
            and self.entries == other.entries
        )

    def __str__(self):
        r = self.scheme.root
        if r.kind == "Additive":
            return "(" + ", ".join(str(s) for s in self.entries) + ")"
        return "[" + "; ".join(", ".join(str(s) for s in row) for row in self.entries) + "]"

    def __repr__(self):
        return f"GroupElement({self})"


@dataclass(frozen=True)
class KPoint:
    """A point over the residue field k."""

    scheme: GroupScheme
    entries: tuple
    y: Scalar | None = None

    def __post_init__(self):
        if self.scheme.root.kind == "GL" and self.y is None:
            object.__setattr__(self, "y", mat_det(self.entries).inv())
        ring = self.scheme.coordinate_ring()
        values = self._values()
        for eq in self.scheme.defining_polys(ring):
            v = eq.eval_scalars(values)
            if not v.is_zero():
                raise NotOnGroup(f"k-point fails {eq} (value {v})")

    def _values(self) -> dict[str, Scalar]:
        r = self.scheme.root
        names = self.scheme.coordinates()
        if r.kind == "Additive":
            return dict(zip(names, self.entries))
        flat = [self.entries[i][j] for i in range(r.n) for j in range(r.n)]
        if r.kind == "GL":
            flat.append(self.y)
        return dict(zip(names, flat))

    def mul(self, other: KPoint) -> KPoint:
        r = self.scheme.root
        if r.kind == "Additive":
            return KPoint(self.scheme, tuple(a + b for a, b in zip(self.entries, other.entries)))
        y = self.y * other.y if r.kind == "GL" else None
        return KPoint(self.scheme, mat_mul(self.entries, other.entries), y)

    def inv(self) -> KPoint:
        r = self.scheme.root
        if r.kind == "Additive":
            return KPoint(self.scheme, tuple(-a for a in self.entries))
        det = mat_det(self.entries)
        adj = mat_adjugate(self.entries)
        dinv = det.inv()
        rows = tuple(tuple(e * dinv for e in row) for row in adj)
        return KPoint(self.scheme, rows, det if r.kind == "GL" else None)

    def is_identity(self) -> bool:
        return self == self.scheme.identity()

    def to_series(self) -> GroupElement:
        """Embed as an exact constant series point."""
        dom = ScalarDomain(self.scheme.field)
        r = self.scheme.root
        if r.kind == "Additive":
            return GroupElement(self.scheme, tuple(PuiseuxSeries.constant(dom, c) for c in self.entries), check=False)
        rows = tuple(tuple(PuiseuxSeries.constant(dom, c) for c in row) for row in self.entries)
        y = PuiseuxSeries.constant(dom, self.y) if r.kind == "GL" else None
        return GroupElement(self.scheme, rows, y, check=False)

    def __str__(self):
        r = self.scheme.root
        if r.kind == "Additive":
            return "(" + ", ".join(str(s) for s in self.entries) + ")"
        return "[" + "; ".join(", ".join(str(s) for s in row) for row in self.entries) + "]"


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
    u_rows = [[_const_like(a, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    # inversion window wide enough that intermediate entries (valuations
    # bounded by n times the input exponent span) keep visible leading terms
    span = Fraction(0)
    for entry in a._flat():
        for e, _ in entry.terms:
            bound = abs(e.a) + abs(e.b) * 2
            if bound > span:
                span = bound
    inv_prec = exp(span * (n + 1) + 8)

    for j in range(n):
        piv, piv_val = None, None
        for i in range(j, n):
            s = rows[i][j]
            if s.terms:
                v = s.val()
                if piv_val is None or v < piv_val:
                    piv, piv_val = i, v
            elif s.precision is not None and s.precision.sign() <= 0:
                raise SingularAtPrecision(f"entry ({i},{j}) has no certified leading term")
        if piv is None:
            all_zero = all(not rows[i][j].terms for i in range(j, n))
            if all_zero and all(rows[i][j].is_exact() for i in range(j, n)):
                raise SingularAtPrecision(f"column {j} has no usable pivot")
            raise SingularAtPrecision(f"column {j} pivot unknown at current precision")
        if piv != j:
            # rotation swap: row_j <- row_piv, row_piv <- -row_j (det 1)
            rows[j], rows[piv] = rows[piv], [-s for s in rows[j]]
            u_rows[j], u_rows[piv] = u_rows[piv], [-s for s in u_rows[j]]
        for i in range(j + 1, n):
            s = rows[i][j]
            if not s.terms:
                continue
            m = s * rows[j][j].inv(prec=inv_prec)
            rows[i] = [x - m * yv for x, yv in zip(rows[i], rows[j])]
            u_rows[i] = [x - m * yv for x, yv in zip(u_rows[i], u_rows[j])]
    # rows = L * a where L is the accumulated transform; a = L^-1 * rows
    l_elem = GroupElement(a.scheme, tuple(tuple(row) for row in u_rows), check=False)
    u = l_elem.inv()
    b = GroupElement(a.scheme, tuple(tuple(row) for row in rows), check=False)
    return u, b


def _const_like(a: GroupElement, value: int) -> PuiseuxSeries:
    dom = a._dom()
    if value == 0:
        return PuiseuxSeries.zero(dom)
    return PuiseuxSeries.constant(dom, a.scheme.field.from_int(value))


def unipotent_embedding(a: GroupElement) -> GroupElement:
    """Adapter from Additive(n) to the [[1, v], [0, I]] block in SL(n+1),
    for algorithms that want matrices."""
    r = a.scheme.root
    if r.kind != "Additive":
        raise ValueError("unipotent embedding applies to additive elements")
    n = r.n
    scheme = GroupScheme("SL", n + 1, a.scheme.field)
    dom = a._dom()
    one = PuiseuxSeries.constant(dom, a.scheme.field.one())
    zero = PuiseuxSeries.zero(dom)
    rows = []
    rows.append(tuple([one] + list(a.entries)))
    for i in range(n):
        rows.append(tuple([zero] * (i + 1) + [one] + [zero] * (n - 1 - i)))
    return GroupElement(scheme, tuple(rows), check=False)
