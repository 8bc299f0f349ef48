"""Dense exact linear algebra over a Scalar field (desk scale)."""

from __future__ import annotations

from .fields import FieldSpec, Scalar


def rref(rows: list[list[Scalar]], field: FieldSpec) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
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


def nullspace(rows: list[list[Scalar]], ncols: int, field: FieldSpec) -> list[list[Scalar]]:
    """Basis of the right kernel, in reduced form (free variable = 1)."""
    red, pivots = rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [field.zero()] * ncols
        vec[fc] = field.one()
        for ri, pc in enumerate(pivots):
            vec[pc] = -red[ri][fc]
        basis.append(vec)
    return basis
