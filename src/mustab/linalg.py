"""Exact linear algebra over a Scalar field on sparse rows (desk scale).

A row is a dict {column: nonzero Scalar}; a dense list of Scalars is read
as the row of its nonzero entries.  One forward elimination, `echelon`,
gives the pivot columns (the column rank profile) and the rank of a
leading window of rows; `rref` and `nullspace` back-substitute on its
result.
"""

from __future__ import annotations

from bisect import insort

from .fields import FieldSpec, Scalar

Row = dict[int, Scalar]


def _sparse(row) -> Row:
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x for c, x in items if not x.is_zero()}


def _clear(r: Row, c: int, pivot_row: Row) -> None:
    """Subtract from r, in place, the multiple of pivot_row (monic at c)
    that clears column c of r."""
    f = r.pop(c)
    for j, x in pivot_row.items():
        if j == c:
            continue
        v = r[j] - f * x if j in r else -(f * x)
        if v.is_zero():
            del r[j]
        else:
            r[j] = v


def echelon(rows, window: int | None = None) -> tuple[dict[int, Row], int]:
    """Forward elimination of the rows in the given order.

    Returns the pivot rows keyed by pivot column, each monic at its pivot,
    which is its least column, and the rank of rows[:window].  A row is
    reduced only against the pivots found before it, so the pivot columns
    are those of the reduced row echelon form, and no finished row is
    touched again."""
    pivots: dict[int, Row] = {}
    cols: list[int] = []  # pivot columns, ascending
    window_rank = None
    for i, row in enumerate(rows):
        if i == window:
            window_rank = len(pivots)
        r = _sparse(row)
        # clearing column c only adds columns above c, so one ascending
        # pass over the pivots clears them all
        for c in cols:
            if c in r:
                _clear(r, c, pivots[c])
        if r:
            c = min(r)
            lead = r[c]
            if not lead.is_one():
                inv = lead.inv()
                r = {j: x * inv for j, x in r.items()}
            pivots[c] = r
            insort(cols, c)
    return pivots, len(pivots) if window_rank is None else window_rank


def rref(rows) -> dict[int, Row]:
    """Reduced row echelon form: the pivot rows keyed by pivot column, in
    ascending column order, each zero in every other pivot column."""
    pivots, _ = echelon(rows)
    cols = sorted(pivots)
    # clear each pivot column from the rows above it, last column first, so
    # the row used has no later pivot column left to bring back
    for k in range(len(cols) - 1, 0, -1):
        c = cols[k]
        below = pivots[c]
        for upper in cols[:k]:
            if c in pivots[upper]:
                _clear(pivots[upper], c, below)
    return {c: pivots[c] for c in cols}


def nullspace(rows, ncols: int, field: FieldSpec) -> list[Row]:
    """Basis of the right kernel, in reduced form (free variable = 1), one
    sparse vector per non-pivot column in ascending order: the free column
    and the pivot columns whose row holds it, in ascending column order."""
    red = rref(rows)
    one = field.one()
    basis = []
    for fc in range(ncols):
        if fc in red:
            continue
        vec = {pc: -r[fc] for pc, r in red.items() if fc in r}
        vec[fc] = one
        basis.append(vec)
    return basis
