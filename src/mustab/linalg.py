"""Exact linear algebra over a Scalar field on sparse rows (desk scale).

A row is a dict {column: nonzero Scalar}; a dense list of Scalars is read
as the row of its nonzero entries.  One forward elimination, `Echelon`,
takes rows one at a time: each is reduced against the pivots kept so far,
and either becomes a new pivot or reduces to zero, when it can report the
linear relation that cleared it; `Echelon.reduced` back-substitutes the
pivots into the reduced row echelon form.  `echelon` gives the pivot
columns (the column rank profile) of a list of rows.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Hashable

from .fields import Scalar

Row = dict[int, Scalar]


def _sparse(row) -> Row:
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: x for c, x in items if not x.is_zero()}


def _subtract(r: dict, f: Scalar, row: dict) -> None:
    """r -= f * row, in place, storing no zero."""
    nf = -f
    for j, x in row.items():
        if j in r:
            v = r[j] + nf * x
            if v.is_zero():
                del r[j]
            else:
                r[j] = v
        else:
            r[j] = nf * x


class Echelon:
    """Rows in echelon form, added one at a time.

    A row is reduced only against the pivots kept before it.  What is left
    becomes a pivot, scaled to 1 at its least column, the pivot column; the
    pivot columns are those of the reduced row echelon form, and no kept
    row is touched again.  A row added under a key also keeps its
    combination, updated at each reduction step: the coefficients, by key,
    of the rows added so far, itself included, whose sum is its pivot row.
    A row added without a key keeps none, so one Echelon takes either
    keyed rows only or unkeyed rows only."""

    def __init__(self):
        # pivot column -> (the pivot row without its leading 1, combination)
        self._pivots: dict[int, tuple[Row, dict]] = {}
        self._cols: list[int] = []  # pivot columns, ascending

    def add(self, row, key: Hashable | None = None) -> dict | None:
        """Reduce row and keep it as a pivot; or, when it reduces to zero,
        keep nothing and return its combination: the row plus the sum of
        c times the row added under k, over its items k: c, is zero."""
        r = _sparse(row)
        comb: dict = {}
        # clearing column c only adds columns above c, so one ascending
        # pass over the pivots clears them all
        for c in self._cols:
            if c in r:
                tail, pcomb = self._pivots[c]
                f = r.pop(c)
                _subtract(r, f, tail)
                if key is not None:
                    _subtract(comb, f, pcomb)
        if not r:
            return comb
        c = min(r)
        inv = r.pop(c).inv()
        if key is not None:
            comb = {k: x * inv for k, x in comb.items()}
            comb[key] = inv
        self._pivots[c] = ({j: x * inv for j, x in r.items()}, comb)
        insort(self._cols, c)
        return None

    def reduced(self) -> dict[int, Row]:
        """The reduced row echelon form of the rows added so far, by back-
        substitution: pivot column -> the rest of its row, which is zero
        at every other pivot column, in ascending pivot column.  The kept
        rows are not touched."""
        out: dict[int, Row] = {}
        # a row's columns all lie above its pivot, so the rows above are
        # final when it comes to be reduced
        for c in reversed(self._cols):
            r = dict(self._pivots[c][0])
            for d in [d for d in r if d in out]:
                _subtract(r, r.pop(d), out[d])
            out[c] = r
        return {c: out[c] for c in self._cols}


def echelon(rows) -> list[int]:
    """The pivot columns of the rows, in ascending order; their number is
    the rank."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech._cols
