"""Exact linear algebra over a Scalar field on sparse rows (desk scale).

A row is a dict {column: nonzero Scalar}; a dense list of Scalars is read
as the row of its nonzero entries.  One forward elimination, `Echelon`,
takes rows one at a time: each is reduced against the pivots kept so far,
and either becomes a new pivot or reduces to zero, when it can report the
linear relation that cleared it.  `echelon` gives the pivot columns (the
column rank profile) of a list of rows.
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
    row is touched again.  A row added under a key also records its
    reduction: its key, the inverse it was scaled by and the (pivot column,
    factor) steps that cleared it.  A row that reduces to zero returns its
    combination, the coefficients, by key, of the rows added before it that
    cancel it, expanded from its steps; the combination of each pivot it
    reaches is built from that pivot's own steps on first use and kept, so
    rows that stay independent never build one."""

    def __init__(self):
        # pivot column -> (the pivot row without its leading 1, the number
        # of pivots kept before it, key, the inverse the row was scaled by,
        # its steps: None without a key)
        self._pivots: dict[int, tuple[Row, int, Hashable, Scalar, list | None]] = {}
        self._cols: list[int] = []  # pivot columns, ascending
        self._combs: dict[int, dict] = {}  # pivot column -> its combination

    def add(self, row, key: Hashable | None = None) -> dict | None:
        """Reduce row and keep it as a pivot; or, when it reduces to zero,
        keep nothing and return its combination: the row plus the sum of
        c times the row added under k, over its items k: c, is zero."""
        r = _sparse(row)
        steps = [] if key is not None else None
        # clearing column c only adds columns above c, so one ascending
        # pass over the pivots clears them all
        for c in self._cols:
            if c in r:
                f = r.pop(c)
                _subtract(r, f, self._pivots[c][0])
                if steps is not None:
                    steps.append((c, f))
        if not r:
            return self._combination(steps) if steps else {}
        c = min(r)
        inv = r.pop(c).inv()
        self._pivots[c] = ({j: x * inv for j, x in r.items()}, len(self._pivots), key, inv, steps)
        insort(self._cols, c)
        return None

    def _combination(self, steps: list) -> dict:
        """The combination of a row reduced by steps.  The pivots the steps
        reach, directly or through other pivots' steps, get their own
        combination first, earliest pivot first."""
        combs = self._combs
        todo = {c for c, _ in steps if c not in combs}
        pending = list(todo)
        while pending:
            for b, _ in self._pivots[pending.pop()][4]:
                if b not in combs and b not in todo:
                    todo.add(b)
                    pending.append(b)
        # a pivot's steps name only pivots kept before it, so each is built
        # from combinations already there
        for c in sorted(todo, key=lambda c: self._pivots[c][1]):
            _, _, key, inv, own = self._pivots[c]
            comb = {k: x * inv for k, x in self._sum(own).items()}
            comb[key] = inv
            combs[c] = comb
        return self._sum(steps)

    def _sum(self, steps: list) -> dict:
        """Minus the sum of f times the combination of pivot c, over the
        steps (c, f)."""
        comb: dict = {}
        for c, f in steps:
            _subtract(comb, f, self._combs[c])
        return comb


def echelon(rows) -> list[int]:
    """The pivot columns of the rows, in ascending order; their number is
    the rank."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech._cols
