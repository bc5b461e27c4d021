"""Reference oracle: the signed incidence cube and its line-sum checker.

The paper defines a proper or improper square as an n x n x n array over
{-1, 0, 1} indexed by (row, column, symbol).  The library keeps only the
grid and the improper record; tests build the cube here, with numpy, and
compare the library's grid-native readers and `validate` against it, and
read a move as the cube entries it adds 1 to and subtracts 1 from, valid
when that sum is a proper or improper square again.  The
cube checker also examines candidate data that no grid plus record can
express (several negatives, a record that disagrees with its cell).
"""

from __future__ import annotations

import numpy as np

from latinsq.core import ImproperCell, InvalidSquare, SquareState
from latinsq.moves import IntercalateMove


class IncidenceCube:
    """Dense n x n x n array over {-1, 0, 1}, axes ordered (row, col, symbol).

    The backing array is marked read-only.
    """

    __slots__ = ("n", "data")

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data, dtype=np.int8)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise InvalidSquare(f"cube must be cubic, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        self.n = arr.shape[0]
        self.data = arr

    @classmethod
    def of(cls, state: SquareState) -> "IncidenceCube":
        """The incidence cube of a state's grid and record."""
        n, rec = state.n, state.improper
        arr = np.zeros((n, n, n), dtype=np.int8)
        rows, cols = np.indices((n, n))
        arr[rows, cols, np.array(state.grid, dtype=np.intp)] = 1
        if rec is not None:
            arr[rec.row, rec.col, rec.positive_pair[1]] = 1
            arr[rec.row, rec.col, rec.negative] = -1
        return cls(arr)

    def entry(self, r: int, c: int, s: int) -> int:
        return int(self.data[r, c, s])

    def negative_cells(self) -> list[tuple[int, int, int]]:
        return [tuple(int(v) for v in t) for t in zip(*np.nonzero(self.data == -1))]

    def positive_symbols(self, r: int, c: int) -> list[int]:
        return [int(s) for s in np.flatnonzero(self.data[r, c, :] == 1)]

    def symbol_at(self, r: int, c: int) -> int:
        """Symbol of a proper cell (exactly one +1, no -1)."""
        syms = self.positive_symbols(r, c)
        if len(syms) != 1 or self.data[r, c, :].min() < 0:
            raise InvalidSquare(f"cell ({r},{c}) is not a proper cell")
        return syms[0]

    def rows_with(self, c: int, s: int) -> list[int]:
        """Rows holding +1 at (., c, s)."""
        return [int(r) for r in np.flatnonzero(self.data[:, c, s] == 1)]

    def cols_with(self, r: int, s: int) -> list[int]:
        """Columns holding +1 at (r, ., s)."""
        return [int(c) for c in np.flatnonzero(self.data[r, :, s] == 1)]

    def __repr__(self) -> str:
        return f"IncidenceCube(n={self.n})"


def plus_triples(m: IntercalateMove) -> tuple[tuple[int, int, int], ...]:
    """The four cube entries the move adds 1 to."""
    return ((m.i, m.j, m.a), (m.i, m.j2, m.b), (m.i2, m.j, m.b), (m.i2, m.j2, m.a))


def minus_triples(m: IntercalateMove) -> tuple[tuple[int, int, int], ...]:
    """The four cube entries the move subtracts 1 from."""
    return ((m.i, m.j, m.b), (m.i, m.j2, m.a), (m.i2, m.j, m.a), (m.i2, m.j2, m.b))


def is_valid_move(state: SquareState, m: IntercalateMove) -> bool:
    """True iff the move keeps the state a proper or improper square: its
    cube plus the move's +/-1 entries stays inside {-1, 0, 1} with at most
    one -1."""
    if max(m.i2, m.j2, m.a, m.b) >= state.n:
        return False
    data = IncidenceCube.of(state).data.copy()
    for t in plus_triples(m):
        data[t] += 1
    for t in minus_triples(m):
        data[t] -= 1
    return bool(data.max() <= 1 and data.min() >= -1 and (data == -1).sum() <= 1)


def from_cube(cube: IncidenceCube) -> SquareState:
    """Build a state from a cube, deriving the improper record by scan.

    Its grid reads each cell as its first maximal entry, which is the
    smaller positive at an improper cell.
    """
    negatives = cube.negative_cells()
    grid = tuple(map(tuple, cube.data.argmax(axis=2).tolist()))
    if not negatives:
        return SquareState(grid)
    if len(negatives) > 1:
        raise InvalidSquare(f"multiple negative cells: {negatives}")
    r, c, s = negatives[0]
    pos = cube.positive_symbols(r, c)
    if len(pos) != 2:
        raise InvalidSquare(
            f"improper cell ({r},{c}) must carry exactly two positive symbols, got {pos}"
        )
    return SquareState(grid, ImproperCell(r, c, (pos[0], pos[1]), s))


def validate_cube(cube: IncidenceCube, improper: ImproperCell | None) -> list[str]:
    """Check every invariant of a cube and its record; one message per violation.

    Accepts arbitrary candidate data: a bad cube is examined rather than
    rejected up front.
    """
    violations: list[str] = []
    n = cube.n
    if n < 1:
        return [f"order {n} is not positive"]
    data = cube.data

    bad = np.argwhere((data < -1) | (data > 1))
    for r, c, s in bad[:16]:
        violations.append(
            f"entry ({r},{c},{s}) = {int(data[r, c, s])} outside {{-1,0,1}}"
        )

    cell_sums = data.sum(axis=2)
    for r, c in np.argwhere(cell_sums != 1):
        violations.append(
            f"line row={r} col={c} (over symbols) sums to {int(cell_sums[r, c])}"
        )
    row_sums = data.sum(axis=1)
    for r, s in np.argwhere(row_sums != 1):
        violations.append(
            f"line row={r} sym={s} (over columns) sums to {int(row_sums[r, s])}"
        )
    col_sums = data.sum(axis=0)
    for c, s in np.argwhere(col_sums != 1):
        violations.append(
            f"line col={c} sym={s} (over rows) sums to {int(col_sums[c, s])}"
        )

    negatives = cube.negative_cells()
    if len(negatives) > 1:
        violations.append(f"multiple negative cells: {negatives}")
    elif len(negatives) == 1:
        r, c, s = negatives[0]
        pos = cube.positive_symbols(r, c)
        if len(pos) != 2:
            violations.append(
                f"improper cell ({r},{c}) carries {len(pos)} positive symbols, expected 2"
            )
        if improper is None:
            violations.append(f"improper record missing for negative cell ({r},{c})")
        else:
            rec = improper
            if (rec.row, rec.col) != (r, c):
                violations.append(
                    f"improper record at ({rec.row},{rec.col}) but negative cell is ({r},{c})"
                )
            elif rec.negative != s or list(rec.positive_pair) != pos:
                violations.append(
                    f"improper record {rec.positive_pair}-{rec.negative} does not match "
                    f"cell content {tuple(pos)}-{s}"
                )
    else:
        if improper is not None:
            violations.append("improper record present but cube has no negative entry")

    return violations
