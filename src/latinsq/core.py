"""Proper and improper Latin squares: the symbol grid plus the improper record.

A Latin square of order n is the n x n grid of its symbols.  An improper
square carries one improper cell with two positive symbols and one negative
symbol; its record says where that cell is and what it holds, and the grid
holds the smaller positive symbol there.  The signed incidence cube, the
n x n x n array over {-1, 0, 1} indexed by (row, column, symbol) with +1 at
every positive and -1 at the negative, is a derived view: built on first use
and kept, it is what `validate` checks every invariant on.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

import numpy as np


class LatinSquareError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSquare(LatinSquareError):
    """Candidate data does not encode a proper or improper Latin square."""


@dataclass(frozen=True)
class ImproperCell:
    """Location and content of the single negative cell of an improper square.

    ``positive_pair`` is stored sorted ascending; all three symbols are
    pairwise distinct.
    """

    row: int
    col: int
    positive_pair: tuple[int, int]
    negative: int

    def __post_init__(self) -> None:
        p, q = self.positive_pair
        if p > q:
            object.__setattr__(self, "positive_pair", (q, p))
            p, q = q, p
        if p == q or self.negative in (p, q):
            raise InvalidSquare(
                f"improper cell symbols must be pairwise distinct, "
                f"got positives {self.positive_pair} negative {self.negative}"
            )


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


@dataclass(frozen=True)
class SquareState:
    """A proper or improper Latin square: the symbol grid plus the improper record.

    ``grid`` is a tuple of row tuples holding min(positive_pair) at the
    improper cell, as a GridView does; ``improper`` is None exactly when the
    square is proper.  Equality and hashing compare the grid and the record.
    ``cube`` is the derived incidence-cube view.
    """

    grid: tuple[tuple[int, ...], ...]
    improper: ImproperCell | None = None
    _cube: IncidenceCube | None = field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.grid)

    @property
    def is_proper(self) -> bool:
        return self.improper is None

    @property
    def kind(self) -> str:
        return "proper" if self.improper is None else "improper"

    @property
    def cube(self) -> IncidenceCube:
        """The incidence cube of the grid and the record, built once."""
        if self._cube is None:
            n, rec = self.n, self.improper
            arr = np.zeros((n, n, n), dtype=np.int8)
            rows, cols = np.indices((n, n))
            arr[rows, cols, np.array(self.grid, dtype=np.intp)] = 1
            if rec is not None:
                arr[rec.row, rec.col, rec.positive_pair[1]] = 1
                arr[rec.row, rec.col, rec.negative] = -1
            object.__setattr__(self, "_cube", IncidenceCube(arr))
        return self._cube

    @classmethod
    def candidate(cls, cube: IncidenceCube, improper: ImproperCell | None) -> "SquareState":
        """A state whose cube view is ``cube`` and whose record is ``improper``, unchecked.

        Its grid reads each cell as its first maximal entry.  Candidate data
        built this way is examined by `validate` rather than rejected.
        """
        return cls(tuple(map(tuple, cube.data.argmax(axis=2).tolist())), improper, cube)

    @classmethod
    def from_cube(cls, cube: IncidenceCube) -> "SquareState":
        """Build a state from a cube, deriving the improper record by scan."""
        negatives = cube.negative_cells()
        if not negatives:
            return cls.candidate(cube, None)
        if len(negatives) > 1:
            raise InvalidSquare(f"multiple negative cells: {negatives}")
        r, c, s = negatives[0]
        pos = cube.positive_symbols(r, c)
        if len(pos) != 2:
            raise InvalidSquare(
                f"improper cell ({r},{c}) must carry exactly two positive symbols, got {pos}"
            )
        return cls.candidate(cube, ImproperCell(r, c, (pos[0], pos[1]), s))

    # Readers of the incidence structure, straight from the grid.

    def entry(self, r: int, c: int, s: int) -> int:
        """The cube entry at (r, c, s)."""
        rec = self.improper
        if rec is not None and r == rec.row and c == rec.col:
            return -1 if s == rec.negative else int(s in rec.positive_pair)
        return int(self.grid[r][c] == s)

    def symbol_at(self, r: int, c: int) -> int:
        """Symbol of a proper cell."""
        rec = self.improper
        if rec is not None and r == rec.row and c == rec.col:
            raise InvalidSquare(f"cell ({r},{c}) is not a proper cell")
        return self.grid[r][c]

    def rows_with(self, c: int, s: int) -> list[int]:
        """Rows holding +1 at (., c, s), ascending."""
        rows = [r for r, line in enumerate(self.grid) if line[c] == s]
        rec = self.improper
        if rec is not None and c == rec.col and s == rec.positive_pair[1]:
            insort(rows, rec.row)  # the grid shows only the smaller positive there
        return rows

    def cols_with(self, r: int, s: int) -> list[int]:
        """Columns holding +1 at (r, ., s), ascending."""
        cols = [c for c, x in enumerate(self.grid[r]) if x == s]
        rec = self.improper
        if rec is not None and r == rec.row and s == rec.positive_pair[1]:
            insort(cols, rec.col)
        return cols

    def __repr__(self) -> str:
        return f"SquareState(n={self.n}, kind={self.kind})"


@dataclass(frozen=True)
class GridView:
    """n x n symbol array view of a state.

    For an improper state the grid holds min(positive_pair) at the improper
    cell as a placeholder; the ``improper`` overlay carries the full content.
    """

    n: int
    grid: tuple[tuple[int, ...], ...]
    improper: ImproperCell | None = None


def cube_from_grid(
    grid: list[list[int]] | tuple[tuple[int, ...], ...],
    improper: ImproperCell | None = None,
) -> SquareState:
    """Check a symbol grid (plus optional improper record) and make it a SquareState.

    The grid value at the improper cell, if any, is ignored: the state holds
    min(positive_pair) there, and the record gives the cell's content.
    Raises InvalidSquare when the result violates any cube invariant.
    """
    n = len(grid)
    if n < 1:
        raise InvalidSquare("order must be at least 1")
    rows = [list(row) for row in grid]
    for r, row in enumerate(rows):
        if len(row) != n:
            raise InvalidSquare(f"row {r} has length {len(row)}, expected {n}")
    if improper is not None:
        r, c = improper.row, improper.col
        if not (0 <= r < n and 0 <= c < n):
            raise InvalidSquare(f"improper cell ({r},{c}) outside the grid")
        p, q = improper.positive_pair
        if not all(0 <= s < n for s in (p, q, improper.negative)):
            raise InvalidSquare("improper record names symbols outside 0..n-1")
        rows[r][c] = p
    for r, row in enumerate(rows):
        for c, s in enumerate(row):
            if not 0 <= s < n:
                raise InvalidSquare(f"symbol {s} at ({r},{c}) outside 0..{n - 1}")
    state = SquareState(tuple(map(tuple, rows)), improper)
    violations = validate(state)
    if violations:
        raise InvalidSquare("; ".join(violations))
    return state


def grid_from_cube(state: SquareState) -> GridView:
    """Inverse of cube_from_grid on its image: the state's grid and record."""
    return GridView(state.n, state.grid, state.improper)


def validate(state: SquareState) -> list[str]:
    """Check every invariant; return one message per violation (empty = valid).

    Accepts arbitrary candidate data: a state built directly from a bad cube
    is examined rather than rejected up front.
    """
    violations: list[str] = []
    cube = state.cube
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
        if state.improper is None:
            violations.append(f"improper record missing for negative cell ({r},{c})")
        else:
            rec = state.improper
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
        if state.improper is not None:
            violations.append("improper record present but cube has no negative entry")

    return violations


def cyclic_square(n: int) -> SquareState:
    """The canonical order-n square with grid[i][j] = (i + j) mod n."""
    if n < 1:
        raise InvalidSquare("order must be at least 1")
    grid = [[(i + j) % n for j in range(n)] for i in range(n)]
    return cube_from_grid(grid)
