"""Signed incidence-cube representation of proper and improper Latin squares.

A Latin square of order n is stored as an n x n x n array over {-1, 0, 1}
indexed by (row, column, symbol).  A proper square has a single +1 per cell
and every axis-parallel line summing to 1.  An improper square additionally
carries exactly one -1 entry; the cell holding it then has two +1 symbols.
The cube is the source of truth; the familiar n x n symbol grid is a derived
view.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Instances are treated as immutable values: the backing array is marked
    read-only and mutation happens by copying.
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

    def with_changes(self, changes: dict[tuple[int, int, int], int]) -> "IncidenceCube":
        """Return a copy with the given entries replaced."""
        arr = self.data.copy()
        for (r, c, s), v in changes.items():
            arr[r, c, s] = v
        return IncidenceCube(arr)

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IncidenceCube):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.data, other.data)

    def __hash__(self) -> int:
        return hash((self.n, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"IncidenceCube(n={self.n})"


@dataclass(frozen=True)
class SquareState:
    """A proper or improper Latin square: cube plus explicit improper record.

    ``improper`` is None exactly when the cube has no -1 entry.  The record is
    redundant with the cube but keeps the hot paths free of scans; `validate`
    cross-checks the two.
    """

    cube: IncidenceCube
    improper: ImproperCell | None = None

    @property
    def n(self) -> int:
        return self.cube.n

    @property
    def is_proper(self) -> bool:
        return self.improper is None

    @property
    def kind(self) -> str:
        return "proper" if self.improper is None else "improper"

    @classmethod
    def from_cube(cls, cube: IncidenceCube) -> "SquareState":
        """Build a state from a cube, deriving the improper record by scan."""
        negatives = cube.negative_cells()
        if not negatives:
            return cls(cube, None)
        if len(negatives) > 1:
            raise InvalidSquare(f"multiple negative cells: {negatives}")
        r, c, s = negatives[0]
        pos = cube.positive_symbols(r, c)
        if len(pos) != 2:
            raise InvalidSquare(
                f"improper cell ({r},{c}) must carry exactly two positive symbols, got {pos}"
            )
        return cls(cube, ImproperCell(r, c, (pos[0], pos[1]), s))

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
    """Encode a symbol grid (plus optional improper record) as a SquareState.

    The grid value at the improper cell, if any, is ignored: that cell is
    populated from the record (+1 on both positives, -1 on the negative).
    Raises InvalidSquare when the result violates any cube invariant.
    """
    n = len(grid)
    if n < 1:
        raise InvalidSquare("order must be at least 1")
    arr = np.zeros((n, n, n), dtype=np.int8)
    for r, row in enumerate(grid):
        if len(row) != n:
            raise InvalidSquare(f"row {r} has length {len(row)}, expected {n}")
        for c, s in enumerate(row):
            if improper is not None and (r, c) == (improper.row, improper.col):
                continue
            if not 0 <= s < n:
                raise InvalidSquare(f"symbol {s} at ({r},{c}) outside 0..{n - 1}")
            arr[r, c, s] = 1
    if improper is not None:
        r, c = improper.row, improper.col
        if not (0 <= r < n and 0 <= c < n):
            raise InvalidSquare(f"improper cell ({r},{c}) outside the grid")
        p, q = improper.positive_pair
        if not all(0 <= s < n for s in (p, q, improper.negative)):
            raise InvalidSquare("improper record names symbols outside 0..n-1")
        arr[r, c, p] = 1
        arr[r, c, q] = 1
        arr[r, c, improper.negative] = -1
    state = SquareState(IncidenceCube(arr), improper)
    violations = validate(state)
    if violations:
        raise InvalidSquare("; ".join(violations))
    return state


def grid_from_cube(state: SquareState) -> GridView:
    """Inverse of cube_from_grid on its image; improper overlay reproduced.

    Each cell reads as the symbol of its first +1, which at the improper cell
    is min(positive_pair), the GridView placeholder.
    """
    grid = state.cube.data.argmax(axis=2).tolist()
    return GridView(state.n, tuple(map(tuple, grid)), state.improper)


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
