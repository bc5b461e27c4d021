"""Proper and improper Latin squares: the symbol grid plus the improper record.

A Latin square of order n is the n x n grid of its symbols.  An improper
square carries one improper cell with two positive symbols and one negative
symbol; its record says where that cell is and what it holds, and the grid
holds the smaller positive symbol there.  Read as the signed incidence cube
of the paper (the n x n x n array over {-1, 0, 1} indexed by (row, column,
symbol), +1 at every positive and -1 at the negative), a state is valid when
every line of the cube sums to 1 and at most one entry is -1.  `validate`
checks exactly that, from the grid and the record; no cube is built.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import NamedTuple


class LatinSquareError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSquare(LatinSquareError):
    """Candidate data does not encode a proper or improper Latin square."""


class _ImproperFields(NamedTuple):
    row: int
    col: int
    positive_pair: tuple[int, int]
    negative: int


class ImproperCell(_ImproperFields):
    """Location and content of the single negative cell of an improper square.

    ``positive_pair`` is stored sorted ascending; all three symbols are
    pairwise distinct.  An immutable tuple of the four fields, so a record
    unpacks as ``row, col, (p, q), negative`` and compares and hashes as
    that tuple.
    """

    __slots__ = ()

    def __new__(cls, row: int, col: int, positive_pair: tuple[int, int], negative: int) -> "ImproperCell":
        p, q = positive_pair
        if p > q:
            p, q = q, p
        if p == q or negative in (p, q):
            raise InvalidSquare(
                f"improper cell symbols must be pairwise distinct, "
                f"got positives {(p, q)} negative {negative}"
            )
        return tuple.__new__(cls, (row, col, (p, q), negative))


@dataclass(frozen=True)
class SquareState:
    """A proper or improper Latin square: the symbol grid plus the improper record.

    ``grid`` is a tuple of row tuples holding min(positive_pair) at the
    improper cell; ``improper`` is None exactly when the square is proper.
    Equality and hashing compare the grid and the record.  The constructor
    checks nothing: `cube_from_grid` is the checked one.
    """

    grid: tuple[tuple[int, ...], ...]
    improper: ImproperCell | None = None

    @property
    def n(self) -> int:
        return len(self.grid)

    @property
    def is_proper(self) -> bool:
        return self.improper is None

    @property
    def kind(self) -> str:
        return "proper" if self.improper is None else "improper"

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
        col = [line[c] for line in self.grid]
        # In a valid state s occurs once in all but the improper lines; count and index find it in C.
        rows = [col.index(s)] if col.count(s) == 1 else [r for r, x in enumerate(col) if x == s]
        rec = self.improper
        if rec is not None and c == rec.col and s == rec.positive_pair[1]:
            insort(rows, rec.row)  # the grid shows only the smaller positive there
        return rows

    def cols_with(self, r: int, s: int) -> list[int]:
        """Columns holding +1 at (r, ., s), ascending."""
        line = self.grid[r]
        cols = [line.index(s)] if line.count(s) == 1 else [c for c, x in enumerate(line) if x == s]
        rec = self.improper
        if rec is not None and r == rec.row and s == rec.positive_pair[1]:
            insort(cols, rec.col)
        return cols

    def __repr__(self) -> str:
        return f"SquareState(n={self.n}, kind={self.kind})"


def cube_from_grid(
    grid: list[list[int]] | tuple[tuple[int, ...], ...],
    improper: ImproperCell | None = None,
) -> SquareState:
    """The checked constructor: a SquareState from a symbol grid and an optional record.

    The name is historical; no cube is built.  The grid value at the
    improper cell, if any, is ignored: the state holds min(positive_pair)
    there, and the record gives the cell's content.  Raises InvalidSquare
    with the messages of `validate`.
    """
    rows = list(map(tuple, grid))
    rec = improper
    if rec is not None and 0 <= rec.row < len(rows) and 0 <= rec.col < len(rows[rec.row]):
        line = rows[rec.row]
        rows[rec.row] = (*line[: rec.col], rec.positive_pair[0], *line[rec.col + 1 :])
    return _checked(SquareState(tuple(rows), improper))


def _checked(state: SquareState) -> SquareState:
    """``state`` itself if `validate` passes it; else InvalidSquare with its messages."""
    violations = validate(state)
    if violations:
        raise InvalidSquare("; ".join(violations))
    return state


def validate(state: SquareState) -> list[str]:
    """Check the lines of the state's incidence cube; one message per violation.

    An empty list means the state is a valid proper or improper square.  A
    state that is not an n x n grid over 0..n-1 with its record inside gets
    one message, the first of: a row of the wrong length, a record cell
    outside the grid, a record symbol or a grid symbol outside 0..n-1.
    Otherwise one pass counts the symbols of each row and column; the
    improper cell counts with its cube entries instead of its grid symbol.
    Messages come in the cube's order: the cell, then rows by (row, symbol),
    then columns by (column, symbol), then the record.
    """
    grid, rec = state.grid, state.improper
    n = len(grid)
    if n < 1:
        return [f"order {n} is not positive"]
    if set(map(len, grid)) != {n}:
        r = next(r for r, line in enumerate(grid) if len(line) != n)
        return [f"row {r} has length {len(grid[r])}, expected {n}"]
    if rec is not None:
        if not (0 <= rec.row < n and 0 <= rec.col < n):
            return [f"improper cell ({rec.row},{rec.col}) outside the grid"]
        if not all(0 <= s < n for s in (*rec.positive_pair, rec.negative)):
            return ["improper record names symbols outside 0..n-1"]
    symbols = set(range(n))
    if not all(map(symbols.issuperset, grid)):
        r, c, s = next((r, c, s) for r, line in enumerate(grid) for c, s in enumerate(line) if s not in symbols)
        return [f"symbol {s} at ({r},{c}) outside 0..{n - 1}"]
    violations: list[str] = []
    at = (-1, -1)
    if rec is not None:
        at = rec.row, rec.col
        (p, q), neg = rec.positive_pair, rec.negative
        x = grid[rec.row][rec.col]
        # The cube at the improper cell, written as the record writes it:
        # the grid symbol, then the larger positive, then the negative.
        cell = {x: 1}
        cell[q] = 1
        cell[neg] = -1
        total = sum(cell.values())
        if total != 1:
            violations.append(f"line row={rec.row} col={rec.col} (over symbols) sums to {total}")
    for axis, over, lines, k, kc in (
        ("row", "columns", grid, at[0], at[1]),
        ("col", "rows", zip(*grid), at[1], at[0]),
    ):
        for i, line in enumerate(lines):
            # Every symbol once, or on the improper line p at the cell, q
            # nowhere, the negative twice and every other symbol once.
            if i != k and set(line) == symbols:
                continue
            if i == k and line[kc] == p and line.count(neg) == 2 and set(line) == symbols - {q}:
                continue
            sums = [0] * n
            for s in line:
                sums[s] += 1
            if i == k:
                sums[x] -= 1
                for s, v in cell.items():
                    sums[s] += v
            violations.extend(
                f"line {axis}={i} sym={s} (over {over}) sums to {v}" for s, v in enumerate(sums) if v != 1
            )
    if rec is not None and (x != p or p > q):  # with p < q and p at the cell, it holds exactly p, q and -neg
        r, c = rec.row, rec.col
        pos = sorted(t for t, v in cell.items() if v == 1)
        if len(pos) != 2:
            violations.append(f"improper cell ({r},{c}) carries {len(pos)} positive symbols, expected 2")
        if list(rec.positive_pair) != pos:
            violations.append(
                f"improper record {rec.positive_pair}-{neg} does not match cell content {tuple(pos)}-{neg}"
            )
    return violations


def cyclic_square(n: int) -> SquareState:
    """The canonical order-n square with grid[i][j] = (i + j) mod n."""
    if n < 1:
        raise InvalidSquare("order must be at least 1")
    grid = [[(i + j) % n for j in range(n)] for i in range(n)]
    return cube_from_grid(grid)
