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
from itertools import compress
from operator import is_not, ne


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
    state = SquareState(tuple(rows), improper)
    violations = validate(state)
    if violations:
        raise InvalidSquare("; ".join(violations))
    return state


def validate(state: SquareState, *, since: SquareState | None = None) -> list[str]:
    """Check the lines of the state's incidence cube; one message per violation.

    An empty list means the state is a valid proper or improper square.  A
    state that is not an n x n grid over 0..n-1 with its record inside gets
    one message, the first of: a row of the wrong length, a record cell
    outside the grid, a record symbol or a grid symbol outside 0..n-1.
    Otherwise one pass counts the symbols of each row and column; the
    improper cell counts with its cube entries instead of its grid symbol.
    Messages come in the cube's order: the cell, then rows by (row, symbol),
    then columns by (column, symbol), then the record.

    ``since`` is a state that passed `validate`, say the one before a move
    (one of another order is ignored).  Then only the lines that can have
    changed status are read: the rows whose tuples differ from ``since``'s,
    the columns where those rows differ and, when the record is another
    object, the rows and columns of the old and the new improper cell.  Only
    those rows' lengths, the changed cells' symbols and a new record are
    range-checked; one out of range gets the full check's message.  The cell
    and the record are always checked, and the result is the full list.
    """
    grid, rec = state.grid, state.improper
    n = len(grid)
    if n < 1:
        return [f"order {n} is not positive"]
    if since is None or len(since.grid) != n:
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
        row_lines, col_lines = enumerate(grid), enumerate(zip(*grid))
    else:
        old = since.grid
        idx = range(n)
        changed, cols = {}, set()
        # Identity first, then equality, both at C level: a move leaves all but two rows the same object.
        for i in compress(idx, map(is_not, old, grid)):
            a, b = old[i], grid[i]
            if a != b:
                if len(b) != n:
                    return [f"row {i} has length {len(b)}, expected {n}"]
                changed[i] = b
                for j in compress(idx, map(ne, a, b)):
                    if b[j] not in idx:
                        return validate(state)
                    cols.add(j)
        if rec is not since.improper:
            if rec is not None and not (
                0 <= rec.row < n and 0 <= rec.col < n and 0 <= rec.negative < n
                and 0 <= rec.positive_pair[0] and rec.positive_pair[1] < n  # the pair is sorted
            ):
                return validate(state)  # the full check names what is out of range
            for moved in (since.improper, rec):
                if moved is not None:
                    changed[moved.row] = grid[moved.row]
                    cols.add(moved.col)
        row_lines = sorted(changed.items())
        col_lines = [(j, [line[j] for line in grid]) for j in sorted(cols)]
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
        ("row", "columns", row_lines, at[0], at[1]),
        ("col", "rows", col_lines, at[1], at[0]),
    ):
        for i, line in lines:
            if i != k:
                if len(set(line)) == n:
                    continue  # a permutation of 0..n-1: every sum is 1
            elif line[kc] == p and q not in line and line.count(neg) == 2 and len(set(line)) == n - 1:
                continue  # p at the cell, q hidden there, neg twice, every other symbol once
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
    if rec is not None and x != p:  # with p at the cell, the cell holds exactly p, q and -neg
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
