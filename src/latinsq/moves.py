"""The +/-1-move algebra on proper and improper Latin squares.

A move is the addition of an intercalate: a 2 x 2 x 2 alternating-sign flip
over two rows {i, i2}, two columns {j, j2} and two symbols {a, b}.  Writing it
as ((i,j;a),(i2,j2;b)), the flip adds

    +1 at (i,j,a), (i,j2,b), (i2,j,b), (i2,j2,a)
    -1 at (i,j,b), (i,j2,a), (i2,j,a), (i2,j2,b)

to the incidence cube, so line sums are conserved by construction.  A move is
valid on a state when every touched entry stays inside {-1, 0, 1} and the
result has at most one negative entry.  A move reads its four cells from
the state's grid and record and writes two new rows; no cube is built.
A move's inverse, `IntercalateMove.inverted`, exchanges a and b.  That
rule is stated once, in `_flip`, on a state's rows and record: `apply_move`
raises on its verdict, the path finder's board (`connect`) takes a move the
same way, and `enumerate_valid_moves` keeps every canonical move it accepts.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import NamedTuple, Sequence

from .core import ImproperCell, LatinSquareError, SquareState


class InvalidMove(LatinSquareError):
    """Applying the move would leave the proper/improper state space."""


class _MoveFields(NamedTuple):
    i: int
    j: int
    a: int
    i2: int
    j2: int
    b: int


class IntercalateMove(_MoveFields):
    """One +/-1-move in canonical form: i < i2 and j < j2.

    The four equivalent namings of a flip are collapsed by `from_anchors`;
    the orientation lives in (a, b): a is the symbol incremented at
    (min row, min col).  An immutable tuple of the six fields, so a move
    unpacks as ``i, j, a, i2, j2, b`` and compares and hashes as that tuple.
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int, a: int, i2: int, j2: int, b: int) -> "IntercalateMove":
        self = tuple.__new__(cls, (i, j, a, i2, j2, b))
        if not (i < i2 and j < j2):
            raise ValueError(f"move not in canonical form: {self!r}")
        if a == b:
            raise ValueError(f"move symbols must differ: {self!r}")
        if min(i, j, a, b) < 0:
            raise ValueError(f"move indices must be non-negative: {self!r}")
        return self

    @staticmethod
    def from_anchors(i: int, j: int, a: int, i2: int, j2: int, b: int) -> "IntercalateMove":
        """Normalize any of the four equivalent namings to canonical form.

        Swapping the two rows (or the two columns) of a naming exchanges the
        roles of a and b; swapping both leaves the symbols in place.  Equal
        rows, columns or symbols raise ValueError, as the constructor does.
        """
        if i > i2:
            i, i2 = i2, i
            a, b = b, a
        if j > j2:
            j, j2 = j2, j
            a, b = b, a
        return IntercalateMove(i, j, a, i2, j2, b)

    def inverted(self) -> "IntercalateMove":
        """The move undoing this one: symbols a and b exchanged."""
        return IntercalateMove(self.i, self.j, self.b, self.i2, self.j2, self.a)

    def text(self) -> str:
        """Wire form: six space-separated integers "i j a i2 j2 b"."""
        return f"{self.i} {self.j} {self.a} {self.i2} {self.j2} {self.b}"


def _flip(
    grid: Sequence[Sequence[int]], rec: ImproperCell | None, m: IntercalateMove
) -> tuple[list[int], list[int], ImproperCell | None] | str:
    """Rows m.i and m.i2 and the record after the move's intercalate, or the
    reason the move is invalid.

    ``grid`` and ``rec`` are a state's rows and record, as a `SquareState`
    holds them; neither is modified, and the two rows come back as new
    lists.  One pass over the four touched cells.  Cell k gains +1 at symbol
    x and -1 at symbol y, so a proper cell must hold y (it then holds x) or
    neither (it becomes improper with the -1 at y), and the improper cell
    must not hold x as a positive or y as its negative.  The count of -1s is
    checked once, at the end.
    """
    n = len(grid)
    i, j, a, i2, j2, b = m
    if i2 >= n or j2 >= n or a >= n or b >= n:
        return f"move indices exceed order {n}"
    at_r, at_c = (-1, -1) if rec is None else (rec.row, rec.col)
    negatives = 0 if rec is None else 1
    # The record survives unless its cell is touched.
    new = None if at_r in (i, i2) and at_c in (j, j2) else rec
    top, bottom = [*grid[i]], [*grid[i2]]
    for k, line, r, c, x, y in (
        (0, top, i, j, a, b), (1, top, i, j2, b, a), (2, bottom, i2, j, b, a), (3, bottom, i2, j2, a, b)
    ):
        if r == at_r and c == at_c:
            _, _, pair, neg = rec
            if x in pair:
                return f"entry already 1 at +1 position {k}"
            if y == neg:
                return f"entry already -1 at -1 position {k}"
            p, q = pair
            if x == neg and y in pair:
                line[c] = q if y == p else p  # the -1 cancels: a proper cell again
                negatives -= 1
                continue
            if x == neg:
                neg = y  # the -1 cancels and reappears at y
            elif y in pair:
                pair = (x, q if y == p else p)  # x takes y's place beside the other positive
            else:
                negatives += 1  # y was absent: a second -1 in the cell
                continue
        elif line[c] == y:
            line[c] = x
            continue
        elif line[c] == x:
            return f"entry already 1 at +1 position {k}"
        else:
            pair, neg = (line[c], x), y  # y was absent: the cell keeps its symbol and gains x
            negatives += 1
        new = ImproperCell(r, c, pair, neg)
        line[c] = new.positive_pair[0]
    if negatives > 1:
        return "result would have more than one negative cell"
    return top, bottom, new


def apply_move(state: SquareState, m: IntercalateMove) -> SquareState:
    """Add the move's intercalate to the state.

    Fails atomically with InvalidMove when any entry would leave {-1,0,1} or
    a second negative cell would arise; the input state is never modified.
    """
    out = _flip(state.grid, state.improper, m)
    if isinstance(out, str):
        raise InvalidMove(f"move ({m.text()}) invalid: {out}")
    top, bottom, rec = out
    grid = list(state.grid)
    grid[m.i], grid[m.i2] = tuple(top), tuple(bottom)
    return SquareState(tuple(grid), rec)


def enumerate_valid_moves(state: SquareState) -> list[IntercalateMove]:
    """The canonical moves valid on the state: each of the n^3 (n-1)^3 / 4
    canonical moves, in (i, i2, j, j2, a, b) order, that `_flip` accepts."""
    lines = range(state.n)
    moves = (
        IntercalateMove(i, j, a, i2, j2, b)
        for i, i2 in combinations(lines, 2)
        for j, j2 in combinations(lines, 2)
        for a, b in permutations(lines, 2)
    )
    grid, rec = state.grid, state.improper
    return [m for m in moves if not isinstance(_flip(grid, rec, m), str)]
