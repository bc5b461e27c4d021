"""The +/-1-move algebra on proper and improper Latin squares.

A move is the addition of an intercalate: a 2 x 2 x 2 alternating-sign flip
over two rows {i, i2}, two columns {j, j2} and two symbols {a, b}.  Writing it
as ((i,j;a),(i2,j2;b)), the flip adds

    +1 at (i,j,a), (i,j2,b), (i2,j,b), (i2,j2,a)
    -1 at (i,j,b), (i,j2,a), (i2,j,a), (i2,j2,b)

to the incidence cube, so line sums are conserved by construction.  A move is
valid on a state when every touched entry stays inside {-1, 0, 1} and the
result has at most one negative entry.  A move reads its four cells from
the state's grid and record and writes a new grid; no cube is built.
A move's inverse, `IntercalateMove.inverted`, exchanges a and b.  That
rule is stated once, in `_flip`: `apply_move` raises on its verdict, and
`enumerate_valid_moves` keeps the candidates of an anchored search that
it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ImproperCell, LatinSquareError, SquareState


class InvalidMove(LatinSquareError):
    """Applying the move would leave the proper/improper state space."""


@dataclass(frozen=True)
class IntercalateMove:
    """One +/-1-move in canonical form: i < i2 and j < j2.

    The four equivalent namings of a flip are collapsed by `from_anchors`;
    the orientation lives in (a, b): a is the symbol incremented at
    (min row, min col).
    """

    i: int
    j: int
    a: int
    i2: int
    j2: int
    b: int

    def __post_init__(self) -> None:
        if not (self.i < self.i2 and self.j < self.j2):
            raise ValueError(f"move not in canonical form: {self!r}")
        if self.a == self.b:
            raise ValueError(f"move symbols must differ: {self!r}")
        if min(self.i, self.j, self.a, self.b) < 0:
            raise ValueError(f"move indices must be non-negative: {self!r}")

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


def _flip(state: SquareState, m: IntercalateMove) -> SquareState | str:
    """The state plus the move's intercalate, or the reason the move is invalid.

    One pass over the four touched cells.  Cell k gains +1 at symbol x and
    -1 at symbol y, so a proper cell must hold y (it then holds x) or
    neither (it becomes improper with the -1 at y), and the improper cell
    must not hold x as a positive or y as its negative.  The count of -1s is
    checked once, at the end.
    """
    n = state.n
    i, j, a, i2, j2, b = m.i, m.j, m.a, m.i2, m.j2, m.b
    if max(i2, j2, a, b) >= n:
        return f"move indices exceed order {n}"
    rec = state.improper
    at_r, at_c = (-1, -1) if rec is None else (rec.row, rec.col)
    negatives = 0 if rec is None else 1
    # The record survives unless its cell is touched.
    new = None if at_r in (i, i2) and at_c in (j, j2) else rec
    top, bottom = list(state.grid[i]), list(state.grid[i2])
    for k, (line, r, c, x, y) in enumerate(
        ((top, i, j, a, b), (top, i, j2, b, a), (bottom, i2, j, b, a), (bottom, i2, j2, a, b))
    ):
        if r == at_r and c == at_c:
            pair, neg = rec.positive_pair, rec.negative
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
    grid = list(state.grid)
    grid[i], grid[i2] = tuple(top), tuple(bottom)
    return SquareState(tuple(grid), new)


def apply_move(state: SquareState, m: IntercalateMove) -> SquareState:
    """Add the move's intercalate to the state.

    Fails atomically with InvalidMove when any entry would leave {-1,0,1} or
    a second negative cell would arise; the input state is never modified.
    """
    out = _flip(state, m)
    if isinstance(out, str):
        raise InvalidMove(f"move ({m.text()}) invalid: {out}")
    return out


def enumerate_valid_moves(state: SquareState) -> list[IntercalateMove]:
    """All canonical moves valid on the state, ordered lexicographically
    by (i, i2, j, j2, a, b).

    A valid result has at most one negative entry, and a move cancels at
    most the one -1 that exists, so at least three of a valid move's four -1
    positions sit on a +1.  Naming the move from the one whose row and column
    neighbours are both +1s, every valid move is found from a +1 (i, j, b), a
    symbol a != b, a +1 of a in row i and a +1 of a in column j.  Each such
    candidate is named by `IntercalateMove.from_anchors` and checked by the
    rule of `apply_move`; the valid ones are sorted.  Each (row, symbol) and
    (column, symbol) line is read once.
    """
    rec = state.improper
    lines = range(state.n)
    in_row = [[state.cols_with(i, a) for a in lines] for i in lines]
    in_col = [[state.rows_with(j, a) for a in lines] for j in lines]
    plus = [(i, j, b) for i, line in enumerate(state.grid) for j, b in enumerate(line)]
    if rec is not None:
        plus.append((rec.row, rec.col, rec.positive_pair[1]))
    candidates = {
        IntercalateMove.from_anchors(i, j, a, i2, j2, b)
        for i, j, b in plus
        for a in lines
        if a != b
        for j2 in in_row[i][a]
        if j2 != j
        for i2 in in_col[j][a]
        if i2 != i
    }
    valid = [m for m in candidates if not isinstance(_flip(state, m), str)]
    return sorted(valid, key=lambda m: (m.i, m.i2, m.j, m.j2, m.a, m.b))
