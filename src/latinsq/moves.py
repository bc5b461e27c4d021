"""The +/-1-move algebra on proper and improper Latin squares.

A move is the addition of an intercalate: a 2 x 2 x 2 alternating-sign flip
over two rows {i, i2}, two columns {j, j2} and two symbols {a, b}.  Writing it
as ((i,j;a),(i2,j2;b)), the flip adds

    +1 at (i,j,a), (i,j2,b), (i2,j,b), (i2,j2,a)
    -1 at (i,j,b), (i,j2,a), (i2,j,a), (i2,j2,b)

to the incidence cube, so line sums are conserved by construction.  A move is
valid on a state when every touched entry stays inside {-1, 0, 1} and the
result has at most one negative entry.  Moves read their eight cube entries
from the state's grid and record and write a new grid; no cube is built.
A move's inverse, `IntercalateMove.inverted`, exchanges a and b.
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
        roles of a and b; swapping both leaves the symbols in place.
        """
        if i == i2 or j == j2 or a == b:
            raise ValueError(
                f"rows, columns and symbols must each differ: (({i},{j};{a}),({i2},{j2};{b}))"
            )
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

    def plus_triples(self) -> tuple[tuple[int, int, int], ...]:
        return (
            (self.i, self.j, self.a),
            (self.i, self.j2, self.b),
            (self.i2, self.j, self.b),
            (self.i2, self.j2, self.a),
        )

    def minus_triples(self) -> tuple[tuple[int, int, int], ...]:
        return (
            (self.i, self.j, self.b),
            (self.i, self.j2, self.a),
            (self.i2, self.j, self.a),
            (self.i2, self.j2, self.b),
        )

    def text(self) -> str:
        """Wire form: six space-separated integers "i j a i2 j2 b"."""
        return f"{self.i} {self.j} {self.a} {self.i2} {self.j2} {self.b}"


def _flip_outcome(
    plus_entries: list[int], minus_entries: list[int], negatives_before: int
) -> tuple[bool, str]:
    """Shared validity logic on the eight touched entry values: (ok, reason)."""
    for k, e in enumerate(plus_entries):
        if e > 0:
            return False, f"entry already 1 at +1 position {k}"
    negatives = negatives_before
    for e in plus_entries:
        if e == -1:
            negatives -= 1
    for k, e in enumerate(minus_entries):
        if e < 0:
            return False, f"entry already -1 at -1 position {k}"
        if e == 0:
            negatives += 1
    if negatives > 1:
        return False, "result would have more than one negative cell"
    return True, ""


def _check_move(state: SquareState, m: IntercalateMove) -> tuple[bool, str]:
    n = state.n
    if max(m.i2, m.j2, m.a, m.b) >= n:
        return False, f"move indices exceed order {n}"
    e = state.entry
    i, j, a, i2, j2, b = m.i, m.j, m.a, m.i2, m.j2, m.b
    plus = [e(i, j, a), e(i, j2, b), e(i2, j, b), e(i2, j2, a)]
    minus = [e(i, j, b), e(i, j2, a), e(i2, j, a), e(i2, j2, b)]
    return _flip_outcome(plus, minus, 0 if state.improper is None else 1)


def is_valid_move(state: SquareState, m: IntercalateMove) -> bool:
    """True iff apply_move would succeed; pure predicate."""
    return _check_move(state, m)[0]


def apply_move(state: SquareState, m: IntercalateMove) -> SquareState:
    """Add the move's intercalate to the state.

    Fails atomically with InvalidMove when any entry would leave {-1,0,1} or
    a second negative cell would arise; the input state is never modified.
    """
    ok, reason = _check_move(state, m)
    if not ok:
        raise InvalidMove(f"move ({m.text()}) invalid: {reason}")
    i, j, i2, j2 = m.i, m.j, m.i2, m.j2
    rows = {i: list(state.grid[i]), i2: list(state.grid[i2])}
    rec = state.improper
    at_rec = None if rec is None else (rec.row, rec.col)
    touched = rec is not None and rec.row in (i, i2) and rec.col in (j, j2)
    new = None if touched else rec  # the record survives unless its cell is touched
    # Each touched cell gains +1 at symbol x and loses 1 at symbol y.
    for r, c, x, y in ((i, j, m.a, m.b), (i, j2, m.b, m.a), (i2, j, m.b, m.a), (i2, j2, m.a, m.b)):
        line = rows[r]
        if (r, c) == at_rec:
            p, q = rec.positive_pair
            if x != rec.negative:
                # x is new here, so y is one of the two positives.
                pair, neg = ((x, q) if y == p else (p, x)), rec.negative
            elif y in (p, q):
                line[c] = q if y == p else p  # the -1 cancels: a proper cell again
                continue
            else:
                pair, neg = (p, q), y  # the -1 cancels and reappears at y
        elif line[c] == y:
            line[c] = x
            continue
        else:
            pair, neg = (line[c], x), y  # y was absent: the cell keeps its symbol and gains x
        new = ImproperCell(r, c, pair, neg)
        line[c] = new.positive_pair[0]
    grid = list(state.grid)
    grid[i], grid[i2] = tuple(rows[i]), tuple(rows[i2])
    return SquareState(tuple(grid), new)


def enumerate_valid_moves(state: SquareState) -> list[IntercalateMove]:
    """All canonical moves valid on the state, ordered lexicographically
    by (i, i2, j, j2, a, b).

    A valid result has at most one negative entry, and a move cancels at
    most the one -1 that exists, so at least three of a valid move's four -1
    positions sit on a +1.  Naming the move from the one whose row and column
    neighbours are both +1s, every valid move is found from a +1 (i, j, b), a
    symbol a != b, a +1 of a in row i and a +1 of a in column j.  Those
    candidates are brought to canonical form, deduplicated, sorted and kept
    when the same predicate as `is_valid_move` accepts them.
    """
    n = state.n
    rec = state.improper
    plus = [(i, j, b) for i, line in enumerate(state.grid) for j, b in enumerate(line)]
    # The nonzero entries by triple: a lookup here is cheaper than state.entry
    # over the eight reads of every candidate.
    value = dict.fromkeys(plus, 1)
    if rec is not None:
        plus.append((rec.row, rec.col, rec.positive_pair[1]))
        value[plus[-1]] = 1
        value[rec.row, rec.col, rec.negative] = -1
    in_row = [[[] for _ in range(n)] for _ in range(n)]  # in_row[i][a]: columns of a's +1s in row i
    in_col = [[[] for _ in range(n)] for _ in range(n)]  # in_col[j][a]: rows of a's +1s in column j
    for i, j, b in plus:
        in_row[i][b].append(j)
        in_col[j][b].append(i)
    found = set()
    for i, j, b in plus:
        row_i, col_j = in_row[i], in_col[j]
        for a in range(n):
            if a == b:
                continue
            for j2 in row_i[a]:
                if j2 == j:
                    continue
                for i2 in col_j[a]:
                    if i2 == i:
                        continue
                    # Canonical naming, as IntercalateMove.from_anchors.
                    r, r2, c, c2, x, y = i, i2, j, j2, a, b
                    if r > r2:
                        r, r2, x, y = r2, r, y, x
                    if c > c2:
                        c, c2, x, y = c2, c, y, x
                    found.add((r, r2, c, c2, x, y))
    e = value.get
    negatives = 0 if rec is None else 1
    out: list[IntercalateMove] = []
    for i, i2, j, j2, a, b in sorted(found):
        ok, _ = _flip_outcome(
            [e((i, j, a), 0), e((i, j2, b), 0), e((i2, j, b), 0), e((i2, j2, a), 0)],
            [e((i, j, b), 0), e((i, j2, a), 0), e((i2, j, a), 0), e((i2, j2, b), 0)],
            negatives,
        )
        if ok:
            out.append(IntercalateMove(i, j, a, i2, j2, b))
    return out
