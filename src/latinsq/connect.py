"""Constructive connectivity of the +/-1-move state graph.

`transform_path` turns any square into any other of its order by the
lemma steps of the connectivity argument, each a function on one private
mutable board, `_Board`:

* `_resolve_improper` drives an improper board proper with moves confined
  to two rows (at most floor((n-1)/2) of them).
* `_cycle_swap` exchanges two rows of a proper board along their symbol
  cycle through one column, using exactly r-1 moves.
* `_swap_row_entries` exchanges two entries of one row of an improper
  board (at most 2(n-1) moves), carrying the negative cell along its column.
* `_fix_row` makes one row of a proper board the target's with row-entry
  swaps and one two-row resolution per round (at most 2(n-1)^2 moves).

`transform_path` drives the start and the target proper, fixes rows
top-down and replays the target's resolution in reverse; the path never
exceeds 2(n-1)^3 moves and every intermediate state is a valid proper or
improper square.  The board holds the rows as lists, the improper record
and the list of moves taken, read straight off the rows and changed only
by `moves._flip`, the rule `apply_move` states.  Every read is a proper
line or the negative symbol's two holders, which the rows show exactly.
The board is the only place a path is built: a `MoveSequence` records one
and can reverse or replay it, but never extends it.  A two-row chain or
cycle is the tuple of its columns in walk order; its symbols are read from
the rows.

`MoveSequence.replay` takes no move through `_flip` and uses no board: it
adds each move to the signed incidence cube of the start, held as two ints,
under the mask rule of `oracle`.  So a checked replay is the path finder's
independent check, and `path --verify` runs it.

`transform_path` checks its two states once, on entry: one that fails
`validate` raises InvalidSquare with its messages, two of different orders
PreconditionViolated.  The lemma steps trust their board; a guard that
only a failed lemma could trip raises LatinSquareError, "internal error".
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Sequence

from .core import LatinSquareError, SquareState, _checked
from .moves import IntercalateMove, InvalidMove, _flip, apply_move
from .oracle import _decode, _encode, _flips, _move_bits


class PreconditionViolated(LatinSquareError):
    """The two squares given to `transform_path` have different orders."""


@dataclass
class MoveSequence:
    """An ordered move list with its endpoint states; no method changes one."""

    start: SquareState
    moves: tuple[IntercalateMove, ...]
    end: SquareState

    def __len__(self) -> int:
        return len(self.moves)

    def inverted(self) -> "MoveSequence":
        """The moves from ``end`` back to ``start``: each inverted, last first."""
        return MoveSequence(self.end, tuple(m.inverted() for m in reversed(self.moves)), self.start)

    def replay(self, check: bool = False) -> SquareState:
        """Take the moves on the signed incidence cube of ``start``; return the end.

        With ``check``, ``start`` is validated in full first, and a bad one
        raises InvalidSquare; that is all ``check`` governs.  Every move,
        either way, is checked by the cube rule of `oracle._flips`: from a
        valid state a move is valid exactly when its +1s miss the state's
        +1s, its -1s miss its -1 and at most one -1 is left, for the move
        keeps every line sum.  So from a valid start every prefix is valid,
        and none is built as a state but the end, read off the cube once.
        A refused move, or one with an index outside the order, raises
        `apply_move`'s InvalidMove on the prefix it left.
        """
        start = _checked(self.start) if check else self.start
        n = start.n
        pos, neg = _encode(start)
        for m in self.moves:
            i, j, a, i2, j2, b = map(index, m)
            if i2 < n and j2 < n and a < n and b < n:
                ok, new_pos, new_neg = _flips(pos, neg, *_move_bits(n, i, j, a, i2, j2, b))
                if ok:
                    pos, neg = new_pos, new_neg
                    continue
            apply_move(_decode(n, pos, neg), m)
            raise LatinSquareError(f"move ({m.text()}) refused by the cube rule only; internal error")
        return _decode(n, pos, neg)


class _Board:
    """The one mutable square a path is built and replayed on, with the moves taken so far.

    ``grid`` holds the rows as lists and ``improper`` the record, as a
    `SquareState` holds them.  `take` applies a move through `moves._flip`
    and writes rows i and i2 as new lists; a refused move raises
    InvalidMove, as `apply_move` does, and leaves the board as it was.
    """

    __slots__ = ("grid", "improper", "moves")

    def __init__(self, state: SquareState):
        self.grid = list(map(list, state.grid))
        self.improper = state.improper
        self.moves: list[IntercalateMove] = []

    def take(self, m: IntercalateMove) -> None:
        out = _flip(self.grid, self.improper, m)
        if isinstance(out, str):
            raise InvalidMove(f"move ({m.text()}) invalid: {out}")
        self.grid[m.i], self.grid[m.i2], self.improper = out
        self.moves.append(m)

    def state(self) -> SquareState:
        return SquareState(tuple(map(tuple, self.grid)), self.improper)


def _two_row_chain(board: _Board, top: int, bottom: int, col: int, ends: tuple[int, ...]) -> tuple[int, ...]:
    """Walk the chain of rows (``top``, ``bottom``) from column ``col``.

    At each column read the bottom row's symbol; stop when it is in ``ends``,
    else jump to the column where the top row holds it.  Returns the columns
    in walk order.  A valid state ends the walk within n columns.

    The rows are read straight from the grid, which shows only the smaller
    positive of the improper cell; no caller's chain reaches that cell.  The
    walk enters a column only where the top row holds the symbol it chases,
    and each caller's ``ends`` holds what the top row shows in the record's
    column: the negative for `_row_cycles`, p for the row-swap chains, and
    `_cycle_swap` runs on proper boards only.
    """
    upper, lower = board.grid[top], board.grid[bottom]
    cols: list[int] = []
    for _ in range(len(lower)):
        cols.append(col)
        sym = lower[col]
        if sym in ends:
            return tuple(cols)
        col = upper.index(sym)
    raise LatinSquareError("chain did not terminate; internal error")


def _row_cycles(board: _Board, source_row: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two chains rooted at the improper cell, chased from each positive.

    ``source_row``, a proper row, holds the negative symbol in the improper
    column, so it holds each positive once.  Each chain starts at the column
    where ``source_row`` holds the positive, then jumps, at each column, to
    the column where ``source_row`` holds the improper row's symbol there;
    it ends on the column where the improper row holds the negative.
    Returns the columns of (the chain through the larger positive, the chain
    through the smaller); the two share no column and the shorter has
    length <= floor((n-1)/2).
    """
    rec = board.improper
    (lo, hi), ends, top = rec.positive_pair, (rec.negative,), board.grid[source_row]
    return (
        _two_row_chain(board, source_row, rec.row, top.index(hi), ends),
        _two_row_chain(board, source_row, rec.row, top.index(lo), ends),
    )


def _resolve_improper(board: _Board, avoid: Iterable[int] = ()) -> None:
    """Drive an improper board proper with moves confined to two rows.

    A proper board is left as it is.  The helper row is the smallest row
    outside ``avoid`` that holds the negative symbol in the improper column
    (with no ``avoid``, the smaller of the two such rows); none is left only
    if a lemma of the path finder fails, and then this raises.  The working
    pair is (improper row, helper row); after each move the negative cell
    hops to the other row of the pair, so the moves touch only these two
    rows while the roles alternate.  Each step picks the shorter of the two
    current chains (ties go to the larger positive), which makes the total
    number of moves at most the first minimum, i.e. floor((n-1)/2).
    """
    rec = board.improper
    if rec is None:
        return
    helpers = [r for r, line in enumerate(board.grid) if line[rec.col] == rec.negative and r not in avoid]
    if not helpers:
        raise LatinSquareError(
            f"no helper row outside the fixed rows holds symbol {rec.negative} in column {rec.col}"
        )
    helper_row = helpers[0]
    while (rec := board.improper) is not None:
        chain_hi, chain_lo = _row_cycles(board, helper_row)
        lo, hi = rec.positive_pair
        chain, chased = (chain_lo, lo) if len(chain_lo) < len(chain_hi) else (chain_hi, hi)
        board.take(IntercalateMove.from_anchors(rec.row, rec.col, rec.negative, helper_row, chain[-1], chased))
        helper_row = rec.row


def _cycle_swap(board: _Board, rows: tuple[int, int], column: int) -> None:
    """Exchange two distinct rows of a proper board along their cycle through ``column``.

    Takes exactly r-1 moves for a cycle of r columns: the first opens the
    cycle (making the board improper for r >= 3), and each later move walks
    the negative cell one column further until it closes.  No cell outside
    the cycle changes.  The cycle closes at the column where row i2 holds
    the symbol row i1 holds at ``column``.
    """
    i1, i2 = rows
    top = board.grid[i1]  # a move replaces the board's row, so this one stays as it was
    first = top[column]
    cols = _two_row_chain(board, i1, i2, column, (first,))
    board.take(IntercalateMove.from_anchors(i1, column, top[cols[1]], i2, cols[1], first))
    for c, d in zip(cols[1:-1], cols[2:]):
        board.take(IntercalateMove.from_anchors(i2, c, first, i1, d, top[d]))


def _swap_row_entries(board: _Board, i1: int, j1: int, j2: int) -> None:
    """Swap the symbols of row ``i1`` at columns ``j1`` and ``j2 != j1``.

    The board is improper with its negative cell in column ``j1`` at a row
    i2 != i1, and cell (i1, j1) holds that cell's negative symbol s; `_fix_row`
    relies on both, and a board that breaks them raises.  Column ``j2`` is
    then a proper column, so one row i3 holds s there.

    The result holds t = old (i1, j2) symbol at (i1, j1) and s at (i1, j2),
    is proper or improper with the negative cell at (i2 or i3, j1) carrying
    negative symbol t, and differs from the input only at those two cells
    and within rows i2 and i3.  At most 2(n-1) moves are taken.
    """
    rec, grid = board.improper, board.grid
    i2, s = rec.row, rec.negative
    if i2 == i1 or grid[i1][j1] != s:
        raise LatinSquareError(f"row {i1} must hold symbol {s} at column {j1}, off row {i2}; internal error")
    t = grid[i1][j2]
    i3 = [line[j2] for line in grid].index(s)  # column j2 is proper

    if i3 == i2:
        # The negative row itself holds s at j2: one move does it all.
        board.take(IntercalateMove.from_anchors(i1, j1, t, i2, j2, s))
        return

    # General case.  Chase the chain of rows (i2, i3) from each of the two
    # columns where row i2 holds s; a usable chain ends on a column where
    # row i3 yields one of the improper cell's positives and never touches
    # j2 (row i3 holding s there would derail the closing steps).
    ends = (*rec.positive_pair, s)
    chains = [_two_row_chain(board, i2, i3, c, ends) for c, x in enumerate(grid[i2]) if x == s]
    bottom = board.grid[i3]  # i3 is not the improper row
    chains = [chain for chain in chains if bottom[chain[-1]] != s]
    if not chains:
        raise LatinSquareError("no usable chain found; internal error")
    chain = min(chains, key=lambda chain: (len(chain), chain[0]))
    c1, b_sym = chain[0], bottom[chain[-1]]

    board.take(IntercalateMove.from_anchors(i2, j1, s, i1, c1, b_sym))
    detour: list[IntercalateMove] = []
    if len(chain) >= 2:
        # Park the new negative cell (i1, c1), if any, with moves on rows i1
        # and a spare row, keeping rows i2 and i3 untouched for the cycle swap.
        mark = len(board.moves)
        _resolve_improper(board, (i1, i2, i3))
        detour = board.moves[mark:]
        _cycle_swap(board, (i2, i3), c1)

    # The detour and the swap share no row, so the detour's inverse still
    # undoes it; two moves then close the swap.
    for m in reversed(detour):
        board.take(m.inverted())
    board.take(IntercalateMove.from_anchors(i3, j1, b_sym, i1, c1, s))
    board.take(IntercalateMove.from_anchors(i1, j1, t, i3, j2, s))


def _fix_row(board: _Board, target_row: Sequence[int], k: int) -> None:
    """Make row ``k`` of a proper board equal to ``target_row``, row ``k`` of a target square.

    The board agrees with the target above row ``k``, the target holds no
    record in rows 0..k, and no column of the target repeats in row ``k`` a
    symbol it holds above; no move ever touches the rows above ``k``.  Each
    round places the target symbol of the smallest mismatched column, then
    chains row-entry swaps while a negative cell persists in the working
    column, resolving it within rows below ``k`` once the displaced symbol
    reaches its own target column.  Costs at most 2(n-1)^2 moves.
    """
    while True:
        row = board.grid[k]  # proper at the start of a round
        j2 = next((c for c, (x, y) in enumerate(zip(row, target_row)) if x != y), None)
        if j2 is None:
            return
        s = target_row[j2]
        t = row[j2]
        j1 = row.index(s)
        i1 = [line[j2] for line in board.grid].index(s)  # proper, and the rows above k hold s elsewhere: i1 > k
        board.take(IntercalateMove.from_anchors(k, j2, s, i1, j1, t))
        while (rec := board.improper) is not None:
            tau = rec.negative
            if target_row[rec.col] == tau:
                # tau landed on its own target column: close out the round
                # with a two-row resolution on a helper row below row k.
                _resolve_improper(board, range(k + 1))
                break
            _swap_row_entries(board, k, rec.col, target_row.index(tau))


def transform_path(a: SquareState, b: SquareState) -> MoveSequence:
    """An explicit move sequence transferring ``a`` into ``b``.

    Improper endpoints are first driven proper (and the suffix replayed in
    reverse for ``b``); rows are then fixed top-down, the last row being
    forced.  The sequence length is at most 2(n-1)^3 and every intermediate
    state is a valid proper or improper square.  One board runs from ``a``
    to ``b``, and a second resolves ``b``; only the end is built as a state.
    """
    _checked(a)
    _checked(b)
    if a.n != b.n:
        raise PreconditionViolated(f"orders differ: {a.n} vs {b.n}")
    if a == b:
        return MoveSequence(a, (), b)
    board, target = _Board(a), _Board(b)
    _resolve_improper(board)
    _resolve_improper(target)
    for k in range(a.n - 1):
        _fix_row(board, target.grid[k], k)
    if board.grid != target.grid or board.improper is not None:
        raise LatinSquareError("row fixing did not converge; internal error")
    for m in reversed(target.moves):
        board.take(m.inverted())
    end = board.state()
    if end != b:
        raise LatinSquareError("endpoint mismatch after replay; internal error")
    return MoveSequence(a, tuple(board.moves), end)
