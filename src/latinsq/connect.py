"""Constructive connectivity of the +/-1-move state graph.

Everything here is built from three primitives and one driver:

* ``normalize_to_proper`` resolves an improper square with moves confined to
  two rows (at most floor((n-1)/2) of them).
* ``cycle_swap`` exchanges two rows of a proper square along their symbol
  cycle through one column, using exactly r-1 moves.
* ``swap_row_entries`` exchanges two entries of one row of an improper
  square (at most 2(n-1) moves), carrying the negative cell along its column.
* ``transform_path`` composes the above to turn any square into any other,
  fixing rows top-down; the emitted sequence never exceeds 2(n-1)^3 moves and
  every intermediate state is a valid proper or improper square.

Each returns one `MoveSequence` whose ``end`` is the resulting square.  The
moves are taken on one private mutable board, `_Board`: the rows as lists,
the improper record and the list of moves taken, read through
`SquareState`'s own readers and changed only by `moves._flip`, the rule
`apply_move` states.  Each primitive runs on a board, so `transform_path`
drives a single board from start to end and builds a state only there.
The board is the only place a path is built: a `MoveSequence` records one
and can reverse or replay it, but never extends it.  A two-row chain or
cycle is the tuple of its columns in walk order; its symbols are read from
the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .core import InvalidSquare, LatinSquareError, SquareState, validate
from .moves import IntercalateMove, InvalidMove, _flip, apply_move


class NotImproper(LatinSquareError):
    """Operation requires an improper state."""


class MismatchedRows(LatinSquareError):
    """The designated source row lies outside 0..n-1 or does not carry the required symbol."""


class InvalidCycle(LatinSquareError):
    """A row cycle was asked of an improper state, equal rows or an index outside 0..n-1."""


class PreconditionViolated(LatinSquareError):
    """Named precondition of the row-entry swap failed, an index outside 0..n-1 included."""


class OrderMismatch(LatinSquareError):
    """The two endpoint squares have different orders."""


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
        """Re-apply the moves to ``start``; with ``check`` validate every prefix.

        Each prefix after the first is validated ``since`` the one before,
        which passed, so only the lines its move changed are read; the
        messages are those of a full check.
        """
        state = self.start
        for k, m in enumerate(self.moves):
            before, state = state, apply_move(state, m)
            if check and (problems := validate(state, since=before if k else None)):
                raise LatinSquareError(f"invalid intermediate state: {problems}")
        return state


class _Board:
    """The one mutable square a path is built on, with the moves taken so far.

    ``grid`` holds the rows as lists and ``improper`` the record, as a
    `SquareState` holds them, so the state's readers serve it unchanged.
    `take` applies a move through `moves._flip`; a refused move raises
    InvalidMove, as `apply_move` does, and leaves the board as it was.
    """

    __slots__ = ("grid", "improper", "moves")

    n = SquareState.n
    entry, symbol_at = SquareState.entry, SquareState.symbol_at
    rows_with, cols_with = SquareState.rows_with, SquareState.cols_with

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


def _on_board(state: SquareState, primitive: Callable[..., None], *args) -> MoveSequence:
    """Run a board primitive on a board of ``state``: the path of the moves it takes."""
    board = _Board(state)
    primitive(board, *args)
    return MoveSequence(state, tuple(board.moves), board.state())


def _unique_col(state: SquareState | _Board, row: int, sym: int) -> int:
    cols = state.cols_with(row, sym)
    if len(cols) != 1:
        raise LatinSquareError(
            f"symbol {sym} appears {len(cols)} times positively in row {row}"
        )
    return cols[0]


def _two_row_chain(
    state: SquareState | _Board, top: int, bottom: int, col: int, ends: tuple[int, ...]
) -> tuple[int, ...]:
    """Walk the chain of rows (``top``, ``bottom``) from column ``col``.

    At each column read the bottom row's symbol; stop when it is in ``ends``,
    else jump to the column where the top row holds it.  Returns the columns
    in walk order.  A valid state ends the walk within n columns.

    The rows are read straight from the grid.  The grid shows only the
    smaller positive of the improper cell, so a chain must not reach that
    cell: no caller's chain does on a valid state, and one that does raises.
    """
    rec = state.improper
    improper_col = rec.col if rec is not None and rec.row in (top, bottom) else -1
    upper, lower = state.grid[top], state.grid[bottom]
    cols: list[int] = []
    for _ in range(len(lower)):
        if col == improper_col:
            raise LatinSquareError(f"chain reached the improper cell in column {col}; state is corrupt")
        cols.append(col)
        sym = lower[col]
        if sym in ends:
            return tuple(cols)
        col = upper.index(sym)
    raise LatinSquareError("chain did not terminate; state is corrupt")


def find_row_cycles(state: SquareState, source_row: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two chains rooted at the improper cell, chased from each positive.

    ``source_row`` must hold the negative symbol in the improper column.
    Each chain starts at the column where ``source_row`` holds the positive,
    then jumps, at each column, to the column where ``source_row`` holds the
    improper row's symbol there; it ends on the column where the improper
    row holds the negative.  Returns the columns of (the chain through the
    larger positive, the chain through the smaller); the two share no column
    and the shorter has length <= floor((n-1)/2).
    """
    rec = state.improper
    if rec is None:
        raise NotImproper("state is proper; it has no improper cell")
    if not 0 <= source_row < state.n:
        raise MismatchedRows(f"row {source_row} outside 0..{state.n - 1}")
    if state.entry(source_row, rec.col, rec.negative) != 1:
        raise MismatchedRows(
            f"row {source_row} does not hold symbol {rec.negative} at column {rec.col}"
        )
    lo, hi = rec.positive_pair
    ends = (rec.negative,)
    return (
        _two_row_chain(state, source_row, rec.row, _unique_col(state, source_row, hi), ends),
        _two_row_chain(state, source_row, rec.row, _unique_col(state, source_row, lo), ends),
    )


def _resolve_improper(board: _Board, avoid: Iterable[int] = ()) -> None:
    """Drive an improper board proper with moves confined to two rows.

    A proper board is left as it is.  The helper row is the smallest row
    outside ``avoid`` that holds the negative symbol in the improper column;
    a corrupt state without one raises.  The working pair is (improper row,
    helper row); after each move the negative cell hops to the other row of
    the pair, so the pair is fixed while the roles alternate.  Each step
    picks the shorter of the two current chains (ties go to the larger
    positive), which makes the total number of moves at most the first
    minimum, i.e. floor((n-1)/2).
    """
    rec = board.improper
    if rec is None:
        return
    helpers = [r for r in board.rows_with(rec.col, rec.negative) if r not in avoid]
    if not helpers:
        raise LatinSquareError(
            f"no helper row holds symbol {rec.negative} in column {rec.col}; state is corrupt"
        )
    helper_row = helpers[0]
    while (rec := board.improper) is not None:
        chain_hi, chain_lo = find_row_cycles(board, helper_row)
        lo, hi = rec.positive_pair
        chain, chased = (chain_lo, lo) if len(chain_lo) < len(chain_hi) else (chain_hi, hi)
        board.take(IntercalateMove.from_anchors(rec.row, rec.col, rec.negative, helper_row, chain[-1], chased))
        helper_row = rec.row


def normalize_to_proper(state: SquareState) -> MoveSequence:
    """Resolve an improper square into a proper one (identity on proper input).

    The helper row is the smaller of the two rows holding the negative
    symbol in the improper column, as `_resolve_improper` picks it.  The
    emitted sequence touches only the improper row and the helper row and
    has length at most floor((n-1)/2).
    """
    return _on_board(state, _resolve_improper)


def cycle_swap(state: SquareState, rows: tuple[int, int], column: int) -> MoveSequence:
    """Exchange two rows of a proper square along their cycle through ``column``.

    Emits exactly r-1 moves for a cycle of r columns: the first opens the
    cycle (making the state improper for r >= 3), and each later move walks
    the negative cell one column further until it closes.  No cell outside
    the cycle changes.  The cycle closes at the column where row i2 holds
    the symbol row i1 holds at ``column``.
    """
    return _on_board(state, _cycle_swap, rows, column)


def _cycle_swap(board: _Board, rows: tuple[int, int], column: int) -> None:
    i1, i2 = rows
    if board.improper is not None:
        raise InvalidCycle("row cycles need a proper state")
    if i1 == i2:
        raise InvalidCycle("cycle rows must differ")
    if not all(0 <= x < board.n for x in (i1, i2, column)):
        raise InvalidCycle(f"row {i1}, row {i2} or column {column} outside 0..{board.n - 1}")
    top = board.grid[i1]  # a move replaces the board's row, so this one stays as it was
    first = top[column]
    cols = _two_row_chain(board, i1, i2, column, (first,))
    board.take(IntercalateMove.from_anchors(i1, column, top[cols[1]], i2, cols[1], first))
    for c, d in zip(cols[1:-1], cols[2:]):
        board.take(IntercalateMove.from_anchors(i2, c, first, i1, d, top[d]))


def swap_row_entries(state: SquareState, i1: int, j1: int, j2: int) -> MoveSequence:
    """Swap the symbols of row ``i1`` at columns ``j1`` and ``j2``.

    Preconditions (each violation is named): i1, j1 and j2 lie in 0..n-1;
    the state is improper with its negative cell in column ``j1`` at some
    row i2 != i1; cell (i1, j1) holds that cell's negative symbol s; and
    (always true for valid states) some row i3 holds s at column ``j2``.

    The result holds t = old (i1, j2) symbol at (i1, j1) and s at (i1, j2),
    is proper or improper with the negative cell at (i2 or i3, j1) carrying
    negative symbol t, and differs from the input only at those two cells
    and within rows i2 and i3.  At most 2(n-1) moves are emitted.
    """
    return _on_board(state, _swap_row_entries, i1, j1, j2)


def _swap_row_entries(board: _Board, i1: int, j1: int, j2: int) -> None:
    rec = board.improper
    if rec is None:
        raise PreconditionViolated("state is proper; an improper cell in column j1 is required")
    if not all(0 <= x < board.n for x in (i1, j1, j2)):
        raise PreconditionViolated(f"row {i1}, column {j1} or column {j2} outside 0..{board.n - 1}")
    if rec.col != j1:
        raise PreconditionViolated(
            f"improper cell sits in column {rec.col}, not in j1={j1}"
        )
    i2 = rec.row
    if i2 == i1:
        raise PreconditionViolated("the improper cell must lie in a row other than i1")
    if j1 == j2:
        raise PreconditionViolated("j1 and j2 must differ")
    s = rec.negative
    if board.entry(i1, j1, s) != 1:
        raise PreconditionViolated(
            f"cell ({i1},{j1}) does not hold the negative symbol {s}"
        )
    t = board.symbol_at(i1, j2)
    i3_rows = board.rows_with(j2, s)
    if len(i3_rows) != 1:
        raise PreconditionViolated(f"column {j2} does not hold symbol {s} exactly once")
    i3 = i3_rows[0]

    if i3 == i2:
        # The negative row itself holds s at j2: one move does it all.
        board.take(IntercalateMove.from_anchors(i1, j1, t, i2, j2, s))
        return

    # General case.  Chase the chain of rows (i2, i3) from each of the two
    # columns where row i2 holds s; a usable chain ends on a column where
    # row i3 yields one of the improper cell's positives and never touches
    # j2 (row i3 holding s there would derail the closing steps).
    ends = (*rec.positive_pair, s)
    chains = [_two_row_chain(board, i2, i3, c, ends) for c in board.cols_with(i2, s)]
    bottom = board.grid[i3]  # i3 is not the improper row
    chains = [chain for chain in chains if bottom[chain[-1]] != s]
    if not chains:
        raise LatinSquareError("no usable chain found; state is corrupt")
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


def fix_row(state: SquareState, target: SquareState, k: int) -> MoveSequence:
    """Make row ``k`` of a proper square equal to row ``k`` of ``target``.

    Assumes rows above ``k`` already agree; no move ever touches them.  Each
    round places the target symbol of the smallest mismatched column, then
    chains row-entry swaps while a negative cell persists in the working
    column, resolving it within rows below ``k`` once the displaced symbol
    reaches its own target column.  Costs at most 2(n-1)^2 moves.
    """
    rec = state.improper
    if rec is not None and rec.row == k:
        raise InvalidSquare(f"cell ({k},{rec.col}) is not a proper cell")  # what symbol_at raises there
    return _on_board(state, _fix_row, [target.symbol_at(k, c) for c in range(state.n)], k)


def _fix_row(board: _Board, target_row: list[int], k: int) -> None:
    while True:
        row = board.grid[k]  # proper at the start of a round
        j2 = next((c for c, (x, y) in enumerate(zip(row, target_row)) if x != y), None)
        if j2 is None:
            return
        s = target_row[j2]
        t = row[j2]
        j1 = row.index(s)
        i1 = _unique_row_below(board, k, j2, s)
        board.take(IntercalateMove.from_anchors(k, j2, s, i1, j1, t))
        while (rec := board.improper) is not None:
            tau = rec.negative
            if target_row[rec.col] == tau:
                # tau landed on its own target column: close out the round
                # with a two-row resolution on a helper row below row k.
                _resolve_improper(board, range(k + 1))
                break
            _swap_row_entries(board, k, rec.col, target_row.index(tau))


def _unique_row_below(board: _Board, k: int, col: int, sym: int) -> int:
    rows = board.rows_with(col, sym)
    if len(rows) != 1:
        raise LatinSquareError(f"column {col} does not hold {sym} exactly once")
    if rows[0] <= k:
        raise LatinSquareError(f"symbol {sym} of column {col} is not below row {k}")
    return rows[0]


def transform_path(a: SquareState, b: SquareState) -> MoveSequence:
    """An explicit move sequence transferring ``a`` into ``b``.

    Improper endpoints are first driven proper (and the suffix replayed in
    reverse for ``b``); rows are then fixed top-down, the last row being
    forced.  The sequence length is at most 2(n-1)^3 and every intermediate
    state is a valid proper or improper square.  One board runs from ``a``
    to ``b``, and a second resolves ``b``; only the end is built as a state.
    """
    if a.n != b.n:
        raise OrderMismatch(f"orders differ: {a.n} vs {b.n}")
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
