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

Each public function checks the states it is given once, on entry: one that
fails `validate` raises InvalidSquare with its messages, a bad argument
PreconditionViolated.  The board code behind them trusts its board.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import ImproperCell, LatinSquareError, SquareState, _checked, validate
from .moves import IntercalateMove, InvalidMove, _flip


class PreconditionViolated(LatinSquareError):
    """An argument breaks a path primitive's named precondition, an index outside 0..n-1 included."""


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
        """Take the moves on a board of ``start``; with ``check`` validate every prefix.

        ``start`` is validated in full, and a bad one raises InvalidSquare.
        Every later prefix, the first move's included, follows a valid one,
        so `_moved_lines_hold` reads only the four cells its move can have
        changed, and one it cannot show valid is validated in full.  A
        refused move raises `apply_move`'s InvalidMove, a bad prefix the
        full check's messages.
        """
        board = _Board(_checked(self.start) if check else self.start)
        for m in self.moves:
            before, rec = board.grid[:], board.improper
            board.take(m)
            if check and not _moved_lines_hold(board, before, rec, m) and (problems := validate(board.state())):
                raise LatinSquareError(f"invalid intermediate state: {problems}")
        return board.state()


class _Board:
    """The one mutable square a path is built and replayed on, with the moves taken so far.

    ``grid`` holds the rows as lists and ``improper`` the record, as a
    `SquareState` holds them, so the state's readers serve it unchanged.
    `take` applies a move through `moves._flip` and writes rows i and i2 as
    new lists; a refused move raises InvalidMove, as `apply_move` does, and
    leaves the board as it was.
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


def _moved_lines_hold(board: _Board, before: list[list[int]], old: ImproperCell | None, m: IntercalateMove) -> bool:
    """Whether ``board`` is still valid after move ``m``, read on the four cells it can have changed.

    ``before`` (a copy of the row list, overwritten here) and ``old`` held
    the valid square before the move.  Rows other than i and i2 must be the
    same, rows i and i2 may change only at columns j and j2, and a new record
    and the one it replaced must sit on those four cells.  Then only the
    four cells changed, and each of rows i, i2 and columns j, j2 still sums
    to 1 on every symbol exactly when the +1s it lost and the -1s it gained
    are, as a multiset, the +1s it gained and the -1s it lost.  A proper cell
    holds +s; a record's cell holds +p, +q and -negative, with p on the grid,
    p < q and the negative distinct from both.  False means only that this
    could not show the board valid.
    """
    grid, rec = board.grid, board.improper
    i, j, _, i2, j2, _ = m
    top, bottom = before[i], before[i2]
    new_top, new_bottom = before[i], before[i2] = grid[i], grid[i2]
    if before != grid:
        return False
    for line, new in ((top, new_top), (bottom, new_bottom)):
        line = line[:]
        line[j], line[j2] = new[j], new[j2]
        if line != new:
            return False
    # Symbol s on line k (0 and 1: rows i and i2; 2 and 3: columns j and j2)
    # counts as 4s + k, one integer per pair.  Only a new record's negative
    # can be lost outside 0..n-1, and its row and column could then balance
    # only through the record's own p or q; so balanced lines stay in range.
    t, u, v, w = 4 * top[j], 4 * top[j2], 4 * bottom[j], 4 * bottom[j2]
    t2, u2, v2, w2 = 4 * new_top[j], 4 * new_top[j2], 4 * new_bottom[j], 4 * new_bottom[j2]
    lost = [t, u, v + 1, w + 1, t + 2, v + 2, u + 3, w + 3]
    gained = [t2, u2, v2 + 1, w2 + 1, t2 + 2, v2 + 2, u2 + 3, w2 + 3]
    if rec is not old:
        for cell, plus, minus in ((old, lost, gained), (rec, gained, lost)):
            if cell is None:
                continue
            r, c, (p, q), neg = cell
            if r not in (i, i2) or c not in (j, j2) or not p < q or neg in (p, q):
                return False
            row, col = r != i, 2 + (c != j)
            plus += (4 * q + row, 4 * q + col)
            minus += (4 * neg + row, 4 * neg + col)
    if rec is not None and grid[rec.row][rec.col] != rec.positive_pair[0]:
        return False
    lost.sort()
    gained.sort()
    return lost == gained


def _on_board(state: SquareState, primitive: Callable[..., None], *args) -> MoveSequence:
    """Run a board primitive on a board of ``state``: the path of the moves it takes."""
    board = _Board(state)
    primitive(board, *args)
    return MoveSequence(state, tuple(board.moves), board.state())


def _two_row_chain(
    state: SquareState | _Board, top: int, bottom: int, col: int, ends: tuple[int, ...]
) -> tuple[int, ...]:
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
    upper, lower = state.grid[top], state.grid[bottom]
    cols: list[int] = []
    for _ in range(len(lower)):
        cols.append(col)
        sym = lower[col]
        if sym in ends:
            return tuple(cols)
        col = upper.index(sym)
    raise LatinSquareError("chain did not terminate; internal error")


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
    rec = _checked(state).improper
    if rec is None:
        raise PreconditionViolated("state is proper; it has no improper cell")
    if not 0 <= source_row < state.n:
        raise PreconditionViolated(f"row {source_row} outside 0..{state.n - 1}")
    if state.entry(source_row, rec.col, rec.negative) != 1:
        raise PreconditionViolated(
            f"row {source_row} does not hold symbol {rec.negative} at column {rec.col}"
        )
    return _row_cycles(state, source_row)


def _row_cycles(state: SquareState | _Board, source_row: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`find_row_cycles` on a valid board; ``source_row``, a proper row, holds each positive once."""
    rec = state.improper
    (lo, hi), ends, top = rec.positive_pair, (rec.negative,), state.grid[source_row]
    return (
        _two_row_chain(state, source_row, rec.row, top.index(hi), ends),
        _two_row_chain(state, source_row, rec.row, top.index(lo), ends),
    )


def _resolve_improper(board: _Board, avoid: Iterable[int] = ()) -> None:
    """Drive an improper board proper with moves confined to two rows.

    A proper board is left as it is.  The helper row is the smallest row
    outside ``avoid`` that holds the negative symbol in the improper column;
    none is left only if a lemma of the path finder fails, and then this
    raises.  The working pair is (improper row, helper row); after each move
    the negative cell hops to the other row of the pair, so the pair is
    fixed while the roles alternate.  Each step picks the shorter of the two
    current chains (ties go to the larger positive), which makes the total
    number of moves at most the first minimum, i.e. floor((n-1)/2).
    """
    rec = board.improper
    if rec is None:
        return
    helpers = [r for r in board.rows_with(rec.col, rec.negative) if r not in avoid]
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


def normalize_to_proper(state: SquareState) -> MoveSequence:
    """Resolve an improper square into a proper one (identity on proper input).

    The helper row is the smaller of the two rows holding the negative
    symbol in the improper column, as `_resolve_improper` picks it.  The
    emitted sequence touches only the improper row and the helper row and
    has length at most floor((n-1)/2).
    """
    return _on_board(_checked(state), _resolve_improper)


def cycle_swap(state: SquareState, rows: tuple[int, int], column: int) -> MoveSequence:
    """Exchange two rows of a proper square along their cycle through ``column``.

    Emits exactly r-1 moves for a cycle of r columns: the first opens the
    cycle (making the state improper for r >= 3), and each later move walks
    the negative cell one column further until it closes.  No cell outside
    the cycle changes.  The cycle closes at the column where row i2 holds
    the symbol row i1 holds at ``column``.
    """
    return _on_board(_checked(state), _cycle_swap, rows, column)


def _cycle_swap(board: _Board, rows: tuple[int, int], column: int) -> None:
    i1, i2 = rows
    if board.improper is not None:
        raise PreconditionViolated("row cycles need a proper state")
    if i1 == i2:
        raise PreconditionViolated("cycle rows must differ")
    if not all(0 <= x < board.n for x in (i1, i2, column)):
        raise PreconditionViolated(f"row {i1}, row {i2} or column {column} outside 0..{board.n - 1}")
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
    row i2 != i1; j2 != j1; and cell (i1, j1) holds that cell's negative
    symbol s.  Column ``j2`` is then a proper column, so one row i3 holds s
    there.

    The result holds t = old (i1, j2) symbol at (i1, j1) and s at (i1, j2),
    is proper or improper with the negative cell at (i2 or i3, j1) carrying
    negative symbol t, and differs from the input only at those two cells
    and within rows i2 and i3.  At most 2(n-1) moves are emitted.
    """
    return _on_board(_checked(state), _swap_row_entries, i1, j1, j2)


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
    i3 = board.rows_with(j2, s)[0]

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


def _check_pair(a: SquareState, b: SquareState) -> None:
    """Check both squares on entry, then that their orders agree."""
    _checked(a)
    _checked(b)
    if a.n != b.n:
        raise PreconditionViolated(f"orders differ: {a.n} vs {b.n}")


def fix_row(state: SquareState, target: SquareState, k: int) -> MoveSequence:
    """Make row ``k`` of a proper square equal to row ``k`` of ``target``.

    Preconditions (each violation is named): the squares have one order,
    ``k`` lies in 0..n-1, ``state`` is proper, ``target`` has no record in
    rows 0..k, the rows above ``k`` agree, and no column of ``target``
    repeats in row ``k`` a symbol it holds above; no move ever touches the
    rows above ``k``.  Each round places the target symbol of the smallest
    mismatched column, then chains row-entry swaps while a negative cell
    persists in the working column, resolving it within rows below ``k``
    once the displaced symbol reaches its own target column.  Costs at most
    2(n-1)^2 moves.
    """
    _check_pair(state, target)
    if not 0 <= k < state.n:
        raise PreconditionViolated(f"row {k} outside 0..{state.n - 1}")
    if state.improper is not None:
        raise PreconditionViolated(f"state is improper; row {k} is fixed on a proper square")
    if target.improper is not None and target.improper.row <= k:
        raise PreconditionViolated(
            f"row {target.improper.row} of the target holds its improper cell; rows 0..{k} must not"
        )
    if (i := next((i for i in range(k) if state.grid[i] != target.grid[i]), k)) < k:
        raise PreconditionViolated(f"row {i} differs from the target's; the rows above row {k} must agree")
    if any(len(set(col)) <= k for col in zip(*target.grid[: k + 1])):
        raise PreconditionViolated(f"a column of the target repeats a symbol in rows 0..{k}")
    return _on_board(state, _fix_row, target.grid[k], k)


def _fix_row(board: _Board, target_row: Sequence[int], k: int) -> None:
    while True:
        row = board.grid[k]  # proper at the start of a round
        j2 = next((c for c, (x, y) in enumerate(zip(row, target_row)) if x != y), None)
        if j2 is None:
            return
        s = target_row[j2]
        t = row[j2]
        j1 = row.index(s)
        i1 = board.rows_with(j2, s)[0]  # proper, and the rows above k hold s elsewhere: i1 > k
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
    _check_pair(a, b)
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
