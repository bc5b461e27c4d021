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

Each returns one `MoveSequence` whose ``end`` is the resulting square.  A
two-row chain or cycle is the tuple of its columns in walk order; its
symbols are read from the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .core import LatinSquareError, SquareState, validate
from .moves import IntercalateMove, apply_move


class NotImproper(LatinSquareError):
    """Operation requires an improper state (or one at a specific cell)."""


class MismatchedRows(LatinSquareError):
    """The designated source row does not carry the required symbol."""


class InvalidCycle(LatinSquareError):
    """A row cycle was asked of an improper state, equal rows or an index outside 0..n-1."""


class PreconditionViolated(LatinSquareError):
    """Named precondition of the row-entry swap failed."""


class OrderMismatch(LatinSquareError):
    """The two endpoint squares have different orders."""


@dataclass(frozen=True)
class MoveSequence:
    """An ordered move list with its endpoint states."""

    start: SquareState
    moves: tuple[IntercalateMove, ...] = field(default_factory=tuple)
    end: SquareState = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.end is None:
            object.__setattr__(self, "end", self.start)

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


def _unique_col(state: SquareState, row: int, sym: int) -> int:
    cols = state.cols_with(row, sym)
    if len(cols) != 1:
        raise LatinSquareError(
            f"symbol {sym} appears {len(cols)} times positively in row {row}"
        )
    return cols[0]


def _extend(
    state: SquareState, moves: Iterable[IntercalateMove], out: list[IntercalateMove]
) -> SquareState:
    """Apply ``moves`` to ``state`` in order, appending each to ``out``."""
    for m in moves:
        state = apply_move(state, m)
        out.append(m)
    return state


def _two_row_chain(
    state: SquareState, top: int, bottom: int, col: int, ends: tuple[int, ...]
) -> tuple[int, ...]:
    """Walk the chain of rows (``top``, ``bottom``) from column ``col``.

    At each column read the bottom row's symbol; stop when it is in ``ends``,
    else jump to the column where the top row holds it.  Returns the columns
    in walk order.  A valid state ends the walk within n columns.
    """
    cols: list[int] = []
    for _ in range(state.n):
        cols.append(col)
        sym = state.symbol_at(bottom, col)
        if sym in ends:
            return tuple(cols)
        col = _unique_col(state, top, sym)
    raise LatinSquareError("chain did not terminate; state is corrupt")


def find_row_cycles(
    state: SquareState, improper_row: int, source_row: int, column: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two chains rooted at the improper cell, chased from each positive.

    Each chain starts at the column where ``source_row`` holds the positive,
    then jumps, at each column, to the column where ``source_row`` holds the
    improper row's symbol there; it ends on the column where the improper
    row holds the negative.  Returns the columns of (the chain through the
    larger positive, the chain through the smaller); the two share no column
    and the shorter has length <= floor((n-1)/2).
    """
    rec = state.improper
    if rec is None or (rec.row, rec.col) != (improper_row, column):
        raise NotImproper(
            f"state has no improper cell at ({improper_row},{column})"
        )
    if state.entry(source_row, column, rec.negative) != 1:
        raise MismatchedRows(
            f"row {source_row} does not hold symbol {rec.negative} at column {column}"
        )
    lo, hi = rec.positive_pair
    ends = (rec.negative,)
    return (
        _two_row_chain(state, source_row, improper_row, _unique_col(state, source_row, hi), ends),
        _two_row_chain(state, source_row, improper_row, _unique_col(state, source_row, lo), ends),
    )


def _resolve_improper(state: SquareState, helper_row: int) -> MoveSequence:
    """Drive an improper state proper with moves confined to two rows.

    The working pair is (improper row, helper row); after each move the
    negative cell hops to the other row of the pair, so the pair is fixed
    while the roles alternate.  Each step picks the shorter of the two
    current chains (ties go to the larger positive), which makes the total
    number of moves at most the first minimum, i.e. floor((n-1)/2).
    """
    start, moves = state, []
    while state.improper is not None:
        rec = state.improper
        chain_hi, chain_lo = find_row_cycles(state, rec.row, helper_row, rec.col)
        lo, hi = rec.positive_pair
        chain, chased = (chain_lo, lo) if len(chain_lo) < len(chain_hi) else (chain_hi, hi)
        m = IntercalateMove.from_anchors(rec.row, rec.col, rec.negative, helper_row, chain[-1], chased)
        state = _extend(state, (m,), moves)
        helper_row = rec.row
    return MoveSequence(start, tuple(moves), state)


def normalize_to_proper(state: SquareState) -> MoveSequence:
    """Resolve an improper square into a proper one (identity on proper input).

    The helper row is the smallest row other than the improper one holding
    the negative symbol in the improper column (a valid improper state always
    has exactly two such rows).  The emitted sequence touches only those two
    rows and has length at most floor((n-1)/2).
    """
    if state.improper is None:
        return MoveSequence(state)
    rec = state.improper
    candidates = [r for r in state.rows_with(rec.col, rec.negative) if r != rec.row]
    if not candidates:
        raise NotImproper(
            f"no row holds symbol {rec.negative} in column {rec.col}; state is corrupt"
        )
    return _resolve_improper(state, candidates[0])


def _row_cycle(state: SquareState, i1: int, i2: int, column: int) -> tuple[int, ...]:
    """The columns of the cycle of rows (``i1``, ``i2``) through ``column``, in walk order.

    The walk closes when row ``i2`` shows the symbol row ``i1`` holds at
    ``column``; in a proper square with two distinct rows it spans at least
    two columns.
    """
    if state.improper is not None:
        raise InvalidCycle("row cycles need a proper state")
    if i1 == i2:
        raise InvalidCycle("cycle rows must differ")
    if not all(0 <= x < state.n for x in (i1, i2, column)):
        raise InvalidCycle(f"row {i1}, row {i2} or column {column} outside 0..{state.n - 1}")
    return _two_row_chain(state, i1, i2, column, (state.symbol_at(i1, column),))


def proper_row_cycles(state: SquareState, row_a: int, row_b: int) -> list[tuple[int, ...]]:
    """Decompose the columns of a proper square into the cycles of two rows.

    Each cycle is its columns in `cycle_swap`'s walk order for rows
    (row_a, row_b), starting at its smallest column; the cycles are ordered
    by that column.  Every cycle has length >= 2.
    """
    cycles: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for c0 in range(state.n):
        if c0 not in seen:
            cycles.append(_row_cycle(state, row_a, row_b, c0))
            seen.update(cycles[-1])
    return cycles


def cycle_swap(state: SquareState, rows: tuple[int, int], column: int) -> MoveSequence:
    """Exchange two rows of a proper square along their cycle through ``column``.

    Emits exactly r-1 moves for a cycle of r columns: the first opens the
    cycle (making the state improper for r >= 3), and each later move walks
    the negative cell one column further until it closes.  No cell outside
    the cycle changes.
    """
    i1, i2 = rows
    cols = _row_cycle(state, i1, i2, column)
    top = state.grid[i1]
    first = top[column]
    ms = [IntercalateMove.from_anchors(i1, column, top[cols[1]], i2, cols[1], first)]
    ms += (IntercalateMove.from_anchors(i2, c, first, i1, d, top[d]) for c, d in zip(cols[1:-1], cols[2:]))
    return MoveSequence(state, tuple(ms), _extend(state, ms, []))


def swap_row_entries(state: SquareState, i1: int, j1: int, j2: int) -> MoveSequence:
    """Swap the symbols of row ``i1`` at columns ``j1`` and ``j2``.

    Preconditions (each violation is named): the state is improper with its
    negative cell in column ``j1`` at some row i2 != i1; cell (i1, j1) holds
    that cell's negative symbol s; and (always true for valid states) some
    row i3 holds s at column ``j2``.

    The result holds t = old (i1, j2) symbol at (i1, j1) and s at (i1, j2),
    is proper or improper with the negative cell at (i2 or i3, j1) carrying
    negative symbol t, and differs from the input only at those two cells
    and within rows i2 and i3.  At most 2(n-1) moves are emitted.
    """
    rec = state.improper
    if rec is None:
        raise PreconditionViolated("state is proper; an improper cell in column j1 is required")
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
    if state.entry(i1, j1, s) != 1:
        raise PreconditionViolated(
            f"cell ({i1},{j1}) does not hold the negative symbol {s}"
        )
    t = state.symbol_at(i1, j2)
    i3_rows = state.rows_with(j2, s)
    if len(i3_rows) != 1:
        raise PreconditionViolated(f"column {j2} does not hold symbol {s} exactly once")
    i3 = i3_rows[0]

    if i3 == i2:
        # The negative row itself holds s at j2: one move does it all.
        m = IntercalateMove.from_anchors(i1, j1, t, i2, j2, s)
        return MoveSequence(state, (m,), apply_move(state, m))

    # General case.  Chase the chain of rows (i2, i3) from each of the two
    # columns where row i2 holds s; a usable chain ends on a column where
    # row i3 yields one of the improper cell's positives and never touches
    # j2 (row i3 holding s there would derail the closing steps).
    ends = (*rec.positive_pair, s)
    chains = [_two_row_chain(state, i2, i3, c, ends) for c in state.cols_with(i2, s)]
    chains = [chain for chain in chains if state.symbol_at(i3, chain[-1]) != s]
    if not chains:
        raise LatinSquareError("no usable chain found; state is corrupt")
    chain = min(chains, key=lambda chain: (len(chain), chain[0]))
    c1, b_sym = chain[0], state.symbol_at(i3, chain[-1])

    start, moves = state, []
    state = _extend(state, (IntercalateMove.from_anchors(i2, j1, s, i1, c1, b_sym),), moves)

    detour = MoveSequence(state)
    if state.improper is not None and len(chain) >= 2:
        # Park the new negative cell (i1, c1) with moves on rows i1 and a
        # spare row, keeping rows i2 and i3 untouched for the cycle swap.
        spare = [
            r for r in state.rows_with(c1, b_sym) if r not in (i1, i2, i3)
        ]
        if not spare:
            raise LatinSquareError("no spare row for the detour; state is corrupt")
        detour = _resolve_improper(state, spare[0])
        state = detour.end
        moves.extend(detour.moves)

    if len(chain) >= 2:
        swap = cycle_swap(state, (i2, i3), c1)
        state = swap.end
        moves.extend(swap.moves)

    # The detour and the swap share no row, so the detour's inverse still
    # undoes it; two moves then close the swap.
    state = _extend(state, (
        *detour.inverted().moves,
        IntercalateMove.from_anchors(i3, j1, b_sym, i1, c1, s),
        IntercalateMove.from_anchors(i1, j1, t, i3, j2, s),
    ), moves)
    return MoveSequence(start, tuple(moves), state)


def fix_row(state: SquareState, target: SquareState, k: int) -> MoveSequence:
    """Make row ``k`` of a proper square equal to row ``k`` of ``target``.

    Assumes rows above ``k`` already agree; no move ever touches them.  Each
    round places the target symbol of the smallest mismatched column, then
    chains row-entry swaps while a negative cell persists in the working
    column, resolving it within rows below ``k`` once the displaced symbol
    reaches its own target column.  Costs at most 2(n-1)^2 moves.
    """
    n = state.n
    target_row = [target.symbol_at(k, c) for c in range(n)]
    start, moves = state, []
    while True:
        row = [state.symbol_at(k, c) for c in range(n)]
        mismatched = [c for c in range(n) if row[c] != target_row[c]]
        if not mismatched:
            return MoveSequence(start, tuple(moves), state)
        j2 = mismatched[0]
        s = target_row[j2]
        t = row[j2]
        j1 = row.index(s)
        i1 = _unique_row_below(state, k, j2, s)
        state = _extend(state, (IntercalateMove.from_anchors(k, j2, s, i1, j1, t),), moves)
        while state.improper is not None:
            rec = state.improper
            tau = rec.negative
            if target_row[rec.col] == tau:
                # tau landed on its own target column: close out the round
                # with a two-row resolution below row k.
                helpers = [
                    r for r in state.rows_with(rec.col, tau) if r != k
                ]
                if not helpers or min(helpers) <= k:
                    raise LatinSquareError("no helper row below k; state is corrupt")
                cleanup = _resolve_improper(state, helpers[0])
                state = cleanup.end
                moves.extend(cleanup.moves)
                break
            swap = swap_row_entries(state, k, rec.col, target_row.index(tau))
            state = swap.end
            moves.extend(swap.moves)


def _unique_row_below(state: SquareState, k: int, col: int, sym: int) -> int:
    rows = state.rows_with(col, sym)
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
    state is a valid proper or improper square.
    """
    if a.n != b.n:
        raise OrderMismatch(f"orders differ: {a.n} vs {b.n}")
    if a == b:
        return MoveSequence(a, (), b)
    seq_a = normalize_to_proper(a)
    seq_b = normalize_to_proper(b)
    state, moves = seq_a.end, list(seq_a.moves)
    for k in range(a.n - 1):
        row = fix_row(state, seq_b.end, k)
        state = row.end
        moves.extend(row.moves)
    if state != seq_b.end:
        raise LatinSquareError("row fixing did not converge; internal error")
    state = _extend(state, seq_b.inverted().moves, moves)
    if state != b:
        raise LatinSquareError("endpoint mismatch after replay; internal error")
    return MoveSequence(a, tuple(moves), b)
