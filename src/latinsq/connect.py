"""Constructive connectivity of the +/-1-move state graph.

Everything here is built from three primitives and one driver:

* ``normalize_to_proper`` resolves an improper square with moves confined to
  two rows (at most floor((n-1)/2) of them).
* ``cycle_swap`` exchanges two rows of a proper square along one of their
  symbol cycles using exactly r-1 moves.
* ``swap_row_entries`` exchanges two entries of one row of an improper
  square (at most 2(n-1) moves), carrying the negative cell along its column.
* ``transform_path`` composes the above to turn any square into any other,
  fixing rows top-down; the emitted sequence never exceeds 2(n-1)^3 moves and
  every intermediate state is a valid proper or improper square.

Each returns one `MoveSequence` whose ``end`` is the resulting square.
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
    """Cycle pattern does not match the state it is applied to."""


class PreconditionViolated(LatinSquareError):
    """Named precondition of the row-entry swap failed."""


class OrderMismatch(LatinSquareError):
    """The two endpoint squares have different orders."""


@dataclass(frozen=True)
class CyclePattern:
    """A two-row symbol cycle (or chain) on an ordered list of columns.

    For a closed cycle in a proper square, ``bottom_symbols`` is
    ``top_symbols`` rotated left by one: bottom[k] = top[k+1 mod r].  The
    chains produced by `find_row_cycles` on an improper square use the same
    container but terminate on the negative symbol instead of closing.
    """

    rows: tuple[int, int]
    columns: tuple[int, ...]
    top_symbols: tuple[int, ...]
    bottom_symbols: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.columns)


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
) -> tuple[list[int], list[int]]:
    """Walk the chain of rows (``top``, ``bottom``) from column ``col``.

    At each column read the bottom row's symbol; stop when it is in ``ends``,
    else jump to the column where the top row holds it.  Returns the columns
    and the bottom symbols, in walk order.  A valid state ends the walk
    within n columns.
    """
    cols: list[int] = []
    bottoms: list[int] = []
    for _ in range(state.n):
        sym = state.symbol_at(bottom, col)
        cols.append(col)
        bottoms.append(sym)
        if sym in ends:
            return cols, bottoms
        col = _unique_col(state, top, sym)
    raise LatinSquareError("chain did not terminate; state is corrupt")


def _chase(state: SquareState, improper_row: int, helper_row: int, chased: int) -> CyclePattern:
    """The two-row chain that starts at ``chased``.

    From the improper cell, repeatedly jump to the column where the helper
    row holds the current symbol and read the improper row's symbol there;
    the walk ends on the column where the improper row yields the negative
    symbol.  Columns listed in walk order; top = improper row, bottom =
    helper row.
    """
    start = _unique_col(state, helper_row, chased)
    cols, tops = _two_row_chain(state, helper_row, improper_row, start, (state.improper.negative,))
    return CyclePattern((improper_row, helper_row), tuple(cols), tuple(tops), (chased, *tops[:-1]))


def find_row_cycles(
    state: SquareState, improper_row: int, source_row: int, column: int
) -> tuple[CyclePattern, CyclePattern]:
    """The two chains rooted at the improper cell, chased from each positive.

    Returns (chain through the larger positive, chain through the smaller);
    the two share no column and the shorter has length <= floor((n-1)/2).
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
    return (
        _chase(state, improper_row, source_row, hi),
        _chase(state, improper_row, source_row, lo),
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
        chain = chain_lo if chain_lo.length < chain_hi.length else chain_hi
        m = IntercalateMove.from_anchors(
            rec.row, rec.col, rec.negative,
            helper_row, chain.columns[-1], chain.bottom_symbols[0],
        )
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


def proper_row_cycles(state: SquareState, row_a: int, row_b: int) -> list[CyclePattern]:
    """Decompose the columns of a proper square into the cycles of two rows.

    Cycles are reported with rows (row_a, row_b), each starting at its
    smallest column, ordered by that column.  Every cycle has length >= 2.
    """
    if state.improper is not None or row_a == row_b:
        raise InvalidCycle("cycle decomposition needs a proper state and two distinct rows")
    seen: set[int] = set()
    cycles: list[CyclePattern] = []
    for c0 in range(state.n):
        if c0 in seen:
            continue
        # The cycle closes when row b shows the symbol row a holds at c0.
        cols, bottoms = _two_row_chain(state, row_a, row_b, c0, (state.symbol_at(row_a, c0),))
        seen.update(cols)
        tops = (bottoms[-1], *bottoms[:-1])
        cycles.append(CyclePattern((row_a, row_b), tuple(cols), tops, tuple(bottoms)))
    return cycles


def _check_cycle(state: SquareState, cycle: CyclePattern) -> None:
    i1, i2 = cycle.rows
    r = cycle.length
    if i1 == i2:
        raise InvalidCycle("cycle rows must differ")
    if r < 2:
        raise InvalidCycle("a genuine cycle spans at least two columns")
    if len(set(cycle.columns)) != r:
        raise InvalidCycle("cycle columns must be distinct")
    if len(cycle.top_symbols) != r or len(cycle.bottom_symbols) != r:
        raise InvalidCycle("symbol lists must match the column count")
    for k, c in enumerate(cycle.columns):
        if state.entry(i1, c, cycle.top_symbols[k]) != 1:
            raise InvalidCycle(f"row {i1} does not hold {cycle.top_symbols[k]} at column {c}")
        if state.entry(i2, c, cycle.bottom_symbols[k]) != 1:
            raise InvalidCycle(f"row {i2} does not hold {cycle.bottom_symbols[k]} at column {c}")
        if cycle.bottom_symbols[k] != cycle.top_symbols[(k + 1) % r]:
            raise InvalidCycle("bottom symbols are not the top symbols rotated by one")


def cycle_swap(state: SquareState, cycle: CyclePattern) -> MoveSequence:
    """Exchange the two rows of a proper square along a closed cycle.

    Emits exactly r-1 moves: the first opens the cycle (making the state
    improper for r >= 3), and each later move walks the negative cell one
    column further until it closes.  No cell outside the cycle changes.
    """
    if state.improper is not None:
        raise InvalidCycle("cycle swap requires a proper state")
    _check_cycle(state, cycle)
    i1, i2 = cycle.rows
    cols = cycle.columns
    top = cycle.top_symbols
    r = cycle.length
    ms = [IntercalateMove.from_anchors(i1, cols[0], top[1], i2, cols[1], top[0])]
    for k in range(1, r - 1):
        ms.append(
            IntercalateMove.from_anchors(i2, cols[k], top[0], i1, cols[k + 1], top[k + 1])
        )
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
    chains: list[tuple[list[int], int]] = []
    for c_start in state.cols_with(i2, s):
        cols, bottoms = _two_row_chain(state, i2, i3, c_start, (*rec.positive_pair, s))
        if bottoms[-1] != s:
            chains.append((cols, bottoms[-1]))
    if not chains:
        raise LatinSquareError("no usable chain found; state is corrupt")
    chain, b_sym = min(chains, key=lambda cb: (len(cb[0]), cb[0][0]))
    c1 = chain[0]

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
        tops = tuple(state.symbol_at(i2, c) for c in chain)
        bottoms = tuple(state.symbol_at(i3, c) for c in chain)
        swap = cycle_swap(state, CyclePattern((i2, i3), tuple(chain), tops, bottoms))
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
