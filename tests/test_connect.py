import itertools
import random
import signal
from functools import partial, reduce

import pytest

from cube_reference import IncidenceCube
from enumeration_reference import proper_row_cycles
from latinsq import connect, core, moves
from latinsq.chain import ChainConfig, RngStream, sample
from latinsq.cli import format_square_text, main
from latinsq.connect import (
    MoveSequence,
    PreconditionViolated,
    _Board,
    _cycle_swap,
    _fix_row,
    _resolve_improper,
    _row_cycles,
    _swap_row_entries,
    transform_path,
)
from latinsq.core import ImproperCell, InvalidSquare, LatinSquareError, SquareState, cube_from_grid, cyclic_square, validate
from latinsq.moves import IntercalateMove, _flip, apply_move, enumerate_valid_moves
from latinsq.oracle import enumerate_latin_squares
from scripted_draws import canonical_moves, faulty_take, on_board, walk


def _touched_rows(moves):
    return {r for m in moves for r in (m.i, m.i2)}


def _random_square(n, seed):
    return cube_from_grid(
        [list(r) for r in sample(ChainConfig(n, seed=seed, burn_in=50 * n, thin=5), 1)[0].grid]
    )


def _improper_states_from_chain(n, seed, count):
    states = (state for state, _ in walk(cyclic_square(n), RngStream(seed)))
    return list(itertools.islice((s for s in states if s.improper is not None), count))


# ---------------------------------------------------------------------------
# _row_cycles


def test_find_row_cycles_fixture(ex_improper):
    through_larger, through_smaller = _row_cycles(_Board(ex_improper), 0)
    cube = IncidenceCube.of(ex_improper)
    assert through_larger == (0, 2)
    assert cube.symbol_at(0, through_larger[0]) == 2
    assert through_smaller == (3,)
    assert cube.symbol_at(0, through_smaller[0]) == 0
    # chains terminate on the negative symbol in the improper row
    assert cube.symbol_at(2, through_larger[-1]) == 1
    assert cube.symbol_at(2, through_smaller[-1]) == 1


def test_find_row_cycles_share_no_column_and_sum_bound(graph3):
    for state in graph3.states:
        if state.is_proper:
            continue
        rec = state.improper
        sources = [r for r in IncidenceCube.of(state).rows_with(rec.col, rec.negative) if r != rec.row]
        for src in sources:
            a, b = _row_cycles(_Board(state), src)
            assert not (set(a) & set(b))
            assert len(a) + len(b) <= state.n - 1
            assert min(len(a), len(b)) <= (state.n - 1) // 2


# ---------------------------------------------------------------------------
# _resolve_improper


def test_normalize_fixture_single_move(ex_improper, ex_proper):
    seq = on_board(ex_improper, _resolve_improper)
    result = seq.end
    assert result == ex_proper
    assert seq.moves == (IntercalateMove.from_anchors(2, 1, 1, 0, 3, 0),)
    assert seq.replay(check=True) == ex_proper


def test_normalize_proper_input_is_identity(ex_proper):
    seq = on_board(ex_proper, _resolve_improper)
    result = seq.end
    assert result == ex_proper
    assert len(seq) == 0


def test_normalize_exhaustive_order_three(graph3):
    for state in graph3.states:
        if state.is_proper:
            continue
        seq = on_board(state, _resolve_improper)
        result = seq.end
        assert result.is_proper
        assert validate(result) == []
        assert len(seq) <= 1  # floor((3-1)/2)
        assert len(_touched_rows(seq.moves)) <= 2


@pytest.mark.parametrize("n", [5, 6, 7])
def test_normalize_sampled_larger_orders(n):
    for state in _improper_states_from_chain(n, seed=n, count=60):
        seq = on_board(state, _resolve_improper)
        result = seq.end
        assert result.is_proper
        assert len(seq) <= (n - 1) // 2
        assert len(_touched_rows(seq.moves)) <= 2
        assert seq.replay(check=True) == result


# ---------------------------------------------------------------------------
# _cycle_swap


def test_cycle_swap_full_cycle_order_three():
    state = cube_from_grid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    cycle = proper_row_cycles(state, 0, 1)[0]
    seq = on_board(state, _cycle_swap, (0, 1), cycle[0])
    result = seq.end
    assert len(seq) == 2
    assert result.grid[0] == (1, 2, 0) and result.grid[1] == (0, 1, 2)


def test_cycle_swap_exchanges_rows_and_counts(graph3):
    for state in graph3.states:
        if not state.is_proper:
            continue
        for cycle in proper_row_cycles(state, 0, 2):
            seq = on_board(state, _cycle_swap, (0, 2), cycle[0])
            result = seq.end
            assert len(seq) == len(cycle) - 1
            cube = IncidenceCube.of(result)
            for c in cycle:
                assert cube.symbol_at(0, c) == state.grid[2][c]
                assert cube.symbol_at(2, c) == state.grid[0][c]


def test_cycle_swap_off_cycle_cells_untouched():
    import numpy as np

    hits = 0
    for seed in range(40):
        state = _random_square(6, seed)
        for rows in ((0, 1), (2, 4), (3, 5)):
            for cycle in proper_row_cycles(state, *rows):
                seq = on_board(state, _cycle_swap, rows, cycle[0])
                result = seq.end
                assert len(seq) == len(cycle) - 1
                diff = np.argwhere(IncidenceCube.of(result).data != IncidenceCube.of(state).data)
                touched_cells = {(int(r), int(c)) for r, c, _ in diff}
                expected = {(r, c) for r in rows for c in cycle}
                assert touched_cells <= expected
                hits += 1
        if hits >= 100:
            break
    assert hits >= 100


def test_cycle_swap_from_every_column_of_every_cycle_order_four():
    # Any column of a cycle names the same cycle: r-1 moves from each, and
    # the same end square, the two rows exchanged on the cycle's columns.
    for state in enumerate_latin_squares(4):
        for rows in ((0, 1), (1, 3)):
            i1, i2 = rows
            for cycle in proper_row_cycles(state, *rows):
                grid = [list(line) for line in state.grid]
                for c in cycle:
                    grid[i1][c], grid[i2][c] = grid[i2][c], grid[i1][c]
                expected = tuple(map(tuple, grid))
                for c in cycle:
                    seq = on_board(state, _cycle_swap, rows, c)
                    assert len(seq) == len(cycle) - 1
                    assert seq.end.grid == expected and seq.end.is_proper


# ---------------------------------------------------------------------------
# _swap_row_entries


def test_swap_row_entries_single_move_fixture():
    state = cube_from_grid([[1, 0, 2], [0, 1, 0], [2, 0, 1]], ImproperCell(1, 1, (1, 2), 0))
    seq = on_board(state, _swap_row_entries, 0, 1, 0)
    result = seq.end
    assert seq.moves == (IntercalateMove.from_anchors(0, 1, 1, 1, 0, 0),)
    assert result.is_proper
    assert result.grid == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_swap_row_entries_preconditions(ex_improper):
    # The two facts of the row-swap lemma that `_fix_row` relies on raise
    # before any move: row i1 must not hold the improper cell (row 2 does),
    # and must hold its negative symbol 1 in column 1 (row 1 holds 3 there).
    for i1 in (2, 1):
        board = _Board(ex_improper)
        with pytest.raises(LatinSquareError, match=f"row {i1} must hold symbol 1 at column 1, off row 2; internal error"):
            _swap_row_entries(board, i1, 1, 2)
        assert board.moves == []


def _lemma_instances(n, seed, want):
    """(state, i1, j1, j2) tuples satisfying the row-swap preconditions."""
    out = []
    for state in _improper_states_from_chain(n, seed, want * 3):
        rec = state.improper
        j1 = rec.col
        candidates = [r for r in IncidenceCube.of(state).rows_with(j1, rec.negative) if r != rec.row]
        for i1 in candidates:
            for j2 in range(n):
                if j2 != j1:
                    out.append((state, i1, j1, j2))
                    if len(out) >= want:
                        return out
    return out


@pytest.mark.parametrize("n", [5, 6, 7])
def test_swap_row_entries_contract_randomized(n):
    import numpy as np

    for state, i1, j1, j2 in _lemma_instances(n, seed=100 + n, want=40):
        s = state.improper.negative
        before = IncidenceCube.of(state)
        t = before.symbol_at(i1, j2)
        i2 = state.improper.row
        i3 = before.rows_with(j2, s)[0]
        seq = on_board(state, _swap_row_entries, i1, j1, j2)
        result = seq.end
        after = IncidenceCube.of(result)
        assert len(seq) <= 2 * (n - 1)
        assert validate(result) == []
        # row i1 contract: exactly the two named cells changed, s and t swapped
        assert after.symbol_at(i1, j1) == t
        assert after.symbol_at(i1, j2) == s
        for c in range(n):
            if c not in (j1, j2):
                assert np.array_equal(after.data[i1, c], before.data[i1, c])
        # output form: proper, or improper at (i2 or i3, j1) with negative t
        if result.improper is not None:
            rec = result.improper
            assert rec.col == j1
            assert rec.row in (i2, i3)
            assert rec.negative == t
        # confinement: only (i1,j1), (i1,j2) and rows i2, i3 may differ
        diff_rows = {int(r) for r, _, _ in np.argwhere(after.data != before.data)}
        assert diff_rows <= {i1, i2, i3}
        # every intermediate state stays valid
        assert seq.replay(check=True) == result


# ---------------------------------------------------------------------------
# transform_path


def test_transform_path_identity(ex_proper):
    seq = transform_path(ex_proper, ex_proper)
    assert len(seq) == 0
    assert seq.start == seq.end == ex_proper


def test_transform_path_order_mismatch(ex_proper):
    with pytest.raises(PreconditionViolated, match="orders differ: 4 vs 3"):
        transform_path(ex_proper, cyclic_square(3))


def test_transform_path_all_order_three_pairs():
    squares = [
        cube_from_grid([list(r) for r in sq.grid]) for sq in enumerate_latin_squares(3)
    ]
    bound = 2 * (3 - 1) ** 3
    for a in squares:
        for b in squares:
            seq = transform_path(a, b)
            assert len(seq) <= bound
            assert seq.replay(check=True) == b


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_transform_path_randomized(n):
    bound = 2 * (n - 1) ** 3
    row_budget = 2 * (n - 1) ** 2
    for k in range(8):
        a = _random_square(n, seed=1000 + 10 * n + k)
        b = _random_square(n, seed=2000 + 10 * n + k)
        seq = transform_path(a, b)
        assert len(seq) <= bound
        assert seq.replay(check=True) == b
        # per-row accounting by replaying the row driver
        state = a
        total = 0
        for row in range(n - 1):
            row_seq = on_board(state, _fix_row, b.grid[row], row)
            state = row_seq.end
            assert len(row_seq) <= row_budget
            total += len(row_seq)
        assert state == b
        assert total == len(seq)


def test_transform_path_improper_endpoints(ex_improper):
    b = cyclic_square(4)
    seq = transform_path(ex_improper, b)
    assert seq.replay(check=True) == b
    back = transform_path(b, ex_improper)
    assert back.replay(check=True) == ex_improper
    assert len(seq) <= 54 and len(back) <= 54


# One run of each lemma step, and of transform_path, on the fixtures: (start, path).
PRIMITIVE_CALLS = {
    "normalize_to_proper": lambda imp, pro: (imp, on_board(imp, _resolve_improper)),
    "cycle_swap": lambda imp, pro: (pro, on_board(pro, _cycle_swap, (0, 2), max(proper_row_cycles(pro, 0, 2), key=len)[0])),
    "swap_row_entries": lambda imp, pro: (imp, on_board(imp, _swap_row_entries, 0, 1, 0)),
    "fix_row": lambda imp, pro: (pro, on_board(pro, _fix_row, cyclic_square(4).grid[0], 0)),
    "transform_path": lambda imp, pro: (imp, transform_path(imp, cyclic_square(4))),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CALLS))
def test_primitive_returns_one_move_sequence(name, ex_improper, ex_proper):
    start, seq = PRIMITIVE_CALLS[name](ex_improper, ex_proper)
    assert isinstance(seq, MoveSequence)
    assert seq.start == start
    assert len(seq) == len(seq.moves) > 0
    assert seq.replay(check=True) == seq.end
    back = seq.inverted()
    assert (back.start, back.end, len(back)) == (seq.end, seq.start, len(seq))
    assert back.replay(check=True) == start


def test_move_sequence_replay_checks_prefixes(ex_improper, ex_proper):
    seq = MoveSequence(
        ex_improper, (IntercalateMove.from_anchors(0, 1, 0, 2, 3, 1),), ex_proper
    )
    assert seq.replay(check=True) == ex_proper


def test_checked_replay_of_walk_moves_ends_where_the_walk_does():
    start = _improper_states_from_chain(6, 5, 1)[0]
    steps = list(itertools.islice(walk(start, RngStream(8)), 40))
    state, moves = steps[-1][0], [m for _, m in steps]
    assert MoveSequence(start, tuple(moves), state).replay(check=True) == state


def _path_endpoints(n, seed):
    """Four proper and four improper states, at least n^2 walk steps apart."""
    steps = walk(cyclic_square(n), RngStream(seed))
    proper, improper = [], []
    while len(proper) < 4 or len(improper) < 4:
        for _ in range(n * n):
            state, _ = next(steps)
        kind = proper if state.is_proper else improper
        if len(kind) < 4:
            kind.append(state)
    return proper, improper


# sha256 of the move text of transform_path over fixed pairs: proper to
# proper, improper to proper, proper to improper and improper to improper.
PATH_DIGESTS = {
    5: "b0636862bdc5cdc983635f5bd30897f5984953ec0a19b8201d0d3927017a3e43",
    8: "2b91ef34c7d8480ff7f6668384da1666082aee7b1a25f1160e427ccaa1cb1926",
    12: "efc86416db30ef97f8be3258642ab86d913c796e35aaf39c7e7b5907828d0ba3",
}


@pytest.mark.parametrize("n", sorted(PATH_DIGESTS))
def test_transform_path_move_text_pinned(n):
    import hashlib

    (p0, p1, p2, p3), (i0, i1, i2, i3) = _path_endpoints(n, 500 + n)
    text = ""
    for a, b in ((p0, p1), (i0, p2), (p3, i1), (i2, i3)):
        seq = transform_path(a, b)
        assert seq.replay(check=True) == b
        assert seq.inverted().replay(check=True) == a
        text += "".join(m.text() + "\n" for m in seq.moves) + "--\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PATH_DIGESTS[n]


def _count_full_checks(monkeypatch):
    """The lists of states that `validate` is called on from here on, on entry or in a
    replay, and of moves that `moves._flip` is called with, by `apply_move` or a board."""
    full, flips = [], []
    monkeypatch.setattr(core, "validate", lambda state: full.append(state) or validate(state))
    for module in (moves, connect):
        monkeypatch.setattr(module, "_flip", lambda grid, rec, m: flips.append(m) or _flip(grid, rec, m))
    return full, flips


@pytest.mark.parametrize("n", sorted(PATH_DIGESTS))
def test_restricted_validate_matches_full_on_pinned_paths(n, monkeypatch):
    """The checked replay of a pinned path, either way, validates in full only its first prefix, the start,
    and takes no move through `moves._flip`: the cube rule checks every move on its own."""
    (p0, p1, p2, p3), (i0, i1, i2, i3) = _path_endpoints(n, 500 + n)
    full, flips = _count_full_checks(monkeypatch)
    for a, b in ((p0, p1), (i0, p2), (p3, i1), (i2, i3)):
        seq = transform_path(a, b)
        for path in (seq, seq.inverted()):
            state, prefixes = path.start, []
            for m in path.moves:
                state = apply_move(state, m)
                prefixes.append(state)
            assert all(validate(state) == [] for state in prefixes)
            full.clear()
            flips.clear()
            assert path.replay(check=True) == prefixes[-1]
            assert full == [path.start] and flips == []


@pytest.mark.parametrize("n", range(5, 9))
def test_checked_replay_of_a_walk_validates_only_its_first_prefix(n, monkeypatch):
    """Every walk step, proper or improper, the first included, passes the per-move check on its own, either way.

    The first prefix is the start, the only state validated in full, and no
    move goes through `moves._flip`.
    """
    steps = list(itertools.islice(walk(cyclic_square(n), RngStream(2700 + n)), 8 * n))
    start, end = cyclic_square(n), steps[-1][0]
    assert {state.kind for state, _ in steps} == {"proper", "improper"}
    full, flips = _count_full_checks(monkeypatch)
    seq = MoveSequence(start, tuple(m for _, m in steps), end)
    assert seq.replay(check=True) == end and full == [start] and flips == []
    full.clear()
    assert seq.inverted().replay(check=True) == start and full == [end] and flips == []


def _outcome(call, *args):
    """``call(*args)``, or the type and text of the LatinSquareError it raises."""
    try:
        return call(*args)
    except LatinSquareError as err:
        return type(err), str(err)


def _replay_matches_apply_move(state, moves):
    """Each move on ``state`` replays, checked, to `apply_move`'s result, or raises its exception and text."""
    for m in moves:
        expected = _outcome(apply_move, state, m)
        assert _outcome(MoveSequence(state, (m,), state).replay, True) == expected, (state, m)


def test_checked_replay_matches_apply_move_on_every_move_at_order_three(graph3):
    for state in graph3.states:
        _replay_matches_apply_move(state, canonical_moves(3))


def test_checked_replay_matches_apply_move_on_seeded_states_at_order_four(graph4):
    for state in random.Random(3504).sample(graph4.states, 80):
        _replay_matches_apply_move(state, canonical_moves(4))


@pytest.mark.parametrize("n", range(5, 9))
def test_checked_replay_matches_apply_move_on_walk_states(n):
    # A proper and an improper walk state: every valid move, every move with
    # an index at n, and a seeded sample of the others.
    rng = random.Random(3500 + n)
    moves = canonical_moves(n)
    for kind in ("proper", "improper"):
        steps = itertools.islice(walk(cyclic_square(n), RngStream(3500 + n)), n * n, None)
        state = next(s for s, _ in steps if s.kind == kind)
        _replay_matches_apply_move(state, [*enumerate_valid_moves(state), *moves[-4:], *rng.sample(moves[:-4], 600)])


def test_checked_replay_checks_its_start():
    bad = SquareState(((0, 0), (0, 0)))
    for path in (MoveSequence(bad, (), bad), MoveSequence(bad, (IntercalateMove(0, 0, 0, 1, 1, 1),), bad)):
        with pytest.raises(InvalidSquare) as err:
            path.replay(check=True)
        assert str(err.value) == "; ".join(validate(bad))


def _with_cell(state, r, c, s=None):
    """The state with cell (r, c) holding ``s``, by default the next symbol mod n."""
    grid = list(state.grid)
    s = (grid[r][c] + 1) % state.n if s is None else s
    grid[r] = (*grid[r][:c], s, *grid[r][c + 1:])
    return SquareState(tuple(grid), state.improper)


def _fault(kind, state, m):
    """One extra change to the true result of move ``m``: off the move's four
    cells, to the length of one of its rows, out of range, or one that keeps
    the symbols of the lines of one kind."""
    n, rec = state.n, state.improper
    r = next(x for x in range(n) if x not in (m.i, m.i2))
    c = next(x for x in range(n) if x not in (m.j, m.j2))
    top, bottom = state.grid[m.i], state.grid[m.i2]
    if kind == "cell outside rows i, i2":
        return _with_cell(state, r, c)
    if kind == "cell in row i outside columns j, j2":
        return _with_cell(state, m.i, c)
    if kind == "cells of row i outside columns j, j2 swapped":
        c2 = next(x for x in range(n) if x not in (m.j, m.j2) and top[x] != top[c])
        return _with_cell(_with_cell(state, m.i, c, top[c2]), m.i, c2, top[c])
    if kind == "cells i, i2 of a moved column swapped":
        c = m.j2 if rec.col == m.j else m.j  # the improper cell stays where it is
        return _with_cell(_with_cell(state, m.i, c, bottom[c]), m.i2, c, top[c])
    if kind.startswith("cells j, j2 of a proper moved row swapped"):
        r, line = (m.i2, bottom) if rec is not None and rec.row == m.i else (m.i, top)
        return _with_cell(_with_cell(state, r, m.j, line[m.j2]), r, m.j2, line[m.j])
    if kind.startswith("symbol"):
        return _with_cell(state, m.i, c, -1 if kind.endswith("-1") else n)
    if kind == "row i gains an entry":
        grid = list(state.grid)
        grid[m.i] = (*grid[m.i], grid[m.i][0])
        return SquareState(tuple(grid), rec)
    if kind.startswith("record in row"):
        return SquareState(state.grid, rec._replace(row=rec.row + (n if kind.endswith("+ n") else -n)))
    if kind == "record in column c - n":
        return SquareState(state.grid, rec._replace(col=rec.col - n))
    if kind == "record off the four cells":
        return SquareState(state.grid, rec._replace(row=r, col=c))
    if kind == "record off the four cells on a proper step":
        p = state.grid[r][c]
        q, neg = [x for x in range(n) if x != p][:2]
        return SquareState(state.grid, ImproperCell(r, c, (p, q), neg))
    if kind == "record on a move cell whose negative is its q, on a proper step":
        p = state.grid[m.i][m.j]
        q = (p + 1) % n  # the cell nets +p, as the proper cell did
        return SquareState(state.grid, ImproperCell._make((m.i, m.j, (p, q), q)))
    (p, q), neg = rec.positive_pair, rec.negative
    other = next(x for x in range(n) if x not in (p, q, neg))
    if kind == "record on a move cell with another negative":
        return SquareState(state.grid, rec._replace(negative=other))
    if kind == "record on a move cell with its larger positive n":
        return SquareState(state.grid, rec._replace(positive_pair=(p, n)))
    if kind == "record on a move cell with its positives unsorted, q on the grid":
        return _with_cell(SquareState(state.grid, rec._replace(positive_pair=(q, p))), rec.row, rec.col, q)
    assert kind == "record on a move cell naming another positive, q on the grid"
    # The cell still nets +p +q -neg, but the grid shows q, not the record's first positive.
    return _with_cell(SquareState(state.grid, rec._replace(positive_pair=(other, p))), rec.row, rec.col, q)


def _fold(path):
    """The end of ``path`` taken by `apply_move` from its start, one move after another."""
    return reduce(apply_move, path.moves, path.start)


@pytest.mark.parametrize(
    "kind",
    [
        "cell outside rows i, i2",
        "cell in row i outside columns j, j2",
        "record off the four cells",
        "row i gains an entry",
        "record off the four cells on a proper step",
        "cells of row i outside columns j, j2 swapped",
        "cells i, i2 of a moved column swapped",
        "cells j, j2 of a proper moved row swapped",
        "cells j, j2 of a proper moved row swapped on a proper step",
        "symbol n in row i",
        "symbol -1 in row i",
        "record in row r + n",
        "record in row r - n",
        "record in column c - n",
        "record on a move cell with another negative",
        "record on a move cell with its larger positive n",
        "record on a move cell whose negative is its q, on a proper step",
        "record on a move cell naming another positive, q on the grid",
        "record on a move cell with its positives unsorted, q on the grid",
    ],
)
def test_checked_replay_catches_faulty_apply_move(kind, tmp_path, monkeypatch):
    """A faulty board move leaves no invalid path that passes verification.

    The fault is written over the path finder's board after one of its
    moves, as a faulty move rule would write it, and each fault leaves a
    state that `validate` rejects.  Then `transform_path` raises, or it
    returns a path whose checked replay reaches the target exactly when
    `apply_move` takes it there, and `path --verify` exits 0 only on such a
    path.  The moves the board took replay as `apply_move` takes them.  The
    replay checks moves on the cube, not the board's states: an unsorted
    record names the same cube, and the board's later moves from it form a
    valid path.
    """
    (p0, *_), (i0, *_) = _path_endpoints(6, 506)
    seq = transform_path(p0, i0)
    # A later move whose result is improper, or for a proper step whose
    # start and result are proper.
    proper = kind.endswith("proper step")
    on_move = kind.startswith("record on a move cell") and not proper
    state = seq.start
    for k, m in enumerate(seq.moves):
        before, state = state, apply_move(state, m)
        rec = state.improper
        if proper:
            found = rec is None and before.improper is None
        else:
            found = rec is not None and (not on_move or rec.row in (m.i, m.i2) and rec.col in (m.j, m.j2))
        if k and found:
            break
    assert validate(_fault(kind, state, m))
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    fa.write_text(format_square_text(p0))
    fb.write_text(format_square_text(i0))
    valid = False
    for run in (partial(transform_path, p0, i0), partial(main, ["path", str(fa), str(fb), "--verify"])):
        faulty, fired = faulty_take(before, m, lambda state, move: _fault(kind, state, move))
        monkeypatch.setattr(connect._Board, "take", faulty)
        try:
            out = _bounded(run, 1.0)
        except _Overran:
            pytest.fail(f"the path finder ran past its time bound on a board with {kind!r}")
        except Exception:  # a board left invalid may trip any guard of the path finder; uncaught, exit status 1
            out = None
        [(board, move)] = fired
        assert move == m
        # The moves the faulty board took, to its end or to the guard that
        # stopped it, replay as `apply_move` takes them.
        taken = MoveSequence(p0, tuple(board.moves), board.state())
        assert _outcome(taken.replay, True) == _outcome(_fold, taken)
        if isinstance(out, MoveSequence):
            valid = _outcome(_fold, out) == i0
            assert (_outcome(out.replay, True) == i0) == valid
        else:
            assert (out == 0) == valid


# ---------------------------------------------------------------------------
# The check on entry
#
# Every call here runs under a time bound, so a path finder that loops for
# ever on a bad state fails in a second instead of growing its move list
# until memory runs out.


class _Overran(Exception):
    """A path finder call ran past its time bound."""


def _bounded(call, seconds):
    """``call()``, or _Overran once it has run ``seconds`` of wall time."""

    def overran(signum, frame):
        raise _Overran

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _corrupt_order_four(ex_improper):
    """Five unchecked order-4 states that fail `validate`, by what is wrong with them."""
    grid, rec = ex_improper.grid, ex_improper.improper
    square = cyclic_square(4).grid
    return {
        "duplicated row": SquareState((square[0], square[0], square[2], square[3])),
        "ragged row": SquareState((square[0], square[1], square[2][:3], square[3])),
        "symbol 9": _with_cell(cyclic_square(4), 1, 2, 9),
        "record contradicting its cell": SquareState(grid, rec._replace(positive_pair=(0, 3))),
        "record off the grid": SquareState(grid, rec._replace(row=4)),
    }


# Each public entry of the path finder on a bad state: transform_path takes
# it either way.
ENTRY_CALLS = {
    "transform_path from": lambda bad, good: transform_path(bad, good),
    "transform_path to": lambda bad, good: transform_path(good, bad),
    "checked replay": lambda bad, good: MoveSequence(bad, (), bad).replay(check=True),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_CALLS))
def test_every_entry_rejects_a_corrupt_state_before_any_move(entry, ex_improper, monkeypatch):
    monkeypatch.setattr(connect._Board, "take", lambda board, m: pytest.fail(f"move {m} taken"))
    for kind, bad in _corrupt_order_four(ex_improper).items():
        messages = validate(bad)
        assert messages, kind
        with pytest.raises(InvalidSquare) as err:
            _bounded(partial(ENTRY_CALLS[entry], bad, cyclic_square(4)), 1.0)
        assert str(err.value) == "; ".join(messages), kind


def test_corrupt_target_of_two_symbols_raises_at_once():
    # Its row 0 holds 1 twice; the row fixer once flipped one intercalate back and forth for ever.
    with pytest.raises(InvalidSquare, match="line row=0 sym=1"):
        _bounded(partial(transform_path, cube_from_grid([[1, 0], [0, 1]]), SquareState(((1, 1), (0, 1)))), 1.0)


def _corrupt(rng, state):
    """``state`` with one cell, row or record changed at random, unchecked."""
    n, grid, rec = state.n, list(state.grid), state.improper
    r, c = rng.randrange(n), rng.randrange(n)
    kind = rng.randrange(5)
    if kind == 0:
        grid[r] = (*grid[r][:c], rng.randrange(-1, n + 1), *grid[r][c + 1:])
    elif kind == 1:
        grid[r] = grid[rng.randrange(n)]
    elif kind == 2:
        grid[r] = grid[r][:-1] if rng.random() < 0.5 else (*grid[r], 0)
    elif rec is None or kind == 3:
        p, q, neg = rng.sample(range(n + 1), 3)
        rec = ImproperCell._make((r, c, (p, q), neg))  # unchecked, as a corrupt record may be
    else:
        field, value = rng.choice(rec._fields), rng.randrange(-1, n + 1)
        rec = rec._replace(**{field: (value, rec.positive_pair[1]) if field == "positive_pair" else value})
    return SquareState(tuple(grid), rec)


def _fuzz_pairs(seed, count):
    """``count`` seeded input pairs for `transform_path`.

    A pair is two walk states of order 2 to 5 (one in ten of different
    orders), three in four with one of them corrupted once.
    """
    rng = random.Random(seed)
    pools = {
        n: [s for s, _ in itertools.islice(walk(cyclic_square(n), RngStream(seed + n)), 0, 60 * n, 3)]
        for n in range(2, 6)
    }
    for _ in range(count):
        n = rng.randrange(2, 6)
        a, b = rng.choice(pools[n]), rng.choice(pools[n if rng.random() < 0.9 else rng.randrange(2, 6)])
        if rng.random() < 0.75:
            if rng.random() < 0.5:
                a = _corrupt(rng, a)
            else:
                b = _corrupt(rng, b)
        yield a, b


def test_path_finder_fuzz_returns_valid_paths_or_package_errors():
    """`transform_path` returns a path that replays, checked, to its end, or raises a LatinSquareError.

    Each call is bounded in time, so an unbounded loop fails here within a
    second instead of growing its move list without end.
    """
    outcomes = {"path": 0, "raised": 0}
    for a, b in _fuzz_pairs(3001, 8000):
        try:
            seq = _bounded(partial(transform_path, a, b), 1.0)
        except LatinSquareError as err:
            # Bad input is named at the door; a bare LatinSquareError is an internal failure.
            assert isinstance(err, (InvalidSquare, PreconditionViolated)), (a, b, err)
            outcomes["raised"] += 1
            continue
        except _Overran:
            pytest.fail(f"transform_path ran past its time bound on {a!r}, {b!r}")
        assert validate(seq.start) == [] and validate(seq.end) == []
        assert seq.replay(check=True) == seq.end
        outcomes["path"] += 1
    assert min(outcomes.values()) > 200, outcomes
