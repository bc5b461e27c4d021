import dataclasses
import itertools

import pytest

from cube_reference import IncidenceCube
from enumeration_reference import proper_row_cycles
from latinsq import connect
from latinsq.chain import ChainConfig, RngStream, sample
from latinsq.connect import (
    InvalidCycle,
    MismatchedRows,
    MoveSequence,
    NotImproper,
    OrderMismatch,
    PreconditionViolated,
    cycle_swap,
    find_row_cycles,
    fix_row,
    normalize_to_proper,
    swap_row_entries,
    transform_path,
)
from latinsq.core import ImproperCell, InvalidSquare, LatinSquareError, SquareState, cube_from_grid, cyclic_square, validate
from latinsq.moves import IntercalateMove, apply_move
from latinsq.oracle import enumerate_latin_squares
from scripted_draws import walk


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
# find_row_cycles


def test_find_row_cycles_fixture(ex_improper):
    through_larger, through_smaller = find_row_cycles(ex_improper, 0)
    assert through_larger == (0, 2)
    assert ex_improper.symbol_at(0, through_larger[0]) == 2
    assert through_smaller == (3,)
    assert ex_improper.symbol_at(0, through_smaller[0]) == 0
    # chains terminate on the negative symbol in the improper row
    assert ex_improper.symbol_at(2, through_larger[-1]) == 1
    assert ex_improper.symbol_at(2, through_smaller[-1]) == 1


def test_find_row_cycles_preconditions(ex_improper, ex_proper):
    with pytest.raises(NotImproper):
        find_row_cycles(ex_proper, 1)
    with pytest.raises(MismatchedRows):
        find_row_cycles(ex_improper, 1)  # row 1 has no symbol 1 at col 1
    with pytest.raises(MismatchedRows):
        find_row_cycles(ex_improper, 2)  # the improper row holds the -1 there


@pytest.mark.parametrize("row", [-1, 4])
def test_find_row_cycles_rejects_row_outside_square(ex_improper, row):
    # ex_improper has order 4: -1 would read row 3 from the bottom, 4 is past it
    with pytest.raises(MismatchedRows, match=f"row {row} outside 0..3"):
        find_row_cycles(ex_improper, row)

def test_find_row_cycles_share_no_column_and_sum_bound(graph3):
    for state in graph3.states:
        if state.is_proper:
            continue
        rec = state.improper
        sources = [r for r in IncidenceCube.of(state).rows_with(rec.col, rec.negative) if r != rec.row]
        for src in sources:
            a, b = find_row_cycles(state, src)
            assert not (set(a) & set(b))
            assert len(a) + len(b) <= state.n - 1
            assert min(len(a), len(b)) <= (state.n - 1) // 2


# ---------------------------------------------------------------------------
# normalize_to_proper


def test_normalize_fixture_single_move(ex_improper, ex_proper):
    seq = normalize_to_proper(ex_improper)
    result = seq.end
    assert result == ex_proper
    assert seq.moves == (IntercalateMove.from_anchors(2, 1, 1, 0, 3, 0),)
    assert seq.replay(check=True) == ex_proper


def test_normalize_proper_input_is_identity(ex_proper):
    seq = normalize_to_proper(ex_proper)
    result = seq.end
    assert result == ex_proper
    assert len(seq) == 0


def test_normalize_exhaustive_order_three(graph3):
    for state in graph3.states:
        if state.is_proper:
            continue
        seq = normalize_to_proper(state)
        result = seq.end
        assert result.is_proper
        assert validate(result) == []
        assert len(seq) <= 1  # floor((3-1)/2)
        assert len(_touched_rows(seq.moves)) <= 2


@pytest.mark.parametrize("n", [5, 6, 7])
def test_normalize_sampled_larger_orders(n):
    for state in _improper_states_from_chain(n, seed=n, count=60):
        seq = normalize_to_proper(state)
        result = seq.end
        assert result.is_proper
        assert len(seq) <= (n - 1) // 2
        assert len(_touched_rows(seq.moves)) <= 2
        assert seq.replay(check=True) == result


# ---------------------------------------------------------------------------
# cycle_swap


def test_cycle_swap_full_cycle_order_three():
    state = cube_from_grid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    cycle = proper_row_cycles(state, 0, 1)[0]
    seq = cycle_swap(state, (0, 1), cycle[0])
    result = seq.end
    assert len(seq) == 2
    assert result.grid[0] == (1, 2, 0) and result.grid[1] == (0, 1, 2)


def test_cycle_swap_exchanges_rows_and_counts(graph3):
    for state in graph3.states:
        if not state.is_proper:
            continue
        for cycle in proper_row_cycles(state, 0, 2):
            seq = cycle_swap(state, (0, 2), cycle[0])
            result = seq.end
            assert len(seq) == len(cycle) - 1
            cube = IncidenceCube.of(result)
            for c in cycle:
                assert cube.symbol_at(0, c) == state.symbol_at(2, c)
                assert cube.symbol_at(2, c) == state.symbol_at(0, c)


def test_cycle_swap_off_cycle_cells_untouched():
    import numpy as np

    hits = 0
    for seed in range(40):
        state = _random_square(6, seed)
        for rows in ((0, 1), (2, 4), (3, 5)):
            for cycle in proper_row_cycles(state, *rows):
                seq = cycle_swap(state, rows, cycle[0])
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


def test_cycle_swap_rejects_bad_patterns(ex_proper):
    # equal rows, then a row or a column of -1 or n
    for rows, column in (((0, 0), 0), ((-1, 1), 0), ((0, 4), 0), ((0, 1), -1), ((0, 1), 4)):
        with pytest.raises(InvalidCycle):
            cycle_swap(ex_proper, rows, column)


def test_cycle_swap_requires_proper(ex_improper):
    with pytest.raises(InvalidCycle):
        cycle_swap(ex_improper, (0, 1), 0)


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
                    seq = cycle_swap(state, rows, c)
                    assert len(seq) == len(cycle) - 1
                    assert seq.end.grid == expected and seq.end.is_proper


# ---------------------------------------------------------------------------
# swap_row_entries


def test_swap_row_entries_single_move_fixture():
    state = cube_from_grid([[1, 0, 2], [0, 1, 0], [2, 0, 1]], ImproperCell(1, 1, (1, 2), 0))
    seq = swap_row_entries(state, 0, 1, 0)
    result = seq.end
    assert seq.moves == (IntercalateMove.from_anchors(0, 1, 1, 1, 0, 0),)
    assert result.is_proper
    assert result.grid == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_swap_row_entries_preconditions(ex_improper, ex_proper):
    with pytest.raises(PreconditionViolated):
        swap_row_entries(ex_proper, 0, 1, 2)
    with pytest.raises(PreconditionViolated):
        swap_row_entries(ex_improper, 0, 0, 2)  # improper cell not in column 0
    with pytest.raises(PreconditionViolated):
        swap_row_entries(ex_improper, 2, 1, 2)  # i1 equals the improper row
    with pytest.raises(PreconditionViolated):
        swap_row_entries(ex_improper, 0, 1, 1)  # j1 == j2
    # (i1, j1) must hold the negative symbol: row 1 holds 3 at column 1
    with pytest.raises(PreconditionViolated):
        swap_row_entries(ex_improper, 1, 1, 2)
    # A corrupt state whose column j2 holds s twice: (3, 0) set to 1, unchecked.
    grid = [list(r) for r in ex_improper.grid]
    grid[3][0] = 1
    bad = SquareState(tuple(map(tuple, grid)), ex_improper.improper)
    with pytest.raises(PreconditionViolated, match="column 0 does not hold symbol 1 exactly once"):
        swap_row_entries(bad, 0, 1, 0)


@pytest.mark.parametrize("bad", [-1, 4])
def test_swap_row_entries_rejects_index_outside_square(ex_improper, bad):
    # ex_improper has order 4 and its improper cell in column 1; row 0 holds
    # its negative symbol there, so (0, 1, 2) meets every other precondition.
    for i1, j2 in ((bad, 2), (0, bad)):
        with pytest.raises(PreconditionViolated, match="outside 0..3"):
            swap_row_entries(ex_improper, i1, 1, j2)


def test_fix_row_rejects_an_improper_working_row(ex_improper):
    # ex_improper's improper cell is (2, 1); row 2 cannot be fixed through it.
    with pytest.raises(InvalidSquare, match=r"cell \(2,1\) is not a proper cell"):
        fix_row(ex_improper, cyclic_square(4), 2)


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
        seq = swap_row_entries(state, i1, j1, j2)
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
    with pytest.raises(OrderMismatch):
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
            row_seq = fix_row(state, b, row)
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


# One call of each path primitive on the fixtures: (start, call).
PRIMITIVE_CALLS = {
    "normalize_to_proper": lambda imp, pro: (imp, normalize_to_proper(imp)),
    "cycle_swap": lambda imp, pro: (pro, cycle_swap(pro, (0, 2), max(proper_row_cycles(pro, 0, 2), key=len)[0])),
    "swap_row_entries": lambda imp, pro: (imp, swap_row_entries(imp, 0, 1, 0)),
    "fix_row": lambda imp, pro: (pro, fix_row(pro, cyclic_square(4), 0)),
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
        text += "".join(m.text() + "\n" for m in seq.moves) + "--\n"
    assert hashlib.sha256(text.encode()).hexdigest() == PATH_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(PATH_DIGESTS))
def test_restricted_validate_matches_full_on_pinned_paths(n):
    (p0, p1, p2, p3), (i0, i1, i2, i3) = _path_endpoints(n, 500 + n)
    for a, b in ((p0, p1), (i0, p2), (p3, i1), (i2, i3)):
        state = a
        for m in transform_path(a, b).moves:
            before, state = state, apply_move(state, m)
            assert validate(state, since=before) == validate(state) == []


def _with_cell(state, r, c):
    """The state with cell (r, c) holding the next symbol mod n."""
    grid = list(state.grid)
    grid[r] = (*grid[r][:c], (grid[r][c] + 1) % state.n, *grid[r][c + 1:])
    return SquareState(tuple(grid), state.improper)


def _fault(kind, state, m):
    """One extra change to the true result of move ``m``, off the move's
    four cells or to the length of one of its rows."""
    r = next(x for x in range(state.n) if x not in (m.i, m.i2))
    c = next(x for x in range(state.n) if x not in (m.j, m.j2))
    if kind == "cell outside rows i, i2":
        return _with_cell(state, r, c)
    if kind == "cell in row i outside columns j, j2":
        return _with_cell(state, m.i, c)
    if kind == "row i gains an entry":
        grid = list(state.grid)
        grid[m.i] = (*grid[m.i], grid[m.i][0])
        return SquareState(tuple(grid), state.improper)
    assert kind == "record off the four cells"
    return SquareState(state.grid, dataclasses.replace(state.improper, row=r, col=c))


@pytest.mark.parametrize(
    "kind",
    [
        "cell outside rows i, i2",
        "cell in row i outside columns j, j2",
        "record off the four cells",
        "row i gains an entry",
    ],
)
def test_checked_replay_catches_faulty_apply_move(kind, monkeypatch):
    """The prefix check since the prefix before raises what a full check of the bad state reports."""
    (p0, *_), (i0, *_) = _path_endpoints(6, 506)
    seq = transform_path(p0, i0)
    # A later move (so the check runs since the prefix before) whose true result is improper.
    state = seq.start
    for k, m in enumerate(seq.moves):
        before, state = state, apply_move(state, m)
        if k and state.improper is not None:
            break
    bad = _fault(kind, state, m)
    expected = validate(bad)
    assert expected and validate(bad, since=before) == expected
    calls = []

    def faulty(state, move):
        calls.append(move)
        out = apply_move(state, move)
        return _fault(kind, out, move) if len(calls) == k + 1 else out

    monkeypatch.setattr(connect, "apply_move", faulty)
    with pytest.raises(LatinSquareError) as err:
        seq.replay(check=True)
    assert str(err.value) == f"invalid intermediate state: {expected}"
    assert len(calls) == k + 1
