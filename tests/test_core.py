import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latinsq
from cube_reference import IncidenceCube, from_cube, validate_cube
from latinsq.chain import RngStream, step
from latinsq.core import (
    ImproperCell,
    InvalidSquare,
    SquareState,
    cube_from_grid,
    cyclic_square,
    validate,
)
from latinsq.oracle import enumerate_latin_squares


def test_proper_two_by_two_encoding():
    state = cube_from_grid([[0, 1], [1, 0]])
    assert state.is_proper
    ones = {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    for r in range(2):
        for c in range(2):
            for s in range(2):
                expected = 1 if (r, c, s) in ones else 0
                assert IncidenceCube.of(state).entry(r, c, s) == expected


def test_improper_fixture_encodes_and_validates(ex_improper):
    assert not ex_improper.is_proper
    assert ex_improper.kind == "improper"
    rec = ex_improper.improper
    assert (rec.row, rec.col) == (2, 1)
    assert rec.positive_pair == (0, 2)
    assert rec.negative == 1
    assert validate(ex_improper) == []
    cube = IncidenceCube.of(ex_improper)
    assert cube.entry(2, 1, 1) == -1
    assert cube.entry(2, 1, 0) == 1
    assert cube.entry(2, 1, 2) == 1


def test_duplicate_column_rejected():
    with pytest.raises(InvalidSquare):
        cube_from_grid([[0, 1], [0, 1]])


@pytest.mark.parametrize("bad", [3, -1, 1.5])
def test_first_symbol_outside_range_is_named(bad):
    grid = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    grid[1][2] = grid[2][0] = bad
    with pytest.raises(InvalidSquare, match=rf"^symbol {bad} at \(1,2\) outside 0\.\.2$"):
        cube_from_grid(grid)


def test_order_zero_rejected_order_one_admitted():
    with pytest.raises(InvalidSquare):
        cube_from_grid([])
    one = cube_from_grid([[0]])
    assert one.is_proper and one.n == 1


def test_grid_round_trip_small():
    grid = [[0, 1], [1, 0]]
    state = cube_from_grid(grid)
    assert state.grid == ((0, 1), (1, 0))
    assert state.improper is None


def test_improper_round_trip(ex_improper):
    assert ex_improper.grid == ((2, 1, 3, 0), (1, 3, 0, 2), (3, 0, 1, 1), (0, 1, 2, 3))
    again = cube_from_grid([list(r) for r in ex_improper.grid], ex_improper.improper)
    assert again == ex_improper


def test_round_trip_over_enumerated_squares():
    seen = 0
    for n in (1, 2, 3, 4):
        for sq in enumerate_latin_squares(n):
            state = cube_from_grid([list(r) for r in sq.grid])
            assert state == sq
            seen += 1
            if seen >= 1000:
                return


def test_validate_reports_multiple_negatives():
    arr = IncidenceCube.of(cube_from_grid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])).data.copy()
    arr.flags.writeable = True
    arr[0, 0, 0] = -1
    arr[1, 1, 1] = -1
    problems = validate_cube(IncidenceCube(arr), None)
    assert any("multiple negative cells" in p for p in problems)


def test_validate_reports_line_sums_for_overwritten_cell():
    # Overwriting one cell's symbol breaks the row and column lines of both
    # the old and the new symbol: four line sums in total.
    arr = IncidenceCube.of(cyclic_square(3)).data.copy()
    arr.flags.writeable = True
    arr[0, 0, 0] = 0
    arr[0, 0, 1] = 1
    problems = validate_cube(IncidenceCube(arr), None)
    # The same square as a grid: the grid checker gives the same messages.
    assert validate(SquareState(((1, 1, 2), (1, 2, 0), (2, 0, 1)))) == problems
    line_problems = [p for p in problems if "line" in p]
    assert len(line_problems) == 4
    assert any("row=0 sym=0" in p for p in line_problems)
    assert any("row=0 sym=1" in p for p in line_problems)
    assert any("col=0 sym=0" in p for p in line_problems)
    assert any("col=0 sym=1" in p for p in line_problems)


def test_validate_catches_record_mismatch(ex_improper):
    cube = IncidenceCube.of(ex_improper)
    assert any("does not match" in p for p in validate_cube(cube, ImproperCell(2, 1, (0, 3), 1)))
    assert any("record missing" in p for p in validate_cube(cube, None))


def test_improper_cell_distinctness_enforced():
    with pytest.raises(InvalidSquare):
        ImproperCell(0, 0, (1, 1), 2)
    with pytest.raises(InvalidSquare):
        ImproperCell(0, 0, (1, 2), 2)


def test_positive_pair_sorted():
    rec = ImproperCell(0, 0, (2, 1), 0)
    assert rec.positive_pair == (1, 2)


@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_row_permuted_cyclic_squares_round_trip(n, rnd):
    rows = list(range(n))
    rnd.shuffle(rows)
    grid = [[(i + j) % n for j in range(n)] for i in rows]
    state = cube_from_grid(grid)
    assert validate(state) == []
    assert state.grid == tuple(tuple(r) for r in grid)


def test_square_state_from_cube_derives_record(ex_improper):
    rebuilt = from_cube(IncidenceCube.of(ex_improper))
    assert rebuilt == ex_improper
    proper = from_cube(IncidenceCube.of(cyclic_square(3)))
    assert proper.improper is None
    arr = IncidenceCube.of(cyclic_square(3)).data.copy()
    arr.flags.writeable = True
    arr[0, 0, 0] = -1
    arr[1, 1, 1] = -1
    with pytest.raises(InvalidSquare):
        from_cube(IncidenceCube(arr))


def test_square_state_is_value_like(ex_improper):
    a = SquareState(((0, 1), (1, 0)))
    b = SquareState(((0, 1), (1, 0)))
    assert a == b and hash(a) == hash(b)
    copy = SquareState(ex_improper.grid, ex_improper.improper)
    assert copy == ex_improper and hash(copy) == hash(ex_improper)
    assert copy != SquareState(ex_improper.grid)
    assert [f.name for f in dataclasses.fields(SquareState)] == ["grid", "improper"]


def test_line_sums_all_one_for_valid_states(ex_improper):
    data = IncidenceCube.of(ex_improper).data
    assert np.all(data.sum(axis=0) == 1)
    assert np.all(data.sum(axis=1) == 1)
    assert np.all(data.sum(axis=2) == 1)


def test_grid_readers_agree_with_cube_view(graph3, ex_improper):
    # The state's readers work on the grid and the record; the cube view is
    # the reference, on every line of every order-3 state.
    for state in [*graph3.states, ex_improper]:
        n, cube = state.n, IncidenceCube.of(state)
        for a in range(n):
            for b in range(n):
                assert state.rows_with(a, b) == cube.rows_with(a, b)
                assert state.cols_with(a, b) == cube.cols_with(a, b)
                for s in range(n):
                    assert state.entry(a, b, s) == cube.entry(a, b, s)
                if len(cube.positive_symbols(a, b)) == 1:
                    assert state.symbol_at(a, b) == cube.symbol_at(a, b)
                else:
                    with pytest.raises(InvalidSquare):
                        state.symbol_at(a, b)


def test_validate_matches_cube_checker_on_every_small_state(graph3, graph4, ex_improper):
    for state in [*graph3.states, *graph4.states, ex_improper]:
        assert validate(state) == validate_cube(IncidenceCube.of(state), state.improper) == []


@st.composite
def _candidate_states(draw):
    # A row-permuted cyclic square with a few cells overwritten, and for
    # n >= 3 maybe a record whose cell holds p, q, the negative or another
    # symbol: valid and corrupt grids plus records alike.
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.permutations(range(n)))
    grid = [[(i + j) % n for j in range(n)] for i in rows]
    for r, c, s in draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=3)):
        grid[r][c] = s
    rec = None
    if n >= 3 and draw(st.booleans()):
        p, q, neg = draw(st.permutations(range(n)))[:3]
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rec = ImproperCell(r, c, (p, q), neg)
        grid[r][c] = draw(st.sampled_from([p, q, neg, draw(st.integers(0, n - 1))]))
    return SquareState(tuple(map(tuple, grid)), rec)


@settings(max_examples=500)
@given(_candidate_states())
def test_validate_matches_cube_checker_on_fuzzed_candidates(state):
    assert validate(state) == validate_cube(IncidenceCube.of(state), state.improper)


@st.composite
def _near_miss_improper_states(draw):
    # A valid improper state one walk step from a row-permuted cyclic
    # square, with one cell of its improper row or column overwritten: the
    # cell itself, q, a second copy of a symbol or the negative.  Returns
    # the overwritten state and the valid one.
    n = draw(st.integers(min_value=3, max_value=7))
    rows = draw(st.permutations(range(n)))
    state = cube_from_grid([[(i + j) % n for j in range(n)] for i in rows])
    rng = RngStream(draw(st.integers(0, 2**32 - 1)))
    while state.improper is None:
        state, _ = step(state, rng)
    rec = state.improper
    k = draw(st.integers(0, n - 1))
    r, c = (rec.row, k) if draw(st.booleans()) else (k, rec.col)
    grid = [list(line) for line in state.grid]
    grid[r][c] = draw(st.sampled_from([*rec.positive_pair, rec.negative, draw(st.integers(0, n - 1))]))
    return SquareState(tuple(map(tuple, grid)), rec), state


@settings(max_examples=300)
@given(_near_miss_improper_states())
def test_validate_restricted_lines_on_near_miss_improper_states(case):
    state, since = case
    full = validate(state)
    assert full == validate_cube(IncidenceCube.of(state), state.improper)
    assert validate(state, since=since) == full


@pytest.mark.parametrize(
    "grid, message",
    [
        (((0, 1, 2, 0), (1, 2, 0), (2, 0, 1)), "row 0 has length 4, expected 3"),
        (((0, 1, 9), (1, 9, 0), (9, 0, 1)), "symbol 9 at (0,2) outside 0..2"),
    ],
)
def test_validate_reports_grids_that_are_not_squares(grid, message):
    assert validate(SquareState(grid)) == [message]


def _out_of_range(case):
    """cyclic_square(4) with cell (1,2) set to 4 or -1, or a record at (4,0) or (-1,0)."""
    grid = cyclic_square(4).grid
    if case.startswith("cell"):
        row = list(grid[1])
        row[2] = int(case.split()[1])
        return SquareState((grid[0], tuple(row), *grid[2:]))
    return SquareState(grid, ImproperCell(int(case.split()[1]), 0, (0, 1), 2))


@pytest.mark.parametrize("case", ["cell 4", "cell -1", "record 4", "record -1"])
def test_validate_since_names_what_is_out_of_range(case):
    state = _out_of_range(case)
    assert validate(state, since=cyclic_square(4)) == validate(state) != []


def test_public_surface_is_pinned():
    assert sorted(latinsq.__all__) == [
        "ChainConfig",
        "ImproperCell",
        "IntercalateMove",
        "InvalidMove",
        "InvalidSquare",
        "LatinSquareError",
        "MoveSequence",
        "RngStream",
        "SquareState",
        "StateGraph",
        "UniformityReport",
        "apply_move",
        "build_state_graph",
        "cell_symbol_frequency_test",
        "check_connectivity_and_diameter",
        "chi_square_uniformity",
        "count_latin_squares",
        "cube_from_grid",
        "cycle_swap",
        "cyclic_square",
        "enumerate_latin_squares",
        "enumerate_valid_moves",
        "find_row_cycles",
        "is_valid_move",
        "normalize_to_proper",
        "proper_row_cycles",
        "sample",
        "step",
        "swap_row_entries",
        "transform_path",
        "validate",
    ]
    for name in latinsq.__all__:
        assert getattr(latinsq, name) is not None
