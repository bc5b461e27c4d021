import numpy as np
import pytest
from hypothesis import given, strategies as st

from latinsq.core import (
    GridView,
    ImproperCell,
    IncidenceCube,
    InvalidSquare,
    SquareState,
    cube_from_grid,
    cyclic_square,
    grid_from_cube,
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
                assert state.cube.entry(r, c, s) == expected


def test_improper_fixture_encodes_and_validates(ex_improper):
    assert not ex_improper.is_proper
    assert ex_improper.kind == "improper"
    rec = ex_improper.improper
    assert (rec.row, rec.col) == (2, 1)
    assert rec.positive_pair == (0, 2)
    assert rec.negative == 1
    assert validate(ex_improper) == []
    assert ex_improper.cube.entry(2, 1, 1) == -1
    assert ex_improper.cube.entry(2, 1, 0) == 1
    assert ex_improper.cube.entry(2, 1, 2) == 1


def test_duplicate_column_rejected():
    with pytest.raises(InvalidSquare):
        cube_from_grid([[0, 1], [0, 1]])


def test_order_zero_rejected_order_one_admitted():
    with pytest.raises(InvalidSquare):
        cube_from_grid([])
    one = cube_from_grid([[0]])
    assert one.is_proper and one.n == 1


def test_grid_round_trip_small():
    grid = [[0, 1], [1, 0]]
    gv = grid_from_cube(cube_from_grid(grid))
    assert gv.grid == ((0, 1), (1, 0))
    assert gv.improper is None


def test_improper_round_trip(ex_improper):
    gv = grid_from_cube(ex_improper)
    assert gv.grid == ((2, 1, 3, 0), (1, 3, 0, 2), (3, 0, 1, 1), (0, 1, 2, 3))
    assert gv.improper == ex_improper.improper
    again = cube_from_grid([list(r) for r in gv.grid], gv.improper)
    assert again == ex_improper


def test_round_trip_over_enumerated_squares():
    seen = 0
    for n in (1, 2, 3, 4):
        for gv in enumerate_latin_squares(n):
            state = cube_from_grid([list(r) for r in gv.grid])
            assert grid_from_cube(state).grid == gv.grid
            seen += 1
            if seen >= 1000:
                return


def test_validate_reports_multiple_negatives():
    arr = cube_from_grid([[0, 1, 2], [1, 2, 0], [2, 0, 1]]).cube.data.copy()
    arr.flags.writeable = True
    arr[0, 0, 0] = -1
    arr[1, 1, 1] = -1
    bad = SquareState.candidate(IncidenceCube(arr), None)
    problems = validate(bad)
    assert any("multiple negative cells" in p for p in problems)


def test_validate_reports_line_sums_for_overwritten_cell():
    # Overwriting one cell's symbol breaks the row and column lines of both
    # the old and the new symbol: four line sums in total.
    arr = cyclic_square(3).cube.data.copy()
    arr.flags.writeable = True
    arr[0, 0, 0] = 0
    arr[0, 0, 1] = 1
    bad = SquareState.candidate(IncidenceCube(arr), None)
    problems = validate(bad)
    line_problems = [p for p in problems if "line" in p]
    assert len(line_problems) == 4
    assert any("row=0 sym=0" in p for p in line_problems)
    assert any("row=0 sym=1" in p for p in line_problems)
    assert any("col=0 sym=0" in p for p in line_problems)
    assert any("col=0 sym=1" in p for p in line_problems)


def test_validate_catches_record_mismatch(ex_improper):
    wrong = SquareState.candidate(ex_improper.cube, ImproperCell(2, 1, (0, 3), 1))
    assert any("does not match" in p for p in validate(wrong))
    missing = SquareState.candidate(ex_improper.cube, None)
    assert any("record missing" in p for p in validate(missing))


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
    assert grid_from_cube(state).grid == tuple(tuple(r) for r in grid)


def test_square_state_from_cube_derives_record(ex_improper):
    rebuilt = SquareState.from_cube(ex_improper.cube)
    assert rebuilt == ex_improper
    proper = SquareState.from_cube(cyclic_square(3).cube)
    assert proper.improper is None
    arr = cyclic_square(3).cube.data.copy()
    arr.flags.writeable = True
    arr[0, 0, 0] = -1
    arr[1, 1, 1] = -1
    with pytest.raises(InvalidSquare):
        SquareState.from_cube(IncidenceCube(arr))


def test_grid_view_is_value_like():
    a = GridView(2, ((0, 1), (1, 0)))
    b = GridView(2, ((0, 1), (1, 0)))
    assert a == b and hash(a) == hash(b)


def test_line_sums_all_one_for_valid_states(ex_improper):
    data = ex_improper.cube.data
    assert np.all(data.sum(axis=0) == 1)
    assert np.all(data.sum(axis=1) == 1)
    assert np.all(data.sum(axis=2) == 1)


def test_grid_readers_agree_with_cube_view(graph3, ex_improper):
    # The state's readers work on the grid and the record; the cube view is
    # the reference, on every line of every order-3 state.
    for state in [*graph3.states, ex_improper]:
        n, cube = state.n, state.cube
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
