import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latinsq
from cube_reference import IncidenceCube, from_cube, validate_cube
from latinsq.chain import RngStream
from latinsq import connect
from latinsq.connect import MoveSequence, transform_path
from latinsq.core import (
    ImproperCell,
    InvalidSquare,
    SquareState,
    cube_from_grid,
    cyclic_square,
    validate,
)
from latinsq.moves import IntercalateMove
from latinsq.oracle import enumerate_latin_squares
from scripted_draws import walk


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
    with pytest.raises(InvalidSquare, match="order must be at least 1"):
        cyclic_square(0)
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
    out_of_range = SquareState(ex_improper.grid, ImproperCell(2, 1, (0, 2), 7))
    assert validate(out_of_range) == ["improper record names symbols outside 0..n-1"]
    # The same cube with the record's pair unsorted and its first symbol on the grid.
    grid = [list(line) for line in ex_improper.grid]
    grid[2][1] = 2
    unsorted = SquareState(tuple(map(tuple, grid)), ex_improper.improper._replace(positive_pair=(2, 0)))
    assert validate(unsorted) == ["improper record (2, 0)-1 does not match cell content (0, 2)-1"]


@pytest.mark.parametrize(
    "record",
    [
        ImproperCell(0.5, 0, (0, 1), 2),
        ImproperCell(0, 0.5, (0, 1), 2),
        ImproperCell(0, 0, (0, 2.0), 1),
        ImproperCell(0, 0, (0, 1), 2.0),
    ],
    ids=["row", "column", "larger positive", "negative"],
)
def test_record_field_that_is_not_an_integer_is_named(record):
    # Such a field cannot index a line; each entry that validates gives the one message.
    square = cyclic_square(3)
    state = SquareState(square.grid, record)
    message = "improper record has a field that is not an integer"
    assert validate(state) == [message]
    for call in (
        lambda: cube_from_grid(square.grid, record),
        lambda: transform_path(state, square),
        lambda: MoveSequence(state, (), state).replay(check=True),
    ):
        with pytest.raises(InvalidSquare) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("symbol", [1.0, np.float64(1.0), Fraction(1)], ids=["1.0", "numpy 1.0", "Fraction 1"])
def test_grid_symbol_that_is_not_an_integer_is_named(symbol):
    # 1.0 equals 1 but cannot index a line; each entry that validates gives the one message.
    grid = ((0, symbol, 2), (1, 2, 0), (2, 0, 1))
    state = SquareState(grid)
    message = f"symbol {symbol!r} at (0,1) is not an integer"
    assert validate(state) == [message]
    for call in (
        lambda: cube_from_grid(grid),
        lambda: transform_path(state, cyclic_square(3)),
        lambda: transform_path(cyclic_square(3), state),
        lambda: MoveSequence(state, (), state).replay(check=True),
    ):
        with pytest.raises(InvalidSquare) as err:
            call()
        assert str(err.value) == message


def test_numpy_integer_symbols_validate_and_replay():
    # numpy integers are integers: a square of them validates, and its path replays.
    a = cube_from_grid(np.array(cyclic_square(5).grid))
    b = cube_from_grid(cyclic_square(5).grid[::-1])
    seq = transform_path(a, b)
    assert len(seq) and seq.replay(check=True) == b and seq.inverted().replay(check=True) == a


def test_improper_cell_distinctness_enforced():
    with pytest.raises(InvalidSquare):
        ImproperCell(0, 0, (1, 1), 2)
    with pytest.raises(InvalidSquare):
        ImproperCell(0, 0, (1, 2), 2)


def test_positive_pair_sorted():
    rec = ImproperCell(0, 0, (2, 1), 0)
    assert rec.positive_pair == (1, 2)


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: ImproperCell(2, 1, (2, 0), 1), "ImproperCell(row=2, col=1, positive_pair=(0, 2), negative=1)"),
        (lambda: IntercalateMove(0, 1, 3, 2, 4, 5), "IntercalateMove(i=0, j=1, a=3, i2=2, j2=4, b=5)"),
    ],
)
def test_records_and_moves_are_immutable_values(make, text):
    """Equal values hash alike, as the tuple of their fields does; no field can be set."""
    value = make()
    assert repr(value) == text
    assert value == make() and hash(value) == hash(make()) == hash(tuple(value))
    assert pickle.loads(pickle.dumps(value)) == value and type(pickle.loads(pickle.dumps(value))) is type(value)
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


DISTINCT = "improper cell symbols must be pairwise distinct, got positives"


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (ImproperCell, (0, 0, (1, 1), 2), f"{DISTINCT} (1, 1) negative 2"),
        (ImproperCell, (0, 0, (2, 1), 2), f"{DISTINCT} (1, 2) negative 2"),
        (IntercalateMove, (1, 0, 0, 0, 1, 1), "move not in canonical form: IntercalateMove(i=1, j=0, a=0, i2=0, j2=1, b=1)"),
        (IntercalateMove, (0, 0, 1, 1, 1, 1), "move symbols must differ: IntercalateMove(i=0, j=0, a=1, i2=1, j2=1, b=1)"),
        (IntercalateMove, (0, 0, -1, 1, 1, 1), "move indices must be non-negative: IntercalateMove(i=0, j=0, a=-1, i2=1, j2=1, b=1)"),
    ],
)
def test_record_and_move_constructors_name_what_is_wrong(cls, args, message):
    with pytest.raises(InvalidSquare if cls is ImproperCell else ValueError) as err:
        cls(*args)
    assert str(err.value) == message


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
    # cell itself, q, a second copy of a symbol or the negative.
    n = draw(st.integers(min_value=3, max_value=7))
    rows = draw(st.permutations(range(n)))
    state = cube_from_grid([[(i + j) % n for j in range(n)] for i in rows])
    steps = walk(state, RngStream(draw(st.integers(0, 2**32 - 1))))
    while state.improper is None:
        state, _ = next(steps)
    rec = state.improper
    k = draw(st.integers(0, n - 1))
    r, c = (rec.row, k) if draw(st.booleans()) else (k, rec.col)
    grid = [list(line) for line in state.grid]
    grid[r][c] = draw(st.sampled_from([*rec.positive_pair, rec.negative, draw(st.integers(0, n - 1))]))
    return SquareState(tuple(map(tuple, grid)), rec)


@settings(max_examples=300)
@given(_near_miss_improper_states())
def test_validate_restricted_lines_on_near_miss_improper_states(state):
    # `validate` passes an improper line on its shape alone (p at the cell,
    # q absent, the negative twice); one cell off must fall to the counts.
    assert validate(state) == validate_cube(IncidenceCube.of(state), state.improper)


@pytest.mark.parametrize(
    "grid, message",
    [
        (((0, 1, 2, 0), (1, 2, 0), (2, 0, 1)), "row 0 has length 4, expected 3"),
        (((0, 1, 9), (1, 9, 0), (9, 0, 1)), "symbol 9 at (0,2) outside 0..2"),
    ],
)
def test_validate_reports_grids_that_are_not_squares(grid, message):
    assert validate(SquareState(grid)) == [message]


def test_public_surface_is_pinned():
    # A state is its grid and its record; lines are read off the grid.
    assert [a for a in dir(cyclic_square(3)) if not a.startswith("_")] == [
        "grid",
        "improper",
        "is_proper",
        "kind",
        "n",
    ]
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
        "cyclic_square",
        "enumerate_latin_squares",
        "enumerate_valid_moves",
        "sample",
        "transform_path",
        "validate",
    ]
    for name in latinsq.__all__:
        assert getattr(latinsq, name) is not None
    # The path finder's one entry, its path type and its error; the lemma steps are private.
    assert sorted(
        name for name, obj in vars(connect).items()
        if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", None) == connect.__name__
    ) == ["MoveSequence", "PreconditionViolated", "transform_path"]
