import itertools

import pytest

from cube_reference import IncidenceCube, is_valid_move, minus_triples, plus_triples
from enumeration_reference import proper_row_cycles
from latinsq.chain import RngStream
from latinsq.core import cube_from_grid, cyclic_square, validate
from latinsq.moves import IntercalateMove, InvalidMove, _flip, apply_move, enumerate_valid_moves
from latinsq.connect import _Board, _cycle_swap
from scripted_draws import canonical_moves, on_board, walk

EX_MOVE = IntercalateMove.from_anchors(0, 1, 0, 2, 3, 1)


def test_apply_move_reproduces_proper_square(ex_improper, ex_proper):
    assert is_valid_move(ex_improper, EX_MOVE)
    result = apply_move(ex_improper, EX_MOVE)
    assert result == ex_proper
    assert result.is_proper


def test_inverse_move_runs_backwards(ex_improper, ex_proper):
    back = apply_move(ex_proper, EX_MOVE.inverted())
    assert back == ex_improper


def test_invert_swaps_symbols_and_is_involution():
    m = IntercalateMove.from_anchors(0, 1, 0, 2, 3, 1)
    assert m.inverted() == IntercalateMove(0, 1, 1, 2, 3, 0)
    assert m.inverted().inverted() == m


def test_delta_signs_alternate():
    m = IntercalateMove(0, 0, 0, 1, 1, 1)
    plus = set(plus_triples(m))
    minus = set(minus_triples(m))
    assert plus == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert minus == {(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)}
    # flipping any one coordinate of a +1 triple lands on a -1 triple
    for (r, c, s) in plus:
        assert (1 - r, c, s) in minus
        assert (r, 1 - c, s) in minus
        assert (r, c, 1 - s) in minus


def test_canonicalization_collapses_the_four_namings():
    # ((i,j;a),(i2,j2;b)) with i=0,j=1,a=3,i2=2,j2=4,b=5
    reference = IntercalateMove.from_anchors(0, 1, 3, 2, 4, 5)
    namings = [
        (0, 1, 3, 2, 4, 5),
        (0, 4, 5, 2, 1, 3),
        (2, 1, 5, 0, 4, 3),
        (2, 4, 3, 0, 1, 5),
    ]
    for naming in namings:
        m = IntercalateMove.from_anchors(*naming)
        assert m == reference
        assert set(plus_triples(m)) == set(plus_triples(reference))


from hypothesis import given, strategies as st


@given(st.permutations(list(range(7))))
def test_from_anchors_preserves_delta_sets(perm):
    i, i2, j, j2, a, b, _ = perm
    m = IntercalateMove.from_anchors(i, j, a, i2, j2, b)
    assert set(plus_triples(m)) == {(i, j, a), (i, j2, b), (i2, j, b), (i2, j2, a)}
    assert set(minus_triples(m)) == {(i, j, b), (i, j2, a), (i2, j, a), (i2, j2, b)}
    assert m.i < m.i2 and m.j < m.j2


def test_malformed_moves_rejected():
    with pytest.raises(ValueError):
        IntercalateMove.from_anchors(0, 0, 0, 0, 1, 1)  # equal rows
    with pytest.raises(ValueError):
        IntercalateMove.from_anchors(0, 0, 0, 1, 0, 1)  # equal cols
    with pytest.raises(ValueError):
        IntercalateMove.from_anchors(0, 0, 1, 1, 1, 1)  # equal symbols
    with pytest.raises(ValueError):
        IntercalateMove(1, 0, 0, 0, 1, 1)  # not canonical
    with pytest.raises(ValueError):
        IntercalateMove(-1, 0, 0, 1, 1, 1)  # negative row


def test_move_text_round_trip():
    m = IntercalateMove.from_anchors(2, 1, 1, 0, 3, 0)
    assert m.text() == "0 1 0 2 3 1"


def test_apply_to_proper_creates_improper_cell():
    state = cube_from_grid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    m = IntercalateMove.from_anchors(0, 0, 1, 1, 1, 0)
    result = apply_move(state, m)
    rec = result.improper
    assert rec is not None
    assert (rec.row, rec.col) == (1, 1)
    assert rec.positive_pair == (1, 2)
    assert rec.negative == 0
    assert result.grid[0] == (1, 0, 2)
    assert result.grid[2] == (2, 0, 1)
    assert validate(result) == []


def test_invalid_move_raises_and_is_pure():
    state = cube_from_grid([[0, 1], [1, 0]])
    bad = IntercalateMove.from_anchors(0, 0, 0, 1, 1, 1)
    assert not is_valid_move(state, bad)
    with pytest.raises(InvalidMove):
        apply_move(state, bad)
    with pytest.raises(InvalidMove, match="move indices exceed order 2"):
        apply_move(state, IntercalateMove(0, 0, 0, 1, 2, 1))
    assert validate(state) == []


def test_enumerate_two_by_two():
    state = cube_from_grid([[0, 1], [1, 0]])
    assert enumerate_valid_moves(state) == [IntercalateMove(0, 0, 1, 1, 1, 0)]


def test_enumerate_order_one_empty():
    assert enumerate_valid_moves(cyclic_square(1)) == []


def _scan_valid_moves(state):
    """The reference enumerator: every canonical move through the cube's
    validity predicate, in (i, i2, j, j2, a, b) order."""
    from itertools import combinations, permutations

    n = state.n
    return [
        IntercalateMove(i, j, a, i2, j2, b)
        for i, i2 in combinations(range(n), 2)
        for j, j2 in combinations(range(n), 2)
        for a, b in permutations(range(n), 2)
        if is_valid_move(state, IntercalateMove(i, j, a, i2, j2, b))
    ]


def test_enumerate_is_sorted_and_cross_validates(graph3):
    # Exhaustive at n = 3: the enumerator lists exactly the moves the
    # predicate accepts, so it misses none.
    for state in graph3.states:
        moves = enumerate_valid_moves(state)
        assert moves == sorted(moves, key=lambda m: (m.i, m.i2, m.j, m.j2, m.a, m.b))
        assert all(is_valid_move(state, m) for m in moves)
        assert moves == _scan_valid_moves(state)


@pytest.mark.parametrize("n", [4, 5])
def test_enumerate_matches_predicate_on_sampled_states(n):
    # The enumerator's grid rule (`_flip`) and the cube's predicate are separate
    # code paths; cross-validate them over every canonical move on chain states.
    # Six states, proper and improper in turn: each is the first of its kind
    # after 24 further walk steps (the walk at n = 5 is mostly improper).
    steps = walk(cyclic_square(n), RngStream(50 + n))
    kinds = set()
    for want in ("proper", "improper") * 3:
        state = next(s for s, _ in itertools.islice(steps, 24, None) if s.kind == want)
        kinds.add(state.kind)
        assert enumerate_valid_moves(state) == _scan_valid_moves(state)
    assert kinds == {"proper", "improper"}


def _check_apply_against_cube(state):
    """apply_move on every canonical move against the reference cube plus the
    move's +/-1 delta: InvalidMove exactly when that sum leaves {-1, 0, 1} or
    holds two -1s, the sum's cube otherwise."""
    import numpy as np
    from itertools import combinations, permutations

    n = state.n
    cube = IncidenceCube.of(state).data.astype(int)
    for i, i2 in combinations(range(n), 2):
        for j, j2 in combinations(range(n), 2):
            for a, b in permutations(range(n), 2):
                m = IntercalateMove(i, j, a, i2, j2, b)
                expect = cube.copy()
                for t in plus_triples(m):
                    expect[t] += 1
                for t in minus_triples(m):
                    expect[t] -= 1
                if expect.max() > 1 or expect.min() < -1 or (expect == -1).sum() > 1:
                    with pytest.raises(InvalidMove):
                        apply_move(state, m)
                else:
                    assert np.array_equal(IncidenceCube.of(apply_move(state, m)).data, expect)


def test_apply_matches_cube_arithmetic_on_every_order_three_state(graph3):
    for state in graph3.states:
        _check_apply_against_cube(state)


def test_board_take_agrees_with_apply_move_on_every_order_three_move(graph3):
    """The path finder's board and `apply_move` share one move rule: on all 66
    states and all 54 canonical moves (plus one outside the order) they give
    the same state or the same InvalidMove message, and a refused move leaves
    the board's rows, record and move list as they were."""
    lines = range(3)
    moves = [
        IntercalateMove(i, j, a, i2, j2, b)
        for i, i2 in itertools.combinations(lines, 2)
        for j, j2 in itertools.combinations(lines, 2)
        for a, b in itertools.permutations(lines, 2)
    ]
    assert len(graph3.states) == 66 and len(moves) == 54
    taken = 0
    for state in graph3.states:
        board = _Board(state)  # one board per state: each valid move is taken, then undone
        for m in (*moves, IntercalateMove(0, 0, 0, 1, 3, 1)):
            rows, rec, before = [list(r) for r in board.grid], board.improper, list(board.moves)
            try:
                expected = apply_move(state, m)
            except InvalidMove as refusal:
                with pytest.raises(InvalidMove) as err:
                    board.take(m)
                assert str(err.value) == str(refusal)
                assert (board.grid, board.improper, board.moves) == (rows, rec, before)
                continue
            board.take(m)
            assert board.state() == expected and board.moves == [*before, m]
            board.take(m.inverted())
            assert board.state() == state
            taken += 1
    # A vertex's neighbours are the states its valid moves reach, one per move.
    assert taken == sum(map(len, graph3.adjacency))


@pytest.mark.parametrize("n", [4, 5])
def test_apply_matches_cube_arithmetic_on_walk_states(n):
    kinds = set()
    for state, _ in itertools.islice(walk(cyclic_square(n), RngStream(70 + n)), 12):
        kinds.add(state.kind)
        _check_apply_against_cube(state)
    assert kinds == {"proper", "improper"}


def test_improper_moves_either_cancel_or_flip_clean_intercalates(graph3):
    # A valid move on an improper state either adds at the negative triple or
    # flips an intercalate whose eight entries sit entirely on proper cells
    # (all four decrements land on +1 entries), preserving the record.
    for state in graph3.states:
        if state.is_proper:
            continue
        rec = state.improper
        neg_triple = (rec.row, rec.col, rec.negative)
        cancelling = 0
        for m in enumerate_valid_moves(state):
            result = apply_move(state, m)
            if neg_triple in plus_triples(m):
                cancelling += 1
                continue
            cube = IncidenceCube.of(state)
            assert all(cube.entry(*t) == 1 for t in minus_triples(m))
            assert result.improper is not None
            assert (result.improper.row, result.improper.col, result.improper.negative) == neg_triple
            assert validate(result) == []
        assert cancelling >= 1  # a route back to proper always exists


def test_noncancelling_valid_move_exists_at_order_three():
    # Pinned counterexample: symbol 0 doubled in row 0 frees a clean
    # intercalate on rows 1-2, columns 0-1, symbols {1,2}.
    from latinsq.core import ImproperCell

    state = cube_from_grid(
        [[0, 0, 1], [1, 2, 0], [2, 1, 0]], ImproperCell(0, 2, (1, 2), 0)
    )
    assert validate(state) == []
    m = IntercalateMove.from_anchors(1, 0, 2, 2, 1, 1)
    assert (0, 2, 0) not in plus_triples(m)
    assert is_valid_move(state, m)
    result = apply_move(state, m)
    assert result.improper == state.improper
    assert validate(result) == []


def test_apply_invert_identity_across_graph(graph3):
    for state in graph3.states:
        for m in enumerate_valid_moves(state):
            there = apply_move(state, m)
            assert apply_move(there, m.inverted()) == state


def test_surviving_negative_keeps_record():
    # At n >= 4 an improper state can admit a clean intercalate flip away
    # from its negative cell; the record must survive such a move.
    for state, _ in itertools.islice(walk(cyclic_square(5), RngStream(11)), 300):
        if state.improper is None:
            continue
        rec = state.improper
        neg = (rec.row, rec.col, rec.negative)
        for m in enumerate_valid_moves(state):
            if neg not in plus_triples(m):
                result = apply_move(state, m)
                out = result.improper
                assert out is not None
                assert (out.row, out.col, out.negative) == neg
                assert validate(result) == []
                return
    pytest.fail("no improper state with a negative-preserving move found")


def test_two_rowed_proper_move_full_cycle():
    state = cube_from_grid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    cycle = proper_row_cycles(state, 0, 1)[0]
    assert len(cycle) == 3
    seq = on_board(state, _cycle_swap, (0, 1), cycle[0])
    result = seq.end
    assert len(seq) == 2
    assert result.grid[0] == (1, 2, 0)
    assert result.grid[1] == (0, 1, 2)
    assert result.grid[2] == (2, 0, 1)


def test_two_rowed_proper_move_intercalate_is_single_move():
    state = cube_from_grid([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    cycles = proper_row_cycles(state, 0, 1)
    two = [c for c in cycles if len(c) == 2]
    assert two
    seq = on_board(state, _cycle_swap, (0, 1), two[0][0])
    result = seq.end
    assert len(seq) == 1
    assert result.is_proper


def test_two_rowed_proper_move_is_involution():
    state = cube_from_grid([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    cycle = proper_row_cycles(state, 0, 1)[0]
    once = on_board(state, _cycle_swap, (0, 1), cycle[0]).end
    again_cycle = proper_row_cycles(once, 0, 1)[0]
    twice = on_board(once, _cycle_swap, (0, 1), again_cycle[0]).end
    assert twice == state


def test_line_sums_preserved_by_all_valid_moves(graph3):
    import numpy as np

    for state in graph3.states:
        for m in enumerate_valid_moves(state):
            data = IncidenceCube.of(apply_move(state, m)).data
            assert np.all(data.sum(axis=0) == 1)
            assert np.all(data.sum(axis=1) == 1)
            assert np.all(data.sum(axis=2) == 1)


def _flip_verdicts(state):
    """One line per canonical move on ``state``, and per move with one index
    at n: the move text, then `_flip`'s refusal or its two rows and record."""
    lines = []
    for m in canonical_moves(state.n):
        out = _flip(state.grid, state.improper, m)
        if not isinstance(out, str):
            top, bottom, rec = out
            fields = None if rec is None else (rec.row, rec.col, rec.positive_pair, rec.negative)
            out = f"{top} {bottom} {fields}"
        lines.append(f"{m.text()}: {out}\n")
    return lines


# sha256 of `_flip_verdicts` over the 66 order-3 states and 12 walk states of order 5.
FLIP_DIGEST = "7451217dcd0b26164a91196af7698a19ec66d5ecfbf9b4652404aabb5068ee03"


def test_flip_verdicts_pinned(graph3):
    """Every verdict and refusal text of the move rule is pinned; the states
    reach each refusal, at each of the four positions where it has one."""
    import hashlib

    states = list(graph3.states)
    steps = walk(cyclic_square(5), RngStream(5005))
    states += [next(s for s, _ in itertools.islice(steps, 5, None) if s.kind == k) for k in ("proper", "improper") * 6]
    lines = [line for state in states for line in _flip_verdicts(state)]
    refusals = {line.split(": ")[1] for line in lines if "[" not in line}
    assert len(refusals) == 11 and {s.kind for s in states[66:]} == {"proper", "improper"}
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == FLIP_DIGEST
