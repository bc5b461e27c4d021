import numpy as np
import pytest

from cube_reference import IncidenceCube
from latinsq.chain import (
    ChainConfig,
    DegenerateOrder,
    RngStream,
    _Walker,
    iter_chains,
    iter_samples,
    sample,
    step,
)
from latinsq.core import LatinSquareError, cube_from_grid, cyclic_square, validate
from latinsq.moves import apply_move, enumerate_valid_moves, is_valid_move
from latinsq.oracle import canonical_key
from scripted_draws import ScriptedDraws


def test_config_defaults_and_validation():
    cfg = ChainConfig(4, seed=1)
    assert cfg.burn_in == 10 * 64 and cfg.thin == 64
    with pytest.raises(DegenerateOrder):
        ChainConfig(0)
    with pytest.raises(Exception):
        ChainConfig(3, thin=0)


def test_step_requires_order_two():
    with pytest.raises(DegenerateOrder):
        step(cyclic_square(1), RngStream(0))


def test_every_selectable_triple_flips_the_two_by_two():
    # All 4 zero triples of [[0,1],[1,0]] lead to the same move and to the
    # other square.
    start = cube_from_grid([[0, 1], [1, 0]])
    other = cube_from_grid([[1, 0], [0, 1]])
    for t in range(4):
        result, move = step(start, ScriptedDraws([t]))
        assert result == other
        assert move.text() == "0 0 1 1 1 0"


def test_proper_state_has_n_squared_times_n_minus_one_choices():
    # The draw bound is exactly n^2 (n-1); every value yields a valid move.
    state = cyclic_square(3)
    for t in range(9 * 2):
        result, move = step(state, ScriptedDraws([t]))
        assert is_valid_move(state, move)
        assert validate(result) == []
    with pytest.raises(AssertionError):
        step(state, ScriptedDraws([18]))


def test_improper_state_has_eight_equally_likely_flips(graph3):
    improper = next(s for s in graph3.states if not s.is_proper)
    neg = improper.improper
    neg_triple = (neg.row, neg.col, neg.negative)
    results = set()
    for pick in range(8):
        result, move = step(improper, ScriptedDraws([pick]))
        assert validate(result) == []
        assert neg_triple in move.plus_triples()
        results.add(canonical_key(result))
    assert len(results) == 8  # every pick bit names a different +1


def test_chain_steps_are_valid_moves_and_stay_in_space():
    rng = RngStream(99)
    state = cyclic_square(5)
    for _ in range(400):
        nxt, move = step(state, rng)
        assert is_valid_move(state, move)
        assert apply_move(state, move) == nxt
        state = nxt
    assert validate(state) == []


def test_reversibility_of_support_exhaustive_order_three(graph3):
    # If some step moves S to S', some step choice moves S' back to S.
    for state in graph3.states[:40]:
        for m in enumerate_valid_moves(state):
            target = apply_move(state, m)
            inv = m.inverted()
            assert is_valid_move(target, inv)
            assert apply_move(target, inv) == state


def test_sample_returns_proper_grids_only():
    for sq in sample(ChainConfig(4, seed=3, burn_in=100, thin=3), 25):
        assert sq.improper is None
        state = cube_from_grid([list(r) for r in sq.grid])
        assert validate(state) == []


def test_sample_determinism():
    cfg = ChainConfig(3, seed=42, burn_in=200, thin=9)
    assert sample(cfg, 50) == sample(cfg, 50)


def test_order_one_sampling():
    out = sample(ChainConfig(1, seed=0), 4)
    assert len(out) == 4
    assert all(sq.grid == ((0,),) for sq in out)


def test_order_two_runs_normally():
    both = {((0, 1), (1, 0)), ((1, 0), (0, 1))}
    out = sample(ChainConfig(2, seed=1, burn_in=10, thin=2), 6)
    assert {sq.grid for sq in out} <= both
    # The order-2 walk has period 2, so even burn-in and thin (the defaults
    # too) would pin every walked sample to the cyclic square.
    for seed in range(3):
        assert {sq.grid for sq in sample(ChainConfig(2, seed=seed), 20)} == both


def test_run_parallel_single_chain_matches_sample():
    cfg = ChainConfig(3, seed=11, burn_in=100, thin=5)
    assert list(iter_chains(cfg, 1, 30)) == sample(cfg, 30)


def test_run_parallel_matches_manual_stream_assignment():
    cfg = ChainConfig(4, seed=17, burn_in=50, thin=4)
    merged = list(iter_chains(cfg, 4, 40))
    streams = RngStream(17).spawn(4)
    manual = []
    for s in streams:
        manual.extend(sample(cfg, 10, s))
    assert merged == manual
    assert merged == list(iter_chains(cfg, 4, 40))


def test_iter_chains_splits_by_ceiling_and_stops_at_count():
    cfg = ChainConfig(3, seed=23, burn_in=20, thin=3)
    # Seven samples over three chains: 3 + 3 + 1, a prefix of three full chains.
    assert list(iter_chains(cfg, 3, 7)) == list(iter_chains(cfg, 3, 9))[:7]
    assert list(iter_chains(cfg, 1, 5)) == sample(cfg, 5)


@pytest.mark.parametrize("chains,count", [(0, 5), (-1, 5), (2, 0)])
def test_iter_chains_rejects_empty_splits(chains, count):
    with pytest.raises(LatinSquareError):
        iter_chains(ChainConfig(3), chains, count)


def test_iter_samples_streams_lazily():
    gen = iter_samples(ChainConfig(3, seed=5, burn_in=10, thin=2), 3)
    first = next(gen)
    assert first.n == 3


def test_rng_stream_spawn_children_differ_and_reproduce():
    a1 = RngStream(7).spawn(2)
    a2 = RngStream(7).spawn(2)
    seq1 = [a1[0].integers(1000) for _ in range(20)]
    seq2 = [a2[0].integers(1000) for _ in range(20)]
    assert seq1 == seq2
    other = [a1[1].integers(1000) for _ in range(20)]
    assert other != seq1


def test_rng_stream_draws_blocks_per_bound_in_request_order():
    # Each bound takes a 4096-value block from the one generator when its
    # last block runs out, whether read through draws() or integers().
    r = RngStream(3)
    eights = r.draws(8)
    assert r.draws(8) is eights
    got8 = [next(eights) for _ in range(10)]
    got_wide = [r.integers(1000) for _ in range(5000)]
    got8 += [next(eights) for _ in range(4100)]
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))

    def block(bound):
        return gen.integers(0, bound, size=4096, dtype=np.int64).tolist()

    want8, want_wide = block(8), block(1000)
    want_wide += block(1000)
    want8 += block(8)
    assert got8 == want8[:4110]
    assert got_wide == want_wide[:5000]


def test_public_step_matches_walker():
    rng1 = RngStream(123)
    rng2 = RngStream(123)
    state = cyclic_square(4)
    w = _Walker(state, rng2)
    for _ in range(50):
        state, _ = step(state, rng1)
    w.advance(50)
    assert w.to_state() == state


def _check_walker_state(w):
    """The walker's grid, conjugate maps and improper pairs agree with its cube."""
    n = w.n
    state = w.to_state()
    assert validate(state) == []
    assert w.view() == state
    cube = IncidenceCube.of(state)
    bad_cell = bad_row_line = bad_col_line = None
    if w.neg is None:
        assert w.pairs is None
    else:
        r, c, s = w.neg
        bad_cell, bad_row_line, bad_col_line = (r, c), (r, s), (c, s)
        rows, cols, syms = w.pairs
        assert list(rows) == cube.rows_with(c, s)
        assert list(cols) == cube.cols_with(r, s)
        assert list(syms) == cube.positive_symbols(r, c)
        assert cube.entry(r, c, s) == -1
    for a in range(n):
        for b in range(n):
            if (a, b) != bad_cell:
                s = w.sym[a * n + b]
                assert cube.positive_symbols(a, b) == [s]
                if (a, s) != bad_row_line:
                    assert w.col[a * n + s] == b
                if (b, s) != bad_col_line:
                    assert w.row[b * n + s] == a
            if (a, b) != bad_row_line:
                assert cube.cols_with(a, b) == [w.col[a * n + b]]
            if (a, b) != bad_col_line:
                assert cube.rows_with(a, b) == [w.row[a * n + b]]


def _improper_prefix_state(n, seed):
    """The first improper state of a walk from the cyclic square."""
    w = _Walker(cyclic_square(n), RngStream(seed))
    while w.neg is None:
        w.advance(1)
    return w.to_state()


@pytest.mark.parametrize("n", range(2, 8))
def test_walker_state_consistent_after_every_step(n, graph3):
    starts = [cyclic_square(n)]
    if n > 2:
        starts.append(_improper_prefix_state(n, 1000 + n))
    if n == 3:
        starts.extend([s for s in graph3.states if not s.is_proper][::6])
    for seed in range(3):
        for start in starts:
            w = _Walker(start, RngStream(seed))
            assert w.to_state() == start
            _check_walker_state(w)
            for _ in range(60):
                w.advance(1)
                _check_walker_state(w)


def test_walker_advance_counts_raw_steps_or_proper_visits():
    a = _Walker(cyclic_square(5), RngStream(4))
    b = _Walker(cyclic_square(5), RngStream(4))
    assert a.advance(0) is None
    last = None
    for _ in range(7):
        while True:
            last = b.advance(1)
            if b.neg is None:
                break
    assert a.advance(7, proper=True) == last
    assert a.to_state() == b.to_state()
