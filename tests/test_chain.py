import itertools
import os

import numpy as np
import pytest

import latinsq.chain
from cube_reference import IncidenceCube, is_valid_move, plus_triples
from latinsq.chain import (
    ChainConfig,
    DegenerateOrder,
    RngStream,
    _Walker,
    iter_chains,
    iter_samples,
    sample,
)
from latinsq.core import LatinSquareError, cube_from_grid, cyclic_square, validate
from latinsq.moves import IntercalateMove, apply_move, enumerate_valid_moves
from latinsq.oracle import canonical_key
from scripted_draws import ScriptedDraws, walk


def test_config_defaults_and_validation():
    cfg = ChainConfig(4, seed=1)
    assert cfg.burn_in == 4**3 and cfg.thin == 2 * 4**2
    with pytest.raises(DegenerateOrder):
        ChainConfig(0)
    with pytest.raises(Exception):
        ChainConfig(3, thin=0)
    # A fractional thin would never count down to zero, and a negative seed
    # would fail only at the first draw.
    for bad in ({"thin": 2.5}, {"burn_in": 1.0}, {"seed": "1"}, {"seed": -1}):
        with pytest.raises(LatinSquareError):
            ChainConfig(3, **bad)
    with pytest.raises(LatinSquareError):
        ChainConfig(3.0)
    cfg = ChainConfig(np.int64(4), seed=np.uint32(1), thin=np.int16(32))
    assert (cfg.n, cfg.seed, cfg.burn_in, cfg.thin) == (4, 1, 64, 32)
    assert type(cfg.n) is int and type(cfg.thin) is int


def test_every_selectable_triple_flips_the_two_by_two():
    # All 4 zero triples of [[0,1],[1,0]] lead to the same move and to the
    # other square.
    start = cube_from_grid([[0, 1], [1, 0]])
    other = cube_from_grid([[1, 0], [0, 1]])
    for t in range(4):
        w = _Walker(start, ScriptedDraws([t]))
        move = IntercalateMove.from_anchors(*w.advance(1))
        assert w.view() == other
        assert move.text() == "0 0 1 1 1 0"


def test_proper_state_has_n_squared_times_n_minus_one_choices():
    # The draw bound is exactly n^2 (n-1); every value yields a valid move.
    state = cyclic_square(3)
    for t in range(9 * 2):
        w = _Walker(state, ScriptedDraws([t]))
        move = IntercalateMove.from_anchors(*w.advance(1))
        assert is_valid_move(state, move)
        assert validate(w.view()) == []
    with pytest.raises(AssertionError):
        _Walker(state, ScriptedDraws([18])).advance(1)


def test_improper_state_has_eight_equally_likely_flips(graph3):
    improper = next(s for s in graph3.states if not s.is_proper)
    neg = improper.improper
    neg_triple = (neg.row, neg.col, neg.negative)
    results = set()
    for pick in range(8):
        w = _Walker(improper, ScriptedDraws([pick]))
        move = IntercalateMove.from_anchors(*w.advance(1))
        result = w.view()
        assert validate(result) == []
        assert neg_triple in plus_triples(move)
        results.add(canonical_key(result))
    assert len(results) == 8  # every pick bit names a different +1


def test_chain_steps_are_valid_moves_and_stay_in_space():
    state = cyclic_square(5)
    for nxt, move in itertools.islice(walk(state, RngStream(99)), 400):
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
        manual.extend(iter_samples(cfg, 10, s))
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


CPU_SETS = [{0}, {0, 1}, {0, 1, 2}]


def force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "n,chains,count",
    [
        (3, 3, 7),  # 3 + 3 + 1: the last chain trimmed
        (3, 5, 13),  # five chains of three, more chains than CPUs
        (4, 2, 6),  # two streams, fewer than three CPUs
        (3, 10, 1),  # one stream read
        (2, 4, 9),  # direct draws
    ],
)
def test_iter_chains_same_samples_on_any_cpu_count(monkeypatch, n, chains, count):
    cfg = ChainConfig(n, seed=31, burn_in=20, thin=3)
    force_cpus(monkeypatch, {0})
    expected = list(iter_chains(cfg, chains, count))
    assert len(expected) == count
    per_chain = -(-count // chains)
    streams = -(-count // per_chain)
    fork = os.fork
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for cpus in CPU_SETS:
        forks.clear()
        force_cpus(monkeypatch, cpus)
        assert list(iter_chains(cfg, chains, count)) == expected
        # One group per usable CPU, at most one per stream; this process runs the first.
        assert len(forks) == min(len(cpus), streams) - 1
        assert_no_child_left()


@pytest.mark.parametrize("cpus", CPU_SETS)
def test_iter_chains_closed_early_leaves_no_child(monkeypatch, cpus):
    force_cpus(monkeypatch, cpus)
    it = iter_chains(ChainConfig(5, seed=2), 3, 300)
    assert next(it).n == 5
    it.close()
    assert_no_child_left()


@pytest.mark.parametrize("cpus", CPU_SETS)
def test_iter_chains_raises_when_a_chain_fails(monkeypatch, cpus):
    real = latinsq.chain.iter_samples

    def failing(config, count, rng):
        for k, state in enumerate(real(config, count, rng)):
            if k == 1 and rng.seed_seq.spawn_key == (1,):
                raise RuntimeError("chain 1 failed")
            yield state

    monkeypatch.setattr(latinsq.chain, "iter_samples", failing)
    force_cpus(monkeypatch, cpus)
    with pytest.raises(RuntimeError, match="chain 1 failed"):
        list(iter_chains(ChainConfig(3, seed=4, burn_in=5, thin=2), 3, 9))
    assert_no_child_left()


def test_iter_chains_raises_when_a_child_dies(monkeypatch):
    parent = os.getpid()
    real = latinsq.chain.iter_samples

    def dying(config, count, rng):
        if rng.seed_seq.spawn_key == (1,) and os.getpid() != parent:
            os._exit(3)  # dies without sending anything
        return real(config, count, rng)

    monkeypatch.setattr(latinsq.chain, "iter_samples", dying)
    force_cpus(monkeypatch, {0, 1})
    with pytest.raises(LatinSquareError, match="chains 1..1 died"):
        list(iter_chains(ChainConfig(3, seed=4, burn_in=5, thin=2), 2, 6))
    assert_no_child_left()


def test_iter_samples_streams_lazily():
    rng = RngStream(5)
    gen = iter_samples(ChainConfig(3, seed=5, burn_in=10, thin=2), 3, rng)
    assert rng._draws == {}  # nothing is drawn until the stream is first read
    first = next(gen)
    assert first.n == 3


def test_rng_stream_spawn_children_differ_and_reproduce():
    a1 = RngStream(7).spawn(2)
    a2 = RngStream(7).spawn(2)
    seq1 = [next(a1[0].draws(1000)) for _ in range(20)]
    seq2 = [next(a2[0].draws(1000)) for _ in range(20)]
    assert seq1 == seq2
    other = [next(a1[1].draws(1000)) for _ in range(20)]
    assert other != seq1


def test_rng_stream_draws_blocks_per_bound_in_request_order():
    # Each bound takes a 4096-value block from the one generator when its
    # last block runs out, whether read through a kept iterator or a fresh draws() call.
    r = RngStream(3)
    eights = r.draws(8)
    assert r.draws(8) is eights
    got8 = [next(eights) for _ in range(10)]
    got_wide = [next(r.draws(1000)) for _ in range(5000)]
    got8 += [next(eights) for _ in range(4100)]
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))

    def block(bound):
        return gen.integers(0, bound, size=4096, dtype=np.int64).tolist()

    want8, want_wide = block(8), block(1000)
    want_wide += block(1000)
    want8 += block(8)
    assert got8 == want8[:4110]
    assert got_wide == want_wide[:5000]


def test_fresh_walkers_sharing_a_stream_match_one_walker():
    # Each walker binds the stream's shared draw iterators, so a walk that
    # starts a fresh walker from its own square at every step draws what one
    # walker advanced step by step draws, and takes the same steps.
    for n, seed in ((3, 0), (4, 123), (5, 1), (8, 2), (12, 3)):
        shared, one = RngStream(seed), _Walker(cyclic_square(n), RngStream(seed))
        state = cyclic_square(n)
        for _ in range(100):
            fresh = _Walker(state, shared)
            assert fresh.advance(1) == one.advance(1)
            state = fresh.view()
            assert state == one.view()


def _check_walker_state(w):
    """The walker's grid, conjugate maps and improper pairs agree with its cube."""
    n = w.n
    state = w.view()
    assert validate(state) == []
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
    return w.view()


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
            assert w.view() == start
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
    assert a.view() == b.view()
