"""Acceptance gate: one test per criterion, each reporting a PASS/FAIL line.

Criterion 8's final clause ("improper-state moves always cancel the -1
triple") is checked verbatim and fails: a valid move may flip a clean
intercalate of an improper square without touching its negative cell.  See
tests/test_moves.py::test_noncancelling_valid_move_exists_at_order_three for
the pinned counterexample; the other clauses hold exhaustively, as do the
true variants (a cancelling move always exists, and the walk's own steps
always cancel).
"""

import hashlib
import time

import numpy as np
import pytest

from cube_reference import IncidenceCube
from latinsq.chain import ChainConfig, RngStream, iter_chains, sample, step
from latinsq.cli import main as cli_main
from latinsq.connect import (
    cycle_swap,
    fix_row,
    normalize_to_proper,
    proper_row_cycles,
    swap_row_entries,
    transform_path,
)
from latinsq.core import cube_from_grid, cyclic_square, validate
from latinsq.moves import (
    IntercalateMove,
    InvalidMove,
    apply_move,
    enumerate_valid_moves,
    is_valid_move,
)
from latinsq.oracle import (
    _enumerate_grids,
    _enumerate_grids_by_symbol,
    build_state_graph,
    canonical_key,
    check_connectivity_and_diameter,
    count_latin_squares,
    enumerate_improper_squares,
    enumerate_latin_squares,
)
from latinsq.stats import cell_symbol_frequency_test, chi_square_uniformity
from scripted_draws import ScriptedDraws

from conftest import EX_PROPER_GRID

CI_SEED = 20260810


def _state(square):
    return cube_from_grid([list(r) for r in square.grid])


def _random_states(n, seed, count):
    cfg = ChainConfig(n, seed=seed, burn_in=20 * n * n, thin=n * n)
    return [_state(sq) for sq in sample(cfg, count)]


def test_criterion_1_paper_fixture(acceptance_record, ex_improper, ex_proper):
    move = IntercalateMove.from_anchors(0, 1, 0, 2, 3, 1)
    t0 = time.perf_counter()
    result = apply_move(ex_improper, move)
    elapsed = time.perf_counter() - t0
    ok = result == ex_proper and elapsed < 1e-3
    acceptance_record(
        "criterion 1: fixture square + ((0,1;0),(2,3;1)) reproduces its proper partner",
        ok,
        f"exact equality, {elapsed * 1e6:.0f}us",
    )
    assert result == ex_proper
    assert result.grid == tuple(tuple(r) for r in EX_PROPER_GRID)
    assert elapsed < 1e-3


def test_criterion_2_connectivity(acceptance_record, graph3, graph4):
    details = []
    ok = True
    for n, graph in ((2, build_state_graph(2)), (3, graph3), (4, graph4)):
        result = check_connectivity_and_diameter(graph)
        proper_ok = graph.proper_count == count_latin_squares(n)
        improper_ok = graph.improper_count == len(enumerate_improper_squares(n))
        ok = ok and result["connected"] and proper_ok and improper_ok
        details.append(
            f"n={n}: {graph.proper_count}+{graph.improper_count} vertices, connected"
        )
        assert result["connected"]
        # the BFS closure covers exactly the independently enumerated state set
        assert proper_ok and improper_ok
    acceptance_record("criterion 2: state graph connected for n=2,3,4", ok, "; ".join(details))


# sha256 of build_state_graph(4): each vertex's canonical key in vertex order,
# then each adjacency list.  A change to the moves, to the keys or to the
# vertex order shows here.
GRAPH4_DIGEST = "cdf8c37e81b52d6645a97a03cc2d23500c341700c43db442c5a87d71ab66e865"


def test_state_graph_order_four_bytes_pinned(graph4):
    h = hashlib.sha256()
    for state in graph4.states:
        key = canonical_key(state)
        h.update(bytes([len(key)]) + key)
    for nbrs in graph4.adjacency:
        h.update((" ".join(map(str, nbrs)) + "\n").encode())
    assert h.hexdigest() == GRAPH4_DIGEST


def test_criterion_3_diameter_bounds(acceptance_record, graph3, graph4):
    r2 = check_connectivity_and_diameter(build_state_graph(2))
    r3 = check_connectivity_and_diameter(graph3)
    r4 = check_connectivity_and_diameter(graph4)
    ok = (
        r2["exact"] and r2["diameter"] <= 2
        and r3["exact"] and r3["diameter"] <= 16
        and r4["diameter"] <= 54
    )
    acceptance_record(
        "criterion 3: diameters within 2(n-1)^3",
        ok,
        f"n=2 exact {r2['diameter']}<=2, n=3 exact {r3['diameter']}<=16, "
        f"n=4 probed {r4['diameter']}<=54",
    )
    assert r2["diameter"] <= 2 and r3["diameter"] <= 16 and r4["diameter"] <= 54


def test_criterion_4_constructive_path_bounds(acceptance_record):
    checked = 0
    worst = {}
    squares3 = [_state(sq) for sq in enumerate_latin_squares(3)]
    for a in squares3:
        for b in squares3:
            seq = transform_path(a, b)
            assert len(seq) <= 16
            assert seq.replay(check=True) == b
            checked += 1
    worst[3] = 16

    for n in (4, 5, 6, 7, 8):
        bound = 2 * (n - 1) ** 3
        row_budget = 2 * (n - 1) ** 2
        states = _random_states(n, seed=CI_SEED + n, count=200)
        longest = 0
        for k in range(100):
            a, b = states[2 * k], states[2 * k + 1]
            seq = transform_path(a, b)
            assert len(seq) <= bound
            assert seq.replay(check=True) == b
            state = a
            for row in range(n - 1):
                row_moves = fix_row(state, b, row)
                state = row_moves.end
                assert len(row_moves) <= row_budget
            assert state == b
            longest = max(longest, len(seq))
            checked += 1
        worst[n] = longest
    acceptance_record(
        "criterion 4: transform_path bounds and validity",
        True,
        f"{checked} pairs; longest per order {worst}",
    )


def test_criterion_5_lemma_level_counts(acceptance_record, graph3):
    # normalize_to_proper: exhaustive at n=3, sampled at n=5..8
    improper3 = [s for s in graph3.states if not s.is_proper]
    for state in improper3:
        seq = normalize_to_proper(state)
        result = seq.end
        assert result.is_proper and len(seq) <= 1
        assert len({r for m in seq.moves for r in (m.i, m.i2)}) <= 2
    sampled = 0
    for n in (5, 6, 7, 8):
        rng = RngStream(CI_SEED + n)
        state = cyclic_square(n)
        seen = 0
        while seen < 500:
            state, _ = step(state, rng)
            if state.improper is None:
                continue
            seen += 1
            seq = normalize_to_proper(state)
            result = seq.end
            assert result.is_proper
            assert len(seq) <= (n - 1) // 2
            assert len({r for m in seq.moves for r in (m.i, m.i2)}) <= 2
        sampled += seen

    # cycle_swap: exactly r-1 moves, off-cycle cells untouched
    cycles_checked = 0
    for n in (4, 6, 8):
        for k in range(20):
            (a,) = _random_states(n, seed=CI_SEED + 31 * n + k, count=1)
            for rows in ((0, 1), (1, n - 1)):
                for cycle in proper_row_cycles(a, *rows):
                    seq = cycle_swap(a, rows, cycle[0])
                    result = seq.end
                    assert len(seq) == len(cycle) - 1
                    diff = np.argwhere(IncidenceCube.of(result).data != IncidenceCube.of(a).data)
                    cells = {(int(r), int(c)) for r, c, _ in diff}
                    assert cells <= {(r, c) for r in rows for c in cycle}
                    cycles_checked += 1
            if cycles_checked >= 100:
                break
        if cycles_checked >= 100:
            break

    # swap_row_entries: move bound and the two-cell row contract
    instances = 0
    for n in (5, 6, 7):
        rng = RngStream(CI_SEED + 7 * n)
        state = cyclic_square(n)
        while instances < 70 * (n - 4):
            state, _ = step(state, rng)
            rec = state.improper
            if rec is None:
                continue
            j1 = rec.col
            before = IncidenceCube.of(state)
            rows_i1 = [r for r in before.rows_with(j1, rec.negative) if r != rec.row]
            i1 = rows_i1[0]
            j2 = (j1 + 1 + instances) % n
            if j2 == j1:
                j2 = (j2 + 1) % n
            t = before.symbol_at(i1, j2)
            seq = swap_row_entries(state, i1, j1, j2)
            result = seq.end
            after = IncidenceCube.of(result)
            assert len(seq) <= 2 * (n - 1)
            assert after.symbol_at(i1, j1) == t
            assert after.symbol_at(i1, j2) == rec.negative
            for c in range(n):
                if c not in (j1, j2):
                    assert np.array_equal(after.data[i1, c], before.data[i1, c])
            instances += 1
    acceptance_record(
        "criterion 5: two-row resolution, cycle switch and row-swap move budgets",
        True,
        f"{len(improper3)} exhaustive + {sampled} sampled resolutions, "
        f"{cycles_checked} cycles, {instances} row swaps",
    )
    assert instances >= 200 and cycles_checked >= 100 and sampled >= 2000


def test_graph4_states_valid_and_row_cycles_bounded(graph4):
    # Supporting sweep over the full n=4 state set: every vertex validates,
    # improper-cell symbols are pairwise distinct, and the two chains rooted
    # at each improper cell are column-disjoint with bounded total length.
    from latinsq.connect import find_row_cycles

    for state in graph4.states:
        assert validate(state) == []
        rec = state.improper
        if rec is None:
            continue
        assert len({*rec.positive_pair, rec.negative}) == 3
        sources = [r for r in IncidenceCube.of(state).rows_with(rec.col, rec.negative) if r != rec.row]
        assert len(sources) == 2
        a, b = find_row_cycles(state, rec.row, sources[0], rec.col)
        assert not (set(a) & set(b))
        assert len(a) + len(b) <= 3
        assert min(len(a), len(b)) <= 1


def test_criterion_6_enumeration_oracle(acceptance_record):
    expected = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
    for n in (1, 2, 3, 4):
        cellwise = list(_enumerate_grids(n))
        symbolwise = _enumerate_grids_by_symbol(n)
        assert len(cellwise) == expected[n]
        assert cellwise == symbolwise
    count_cellwise = count_latin_squares(5)
    count_symbolwise = len(_enumerate_grids_by_symbol(5))
    assert count_cellwise == count_symbolwise == expected[5]
    acceptance_record(
        "criterion 6: enumeration counts 1, 2, 12, 576, 161280 with agreeing strategies",
        True,
        "full lists compared for n<=4, counts for n=5",
    )


def test_criterion_7_uniformity(acceptance_record):
    from collections import Counter

    reports = []
    samples3 = sample(ChainConfig(3, seed=CI_SEED, burn_in=1000, thin=27), 12000)
    universe3 = enumerate_latin_squares(3)
    rep3 = chi_square_uniformity(samples3, universe3)
    reports.append(f"n=3 stat {rep3.statistic:.1f} dof 11 pass {rep3.passed}")
    # every square appears, with counts within 5 sigma of the multinomial mean
    counts3 = Counter(sq.grid for sq in samples3)
    assert len(counts3) == 12
    sigma = (12000 * (1 / 12) * (11 / 12)) ** 0.5
    assert all(abs(c - 1000) <= 5 * sigma for c in counts3.values())

    samples4 = sample(ChainConfig(4, seed=CI_SEED), 57600)  # default burn-in/thin
    rep4 = chi_square_uniformity(samples4, enumerate_latin_squares(4))
    reports.append(f"n=4 stat {rep4.statistic:.1f} dof 575 pass {rep4.passed}")

    samples8 = sample(ChainConfig(8, seed=CI_SEED, burn_in=2000, thin=64), 10000)
    rep8 = cell_symbol_frequency_test(samples8, 8)
    reports.append(f"n=8 worst-cell stat {rep8.statistic:.1f} pass {rep8.passed}")

    ok = rep3.passed and rep4.passed and rep8.passed
    acceptance_record("criterion 7: uniformity within central 99.9% bands", ok, "; ".join(reports))
    assert ok


def test_parallel_chains_pass_uniformity_order_four():
    # Same total count split across four chains also passes the exact test.
    cfg = ChainConfig(4, seed=CI_SEED + 1)
    merged = list(iter_chains(cfg, 4, 4 * 14400))
    report = chi_square_uniformity(merged, enumerate_latin_squares(4))
    assert report.samples == 57600
    assert report.passed


def test_criterion_8_move_algebra(acceptance_record, graph3):
    checked = 0
    for state in graph3.states:
        for i in range(2):
            for i2 in range(i + 1, 3):
                for j in range(2):
                    for j2 in range(j + 1, 3):
                        for a in range(3):
                            for b in range(3):
                                if a == b:
                                    continue
                                m = IntercalateMove(i, j, a, i2, j2, b)
                                valid = is_valid_move(state, m)
                                try:
                                    result = apply_move(state, m)
                                    applied = True
                                except InvalidMove:
                                    applied = False
                                assert valid == applied
                                if applied:
                                    assert apply_move(result, m.inverted()) == state
                                    data = IncidenceCube.of(result).data
                                    assert np.all(data.sum(axis=0) == 1)
                                    assert np.all(data.sum(axis=1) == 1)
                                    assert np.all(data.sum(axis=2) == 1)
                                checked += 1
    acceptance_record(
        "criterion 8: move algebra (validity equivalence, inversion, line sums)",
        True,
        f"{checked} (state, move) pairs exhaustively",
    )


def test_criterion_8_improper_moves_cancel_negative(acceptance_record, graph3):
    # Contract under test: every valid move on an improper n=3 state includes
    # the negative triple in its +1 set.  False for +/-1-moves as defined
    # here (a clean intercalate flip can avoid the negative cell); the
    # failure is the honest outcome, counterexample in the report line.
    counterexample = None
    for state in graph3.states:
        if state.is_proper:
            continue
        rec = state.improper
        neg = (rec.row, rec.col, rec.negative)
        for m in enumerate_valid_moves(state):
            if neg not in m.plus_triples():
                counterexample = (state.grid, rec, m.text())
                break
        if counterexample:
            break
    acceptance_record(
        "criterion 8 (final clause): improper-state moves always cancel the -1 triple",
        counterexample is None,
        "holds" if counterexample is None else f"counterexample {counterexample}",
    )
    assert counterexample is None, (
        "valid non-cancelling move exists (clean intercalate flip on an "
        f"improper square): state grid {counterexample[0]}, improper cell "
        f"{counterexample[1]}, move {counterexample[2]}"
    )


def test_criterion_8_chain_steps_cancel_negative(acceptance_record, graph3):
    # The true variant of the clause above: every step the walk can take
    # from an improper state cancels the negative triple (all 8 picks,
    # exhaustively over the n=3 improper states).
    checked = 0
    for state in graph3.states:
        if state.is_proper:
            continue
        rec = state.improper
        neg = (rec.row, rec.col, rec.negative)
        for pick in range(8):
            result, move = step(state, ScriptedDraws([pick], bound=8))
            assert neg in move.plus_triples()
            assert validate(result) == []
            checked += 1
    acceptance_record(
        "criterion 8 (chain variant): every possible walk step from an improper "
        "state cancels the -1 triple",
        True,
        f"{checked} (state, pick) pairs exhaustively",
    )


def test_walk_transition_matrix_exact_order_three(acceptance_record, graph3):
    # The walk's own transition matrix, built from the public step with every
    # pick scripted in turn: n^2 (n-1) equally likely picks from a proper
    # state, 8 from an improper one.
    n = 3
    index = {canonical_key(s): k for k, s in enumerate(graph3.states)}
    size = len(index)
    P = np.zeros((size, size))
    for k, state in enumerate(graph3.states):
        picks = n * n * (n - 1) if state.is_proper else 8
        for v in range(picks):
            result, _ = step(state, ScriptedDraws([v], bound=picks))
            P[k, index[canonical_key(result)]] += 1.0 / picks
    assert np.allclose(P.sum(axis=1), 1.0)

    # Irreducible and aperiodic together: some power of the support is all
    # positive; for a primitive N x N matrix every power from (N-1)^2 + 1
    # (Wielandt's bound) is, so squaring past it decides both.
    support = (P > 0).astype(np.int64)
    power = 1
    while power <= (size - 1) ** 2 + 1:
        support = (support @ support > 0).astype(np.int64)
        power *= 2
    assert support.all()

    # Stationary law: pi P = pi, sum pi = 1.
    A = np.vstack([P.T - np.eye(size), np.ones(size)])
    b = np.zeros(size + 1)
    b[-1] = 1.0
    pi = np.linalg.lstsq(A, b, rcond=None)[0]
    proper = np.array([s.is_proper for s in graph3.states])
    assert proper.sum() == 12
    proper_mass = pi[proper].sum()
    spread = np.abs(pi[proper] / (proper_mass / 12) - 1).max()
    assert abs(proper_mass - 1 / 3) < 1e-12
    assert spread < 1e-12
    slem = np.sort(np.abs(np.linalg.eigvals(P)))[-2]
    acceptance_record(
        "walk transition matrix at n=3: irreducible, aperiodic, uniform on proper squares",
        True,
        f"{size} states, proper mass {proper_mass:.15f}, relative spread {spread:.1e}, "
        f"second-largest |eigenvalue| {slem:.4f}",
    )


def test_criterion_9_determinism(acceptance_record, capsys):
    argv = ["gen", "4", "--seed", "77", "--samples", "6", "--chains", "3",
            "--burn-in", "100", "--thin", "8"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out

    cfg = ChainConfig(4, seed=77, burn_in=100, thin=8)
    merged = list(iter_chains(cfg, 3, 3 * 2))
    manual = []
    for stream in RngStream(77).spawn(3):
        manual.extend(sample(cfg, 2, stream))
    ok = first == second and merged == manual
    acceptance_record(
        "criterion 9: byte-identical generation and stream-assignment equivalence",
        ok,
        f"{len(first.splitlines())} output lines compared",
    )
    assert first == second
    assert merged == manual
