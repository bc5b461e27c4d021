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
import importlib.util
import itertools
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from cube_reference import IncidenceCube, is_valid_move, plus_triples
from enumeration_reference import (
    enumerate_grids_by_symbol,
    enumerate_improper_squares,
    enumerate_reduced_grids,
    proper_row_cycles,
    reduced_form,
)
from latinsq.chain import ChainConfig, RngStream, _Walker, iter_chains, iter_samples, sample
from latinsq.cli import format_square_text, main as cli_main
from latinsq.connect import (
    cycle_swap,
    fix_row,
    normalize_to_proper,
    swap_row_entries,
    transform_path,
)
from latinsq.core import cube_from_grid, cyclic_square, validate
from latinsq.moves import (
    IntercalateMove,
    InvalidMove,
    apply_move,
    enumerate_valid_moves,
)
from latinsq.oracle import (
    _enumerate_grids,
    build_state_graph,
    check_connectivity_and_diameter,
    count_latin_squares,
    enumerate_latin_squares,
)
from latinsq.stats import (
    acceptance_band,
    cell_symbol_frequency_test,
    chi_square_uniformity,
    pearson_statistic,
)
from scripted_draws import ScriptedDraws, walk

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
        # the vertex set is exactly the independently enumerated state set
        assert proper_ok and improper_ok
    acceptance_record("criterion 2: state graph connected for n=2,3,4", ok, "; ".join(details))


# sha256 of build_state_graph(4): each vertex's text record in vertex order,
# then each adjacency list.  A change to the moves, to the states or to the
# vertex order shows here.
GRAPH4_DIGEST = "638f089dcc11fdf021c0f5d132c77c83eab0ad1d7a9a6f48474d9066cbd7fa5d"


def test_state_graph_order_four_bytes_pinned(graph4):
    h = hashlib.sha256()
    for state in graph4.states:
        h.update(format_square_text(state).encode())
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
    longest = 0
    for a in squares3:
        for b in squares3:
            seq = transform_path(a, b)
            assert len(seq) <= 16
            assert seq.replay(check=True) == b
            longest = max(longest, len(seq))
            checked += 1
    worst[3] = longest

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
        steps = walk(cyclic_square(n), RngStream(CI_SEED + n))
        seen = 0
        while seen < 500:
            state, _ = next(steps)
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
        steps = walk(cyclic_square(n), RngStream(CI_SEED + 7 * n))
        while instances < 70 * (n - 4):
            state, _ = next(steps)
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
        a, b = find_row_cycles(state, sources[0])
        assert not (set(a) & set(b))
        assert len(a) + len(b) <= 3
        assert min(len(a), len(b)) <= 1


def test_criterion_6_enumeration_oracle(acceptance_record):
    expected = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
    for n in (1, 2, 3, 4):
        cellwise = list(_enumerate_grids(n))
        symbolwise = enumerate_grids_by_symbol(n)
        assert len(cellwise) == expected[n]
        assert cellwise == symbolwise
    count_cellwise = count_latin_squares(5)
    count_symbolwise = len(enumerate_grids_by_symbol(5))
    assert count_cellwise == count_symbolwise == expected[5]
    acceptance_record(
        "criterion 6: enumeration counts 1, 2, 12, 576, 161280 with agreeing strategies",
        True,
        "full lists compared for n<=4, counts for n=5",
    )


def test_criterion_7_uniformity(acceptance_record):
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


def test_uniformity_order_five_over_reduced_squares(acceptance_record):
    # Exact categories at n = 5 without 161,280 of them: a uniform square
    # has a uniform reduced form, one of 56, so 5600 samples give 100
    # expected per class.  The per-cell test at n >= 5 stays as it is.
    reduced = enumerate_reduced_grids(5)
    assert len(reduced) == 56
    counts = Counter(reduced_form(sq.grid) for sq in sample(ChainConfig(5, seed=CI_SEED), 5600))
    assert counts.keys() <= set(reduced)
    statistic = pearson_statistic([counts[g] for g in reduced], 100)
    lo, hi = acceptance_band(55)
    ok = lo <= statistic <= hi
    acceptance_record(
        "uniformity at n=5 over the 56 reduced squares within the central 99.9% band",
        ok,
        f"5600 samples, stat {statistic:.1f} dof 55, band {lo:.1f}-{hi:.1f}",
    )
    assert ok


# The intercalate counts of the 9408 reduced squares of order 6.
INTERCALATE_LAW_6 = {0: 40, 4: 1080, 5: 3240, 7: 1620, 9: 600, 11: 1080, 15: 1188, 19: 540, 27: 20}


def _intercalates(grid):
    """The number of 2 x 2 subsquares: row pairs and column pairs whose four cells hold two symbols."""
    pairs = list(itertools.combinations(range(len(grid)), 2))
    return sum(a[c] == b[d] and a[d] == b[c] for a, b in itertools.combinations(grid, 2) for c, d in pairs)


def test_intercalate_law_at_order_six(acceptance_record):
    # Row and column permutations keep the intercalate count, so under
    # uniform sampling its law is its law over the reduced squares, each
    # the form of as many squares as any other.
    reduced = enumerate_reduced_grids(6)
    law = Counter(map(_intercalates, reduced))
    assert len(reduced) == 9408 and law == INTERCALATE_LAW_6
    counts = Counter(_intercalates(sq.grid) for sq in sample(ChainConfig(6, seed=CI_SEED), 3000))
    assert counts.keys() <= law.keys()
    statistic = sum(pearson_statistic([counts[k]], 3000 * m / len(reduced)) for k, m in law.items())
    lo, hi = acceptance_band(len(law) - 1)
    ok = lo <= statistic <= hi
    acceptance_record(
        "intercalate count at n=6 follows its exact law within the central 99.9% band",
        ok,
        f"3000 samples, stat {statistic:.2f} dof {len(law) - 1}, band {lo:.2f}-{hi:.2f}",
    )
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
            if neg not in plus_triples(m):
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
            w = _Walker(state, ScriptedDraws([pick], bound=8))
            move = IntercalateMove.from_anchors(*w.advance(1))
            assert neg in plus_triples(move)
            assert validate(w.view()) == []
            checked += 1
    acceptance_record(
        "criterion 8 (chain variant): every possible walk step from an improper "
        "state cancels the -1 triple",
        True,
        f"{checked} (state, pick) pairs exhaustively",
    )


def test_walk_transition_matrix_exact_order_three(acceptance_record, graph3):
    # The walk's own transition matrix, built from the sampler's walker with
    # every pick scripted in turn: n^2 (n-1) equally likely picks from a proper
    # state, 8 from an improper one.
    n = 3
    index = {s: k for k, s in enumerate(graph3.states)}
    size = len(index)
    P = np.zeros((size, size))
    for k, state in enumerate(graph3.states):
        picks = n * n * (n - 1) if state.is_proper else 8
        for v in range(picks):
            w = _Walker(state, ScriptedDraws([v], bound=picks))
            w.advance(1)
            result = w.view()
            assert validate(result) == []
            P[k, index[result]] += 1.0 / picks
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


def _proper_visit_chain(graph):
    """Q: the walk read at proper visits only, over the graph's proper states,
    with the one-step matrix P, the proper mask and the pick counts K.

    K[u, v] counts the scripted picks of the sampler's walker that step from
    u to v, and P is K with each row divided by its state's picks.  A sample
    is the state at the thin-th proper visit, so samples form a Q^thin chain,
    with Q = P_pp + P_pi (I + P_ii + P_ii^2 + ...) P_ip; the excursion sum
    stops once the mass still improper is below 1e-15.
    """
    n = graph.n
    index = {s: k for k, s in enumerate(graph.states)}
    picks = [n * n * (n - 1) if s.is_proper else 8 for s in graph.states]
    rows, cols = [], []
    for k, state in enumerate(graph.states):
        for v in range(picks[k]):
            w = _Walker(state, ScriptedDraws([v], bound=picks[k]))
            w.advance(1)
            rows.append(k)
            cols.append(index[w.view()])
    K = sparse.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(len(index), len(index)))
    P = (sparse.diags(1.0 / np.array(picks)) @ K).tocsr()
    proper = np.array([s.is_proper for s in graph.states])
    pp, ii = np.flatnonzero(proper), np.flatnonzero(~proper)
    P_ii, P_ip = P[ii][:, ii], P[ii][:, pp].toarray()
    entered = P_ip.any(axis=0)  # proper states some improper state steps to
    X = P_ip[:, entered]
    excursion, improper_mass = X.copy(), X.sum(axis=1)
    while improper_mass.max() > 1e-15:
        X = P_ii @ X
        excursion += X
        improper_mass = P_ii @ improper_mass
    Q = P[pp][:, pp].toarray()
    Q[:, entered] += P[pp][:, ii] @ excursion
    return Q, P, proper, K


def _first_proper_visit_law(Q, P, proper, start, burn_in):
    """Law of the first proper visit after ``burn_in`` raw steps from ``start``.

    The raw steps push the law through P.  From a proper state the first
    proper visit is one Q step; from an improper one it is where the
    excursion ends, summed until the mass still improper is below 1e-15.
    """
    law = np.zeros(len(proper))
    law[start] = 1.0
    for _ in range(burn_in):
        law = P.T @ law
    pp, ii = np.flatnonzero(proper), np.flatnonzero(~proper)
    first, improper = law[pp] @ Q, law[ii]
    P_ii, P_ip = P[ii][:, ii], P[ii][:, pp]
    while improper.sum() > 1e-15:
        first += P_ip.T @ improper
        improper = P_ii.T @ improper
    return first


def test_proper_visit_chain_mixes_at_default_thin(acceptance_record, graph3, graph4):
    # The default thin, measured exactly: after ChainConfig(n).thin proper
    # visits every start is within 1e-6 of uniform in total variation.  So is
    # the first sample from the cyclic start at the default burn-in; at thin 1
    # it is not, however long the burn-in: an improper excursion size-biases
    # where the walk lands.
    details = []
    for graph in (graph3, graph4):
        n = graph.n
        Q, P, proper, K = _proper_visit_chain(graph)
        # k(u->v) = k(v->u) and k(u->u) = 0 in integers: a law proportional to
        # each state's picks is in detailed balance, so it is stationary.
        assert (K != K.T).nnz == 0 and not K.diagonal().any()
        # Connected over every state, and an edge joining two states at one
        # breadth-first depth from the cyclic square closes an odd cycle: the
        # walk is irreducible and aperiodic, so that law is its only limit.
        start = graph.states.index(cyclic_square(n))
        order, parent = sparse.csgraph.breadth_first_order(K, start)
        assert len(order) == K.shape[0]
        depth = np.zeros(len(order), dtype=np.int64)
        for v in order[1:]:
            depth[v] = depth[parent[v]] + 1
        u, v = K.nonzero()
        level_edges = int((depth[u] == depth[v]).sum()) // 2
        assert level_edges > 0
        assert np.abs(Q.sum(axis=1) - 1).max() < 1e-12
        assert np.abs(Q.sum(axis=0) - 1).max() < 1e-12  # doubly stochastic: uniform is stationary
        assert np.abs(Q - Q.T).max() < 1e-12  # reversible, so its spectrum is real
        tv = {}
        for t in (n * n, 2 * n * n, n**3):
            Qt = np.linalg.matrix_power(Q, t)
            tv[t] = 0.5 * np.abs(Qt - 1 / len(Q)).sum(axis=1).max()
        thin = ChainConfig(n).thin
        assert thin == 2 * n * n and tv[thin] <= 1e-6
        slem = np.sort(np.abs(np.linalg.eigvalsh(Q)))[-2]

        later = np.linalg.matrix_power(Q, thin - 1)
        first_tv, bias = {}, {}
        for burn_in in (0, n**3, 10 * n**3):
            first = _first_proper_visit_law(Q, P, proper, start, burn_in)
            first_tv[burn_in] = 0.5 * np.abs(first @ later - 1 / len(Q)).sum()
            bias[burn_in] = 0.5 * np.abs(first - 1 / len(Q)).sum()
        burn_in = ChainConfig(n).burn_in
        assert burn_in == n**3 and first_tv[burn_in] <= 1e-6
        details.append(
            f"n={n}: {K.nnz} ordered state pairs with symmetric pick counts, "
            + f"multiplicity at most {K.max()}, one component, {level_edges} edges within a BFS level; TV "
            + ", ".join(f"{tv[t]:.1e} at {t}" for t in tv)
            + f"; second-largest |eigenvalue| {slem:.3f}; first sample from the cyclic start: TV "
            + ", ".join(f"{first_tv[b]:.1e} at burn-in {b}" for b in first_tv)
            + "; at thin 1: TV " + ", ".join(f"{bias[b]:.2g} at burn-in {b}" for b in bias)
        )
    acceptance_record(
        "proper-visit chain at n=3,4: symmetric, connected, non-bipartite pick counts, doubly stochastic, "
        "within 1e-6 of uniform at thin 2n^2, and so is the first sample from the cyclic start at burn-in n^3",
        True,
        "; ".join(details),
    )


def test_default_burn_in_reaches_uniform_agreement_order_eight(acceptance_record):
    # A uniform square agrees with the cyclic start in n cells on average.  At
    # thin 1 the first sample is the first proper visit after the burn-in, so
    # over 400 chains its mean agreement must lie within 5 standard errors of
    # n at the default burn-in, and outside them with none.
    n, chains = 8, 400
    start = np.array(cyclic_square(n).grid)

    def agreement(burn_in):
        agree = np.array([
            (np.array(sample(ChainConfig(n, seed=seed, burn_in=burn_in, thin=1), 1)[0].grid) == start).sum()
            for seed in range(CI_SEED, CI_SEED + chains)
        ])
        return agree.mean(), agree.std(ddof=1) / chains**0.5

    (mean, se), (mean0, se0) = agreement(None), agreement(0)
    ok = abs(mean - n) <= 5 * se and abs(mean0 - n) > 5 * se0
    acceptance_record(
        "default burn-in at n=8: agreement with the cyclic start at its uniform mean n",
        ok,
        f"{chains} chains, first proper visit: {mean:.2f} +- {se:.2f} cells at burn-in "
        f"{ChainConfig(n).burn_in}, {mean0:.2f} +- {se0:.2f} at burn-in 0",
    )
    assert abs(mean - n) <= 5 * se
    assert abs(mean0 - n) > 5 * se0


def test_default_thin_exceeds_five_autocorrelation_times_order_eight(acceptance_record):
    # tau_int of each observable of evidence/thin_tau.py over every proper
    # visit after a burn-in of 10 n^3, the series its tau_int table reports.
    script = Path(__file__).parent.parent / "evidence" / "thin_tau.py"
    spec = importlib.util.spec_from_file_location("thin_tau", script)
    thin_tau = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(thin_tau)
    taus = thin_tau.measure((8, CI_SEED, 20000))["tau_int"]
    thin = ChainConfig(8).thin
    ok = all(thin >= 5 * tau for tau in taus.values())
    acceptance_record(
        "default thin at n=8: at least 5 integrated autocorrelation times of each observable",
        ok,
        f"thin {thin}, 20000 proper visits, tau_int " + ", ".join(f"{k} {v:.1f}" for k, v in taus.items()),
    )
    assert ok, taus


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
        manual.extend(iter_samples(cfg, 2, stream))
    ok = first == second and merged == manual
    acceptance_record(
        "criterion 9: byte-identical generation and stream-assignment equivalence",
        ok,
        f"{len(first.splitlines())} output lines compared",
    )
    assert first == second
    assert merged == manual
