import random

import pytest

from cube_reference import is_valid_move
from enumeration_reference import bfs_distances, enumerate_grids_by_symbol, enumerate_improper_squares
from latinsq.core import validate
from latinsq.moves import apply_move, enumerate_valid_moves
from latinsq.oracle import (
    StateGraph,
    TooLarge,
    _enumerate_grids,
    build_state_graph,
    check_connectivity_and_diameter,
    count_latin_squares,
    enumerate_latin_squares,
)


@pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 12), (4, 576)])
def test_enumeration_counts(n, count):
    squares = enumerate_latin_squares(n)
    assert len(squares) == count
    assert count_latin_squares(n) == count
    grids = [sq.grid for sq in squares]
    assert grids == sorted(grids)  # lexicographic
    assert len(set(grids)) == count  # each exactly once


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_strategies_agree_full_lists(n):
    assert list(_enumerate_grids(n)) == enumerate_grids_by_symbol(n)


def test_enumeration_limits():
    with pytest.raises(TooLarge):
        enumerate_latin_squares(6)
    with pytest.raises(Exception):
        enumerate_latin_squares(0)


def test_graph_order_two():
    g = build_state_graph(2)
    assert g.proper_count == 2
    assert g.improper_count == 0
    assert g.edge_count == 1
    result = check_connectivity_and_diameter(g)
    assert result == {"connected": True, "diameter": 1, "exact": True}


def test_graph_order_three_structure(graph3):
    assert graph3.proper_count == len(enumerate_latin_squares(3))
    result = check_connectivity_and_diameter(graph3)
    assert result["connected"] and result["exact"]
    assert result["diameter"] <= 2 * (3 - 1) ** 3


def test_graph_vertices_all_valid(graph3):
    for state in graph3.states:
        assert validate(state) == []
        if state.improper is not None:
            rec = state.improper
            assert len({*rec.positive_pair, rec.negative}) == 3


def test_graph_vertex_set_matches_independent_enumeration(graph3, graph4):
    for g in (graph3, graph4):
        assert {s for s in g.states if s.is_proper} == set(enumerate_latin_squares(g.n))
        assert {s for s in g.states if not s.is_proper} == set(enumerate_improper_squares(g.n))


@pytest.mark.parametrize("n,improper", [(3, 36), (4, 2304)])
def test_graph_with_moves_on_two_rows_is_disconnected(n, improper, monkeypatch, capsys):
    # The vertex set does not come from the moves, so moves that cannot
    # connect the squares must give a disconnected graph, not a smaller
    # connected one.  The first C(n,2) n(n-1) masks are the moves on rows 0, 1.
    from math import comb

    from latinsq import oracle
    from latinsq.cli import main

    every_move = oracle._move_masks
    kept = comb(n, 2) * n * (n - 1)
    monkeypatch.setattr(oracle, "_move_masks", lambda n: tuple(m[:kept] for m in every_move(n)))
    g = build_state_graph(n)
    assert (g.proper_count, g.improper_count) == (count_latin_squares(n), improper)
    assert check_connectivity_and_diameter(g)["connected"] is False
    assert main(["graph", str(n)]) == 1
    assert capsys.readouterr().out.startswith(
        f"{count_latin_squares(n)} proper, {improper} improper, DISCONNECTED, "
    )


def test_graph_edges_symmetric_via_inverted_move(graph3, graph4):
    # The graph flips cube masks; `enumerate_valid_moves` and `apply_move`
    # work on the grid.  Every vertex of graph3, and a seeded sample of 500
    # of graph4's, must list exactly the states those two reach, and each
    # move's inverse must be valid from its end.
    for g, vertices in (
        (graph3, range(graph3.vertex_count)),
        (graph4, sorted(random.Random(18).sample(range(graph4.vertex_count), 500))),
    ):
        index = {s: k for k, s in enumerate(g.states)}
        for idx in vertices:
            state = g.states[idx]
            targets = []
            for m in enumerate_valid_moves(state):
                target = apply_move(state, m)
                targets.append(index[target])
                assert is_valid_move(target, m.inverted())
            assert g.adjacency[idx] == sorted(targets)


def _reference_probe(g):
    """The probe's result from one plain breadth-first search per seed."""
    v = g.vertex_count
    seeds = range(v) if g.n <= 3 else range(0, v, max(1, v // 32))[:32]
    dists = [bfs_distances(g, s) for s in seeds]
    return {"connected": -1 not in dists[0], "diameter": max(map(max, dists)), "exact": g.n <= 3}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_probe_matches_plain_bfs(n, request):
    g = build_state_graph(2) if n == 2 else request.getfixturevalue(f"graph{n}")
    assert check_connectivity_and_diameter(g) == _reference_probe(g)


@pytest.mark.parametrize(
    "n,adjacency",
    [
        (3, [[1], [0, 2], [1], [], [5], [4], []]),  # isolated vertices inside and last
        (3, [[], [2], [1, 3], [2], []]),  # vertex 0, the connectivity seed, isolated
        (4, [[1], [0], [], [4], [3], []]),  # probe mode, every vertex a seed at this size
    ],
)
def test_probe_reports_disconnected_graph(n, adjacency, graph3):
    g = StateGraph(n, graph3.states[: len(adjacency)], adjacency)
    result = check_connectivity_and_diameter(g)
    assert result == _reference_probe(g)
    assert result["connected"] is False


@pytest.mark.parametrize("name", ["graph3", "graph4"])
def test_graph_adjacency_lists_are_sets_and_symmetric(name, request):
    # The search lists each vertex's neighbours as its own moves find them,
    # with no edge set: no move may repeat a neighbour, and the inverse move
    # must list every edge from its other end.
    g = request.getfixturevalue(name)
    nbr_sets = [set(nbrs) for nbrs in g.adjacency]
    assert all(len(s) == len(nbrs) for s, nbrs in zip(nbr_sets, g.adjacency))
    assert all(u in nbr_sets[v] for u, s in enumerate(nbr_sets) for v in s)
    assert not any(u in s for u, s in enumerate(nbr_sets))


def test_graph_vertices_are_distinct_states(graph3, graph4):
    for g in (graph3, graph4):
        assert len(set(g.states)) == g.vertex_count


def test_graph_limits():
    with pytest.raises(TooLarge):
        build_state_graph(5)
    with pytest.raises(TooLarge):
        build_state_graph(1)


def test_improper_enumeration_small_orders():
    assert enumerate_improper_squares(2) == []
    assert len(enumerate_improper_squares(3)) == 54
    for state in enumerate_improper_squares(3):
        assert validate(state) == []


def test_transform_path_never_beats_bfs_distance(graph3):
    # The constructive path is an upper bound: its length is at least the
    # graph distance for every ordered pair of proper order-3 vertices.
    from latinsq.connect import transform_path

    proper_idx = [i for i, s in enumerate(graph3.states) if s.is_proper]
    for src in proper_idx:
        dist = bfs_distances(graph3, src)
        for dst in proper_idx:
            seq = transform_path(graph3.states[src], graph3.states[dst])
            assert len(seq) >= dist[dst]
            assert len(seq) <= 16

