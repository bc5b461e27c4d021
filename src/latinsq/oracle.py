"""Ground-truth engines: exhaustive enumeration and full state-graph search.

These are deliberately independent of the constructive machinery so they can
verify it: squares are enumerated by cell-wise backtracking and the move
graph by breadth-first closure.  The tests check both against independent
reference enumerations (symbol-wise placement, improper-square completion).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import LatinSquareError, SquareState, cyclic_square
from .moves import apply_move, enumerate_valid_moves

ENUMERATION_LIMIT = 5
GRAPH_LIMIT = 4


class TooLarge(LatinSquareError):
    """Order exceeds the exhaustive-search limits."""


def canonical_key(state: SquareState) -> bytes:
    """Collision-free byte encoding used for hashing states.

    Row-major symbol list; an improper square writes 255 at its cell and
    appends its cell record (row, col, sorted positive pair, negative) after
    a 255 marker.
    """
    out = bytearray(b"".join(map(bytes, state.grid)))
    rec = state.improper
    if rec is not None:
        out[rec.row * state.n + rec.col] = 255
        out.extend((255, rec.row, rec.col, *rec.positive_pair, rec.negative))
    return bytes(out)


@lru_cache(maxsize=None)
def _enumerate_grids(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All order-n Latin squares as grids, lexicographic row-major order.

    Cell-by-cell backtracking with row/column bitmasks, for 1 <= n <= ENUMERATION_LIMIT.
    """
    if n < 1:
        raise LatinSquareError("order must be at least 1")
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"enumeration is limited to n <= {ENUMERATION_LIMIT}")
    full = (1 << n) - 1
    grid = [[0] * n for _ in range(n)]
    col_used = [0] * n
    out: list[tuple[tuple[int, ...], ...]] = []

    def fill(r: int, c: int, row_used: int) -> None:
        if c == n:
            if r == n - 1:
                out.append(tuple(tuple(row) for row in grid))
            else:
                fill(r + 1, 0, 0)
            return
        avail = ~(row_used | col_used[c]) & full
        while avail:
            bit = avail & -avail
            avail ^= bit
            s = bit.bit_length() - 1
            grid[r][c] = s
            col_used[c] |= bit
            fill(r, c + 1, row_used | bit)
            col_used[c] ^= bit

    fill(0, 0, 0)
    return tuple(out)


def enumerate_latin_squares(n: int) -> list[SquareState]:
    """All Latin squares of order n <= 5, each once, lexicographic order."""
    return [SquareState(g) for g in _enumerate_grids(n)]


def count_latin_squares(n: int) -> int:
    return len(_enumerate_grids(n))


@dataclass
class StateGraph:
    """The move graph over all proper and improper squares of one order."""

    n: int
    states: list[SquareState]
    adjacency: list[list[int]]

    @property
    def vertex_count(self) -> int:
        return len(self.states)

    @property
    def proper_count(self) -> int:
        return sum(1 for s in self.states if s.is_proper)

    @property
    def improper_count(self) -> int:
        return sum(1 for s in self.states if not s.is_proper)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2


def build_state_graph(n: int) -> StateGraph:
    """Breadth-first closure of the move graph from the cyclic square.

    The vertex list ``states`` is the queue: the search walks it while
    appending each new state, keyed on the states themselves.  A vertex
    lists the neighbours its own moves reach; a move is fixed by the change
    it makes, so none is listed twice, and its inverse lists the edge from
    the other end.  Vertices are then renumbered in canonical-key order.
    """
    if not 2 <= n <= GRAPH_LIMIT:
        raise TooLarge(f"state graph is limited to 2 <= n <= {GRAPH_LIMIT}")
    start = cyclic_square(n)
    states = [start]
    found = {start: 0}
    nbrs: list[list[int]] = []
    for state in states:
        nbrs.append([])
        for m in enumerate_valid_moves(state):
            nxt = apply_move(state, m)
            j = found.get(nxt)
            if j is None:
                j = found[nxt] = len(states)
                states.append(nxt)
            nbrs[-1].append(j)

    order = sorted(range(len(states)), key=lambda i: canonical_key(states[i]))
    rank = sorted(range(len(order)), key=order.__getitem__)  # rank[order[i]] == i
    adjacency = [sorted(rank[j] for j in nbrs[i]) for i in order]
    return StateGraph(n, [states[i] for i in order], adjacency)


def _bfs_distances(g: StateGraph, source: int) -> list[int]:
    dist = [-1] * g.vertex_count
    dist[source] = 0
    queue = [source]
    for u in queue:  # grows as the search reaches vertices
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def check_connectivity_and_diameter(g: StateGraph) -> dict[str, int | bool]:
    """Connectivity plus the exact diameter (n <= 3) or a probed bound (n = 4).

    The probe runs full BFS from 32 vertices spread evenly over the
    canonical vertex order; every reported eccentricity is a lower bound on
    the diameter and each must respect the 2(n-1)^3 ceiling.
    """
    v = g.vertex_count
    exact = g.n <= 3
    seeds = range(v) if exact else range(0, v, max(1, v // 32))[:32]
    diameter = 0
    for s in seeds:
        dist = _bfs_distances(g, s)
        if s == 0:  # the first probe decides connectivity
            connected = -1 not in dist
        diameter = max(diameter, max(dist))
    return {"connected": connected, "diameter": diameter, "exact": exact}
