"""Ground-truth engines: exhaustive enumeration and full state-graph search.

These are deliberately independent of the constructive machinery so they can
verify it: squares are enumerated by cell-wise backtracking, and the move
graph is built on the signed incidence cube itself, held as two 64-bit
masks per state, with the move rule stated on those masks instead of
borrowed from `moves`; its vertices are found without following its
edges and are numbered by their +1 masks, the one identity a state has
there.  The tests check both against independent reference enumerations
(symbol-wise placement, improper-square completion), the graph's edges
against `moves` vertex by vertex, and the bit-parallel diameter probe
against plain breadth-first search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, permutations, product

from .core import ImproperCell, LatinSquareError, SquareState

ENUMERATION_LIMIT = 5
GRAPH_LIMIT = 4
# The state graph packs a state's signed incidence cube into uint64 masks,
# one bit per cube entry, so its orders need n**3 <= 64.
assert GRAPH_LIMIT**3 <= 64, "GRAPH_LIMIT exceeds the 64-bit cube masks of the state graph"

_BLOCK = 64  # states flipped at once: one array of _BLOCK rows, one column per move


class TooLarge(LatinSquareError):
    """Order exceeds the exhaustive-search limits."""


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
    """The move graph over all proper and improper squares of one order:
    vertex k is `states[k]`, with its neighbours, ascending, in `adjacency[k]`."""

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


def _move_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The +1 and the -1 positions of every canonical move, as cube masks.

    Bit (r*n + c)*n + s stands for the cube entry (r, c, s).  The move
    ((i,j;a),(i2,j2;b)) with i < i2, j < j2 and a != b adds +1 at
    (i,j,a), (i,j2,b), (i2,j,b), (i2,j2,a) and -1 at the other four
    corners of its 2 x 2 x 2 box.
    """
    import numpy as np

    def bit(r: int, c: int, s: int) -> int:
        return 1 << ((r * n + c) * n + s)

    plus, minus = [], []
    for i, i2 in combinations(range(n), 2):
        for j, j2 in combinations(range(n), 2):
            for a, b in permutations(range(n), 2):
                plus.append(bit(i, j, a) | bit(i, j2, b) | bit(i2, j, b) | bit(i2, j2, a))
                minus.append(bit(i, j, b) | bit(i, j2, a) | bit(i2, j, a) | bit(i2, j2, b))
    return np.array(plus, dtype=np.uint64), np.array(minus, dtype=np.uint64)


def _flips(
    pos: np.ndarray, neg: np.ndarray, plus: np.ndarray, minus: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every move on a block of states: validity and the resulting masks.

    ``pos`` and ``neg`` hold the +1 and the -1 entries of each state.  A
    move keeps every entry in {-1, 0, 1} when none of its +1s lands on a
    +1 and none of its -1s on a -1; its +1s cancel a -1 and its -1s cancel
    a +1, and the result is valid when at most one -1 is left.  Each
    output has one row per state and one column per move.
    """
    import numpy as np

    p, q = pos[:, None], neg[:, None]
    new_neg = (q & ~plus) | (minus & ~p)
    ok = ((plus & p) == 0) & ((minus & q) == 0) & ((new_neg & (new_neg - np.uint64(1))) == 0)
    return ok, (p & ~minus) | (plus & ~q), new_neg


def _states(n: int, plus: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masks of every valid state of order n <= 4, sorted by +1 mask.

    Every improper state is one move from a proper square:
    `normalize_to_proper` resolves it in at most floor((n-1)/2) moves, one
    when n <= 4, and a move's inverse is valid.  So one flip of every
    enumerated square finds them all.  The +1 mask alone fixes a valid
    state (the -1 sits where three lines of it hold two +1s), so states
    are told apart by it.
    """
    import numpy as np

    cells = np.array(_enumerate_grids(n), dtype=np.uint64).reshape(-1, n * n)
    proper = np.bitwise_or.reduce(np.uint64(1) << (np.arange(n * n, dtype=np.uint64) * np.uint64(n) + cells), axis=1)
    found_pos, found_neg = [proper], [np.zeros_like(proper)]
    for lo in range(0, proper.size, _BLOCK):
        block = proper[lo : lo + _BLOCK]
        ok, pos, neg = _flips(block, np.zeros_like(block), plus, minus)
        found_pos.append(pos[ok])
        found_neg.append(neg[ok])
    pos, first = np.unique(np.concatenate(found_pos), return_index=True)
    return pos, np.concatenate(found_neg)[first]


def _decode(n: int, pos: np.ndarray, neg: np.ndarray) -> list[SquareState]:
    """The states of cube masks; equal rows and equal records are shared objects."""
    import numpy as np

    low = (1 << n) - 1
    cells = ((pos[:, None] >> (np.arange(n * n, dtype=np.uint64) * np.uint64(n))) & np.uint64(low)).astype(np.uint8)
    smallest = np.array([max(0, (x & -x).bit_length() - 1) for x in range(low + 1)], dtype=np.uint8)
    # Each row as its index in `rows`, which lists every n-tuple over 0..n-1;
    # the grid holds the smaller positive at the improper cell.
    codes = smallest[cells].reshape(-1, n, n) @ n ** np.arange(n - 1, -1, -1)
    rows = list(product(range(n), repeat=n))
    records: dict[tuple[int, int], ImproperCell] = {}
    states = []
    for line_codes, p, q in zip(codes.tolist(), pos.tolist(), neg.tolist()):
        rec = None
        if q:
            at = q.bit_length() - 1
            cell, negative = divmod(at, n)
            content = (p >> (cell * n)) & low
            rec = records.get((at, content))
            if rec is None:
                pair = tuple(s for s in range(n) if content >> s & 1)
                rec = records[at, content] = ImproperCell(*divmod(cell, n), pair, negative)
        states.append(SquareState(tuple(map(rows.__getitem__, line_codes)), rec))
    return states


def build_state_graph(n: int) -> StateGraph:
    """The move graph on every proper and improper square of order n.

    A state is held as two bit masks over its signed incidence cube, one of
    its +1 entries and one of its -1 entry, so one array expression tests
    every move on a block of states (`_flips`).  The vertices are numbered
    in the order `_states` returns them, by +1 mask, and decoded once.  A
    blocked pass flips every vertex and finds each result's number by binary
    search among those sorted masks: a vertex lists the neighbours its own
    moves reach, and a move is fixed by the change it makes, so none is
    listed twice.  No vertex is found by
    following an edge, so a connected graph certifies that the moves
    connect every state of the order.
    """
    if not 2 <= n <= GRAPH_LIMIT:
        raise TooLarge(f"state graph is limited to 2 <= n <= {GRAPH_LIMIT}")
    import numpy as np

    plus, minus = _move_masks(n)
    pos, neg = _states(n, plus, minus)
    states = _decode(n, pos, neg)
    v = len(states)
    index = list(range(v))  # one int object per vertex, shared by every list naming it
    adjacency: list[list[int]] = []
    for lo in range(0, v, _BLOCK):
        ok, to, _ = _flips(pos[lo : lo + _BLOCK], neg[lo : lo + _BLOCK], plus, minus)
        vertex = np.nonzero(ok)[0]
        edges = np.sort(vertex * v + np.searchsorted(pos, to[ok])) - vertex * v
        nbrs = list(map(index.__getitem__, edges.tolist()))
        first = 0
        for end in np.cumsum(ok.sum(axis=1)).tolist():
            adjacency.append(nbrs[first:end])
            first = end
    return StateGraph(n, states, adjacency)


def check_connectivity_and_diameter(g: StateGraph) -> dict[str, int | bool]:
    """Connectivity plus the exact diameter (n <= 3) or a probed bound (n = 4).

    The probe runs breadth-first search from 32 vertices spread evenly over
    the vertex numbers; every reported eccentricity is a lower
    bound on the diameter and each must respect the 2(n-1)^3 ceiling.  The
    searches run together, one bit per seed: a vertex holds one uint64 word
    per 64 seeds, and a level ORs each vertex's neighbours' frontier words.
    The first seed, vertex 0, decides connectivity.
    """
    import numpy as np

    v = g.vertex_count
    exact = g.n <= 3
    seeds = np.arange(v) if exact else np.arange(0, v, max(1, v // 32))[:32]
    degree = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=v)
    nbrs = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=int(degree.sum()))
    # reduceat reads an empty segment as the element at its start (and past
    # the end for a last one), so only vertices with neighbours get one.
    linked = degree > 0
    starts = (np.cumsum(degree) - degree)[linked]
    seen = np.zeros((v, (seeds.size + 63) // 64), dtype=np.uint64)
    bits = np.arange(seeds.size)
    seen[seeds, bits // 64] = np.uint64(1) << (bits % 64).astype(np.uint64)
    frontier, diameter = seen, 0
    while True:
        reached = np.zeros_like(seen)
        if nbrs.size:
            reached[linked] = np.bitwise_or.reduceat(frontier[nbrs], starts, axis=0)
        frontier = reached & ~seen
        if not frontier.any():
            break
        seen |= frontier
        diameter += 1
    connected = bool(np.all(seen[:, 0] & np.uint64(1)))
    return {"connected": connected, "diameter": diameter, "exact": exact}
