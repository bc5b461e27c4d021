"""Ground-truth engines: exhaustive enumeration and full state-graph search.

These are deliberately independent of the constructive machinery so they can
verify it: squares are enumerated by cell-wise backtracking, and the move
graph is built on the signed incidence cube itself, each state held as two
masks, one of its +1 entries and one of its -1, with the move rule stated on
those masks (`_flips`) instead of borrowed from `moves`; its vertices are
found without following its edges, numbered by their +1 masks, the one
identity a state has there, and kept as arrays, decoded into states only
when read.  The tests check both against independent reference enumerations
(symbol-wise placement, improper-square completion), the graph's edges
against `moves` vertex by vertex, and the bit-parallel diameter probe
against plain breadth-first search.  The same cube rule, on two Python ints
of any order (`_encode`, `_move_bits`, `_flips`, `_decode`), is the check of
`connect.MoveSequence.replay`, independent of the path finder's `moves._flip`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, permutations
from operator import index

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


@dataclass(eq=False)
class StateGraph:
    """The move graph over all proper and improper squares of one order:
    vertex k has the cube masks `pos[k]` (its +1s) and `neg[k]` (its -1, or 0),
    ascending in `pos`, and its neighbours, ascending, in `nbrs[offsets[k]:
    offsets[k + 1]]`; `states` and `adjacency` decode these on first read."""

    n: int
    pos: np.ndarray
    neg: np.ndarray
    offsets: np.ndarray
    nbrs: np.ndarray

    @property
    def vertex_count(self) -> int:
        return len(self.pos)

    @property
    def proper_count(self) -> int:
        return int((self.neg == 0).sum())

    @property
    def improper_count(self) -> int:
        return self.vertex_count - self.proper_count

    @property
    def edge_count(self) -> int:
        return len(self.nbrs) // 2

    @cached_property
    def states(self) -> list[SquareState]:
        return [_decode(self.n, p, q) for p, q in zip(self.pos.tolist(), self.neg.tolist())]

    @cached_property
    def adjacency(self) -> list[list[int]]:
        flat, bounds = self.nbrs.tolist(), self.offsets.tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _move_bits(n: int, i: int, j: int, a: int, i2: int, j2: int, b: int) -> tuple[int, int]:
    """The +1 and the -1 positions of the move ((i,j;a),(i2,j2;b)) as cube masks.

    Bit (r*n + c)*n + s stands for the cube entry (r, c, s).  The move adds
    +1 at (i,j,a), (i,j2,b), (i2,j,b), (i2,j2,a) and -1 at the other four
    corners of its 2 x 2 x 2 box: row i2 takes the pattern of row i with
    the signs exchanged.  Each row's pattern is built small, at cell (i, j),
    and shifted there.  Every index must lie below n.
    """
    dj, di, at = (j2 - j) * n, (i2 - i) * n * n, (i * n + j) * n
    top, bottom = 1 << a | 1 << (dj + b), 1 << b | 1 << (dj + a)
    return (top | bottom << di) << at, (bottom | top << di) << at


def _move_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`_move_bits` of every canonical move (i < i2, j < j2, a != b), as two uint64 arrays."""
    import numpy as np

    lines = range(n)
    plus, minus = zip(
        *(
            _move_bits(n, i, j, a, i2, j2, b)
            for i, i2 in combinations(lines, 2)
            for j, j2 in combinations(lines, 2)
            for a, b in permutations(lines, 2)
        )
    )
    return np.array(plus, dtype=np.uint64), np.array(minus, dtype=np.uint64)


def _flips(pos, neg, plus, minus):
    """Moves on states: validity and the resulting masks.

    ``pos`` and ``neg`` hold the +1 and the -1 entries of a state, ``plus``
    and ``minus`` those of a move: Python ints, or uint64 arrays that
    broadcast, one row per state and one column per move.  A move keeps
    every entry in {-1, 0, 1} when none of its +1s lands on a +1 and none
    of its -1s on a -1; its +1s cancel a -1 and its -1s cancel a +1, and
    the result is valid when at most one -1 is left.  Line sums are
    conserved by construction, so from a valid state that is the whole rule.
    """
    new_neg = (neg & ~plus) | (minus & ~pos)
    ok = ((plus & pos) == 0) & ((minus & neg) == 0) & ((new_neg & (new_neg - 1)) == 0)
    return ok, (pos & ~minus) | (plus & ~neg), new_neg


def _states(n: int, plus: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masks of every valid state of order n <= 4, sorted by +1 mask.

    Every improper state is one move from a proper square: the two-row
    resolution of `connect` drives it proper in at most floor((n-1)/2)
    moves, one when n <= 4, and a move's inverse is valid.  So one flip of
    every enumerated square finds them all.  The +1 mask alone fixes a valid
    state (the -1 sits where three lines of it hold two +1s), so states
    are told apart by it.
    """
    import numpy as np

    cells = np.array(_enumerate_grids(n), dtype=np.uint64).reshape(-1, n * n)
    proper = np.bitwise_or.reduce(np.uint64(1) << (np.arange(n * n, dtype=np.uint64) * np.uint64(n) + cells), axis=1)
    found_pos, found_neg = [proper], [np.zeros_like(proper)]
    for lo in range(0, proper.size, _BLOCK):
        block = proper[lo : lo + _BLOCK]
        ok, pos, neg = _flips(block[:, None], np.zeros_like(block)[:, None], plus, minus)
        found_pos.append(pos[ok])
        found_neg.append(neg[ok])
    pos, first = np.unique(np.concatenate(found_pos), return_index=True)
    return pos, np.concatenate(found_neg)[first]


def _encode(state: SquareState) -> tuple[int, int]:
    """The cube masks of a valid state, as two ints: its +1 entries and its -1 entry, or 0."""
    n = state.n
    pos = sum(1 << (k + s) for k, s in zip(range(0, n**3, n), map(index, chain.from_iterable(state.grid))))
    neg, rec = 0, state.improper
    if rec is not None:
        cell = (rec.row * n + rec.col) * n
        pos |= 1 << (cell + index(rec.positive_pair[1]))
        neg = 1 << (cell + index(rec.negative))
    return pos, neg


def _decode(n: int, pos: int, neg: int) -> SquareState:
    """The state of cube masks: each cell shows its smallest +1 symbol, and the -1 names the record."""
    low = (1 << n) - 1
    cells = [(pos >> (cell * n)) & low for cell in range(n * n)]
    grid = tuple(tuple((x & -x).bit_length() - 1 for x in cells[r * n : r * n + n]) for r in range(n))
    rec = None
    if neg:
        cell, negative = divmod(neg.bit_length() - 1, n)
        pair = tuple(s for s in range(n) if cells[cell] >> s & 1)
        rec = ImproperCell(*divmod(cell, n), pair, negative)
    return SquareState(grid, rec)


def build_state_graph(n: int) -> StateGraph:
    """The move graph on every proper and improper square of order n.

    A state is held as two bit masks over its signed incidence cube, one of
    its +1 entries and one of its -1 entry, so one array expression tests
    every move on a block of states (`_flips`).  The vertices are numbered
    in the order `_states` returns them, by +1 mask.  A move's inverse swaps
    its +1 and -1 masks and takes its end back to its start, so a blocked
    pass flips every vertex by the moves with the smaller +1 mask only, finds
    each result's number by binary search among the sorted masks, and adds
    each edge with its mirror; one sort puts them in CSR order.  A move is
    fixed by the change it makes, so no edge is found twice.  No vertex is
    found by following an edge, so a connected graph certifies that the
    moves connect every state of the order.
    """
    if not 2 <= n <= GRAPH_LIMIT:
        raise TooLarge(f"state graph is limited to 2 <= n <= {GRAPH_LIMIT}")
    import numpy as np

    plus, minus = _move_masks(n)
    pos, neg = _states(n, plus, minus)
    one_way = plus < minus
    plus, minus = plus[one_way], minus[one_way]
    v = len(pos)
    edges = []
    for lo in range(0, v, _BLOCK):
        ok, to, _ = _flips(pos[lo : lo + _BLOCK, None], neg[lo : lo + _BLOCK, None], plus, minus)
        at = np.flatnonzero(ok)
        u, w = at // len(plus) + lo, np.searchsorted(pos, to.ravel()[at])
        edges += [u * v + w, w * v + u]
    tail, nbrs = np.divmod(np.sort(np.concatenate(edges)), v)
    return StateGraph(n, pos, neg, np.searchsorted(tail, np.arange(v + 1)), nbrs)


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
    nbrs, degree = g.nbrs, np.diff(g.offsets)
    # reduceat reads an empty segment as the element at its start (and past
    # the end for a last one), so only vertices with neighbours get one.
    linked = degree > 0
    starts = g.offsets[:-1][linked]
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
