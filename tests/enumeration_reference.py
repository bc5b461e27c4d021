"""Reference enumerations that share no code with the library's oracle.

`enumerate_grids_by_symbol` lists the Latin squares of an order by placing
each symbol as a full rook placement, a strategy unrelated to the cell-wise
backtracking of `latinsq.oracle`; `enumerate_improper_squares` lists the
improper squares by direct completion search, independent of the move
machinery and of the state graph.  The tests check the library's
enumeration and state graph against both.  `bfs_distances` is a plain
queue-driven breadth-first search over a state graph's adjacency lists,
the reference for the library's bit-parallel diameter probe, and
`graph_from_lists` builds a hand-made state graph from neighbour lists.
`proper_row_cycles` splits the columns of a proper square into the cycles
of two rows, for the tests of `connect._cycle_swap`.  `reduced_form` names a
square's class for the exact uniformity test at order 5, and
`enumerate_reduced_grids` lists the classes for that test and for the
intercalate law at order 6.
"""

from __future__ import annotations

import numpy as np

from latinsq.core import ImproperCell, SquareState, cube_from_grid
from latinsq.oracle import GRAPH_LIMIT, StateGraph, TooLarge


def enumerate_grids_by_symbol(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All order-n Latin squares as grids, placed symbol by symbol.

    Symbol s is assigned a column for every row (a permutation avoiding the
    cells already taken by smaller symbols).  Output is sorted into the same
    lexicographic order as the cell-wise strategy.
    """
    full = (1 << n) - 1
    grid = [[-1] * n for _ in range(n)]
    taken_rows = [0] * n  # per row: bitmask of occupied columns
    out: list[tuple[tuple[int, ...], ...]] = []

    def place(sym: int, r: int, cols_used: int) -> None:
        if r == n:
            if sym == n - 1:
                out.append(tuple(tuple(row) for row in grid))
            else:
                place(sym + 1, 0, 0)
            return
        avail = ~(cols_used | taken_rows[r]) & full
        while avail:
            bit = avail & -avail
            avail ^= bit
            c = bit.bit_length() - 1
            grid[r][c] = sym
            taken_rows[r] |= bit
            place(sym, r + 1, cols_used | bit)
            taken_rows[r] ^= bit
            grid[r][c] = -1

    place(0, 0, 0)
    out.sort()
    return out


def enumerate_improper_squares(n: int) -> list[SquareState]:
    """All improper squares of order n, by direct completion search.

    For every choice of cell, positive pair and negative symbol, the rest of
    the grid is completed so that each row and column carries every symbol
    once, except that the negative symbol appears twice in the improper row
    and column.
    """
    if n > GRAPH_LIMIT:
        raise TooLarge(f"improper enumeration is limited to n <= {GRAPH_LIMIT}")
    results: list[SquareState] = []
    if n < 3:
        return results  # an improper cell needs three distinct symbols
    for r0 in range(n):
        for c0 in range(n):
            for neg in range(n):
                others = [s for s in range(n) if s != neg]
                for a_idx in range(len(others)):
                    for b_idx in range(a_idx + 1, len(others)):
                        pair = (others[a_idx], others[b_idx])
                        results.extend(_complete_improper(n, r0, c0, pair, neg))
    return results


def _complete_improper(
    n: int, r0: int, c0: int, pair: tuple[int, int], neg: int
) -> list[SquareState]:
    # Remaining multiset per line: every symbol once, the negative twice in
    # the improper row and column; the improper cell consumes its pair.
    row_need = [[1] * n for _ in range(n)]
    col_need = [[1] * n for _ in range(n)]
    row_need[r0][neg] = 2
    col_need[c0][neg] = 2
    for s in pair:
        row_need[r0][s] -= 1
        col_need[c0][s] -= 1
    cells = [(r, c) for r in range(n) for c in range(n) if (r, c) != (r0, c0)]
    grid = [[0] * n for _ in range(n)]
    found: list[SquareState] = []

    def fill(idx: int) -> None:
        if idx == len(cells):
            found.append(cube_from_grid(grid, ImproperCell(r0, c0, pair, neg)))
            return
        r, c = cells[idx]
        for s in range(n):
            if row_need[r][s] > 0 and col_need[c][s] > 0:
                row_need[r][s] -= 1
                col_need[c][s] -= 1
                grid[r][c] = s
                fill(idx + 1)
                row_need[r][s] += 1
                col_need[c][s] += 1

    fill(0)
    return found


def bfs_distances(g: StateGraph, source: int) -> list[int]:
    """Edge distance from ``source`` to every vertex, -1 where unreachable."""
    dist = [-1] * g.vertex_count
    dist[source] = 0
    queue = [source]
    for u in queue:  # grows as the search reaches vertices
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def graph_from_lists(n: int, g: StateGraph, adjacency: list[list[int]]) -> StateGraph:
    """A state graph of order n on the first len(adjacency) vertices of ``g``,
    with ``adjacency`` as its neighbour lists, stored in the graph's CSR form."""
    k = len(adjacency)
    offsets = np.cumsum([0, *map(len, adjacency)])
    nbrs = np.array([w for nbrs in adjacency for w in nbrs], dtype=np.intp)
    return StateGraph(n, g.pos[:k], g.neg[:k], offsets, nbrs)


def proper_row_cycles(state: SquareState, row_a: int, row_b: int) -> list[tuple[int, ...]]:
    """The columns of a proper square split into the cycles of two rows.

    Each cycle lists its columns in `connect._cycle_swap`'s walk order for rows
    (row_a, row_b), from its smallest column: from column c the walk goes to
    the column where row_a holds row_b's symbol at c.  The cycles are ordered
    by their smallest column; each has length >= 2.
    """
    top, bottom = state.grid[row_a], state.grid[row_b]
    cycles: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for c0 in range(state.n):
        if c0 in seen:
            continue
        cycle, c = [c0], top.index(bottom[c0])
        while c != c0:
            cycle.append(c)
            c = top.index(bottom[c])
        seen.update(cycle)
        cycles.append(tuple(cycle))
    return cycles


def reduced_form(grid: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The reduced square (row 0 and column 0 both 0..n-1) of a grid's class.

    The columns are permuted so that row 0 reads 0..n-1, then the rows are
    sorted, which puts column 0 in order.  Each reduced square of order n
    is reached from exactly n!(n-1)! squares, one per column permutation
    and permutation of rows 1..n-1, so uniform squares give uniform
    reduced squares.
    """
    column_of = sorted(range(len(grid)), key=grid[0].__getitem__)
    return tuple(sorted(tuple(map(row.__getitem__, column_of)) for row in grid))


def enumerate_reduced_grids(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All reduced Latin squares of order n (row 0 and column 0 both 0..n-1).

    Cell-by-cell backtracking over the cells off row 0 and column 0, in
    lexicographic order.  There are 9408 at order 6 (McKay & Wanless, "On
    the number of Latin squares", Ann. Combin. 9, 2005).
    """
    full = (1 << n) - 1
    grid = [[c if r == 0 else r if c == 0 else -1 for c in range(n)] for r in range(n)]
    row_used = [full] + [1 << r for r in range(1, n)]
    col_used = [full] + [1 << c for c in range(1, n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]
    out: list[tuple[tuple[int, ...], ...]] = []

    def fill(k: int) -> None:
        if k == len(cells):
            out.append(tuple(map(tuple, grid)))
            return
        r, c = cells[k]
        avail = ~(row_used[r] | col_used[c]) & full
        while avail:
            bit = avail & -avail
            avail ^= bit
            grid[r][c] = bit.bit_length() - 1
            row_used[r] |= bit
            col_used[c] |= bit
            fill(k + 1)
            row_used[r] ^= bit
            col_used[c] ^= bit

    fill(0)
    return out
