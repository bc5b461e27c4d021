"""The +/-1-move algebra on incidence cubes.

A move is the addition of an intercalate: a 2 x 2 x 2 alternating-sign flip
over two rows {i, i2}, two columns {j, j2} and two symbols {a, b}.  Writing it
as ((i,j;a),(i2,j2;b)), the flip adds

    +1 at (i,j,a), (i,j2,b), (i2,j,b), (i2,j2,a)
    -1 at (i,j,b), (i,j2,a), (i2,j,a), (i2,j2,b)

so line sums are conserved by construction.  A move is valid on a state when
every touched entry stays inside {-1, 0, 1} and the result has at most one
negative entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ImproperCell, LatinSquareError, SquareState


class InvalidMove(LatinSquareError):
    """Applying the move would leave the proper/improper state space."""


@dataclass(frozen=True)
class IntercalateMove:
    """One +/-1-move in canonical form: i < i2 and j < j2.

    The four equivalent namings of a flip are collapsed by `from_anchors`;
    the orientation lives in (a, b): a is the symbol incremented at
    (min row, min col).
    """

    i: int
    j: int
    a: int
    i2: int
    j2: int
    b: int

    def __post_init__(self) -> None:
        if not (self.i < self.i2 and self.j < self.j2):
            raise ValueError(f"move not in canonical form: {self!r}")
        if self.a == self.b:
            raise ValueError(f"move symbols must differ: {self!r}")
        if min(self.i, self.j, self.a, self.b) < 0:
            raise ValueError(f"move indices must be non-negative: {self!r}")

    @staticmethod
    def from_anchors(i: int, j: int, a: int, i2: int, j2: int, b: int) -> "IntercalateMove":
        """Normalize any of the four equivalent namings to canonical form.

        Swapping the two rows (or the two columns) of a naming exchanges the
        roles of a and b; swapping both leaves the symbols in place.
        """
        if i == i2 or j == j2 or a == b:
            raise ValueError(
                f"rows, columns and symbols must each differ: (({i},{j};{a}),({i2},{j2};{b}))"
            )
        if i > i2:
            i, i2 = i2, i
            a, b = b, a
        if j > j2:
            j, j2 = j2, j
            a, b = b, a
        return IntercalateMove(i, j, a, i2, j2, b)

    def inverted(self) -> "IntercalateMove":
        """The move undoing this one: symbols a and b exchanged."""
        return IntercalateMove(self.i, self.j, self.b, self.i2, self.j2, self.a)

    def plus_triples(self) -> tuple[tuple[int, int, int], ...]:
        return (
            (self.i, self.j, self.a),
            (self.i, self.j2, self.b),
            (self.i2, self.j, self.b),
            (self.i2, self.j2, self.a),
        )

    def minus_triples(self) -> tuple[tuple[int, int, int], ...]:
        return (
            (self.i, self.j, self.b),
            (self.i, self.j2, self.a),
            (self.i2, self.j, self.a),
            (self.i2, self.j2, self.b),
        )

    def text(self) -> str:
        """Wire form: six space-separated integers "i j a i2 j2 b"."""
        return f"{self.i} {self.j} {self.a} {self.i2} {self.j2} {self.b}"

    @staticmethod
    def parse(line: str) -> "IntercalateMove":
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"expected six integers, got {line!r}")
        i, j, a, i2, j2, b = (int(p) for p in parts)
        return IntercalateMove.from_anchors(i, j, a, i2, j2, b)


def invert_move(m: IntercalateMove) -> IntercalateMove:
    """Module-level alias for IntercalateMove.inverted."""
    return m.inverted()


def _flip_outcome(
    plus_entries: list[int], minus_entries: list[int], negatives_before: int
) -> tuple[bool, str, int]:
    """Shared validity logic on the eight touched entry values.

    Returns (ok, reason, new_negative_index) where new_negative_index is the
    position in minus_entries that becomes -1, or -1 if the result is proper.
    """
    for k, e in enumerate(plus_entries):
        if e > 0:
            return False, f"entry already 1 at +1 position {k}", -1
    new_neg = -1
    negatives = negatives_before
    for e in plus_entries:
        if e == -1:
            negatives -= 1
    for k, e in enumerate(minus_entries):
        if e < 0:
            return False, f"entry already -1 at -1 position {k}", -1
        if e == 0:
            negatives += 1
            new_neg = k
    if negatives > 1:
        return False, "result would have more than one negative cell", -1
    return True, "", new_neg


def _check_move(state: SquareState, m: IntercalateMove) -> tuple[bool, str, int]:
    n = state.n
    if max(m.i2, m.j2, m.a, m.b) >= n:
        return False, f"move indices exceed order {n}", -1
    data = state.cube.data
    plus = [int(data[t]) for t in m.plus_triples()]
    minus = [int(data[t]) for t in m.minus_triples()]
    return _flip_outcome(plus, minus, 0 if state.improper is None else 1)


def is_valid_move(state: SquareState, m: IntercalateMove) -> bool:
    """True iff apply_move would succeed; pure predicate."""
    return _check_move(state, m)[0]


def apply_move(state: SquareState, m: IntercalateMove) -> SquareState:
    """Add the move's intercalate to the state's cube.

    Fails atomically with InvalidMove when any entry would leave {-1,0,1} or
    a second negative cell would arise; the input state is never modified.
    """
    ok, reason, new_neg = _check_move(state, m)
    if not ok:
        raise InvalidMove(f"move ({m.text()}) invalid: {reason}")
    changes: dict[tuple[int, int, int], int] = {}
    data = state.cube.data
    for t in m.plus_triples():
        changes[t] = int(data[t]) + 1
    for t in m.minus_triples():
        changes[t] = int(data[t]) - 1
    cube = state.cube.with_changes(changes)
    if new_neg >= 0:
        r, c, s = m.minus_triples()[new_neg]
        pos = cube.positive_symbols(r, c)
        return SquareState(cube, ImproperCell(r, c, (pos[0], pos[1]), s))
    if state.improper is not None:
        old = (state.improper.row, state.improper.col, state.improper.negative)
        if old not in m.plus_triples():
            # Negative entry survives; the move may still have exchanged one
            # of the positive symbols at that cell, so rescan the pair.
            pos = cube.positive_symbols(old[0], old[1])
            return SquareState(cube, ImproperCell(old[0], old[1], (pos[0], pos[1]), old[2]))
    return SquareState(cube, None)


def enumerate_valid_moves(state: SquareState) -> list[IntercalateMove]:
    """All canonical moves valid on the state, ordered lexicographically
    by (i, i2, j, j2, a, b)."""
    n = state.n
    # Nested python lists make the 8-entry reads cheap; this is the hot loop
    # of the exhaustive graph search.
    cube = state.cube.data.tolist()
    had_neg = state.improper is not None
    out: list[IntercalateMove] = []
    for i in range(n - 1):
        ci = cube[i]
        for i2 in range(i + 1, n):
            ci2 = cube[i2]
            for j in range(n - 1):
                cij, ci2j = ci[j], ci2[j]
                for j2 in range(j + 1, n):
                    cij2, ci2j2 = ci[j2], ci2[j2]
                    for a in range(n):
                        for b in range(n):
                            if a == b:
                                continue
                            ok, _, _ = _flip_outcome(
                                [cij[a], cij2[b], ci2j[b], ci2j2[a]],
                                [cij[b], cij2[a], ci2j[a], ci2j2[b]],
                                1 if had_neg else 0,
                            )
                            if ok:
                                out.append(IntercalateMove(i, j, a, i2, j2, b))
    return out

