"""Test helpers: scripted draws, checked walks, a lemma step on a board, every move of an order, a faulty board move."""

from itertools import combinations, permutations

from latinsq.chain import _Walker
from latinsq.connect import MoveSequence, _Board
from latinsq.core import validate
from latinsq.moves import IntercalateMove


class ScriptedDraws:
    """Each draw the walk takes, from any of its bounds, is the next of ``values``.

    Every draw must lie below the bound the walk asks for and, when
    ``bound`` is given, that bound must be ``bound``.  The walk binds one
    iterator per bound but draws lazily, so only a bound it draws from is
    checked.
    """

    def __init__(self, values, bound=None):
        self.values, self.bound = iter(values), bound

    def draws(self, bound):
        for v in self.values:
            assert self.bound in (None, bound)
            assert 0 <= v < bound
            yield v


def walk(start, rng):
    """The endless walk of one `_Walker` from ``start`` on ``rng``.

    Yields (state, move) after each raw step, the state checked by
    `validate`, the move read from the step's anchors.
    """
    w = _Walker(start, rng)
    while True:
        move = IntercalateMove.from_anchors(*w.advance(1))
        state = w.view()
        assert validate(state) == []
        yield state, move


def on_board(state, step, *args):
    """The path a lemma step of `connect` takes from ``state``.

    Builds a `_Board` of ``state``, runs ``step(board, *args)`` on it and
    returns the moves it took, from ``state`` to the board's end state.
    """
    board = _Board(state)
    step(board, *args)
    return MoveSequence(state, tuple(board.moves), board.state())


def canonical_moves(n):
    """Every canonical move of order n, in (i, i2, j, j2, a, b) order, then
    the four moves with one index at n, which no state of order n admits."""
    lines = range(n)
    moves = [
        IntercalateMove(i, j, a, i2, j2, b)
        for i, i2 in combinations(lines, 2)
        for j, j2 in combinations(lines, 2)
        for a, b in permutations(lines, 2)
    ]
    moves += [IntercalateMove(0, 0, 0, n, 1, 1), IntercalateMove(0, 0, 0, 1, n, 1)]
    return moves + [IntercalateMove(0, 0, n, 1, 1, 1), IntercalateMove(0, 0, 0, 1, 1, n)]


def faulty_take(before, move, fault):
    """A `_Board.take` that writes a faulty result where a board holding ``before`` takes ``move``.

    The first such call takes its move, then writes ``fault(state, move)`` of
    the true result over the board as a faulty move rule would: each row
    that differs as a new list, and the record.  Every other call takes its
    move as `_Board.take` does.  Returns the take and the list of the
    (board, move) pairs it wrote a fault after.
    """
    take, fired = _Board.take, []

    def faulty(board, m):
        hit = not fired and m == move and board.state() == before
        take(board, m)
        if hit:
            fired.append((board, m))
            bad = fault(board.state(), m)
            for r, line in enumerate(bad.grid):
                if tuple(board.grid[r]) != line:
                    board.grid[r] = list(line)
            board.improper = bad.improper

    return faulty, fired
