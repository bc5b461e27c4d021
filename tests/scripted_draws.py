"""Helpers that drive the library in tests: scripted draws, checked walks, a lemma step on a board and a faulty board move."""

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


def faulty_take(at, fault):
    """A `_Board.take` whose ``at``-th call (counting from 1) writes a faulty result.

    That call takes its move, then writes ``fault(state, move)`` of the true
    result over the board as a faulty move rule would: each row that differs
    as a new list, and the record.  Returns the take and the list of moves
    it was called with.
    """
    take, calls = _Board.take, []

    def faulty(board, move):
        calls.append(move)
        take(board, move)
        if len(calls) == at:
            bad = fault(board.state(), move)
            for r, line in enumerate(bad.grid):
                if tuple(board.grid[r]) != line:
                    board.grid[r] = list(line)
            board.improper = bad.improper

    return faulty, calls
