"""Helpers that run the sampler's walker in tests: scripted draws and checked walks."""

from latinsq.chain import _Walker
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
