"""A stand-in for `RngStream` that feeds the walk scripted draws."""


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
