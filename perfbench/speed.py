"""Rescaling of measured times to a fixed interpreter speed.

On a machine whose cores are shared, the speed of one core drifts by tens of
percent over seconds, which swamps the differences the benchmark exists to
show.  While operations run, a SIGALRM handler times a fixed reference kernel
every `INTERVAL` seconds.  An operation's wall time, less the handler's own
time, is then multiplied by `NOMINAL_S` over the mean kernel time sampled
while the operation ran: the time it would have taken at the nominal speed.
The mean, not the median, because a slow spell slows the operation for its
whole length, however short.

The kernel is the benchmark's own code, but it runs in the program's process
and shares its caches, so a change that sweeps more memory can slow it too,
and the rescaling would then hide that part of the change.  perfbench/README.md
gives the one A/B check made of this.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

INTERVAL = 0.025
NOMINAL_S = 2.5e-4  # about the kernel's mean time on the 2-core Xeon VM the bounds were set on
MIN_SAMPLES = 5

_DATA = list(range(64))


def _step(data: list[int], i: int) -> int:
    a = data[i & 63]
    b = data[(i * 7) & 63]
    return a * b % 11 if a > b else (a + b) & 7


def reference_kernel() -> int:
    """Interpreter-bound work of fixed size: calls, indexing, integer arithmetic."""
    total = 0
    data = _DATA
    for i in range(1000):
        total += _step(data, i)
    return total


class SpeedProbe:
    """Context manager sampling the kernel's time on a timer while active."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        # Samples at both ends, so that even the shortest run has some.
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def rescale(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would have taken at the nominal speed."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        busy = sum(self.took[lo:hi])
        # A short interval borrows the nearest samples around it.
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if hi >= len(self.at) or (lo > 0 and t0 - self.at[lo - 1] <= self.at[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return (t1 - t0 - busy) * NOMINAL_S / statistics.fmean(self.took[lo:hi])

    def factor(self) -> float:
        """Mean kernel time over nominal: above 1 means the machine ran slow."""
        return statistics.fmean(self.took) / NOMINAL_S if self.took else float("nan")
