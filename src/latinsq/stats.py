"""Statistical verification that sampled squares are uniformly distributed.

Small orders are tested exactly: one chi-square category per Latin square of
that order.  Larger orders fall back to a necessary condition, per-cell
symbol frequencies, which uniformity over squares forces to be flat by
symmetry.  Acceptance bands are central and two-sided, so both gross bias
and suspiciously-perfect regularity fail; at two categories, where the
statistic is a lattice, an exact binomial test judges instead.  The
integrated autocorrelation time measures how far apart a chain's samples
must be to count as independent.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass

from .core import LatinSquareError, SquareState

ALPHA = 0.001  # total two-sided mass outside the acceptance band
SOKAL_WINDOW = 5  # autocorrelation sums stop at the first lag M >= 5 tau_int(M)


class UnknownSquare(LatinSquareError):
    """A sample fell outside the declared universe, or the universe is empty."""


class InsufficientSamples(LatinSquareError):
    """Too few samples for the test's expected counts to be meaningful."""


@dataclass(frozen=True)
class UniformityReport:
    categories: int
    samples: int
    statistic: float
    dof: int
    passed: bool

    def to_json(self) -> str:
        fields = asdict(self)
        fields["pass"] = fields.pop("passed")
        return json.dumps(fields)


def acceptance_band(dof: int, alpha: float = ALPHA) -> tuple[float, float]:
    """Central (1 - alpha) band of the chi-square distribution.

    With no degree of freedom (one category) the statistic is always 0.
    The quantiles are chi2.ppf's own expression, 2 gammaincinv(dof/2, q):
    scipy.special, loaded only here, starts in a third of scipy.stats' time.
    """
    if dof == 0:
        return 0.0, 0.0
    from scipy.special import gammaincinv

    return tuple(float(2 * gammaincinv(dof / 2, q)) for q in (alpha / 2, 1 - alpha / 2))


def pearson_statistic(observed: list[int], expected: float) -> float:
    return sum((o - expected) ** 2 / expected for o in observed)


def chi_square_uniformity(
    samples: list[SquareState], universe: list[SquareState]
) -> UniformityReport:
    """Exact-category goodness of fit against the full square list."""
    categories = len(universe)
    if not categories:
        raise UnknownSquare("the universe is empty: there is no square to test against")
    if len(samples) < 10 * categories:
        raise InsufficientSamples(
            f"need at least {10 * categories} samples for {categories} categories, "
            f"got {len(samples)}"
        )
    index = {sq.grid: k for k, sq in enumerate(universe)}
    counts = [0] * categories
    for sq in samples:
        k = index.get(sq.grid)
        if k is None:
            raise UnknownSquare(f"sample outside the universe: {sq.grid}")
        counts[k] += 1
    expected = len(samples) / categories
    statistic = pearson_statistic(counts, expected)
    dof = categories - 1
    if dof == 1:
        # An exact 50/50 split reads 0, below the band: the statistic is a
        # lattice here, so the exact two-sided binomial test judges.
        from scipy.stats import binomtest

        passed = bool(binomtest(counts[0], len(samples)).pvalue >= ALPHA)
    else:
        lo, hi = acceptance_band(dof)
        passed = lo <= statistic <= hi
    return UniformityReport(categories, len(samples), statistic, dof, passed)


def cell_symbol_frequency_test(samples: list[SquareState], n: int) -> UniformityReport:
    """Per-cell symbol frequencies against uniform 1/n, Bonferroni corrected.

    Uniformity over squares implies each cell's symbol is uniform (the square
    set is closed under symbol permutation), so this is a necessary-condition
    proxy when full enumeration is out of reach.  Reports the worst cell's
    statistic; passes only if every one of the n^2 cells sits inside its
    corrected band.
    """
    if len(samples) < 10 * n:
        raise InsufficientSamples(f"need at least {10 * n} samples, got {len(samples)}")
    counters: list[list[Counter]] = [[Counter() for _ in range(n)] for _ in range(n)]
    for sq in samples:
        if sq.n != n:
            raise UnknownSquare(f"sample of order {sq.n} in an order-{n} test")
        for r, row in enumerate(sq.grid):
            for c, s in enumerate(row):
                counters[r][c][s] += 1
    expected = len(samples) / n
    dof = n - 1
    lo, hi = acceptance_band(dof, ALPHA / (n * n))
    worst = 0.0
    all_ok = True
    for r in range(n):
        for c in range(n):
            observed = [counters[r][c][s] for s in range(n)]
            stat = pearson_statistic(observed, expected)
            worst = max(worst, stat)
            if not lo <= stat <= hi:
                all_ok = False
    return UniformityReport(n, len(samples), worst, dof, all_ok)


def autocorrelation_time(series) -> tuple[float, float]:
    """Integrated autocorrelation time and effective sample size of a series.

    tau_int = 1 + 2 (rho(1) + ... + rho(M)), summed up to Sokal's
    self-consistent window, the first lag M with M >= 5 tau_int(M); an
    independent series reads about 1.  The effective sample size is
    N / tau_int.  Autocorrelations come from one FFT, O(N log N).
    """
    import numpy as np

    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise InsufficientSamples(f"need a series of at least 2 values, got shape {x.shape}")
    x = x - x.mean()
    f = np.fft.rfft(x, 2 * len(x))
    acov = np.fft.irfft(f * f.conjugate())[: len(x)]
    if acov[0] <= 0:
        raise InsufficientSamples("a constant series has no autocorrelation time")
    taus = 2 * np.cumsum(acov / acov[0]) - 1  # taus[M] = tau_int summed to lag M
    window = np.arange(len(x)) >= SOKAL_WINDOW * taus
    tau = float(taus[np.argmax(window)] if window.any() else taus[-1])
    return tau, len(x) / tau
