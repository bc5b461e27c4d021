"""Statistical verification that sampled squares are uniformly distributed.

Small orders are tested exactly: one chi-square category per Latin square of
that order.  Larger orders fall back to a necessary condition, per-cell
symbol frequencies, which uniformity over squares forces to be flat by
symmetry.  Acceptance bands are central and two-sided, so both gross bias
and suspiciously-perfect regularity fail.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from scipy.stats import chi2

from .core import LatinSquareError, SquareState

ALPHA = 0.001  # total two-sided mass outside the acceptance band


class UnknownSquare(LatinSquareError):
    """A sample fell outside the declared universe."""


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
        return json.dumps(
            {
                "categories": self.categories,
                "samples": self.samples,
                "statistic": self.statistic,
                "dof": self.dof,
                "pass": self.passed,
            }
        )


def acceptance_band(dof: int, alpha: float = ALPHA) -> tuple[float, float]:
    """Central (1 - alpha) band of the chi-square distribution.

    With no degree of freedom (one category) the statistic is always 0.
    """
    if dof == 0:
        return 0.0, 0.0
    return float(chi2.ppf(alpha / 2, dof)), float(chi2.ppf(1 - alpha / 2, dof))


def pearson_statistic(observed: list[int], expected: float) -> float:
    return sum((o - expected) ** 2 / expected for o in observed)


def chi_square_uniformity(
    samples: list[SquareState], universe: list[SquareState]
) -> UniformityReport:
    """Exact-category goodness of fit against the full square list."""
    categories = len(universe)
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
    lo, hi = acceptance_band(dof)
    return UniformityReport(categories, len(samples), statistic, dof, lo <= statistic <= hi)


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
