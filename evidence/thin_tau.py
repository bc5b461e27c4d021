"""Integrated autocorrelation times of the proper-visit chain, and the default thin against them.

For each order n and seed s, one chain runs as the sampler runs it,
``iter_chains(ChainConfig(n, seed=s, burn_in=10 * n**3, thin=1), 1, T)``,
and six observables are read at every proper visit:

- ``cell00``: cell (0, 0) holds 0;
- ``cyclic_agree``: cells agreeing with the cyclic square;
- ``diag0``: cells of the diagonal holding 0;
- ``intercalates``: the number of 2 x 2 subsquares;
- ``row0_col0``: positions k where row 0 and column 0 agree;
- ``row_parity``: the product of the signs of the rows as permutations.

`latinsq.stats.autocorrelation_time` (Sokal's window, c = 5) gives each
series' tau_int (None for a series that never moves: the intercalate count
at n = 3, the row parity at n = 4).  Per order the output records every
tau_int, the largest, 5 times the largest, ``ChainConfig(n).thin`` and
2 n^2.  Orders 3 and 4 calibrate the observables against the exact chain's
slowest mode.

``--gates`` also runs the uniformity tests at CI_SEED and the default thin:
the exact test over the 56 reduced squares of order 5, the intercalate law
at order 6 and the per-cell test at order 8, as tier-1 runs them; then the
exact tests over the 56 reduced squares of order 5 (56,000 samples) and the
9408 of order 6 (94,080 samples), chains over the usable CPUs, each at the
default thin, at 2 n^2 and at ceil(5 tau_max) of the same run.

Usage (from the repository root; output is JSON)::

    python evidence/thin_tau.py --out evidence/thin_tau.json --jobs 2 --gates
    python evidence/thin_tau.py --orders 5 --seeds 1 --visits 3000
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import multiprocessing
import os
import sys
import time
from collections import Counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from latinsq.chain import ChainConfig, iter_chains  # noqa: E402
from latinsq.stats import (  # noqa: E402
    InsufficientSamples,
    acceptance_band,
    autocorrelation_time,
    cell_symbol_frequency_test,
    pearson_statistic,
)

ORDERS = (3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48, 64)
SEEDS = (1, 2, 3, 4)
OBSERVABLES = ("cell00", "cyclic_agree", "diag0", "intercalates", "row0_col0", "row_parity")
CI_SEED = 20260810  # the acceptance suite's seed


def default_visits(n: int) -> int:
    """Proper visits per chain: at least 1000 tau_int wherever tau_int <= 4n."""
    return max(60_000, 4000 * n)


class Observer:
    """The six observables of a proper square, updated on the rows that changed."""

    def __init__(self, n: int):
        self.n = n
        self.cols = np.arange(n)
        self.cyclic = (self.cols[:, None] + self.cols[None, :]) % n
        self.upper = self.cols[:, None] < self.cols[None, :]
        self.grid = None

    def _row_terms(self, rows: np.ndarray) -> None:
        g, pos, cols = self.grid, self.pos, self.cols
        pos[rows[:, None], g[rows]] = cols
        # Rows r and r2 hold an intercalate on columns c != d exactly when
        # c, d is a 2-cycle of c -> a[r, r2, c], the column in row r of g[r2, c].
        a = pos[rows][:, g]
        aa = np.take_along_axis(a, a, axis=2)
        two_cycles = ((aa == cols) & (a != cols)).sum(axis=2) // 2
        self.inter[rows, :] = two_cycles
        self.inter[:, rows] = two_cycles.T
        inversions = (g[rows][:, :, None] > g[rows][:, None, :]) & self.upper
        self.parity[rows] = inversions.sum(axis=(1, 2)) & 1

    def __call__(self, flat: np.ndarray) -> tuple[float, ...]:
        n = self.n
        g = flat.reshape(n, n)
        if self.grid is None:
            self.grid, self.pos = g, np.empty((n, n), dtype=np.int64)
            self.inter, self.parity = np.zeros((n, n), dtype=np.int64), np.zeros(n, dtype=np.int64)
            changed = self.cols
        else:
            changed = np.flatnonzero((g != self.grid).any(axis=1))
            self.grid = g
        self._row_terms(changed)
        return (
            float(g[0, 0] == 0),
            float((g == self.cyclic).sum()),
            float((np.diagonal(g) == 0).sum()),
            float(self.inter.sum() // 2),
            float((g[0] == g[:, 0]).sum()),
            float(1 - 2 * (self.parity.sum() & 1)),
        )


def measure(task: tuple[int, int, int]) -> dict:
    """tau_int of every observable on one chain of ``visits`` proper visits."""
    n, seed, visits = task
    start = time.perf_counter()
    observe = Observer(n)
    chain = iter_chains(ChainConfig(n, seed=seed, burn_in=10 * n**3, thin=1), 1, visits)
    series = np.array([observe(np.fromiter(itertools.chain.from_iterable(sq.grid), np.int64, n * n)) for sq in chain])
    taus = {}
    for name, column in zip(OBSERVABLES, series.T):
        try:
            taus[name] = round(autocorrelation_time(column)[0], 2)
        except InsufficientSamples:  # a series that never moved
            taus[name] = None
    return {"n": n, "seed": seed, "visits": visits, "tau_int": taus, "seconds": round(time.perf_counter() - start, 1)}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for n in sorted({run["n"] for run in runs}):
        mine = [run for run in runs if run["n"] == n]
        worst, name, seed = max(
            (tau, obs, run["seed"]) for run in mine for obs, tau in run["tau_int"].items() if tau is not None
        )
        thin = ChainConfig(n).thin
        out[str(n)] = {
            "visits": sorted({run["visits"] for run in mine}),
            "burn_in": 10 * n**3,
            "tau_int": {str(run["seed"]): run["tau_int"] for run in mine},
            "tau_max": worst,
            "tau_max_at": {"observable": name, "seed": seed},
            "five_tau_max": round(5 * worst, 1),
            "thin": thin,
            "two_n_squared": 2 * n * n,
            "thin_over_five_tau_max": round(thin / (5 * worst), 2),
            "min_visits_over_tau_max": round(min(run["visits"] for run in mine) / worst),
            "seconds": round(sum(run["seconds"] for run in mine), 1),
        }
    return out


def _reduced_test(n: int, thin: int, chains: int, samples: int) -> dict:
    """The exact test over the reduced squares of order ``n``: a uniform square has a uniform reduced form."""
    from enumeration_reference import enumerate_reduced_grids, reduced_form

    reduced = enumerate_reduced_grids(n)
    start = time.perf_counter()
    squares = iter_chains(ChainConfig(n, seed=CI_SEED, thin=thin), chains, samples)
    counts = Counter(reduced_form(sq.grid) for sq in squares)
    if not counts.keys() <= set(reduced):
        raise RuntimeError("a sample outside the reduced squares")
    statistic = pearson_statistic([counts[g] for g in reduced], samples / len(reduced))
    lo, hi = acceptance_band(len(reduced) - 1)
    return {"n": n, "test": f"{len(reduced)} reduced squares", "thin": thin, "chains": chains, "samples": samples,
            "statistic": round(statistic, 2), "dof": len(reduced) - 1, "band": [round(lo, 2), round(hi, 2)],
            "passed": bool(lo <= statistic <= hi), "seconds": round(time.perf_counter() - start, 1)}


def gates(orders: dict) -> list[dict]:
    """The uniformity tests at CI_SEED and the default thin; the exact ones also at 2 n^2 and at 5 tau_max."""
    from test_acceptance import INTERCALATE_LAW_6, _intercalates

    cpus = len(os.sched_getaffinity(0))
    results = [_reduced_test(5, ChainConfig(5).thin, 1, 5600)]  # as tier-1 runs it

    thin = ChainConfig(6).thin
    counts = Counter(_intercalates(sq.grid) for sq in iter_chains(ChainConfig(6, seed=CI_SEED), 1, 3000))
    statistic = sum(pearson_statistic([counts[k]], 3000 * m / 9408) for k, m in INTERCALATE_LAW_6.items())
    lo, hi = acceptance_band(len(INTERCALATE_LAW_6) - 1)
    results.append({"n": 6, "test": "intercalate law", "thin": thin, "chains": 1, "samples": 3000,
                    "statistic": round(statistic, 2), "dof": len(INTERCALATE_LAW_6) - 1,
                    "band": [round(lo, 2), round(hi, 2)], "passed": bool(lo <= statistic <= hi)})

    thin = ChainConfig(8).thin
    report = cell_symbol_frequency_test(list(iter_chains(ChainConfig(8, seed=CI_SEED), 1, 10000)), 8)
    results.append({"n": 8, "test": "per-cell symbol frequencies", "thin": thin, "chains": 1, "samples": 10000,
                    "statistic": round(report.statistic, 2), "dof": report.dof, "passed": report.passed})

    for n, samples in ((5, 56_000), (6, 94_080)):
        rule = [math.ceil(orders[str(n)]["five_tau_max"])] if str(n) in orders else []
        for thin in sorted({ChainConfig(n).thin, 2 * n * n, *rule}, reverse=True):
            results.append(_reduced_test(n, thin, cpus, samples))
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--orders", type=int, nargs="+", default=list(ORDERS))
    p.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    p.add_argument("--visits", type=int, default=None, help="proper visits per chain (default: max(60000, 4000 n))")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--gates", action="store_true", help="also run the uniformity tests at the default thin")
    p.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    args = p.parse_args(argv)
    # Largest orders first, so the longest chains start first.
    tasks = [(n, s, args.visits or default_visits(n)) for n in sorted(args.orders, reverse=True) for s in args.seeds]
    if args.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            runs = pool.map(measure, tasks, chunksize=1)
    else:
        runs = [measure(task) for task in tasks]
    doc = {
        "method": {
            "chain": "iter_chains(ChainConfig(n, seed=s, burn_in=10 * n**3, thin=1), 1, visits)",
            "observables": list(OBSERVABLES),
            "estimator": "latinsq.stats.autocorrelation_time, Sokal window c = 5",
            "rule": "ChainConfig(n).thin >= 5 * tau_max at every order",
        },
        "orders": summarize(runs),
    }
    if args.gates:
        doc["gates"] = gates(doc["orders"])
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
