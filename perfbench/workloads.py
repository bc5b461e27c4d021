"""The benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one user-visible
operation per `op` call, and checks an operation's output in `check`, which
the runner calls only after the timed region has ended.  Operations reach the
program through module attributes (``cli.main``, ``connect.transform_path``)
so that a traced run sees the wrapped functions.

Why these four:

* ``sample_n16``: one long chain at order 16.  The walk's O(n) line scans
  dominate each step, so a change of state representation shows here, and
  batching across chains does not (one chain).
* ``uniformity_n4``: time to a uniformity verdict from 64 short chains, then
  enumeration and the chi-square test.  Per-step interpreter overhead
  dominates, which is what a batched walker removes.
* ``path_n12``: constructive paths with checked replay, as ``latinsq path
  --verify`` runs them.  Never touches the walk.
* ``graph_n4``: the full state-graph search, the only workload dominated by
  state keying.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from scipy.stats import chi2

from latinsq import cli, connect, core, oracle
from latinsq.chain import ChainConfig


@dataclass
class Output:
    """What one operation produced, and when each user-visible result was
    started and delivered (`perf_counter` readings)."""

    intervals: list[tuple[float, float]] = field(default_factory=list)
    items: int = 0
    data: Any = None
    error: str | None = None
    wall: tuple[float, float] = (0.0, 0.0)  # the whole operation, set by the runner


class _StampedSink(io.StringIO):
    """In-memory stdout that notes when each write (one record) lands."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        n = super().write(s)
        self.stamps.append(perf_counter())
        return n


def run_cli(argv: list[str]) -> tuple[int, str, list[float]]:
    """Run ``cli.main`` with stdout captured; returns (code, text, write times)."""
    sink = _StampedSink()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return code, sink.getvalue(), sink.stamps


def is_latin_grid(rows: list[list[int]], n: int) -> bool:
    """Every row and column is a permutation of 0..n-1 (independent of the program)."""
    want = list(range(n))
    if len(rows) != n or any(sorted(r) != want for r in rows):
        return False
    return all(sorted(col) == want for col in zip(*rows))


def parse_text_records(text: str, n: int) -> list[list[list[int]]] | None:
    """Split ``gen`` text output into grids; None if any record is malformed."""
    lines = text.splitlines()
    if len(lines) % (n + 1):
        return None
    grids = []
    for k in range(0, len(lines), n + 1):
        if lines[k] != f"n {n}":
            return None
        try:
            grids.append([[int(x) for x in lines[k + 1 + r].split()] for r in range(n)])
        except ValueError:
            return None
    return grids


class Workload:
    name = ""
    traced_ops = 1  # operations run in a traced run, untraced and traced
    ops_per_pass = 1  # a timed run ends only after a whole number of passes

    def setup(self, seed: int) -> Any:
        return seed

    def op(self, inputs: Any, i: int) -> Output:
        raise NotImplementedError

    def check(self, inputs: Any, i: int, out: Output) -> bool:
        raise NotImplementedError

    def final_checks(self, inputs: Any, outs: list[Output]) -> set[int]:
        """Indices of operations failing checks that span several outputs."""
        return set()

    def chain_thin(self) -> int:
        """Proper visits between samples of the chains this workload runs (0: none)."""
        return 0


def _op_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


class SampleGen(Workload):
    """``latinsq gen n --samples k`` on one chain with the default burn-in and thin.

    With 12 records per call, the records that carry the burn-in stay under a
    tenth of all records, so the 90th percentile measures steady sampling.
    """

    name = "sample_n16"

    def __init__(self, n: int = 16, samples: int = 12):
        self.n = n
        self.samples = samples

    def argv(self, seed: int, i: int, samples: int) -> list[str]:
        return ["gen", str(self.n), "--samples", str(samples), "--seed", str(_op_seed(seed, i))]

    def op(self, seed: int, i: int) -> Output:
        t0 = perf_counter()
        code, text, stamps = run_cli(self.argv(seed, i, self.samples))
        # One interval per streamed record; the first carries the burn-in.
        return Output(list(zip([t0, *stamps], stamps)), len(stamps), (code, text))

    def check(self, seed: int, i: int, out: Output) -> bool:
        code, text = out.data
        grids = parse_text_records(text, self.n)
        return (
            code == 0
            and grids is not None
            and len(grids) == self.samples
            and all(is_latin_grid(g, self.n) for g in grids)
        )

    def final_checks(self, seed: int, outs: list[Output]) -> set[int]:
        # Determinism: re-running the first operation's seed for one sample
        # must reproduce its first record byte for byte.
        if not outs or outs[0].data is None:
            return set()
        code, text, _ = run_cli(self.argv(seed, 0, 1))
        first = "\n".join(outs[0].data[1].splitlines()[: self.n + 1]) + "\n"
        return set() if code == 0 and text == first else {0}

    def chain_thin(self) -> int:
        return ChainConfig(self.n).thin


class UniformityVerdict(Workload):
    """``latinsq uniformity n --samples s --chains c``: sample, enumerate, chi-square."""

    name = "uniformity_n4"

    def __init__(self, n: int = 4, samples: int = 11520, chains: int = 64):
        self.n = n
        self.samples = samples
        self.chains = chains

    def op(self, seed: int, i: int) -> Output:
        # Each `latinsq uniformity` process enumerates the squares afresh;
        # drop the in-process cache so that every verdict pays for it too.
        cached = getattr(oracle, "_enumerate_grids", None)
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
        argv = [
            "uniformity", str(self.n), "--samples", str(self.samples),
            "--chains", str(self.chains), "--seed", str(_op_seed(seed, i)),
        ]
        t0 = perf_counter()
        code, text, _ = run_cli(argv)
        return Output([(t0, perf_counter())], self.samples, (code, text))

    def report(self, out: Output) -> dict | None:
        """The verdict's JSON report, if it is well formed and self-consistent."""
        code, text = out.data
        try:
            report = json.loads(text)
        except ValueError:
            return None
        if not isinstance(report, dict):
            return None
        squares = GRAPH_COUNTS[self.n][0]
        ok = (
            code == (0 if report.get("pass") is True else 1)
            and report.get("samples") == self.samples
            and report.get("categories") == squares
            and report.get("dof") == squares - 1
            and isinstance(report.get("statistic"), (int, float))
        )
        return report if ok else None

    def check(self, seed: int, i: int, out: Output) -> bool:
        report = self.report(out)
        return report is not None and in_band(report["statistic"], report["dof"])

    def final_checks(self, seed: int, outs: list[Output]) -> set[int]:
        # The verdicts of a run are independent, so their statistics sum to
        # one chi-square of summed degrees of freedom: a test that a slight
        # bias, invisible to any single verdict, fails.
        reports = [self.report(o) for o in outs if o.error is None]
        reports = [r for r in reports if r is not None]
        if not reports:
            return set()
        total = sum(r["statistic"] for r in reports)
        return set() if in_band(total, sum(r["dof"] for r in reports)) else set(range(len(outs)))

    def chain_thin(self) -> int:
        return ChainConfig(self.n).thin


# Two-sided alpha of the benchmark's own uniformity check.  The program's
# verdict uses 0.001, so a uniform sampler fails about one verdict in a
# thousand by chance, which a benchmark making hundreds of verdicts would
# count as a failed operation; at this alpha a chance failure is negligible,
# and the pooled test in `UniformityVerdict.final_checks` keeps the power.
CHECK_ALPHA = 1e-6


def in_band(statistic: float, dof: int) -> bool:
    """Whether a chi-square statistic lies in the central 1 - CHECK_ALPHA band."""
    return bool(chi2.ppf(CHECK_ALPHA / 2, dof) <= statistic <= chi2.ppf(1 - CHECK_ALPHA / 2, dof))


def random_latin_grid(n: int, rng: random.Random) -> list[list[int]]:
    """A seeded random Latin square, built row by row.

    Each row is a perfect matching of columns to the symbols still free in
    them, found by randomized backtracking over augmenting paths; a Latin
    rectangle always extends, so the search never fails.
    """
    col_free = [set(range(n)) for _ in range(n)]
    grid = []
    for _ in range(n):
        owner: dict[int, int] = {}  # symbol -> column

        def augment(c: int, seen: set[int]) -> bool:
            options = list(col_free[c])
            rng.shuffle(options)
            for s in options:
                if s in seen:
                    continue
                seen.add(s)
                if s not in owner or augment(owner[s], seen):
                    owner[s] = c
                    return True
            return False

        cols = list(range(n))
        rng.shuffle(cols)
        for c in cols:
            if not augment(c, set()):
                raise RuntimeError("Latin rectangle failed to extend")
        row = [0] * n
        for s, c in owner.items():
            row[c] = s
            col_free[c].discard(s)
        grid.append(row)
    return grid


def random_state(n: int, rng: random.Random, improper: bool) -> core.SquareState:
    """A random proper square, or one step of the walk away from it, improper."""
    grid = random_latin_grid(n, rng)
    if not improper:
        return core.cube_from_grid(grid)
    while True:
        # The walk's proper step at a zero triple (r, c, s): the flip lands
        # improper exactly when cell (r2, c2) does not hold s2.
        r, c = rng.randrange(n), rng.randrange(n)
        s2 = grid[r][c]
        s = rng.choice([x for x in range(n) if x != s2])
        r2 = next(x for x in range(n) if grid[x][c] == s)
        c2 = grid[r].index(s)
        x = grid[r2][c2]
        if x == s2:
            continue
        grid[r][c], grid[r][c2], grid[r2][c] = s, s2, s2
        return core.cube_from_grid(grid, core.ImproperCell(r2, c2, (x, s), s2))


# Endpoint k of a path workload is improper when k % 8 is one of these: in
# every four pairs (a, b), one start and one target, a quarter of all endpoints.
IMPROPER_AT = (2, 7)


class PathVerify(Workload):
    """``transform_path(a, b)`` then ``replay(check=True)``, as ``path --verify`` does.

    The pairs are taken in turn and a timed run ends after a whole pass, so
    every pair weighs the same whatever the speed of the program.
    """

    name = "path_n12"
    traced_ops = 30

    def __init__(self, n: int = 12, pairs: int = 100):
        self.n = n
        self.pairs = self.ops_per_pass = pairs
        self.bound = 2 * (n - 1) ** 3

    def setup(self, seed: int) -> list[tuple[core.SquareState, core.SquareState]]:
        rng = random.Random(seed)
        states = [random_state(self.n, rng, k % 8 in IMPROPER_AT) for k in range(2 * self.pairs)]
        return list(zip(states[0::2], states[1::2]))

    def op(self, pairs, i: int) -> Output:
        a, b = pairs[i % len(pairs)]
        t0 = perf_counter()
        seq = connect.transform_path(a, b)
        end = seq.replay(check=True)
        return Output([(t0, perf_counter())], 1, (len(seq), end))

    def check(self, pairs, i: int, out: Output) -> bool:
        length, end = out.data
        return length <= self.bound and end == pairs[i % len(pairs)][1]


# Vertex counts of the full state graph: (proper, improper).  The proper
# vertices are the Latin squares of order n, the categories of a uniformity verdict.
GRAPH_COUNTS = {3: (12, 54), 4: (576, 6912)}


class GraphReport(Workload):
    """``latinsq graph n``: breadth-first search of every state, then the diameter probe."""

    name = "graph_n4"

    def __init__(self, n: int = 4):
        self.n = n

    def op(self, seed: int, i: int) -> Output:
        t0 = perf_counter()
        code, text, _ = run_cli(["graph", str(self.n)])
        proper, improper = GRAPH_COUNTS[self.n]
        return Output([(t0, perf_counter())], proper + improper, (code, text))

    def check(self, seed: int, i: int, out: Output) -> bool:
        code, text = out.data
        proper, improper = GRAPH_COUNTS[self.n]
        bound = 2 * (self.n - 1) ** 3
        lines = text.splitlines()
        if code != 0 or len(lines) != 2:
            return False
        head = f"{proper} proper, {improper} improper, connected, "
        kind = "diameter " if self.n <= 3 else "probed diameter bound "
        if not lines[0].startswith(head + kind):
            return False
        try:
            diameter = int(lines[0][len(head + kind):])
        except ValueError:
            return False
        return 0 < diameter <= bound and lines[1] == f"bound 2(n-1)^3 = {bound} satisfied: yes"


def default_workloads() -> dict[str, Workload]:
    return {w.name: w for w in (SampleGen(), UniformityVerdict(), PathVerify(), GraphReport())}
