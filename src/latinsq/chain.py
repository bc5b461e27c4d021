"""The +/-1-move random walk and the uniform sampler built on it.

From a proper square the walk picks a zero triple (r, c, s) uniformly at
random; the three lines through it each carry exactly one +1, and those
determine the unique flip adding s at (r, c).  From an improper square the
negative triple is forced and each of the three compensating coordinates is
chosen uniformly between its two +1 candidates, giving eight equally likely
flips.  Both kinds of step always land inside the proper/improper space, so
the walk never rejects.  Samples are read off the proper visits only.
"""

from __future__ import annotations

import itertools
import operator
import os
import pickle
from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .core import ImproperCell, LatinSquareError, SquareState, cyclic_square
from .oracle import enumerate_latin_squares


class DegenerateOrder(LatinSquareError):
    """The requested order is too small for the operation."""


@dataclass(frozen=True)
class ChainConfig:
    """Sampler configuration.  burn_in counts raw steps, thin proper visits.

    Both defaults are measured.  The thin, 2 n^2 proper visits: at n = 3
    and 4 the exact proper-visit chain is within 1e-6 of uniform in total
    variation after 2 n^2 visits from any start, and at n = 8, 16 and 32 it
    is at least 5 times the integrated autocorrelation time of "cell (0, 0)
    holds 0".  The burn-in, n^3 raw steps, only carries the walk off its
    cyclic start; the first thin makes the sample uniform.  The exact first
    sample at n = 3 and 4 is within 1.1e-13 of uniform (4.1e-8 at n = 4
    with no burn-in), and at n = 8, 16 and 32 the cells agreeing with the
    start reach their uniform mean, about n, by 0.45 n^3 raw steps.
    """

    n: int
    seed: int = 0
    burn_in: int | None = None
    thin: int | None = None

    def __post_init__(self) -> None:
        for name in ("n", "seed", "burn_in", "thin"):
            value = getattr(self, name)
            if value is not None or name in ("n", "seed"):  # a None burn_in or thin takes its default
                try:
                    object.__setattr__(self, name, operator.index(value))
                except TypeError:
                    raise LatinSquareError(f"{name} must be an integer, got {value!r}") from None
        if self.n < 1:
            raise DegenerateOrder(f"order must be at least 1, got {self.n}")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.n**3)
        if self.thin is None:
            object.__setattr__(self, "thin", 2 * self.n**2)
        for name, least in (("seed", 0), ("burn_in", 0), ("thin", 1)):
            if (value := getattr(self, name)) < least:
                raise LatinSquareError(f"{name} must be at least {least}, got {value}")


class RngStream:
    """Deterministic seedable stream with spawnable independent children.

    Thin wrapper over numpy's SeedSequence/PCG64 pair.  The draws for one
    bound come in blocks from one shared iterator, `draws(bound)`, so the
    per-step cost stays small; a block is drawn when the last one runs out.
    """

    _BLOCK = 4096

    def __init__(self, seed: "int | np.random.SeedSequence"):
        if isinstance(seed, np.random.SeedSequence):
            self.seed_seq = seed
        else:
            self.seed_seq = np.random.SeedSequence(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed_seq))
        self._draws: dict[int, Iterator[int]] = {}

    def spawn(self, k: int) -> list["RngStream"]:
        """k independent child streams; deterministic in the parent seed."""
        return [RngStream(ss) for ss in self.seed_seq.spawn(k)]

    def draws(self, bound: int) -> Iterator[int]:
        """The endless stream of uniform draws from range(bound)."""
        it = self._draws.get(bound)
        if it is None:
            gen, size = self._gen, self._BLOCK  # no reference to self: a dropped stream frees at once
            blocks = iter(lambda: gen.integers(0, bound, size, dtype=np.int64).tolist(), None)
            it = self._draws[bound] = itertools.chain.from_iterable(blocks)
        return it


class _Walker:
    """Mutable walk state: the symbol grid and its two conjugate maps, O(n^2).

    ``sym[r*n+c]`` is the symbol at (r, c), ``col[r*n+s]`` the column of s in
    row r and ``row[c*n+s]`` the row of s in column c.  On an improper square
    ``neg`` is the negative triple (r, c, s) and ``pairs`` holds the sorted
    +1 pairs of its three lines: the rows on (c, s), the columns on (r, s)
    and the symbols at (r, c).  ``sym`` holds the smaller symbol of the pair
    there, as a SquareState does; ``col`` and ``row`` are stale on the two lines.
    """

    __slots__ = ("n", "sym", "col", "row", "neg", "pairs", "rng")

    def __init__(self, state: SquareState, rng: RngStream):
        n = self.n = state.n
        self.rng = rng
        self.sym = [s for line in state.grid for s in line]
        self.neg = self.pairs = None
        plus = [(r, c, s) for r, line in enumerate(state.grid) for c, s in enumerate(line)]
        rec = state.improper
        if rec is not None:
            r, c, s = self.neg = (rec.row, rec.col, rec.negative)
            self.pairs = (tuple(state.rows_with(c, s)), tuple(state.cols_with(r, s)), rec.positive_pair)
            plus.append((r, c, rec.positive_pair[1]))
        # Each line through the -1 has two +1s, so its map entry is stale;
        # steps read those lines from ``pairs``.
        self.col, self.row = [0] * (n * n), [0] * (n * n)
        for r, c, s in plus:
            self.col[r * n + s] = c
            self.row[c * n + s] = r

    def view(self) -> SquareState:
        """The current square, unchecked: the walk keeps it valid."""
        n, sym, neg = self.n, self.sym, self.neg
        rec = None if neg is None else ImproperCell(neg[0], neg[1], self.pairs[2], neg[2])
        return SquareState(tuple(tuple(sym[i : i + n]) for i in range(0, n * n, n)), rec)

    def advance(self, count: int, proper: bool = False) -> tuple[int, int, int, int, int, int] | None:
        """Take ``count`` flips, or with ``proper`` flip until ``count`` proper visits.

        Returns the last flip's anchors (r, c, s, r2, c2, s2): s goes to (r, c)
        and (r2, c2), s2 to (r, c2) and (r2, c).  None when ``count`` is 0.
        """
        if count < 1:
            return None
        n, sym, col, row = self.n, self.sym, self.col, self.row
        nm1 = n - 1
        per_row = n * nm1
        pick8, pick_zero = self.rng.draws(8).__next__, self.rng.draws(n * per_row).__next__
        raw = 0 if proper else 1
        improper = self.neg is not None
        if improper:
            r2, c2, s2 = self.neg
            r2n, c2n = r2 * n, c2 * n
            (ra, rb), (ca, cb), (sa, sb) = self.pairs
        while count:
            if improper:
                # The -1 sits at (r, c, s); one pick bit per line chooses
                # which of its two +1s the flip takes, the other one stays.
                r, c, s, rn, cn = r2, c2, s2, r2n, c2n
                pick = pick8()
                r2, ro = ra, rb
                if pick & 1:
                    r2, ro = rb, ra
                c2, co = ca, cb
                if pick & 2:
                    c2, co = cb, ca
                s2, so = sa, sb
                if pick & 4:
                    s2, so = sb, sa
                sym[rn + c], col[rn + s], row[cn + s] = so, co, ro
            else:
                r, t = divmod(pick_zero(), per_row)
                c, k = divmod(t, nm1)
                rn, cn = r * n, c * n
                s2 = sym[rn + c]
                s = k + (k >= s2)
                r2, c2 = row[cn + s], col[rn + s]
                sym[rn + c], col[rn + s], row[cn + s] = s, c, r
            r2n, c2n = r2 * n, c2 * n
            sym[rn + c2], sym[r2n + c] = s2, s2
            col[rn + s2], col[r2n + s] = c2, c2
            row[cn + s2], row[c2n + s] = r2, r2
            x = sym[r2n + c2]
            if x == s2:
                sym[r2n + c2], col[r2n + s2], row[c2n + s2] = s, c, r
                improper = False
                count -= 1
            else:
                # New -1 at (r2, c2, s2); each of its lines keeps its old +1
                # beside the one the flip added.
                ra, rb = r, row[c2n + s2]
                if rb < r:
                    ra, rb = rb, r
                ca, cb = c, col[r2n + s2]
                if cb < c:
                    ca, cb = cb, c
                sa, sb = s, x
                if x < s:
                    sa, sb = x, s
                sym[r2n + c2] = sa
                improper = True
                count -= raw
        self.neg = (r2, c2, s2) if improper else None
        self.pairs = ((ra, rb), (ca, cb), (sa, sb)) if improper else None
        return r, c, s, r2, c2, s2


def iter_samples(config: ChainConfig, count: int, rng: RngStream) -> Iterator[SquareState]:
    """Stream ``count`` approximately uniform proper squares from one chain on ``rng``.

    Starts from the cyclic square, discards ``burn_in`` raw steps, then
    yields every ``thin``-th proper visit (at n <= 2, a uniform draw from
    the enumerated squares instead).  Byte-reproducible for a fixed stream.
    """
    n = config.n
    if n <= 2:
        # Order 2 has no improper squares, so every step flips to the other
        # square and the walk has period 2: draw the squares directly.
        squares = enumerate_latin_squares(n)
        pick = rng.draws(len(squares))
        for _ in range(count):
            yield squares[next(pick)]
        return
    w = _Walker(cyclic_square(n), rng)
    w.advance(config.burn_in)
    for _ in range(count):
        w.advance(config.thin, proper=True)
        yield w.view()


def sample(config: ChainConfig, count: int) -> list[SquareState]:
    """Draw ``count`` squares from one chain: `iter_samples` on the first
    stream spawned from the config seed, as `iter_chains` runs one chain."""
    return list(iter_chains(config, 1, count))


def iter_chains(config: ChainConfig, chains: int, count: int) -> Iterator[SquareState]:
    """Stream ``count`` samples from ``chains`` independent chains, chain by chain.

    Each chain gets its own spawned child stream and ceil(count / chains)
    samples, the last chain only what is left of ``count``.  Only the
    streams read are spawned; a child's seed depends on its index alone, so
    the k-th stream is the same however many follow it.

    The chains run in up to one forked process per usable CPU, in
    contiguous groups: this process streams the first group itself, then
    yields each child's samples in chain order.  The output and its order
    depend only on (seed, chains, count), never on the CPUs or on
    scheduling.
    """
    if chains < 1:
        raise LatinSquareError("chains must be at least 1")
    if count < 1:
        raise LatinSquareError("sample count must be at least 1")
    per_chain = -(-count // chains)
    streams = RngStream(config.seed).spawn(-(-count // per_chain))
    counts = [per_chain] * (len(streams) - 1) + [count - per_chain * (len(streams) - 1)]
    return _run_groups(config, list(zip(counts, streams)))


def _run_groups(config: ChainConfig, tasks: list[tuple[int, RngStream]]) -> Iterator[SquareState]:
    """Run (count, stream) chains split into one contiguous group per process.

    Children are killed and reaped however the stream ends: exhausted,
    closed early, or by an exception here or in a child.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    groups = min(cpus, len(tasks)) if hasattr(os, "fork") else 1
    bounds = [len(tasks) * k // groups for k in range(groups + 1)]
    children: list[tuple[int, IO[bytes]]] = []
    try:
        for k in range(1, groups):
            children.append(_fork_group(config, tasks[bounds[k] : bounds[k + 1]]))
        for per, rng in tasks[: bounds[1]]:
            yield from iter_samples(config, per, rng)
        for k, (_, pipe) in enumerate(children, 1):
            try:
                out = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise LatinSquareError(f"the process running chains {bounds[k]}..{bounds[k + 1] - 1} died") from None
            if isinstance(out, BaseException):
                raise out
            for grid in out.tolist():
                yield SquareState(tuple(map(tuple, grid)))
    finally:
        for pid, pipe in children:
            import signal  # only a run with children loads it

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_group(config: ChainConfig, tasks: list[tuple[int, RngStream]]) -> tuple[int, IO[bytes]]:
    """Fork a child running ``tasks``; returns its pid and the read end of its pipe.

    The child pickles its samples as one (samples, n, n) symbol array, or
    the exception that stopped it, and always ends in os._exit: it never
    returns into its caller's frames.  It calls no threaded numpy routine,
    so the threads a fork leaves behind cannot block it.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                try:
                    n = config.n
                    out = np.empty((sum(per for per, _ in tasks), n, n), np.min_scalar_type(n - 1))
                    runs = (iter_samples(config, per, rng) for per, rng in tasks)
                    for k, state in enumerate(itertools.chain.from_iterable(runs)):
                        out[k] = state.grid
                except BaseException as exc:  # sent to the parent, which raises it
                    out = exc
                pickle.dump(out, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")
