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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    GridView,
    IncidenceCube,
    LatinSquareError,
    SquareState,
    cyclic_square,
    grid_from_cube,
)
from .moves import IntercalateMove


class DegenerateOrder(LatinSquareError):
    """The requested order is too small for the operation."""


def default_thin(n: int) -> int:
    """Proper visits between recorded samples; n^3 tracks the graph diameter."""
    return n**3


def default_burn_in(n: int) -> int:
    return 10 * n**3


@dataclass(frozen=True)
class ChainConfig:
    """Sampler configuration.  burn_in counts raw steps, thin proper visits."""

    n: int
    seed: int = 0
    burn_in: int | None = None
    thin: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DegenerateOrder(f"order must be at least 1, got {self.n}")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", default_burn_in(self.n))
        if self.thin is None:
            object.__setattr__(self, "thin", default_thin(self.n))
        if self.burn_in < 0 or self.thin < 1:
            raise LatinSquareError("burn_in must be >= 0 and thin >= 1")


class RngStream:
    """Deterministic seedable stream with spawnable independent children.

    Thin wrapper over numpy's SeedSequence/PCG64 pair; integer draws are
    buffered in blocks per bound so the per-step cost stays small.
    """

    _BLOCK = 4096

    def __init__(self, seed: "int | np.random.SeedSequence"):
        if isinstance(seed, np.random.SeedSequence):
            self.seed_seq = seed
        else:
            self.seed_seq = np.random.SeedSequence(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed_seq))
        self._buffers: dict[int, list] = {}

    def spawn(self, k: int) -> list["RngStream"]:
        """k independent child streams; deterministic in the parent seed."""
        return [RngStream(ss) for ss in self.seed_seq.spawn(k)]

    def integers(self, bound: int) -> int:
        """One uniform draw from range(bound)."""
        buf = self._buffers.get(bound)
        if buf is None:
            buf = [[], self._BLOCK]
            self._buffers[bound] = buf
        if buf[1] >= self._BLOCK:
            buf[0] = self._gen.integers(0, bound, size=self._BLOCK, dtype=np.int64).tolist()
            buf[1] = 0
        value = buf[0][buf[1]]
        buf[1] += 1
        return value


class _Walker:
    """Mutable walk state on a flat list cube; index = (r*n + c)*n + s."""

    __slots__ = ("n", "cube", "neg", "rng")

    def __init__(self, n: int, cube: list[int], neg: tuple[int, int, int] | None, rng: RngStream):
        self.n = n
        self.cube = cube
        self.neg = neg
        self.rng = rng

    @classmethod
    def from_state(cls, state: SquareState, rng: RngStream) -> "_Walker":
        neg = None
        if state.improper is not None:
            rec = state.improper
            neg = (rec.row, rec.col, rec.negative)
        return cls(state.n, [int(v) for v in state.cube.data.reshape(-1)], neg, rng)

    def to_state(self) -> SquareState:
        n = self.n
        cube = IncidenceCube(np.array(self.cube, dtype=np.int8).reshape(n, n, n))
        return SquareState.from_cube(cube)

    def step(self) -> tuple[int, int, int, int, int, int]:
        """One flip; returns the raw anchors (r, c, s, r2, c2, s2)."""
        n, cube, rng = self.n, self.cube, self.rng
        nn = n * n
        if self.neg is None:
            t = rng.integers(nn * (n - 1))
            r, rem = divmod(t, n * (n - 1))
            c, k = divmod(rem, n - 1)
            base = (r * n + c) * n
            for s0 in range(n):
                if cube[base + s0] == 1:
                    break
            s = k + (k >= s0)
            # Unique +1 positions on the lines through (r, c, s).
            idx = c * n + s
            for r2 in range(n):
                if cube[r2 * nn + idx] == 1:
                    break
            base_r = r * nn
            for c2 in range(n):
                if cube[base_r + c2 * n + s] == 1:
                    break
            s2 = s0
        else:
            # Each line through the negative triple carries exactly two +1
            # entries; one pick bit chooses the first or second per line.
            r, c, s = self.neg
            pick = rng.integers(8)
            idx = c * n + s
            r2 = -1
            for x in range(n):
                if cube[x * nn + idx] == 1:
                    if not pick & 1 or r2 >= 0:
                        r2 = x
                        break
                    r2 = x
            base_r = r * nn
            c2 = -1
            for x in range(n):
                if cube[base_r + x * n + s] == 1:
                    if not pick & 2 or c2 >= 0:
                        c2 = x
                        break
                    c2 = x
            base = base_r + c * n
            s2 = -1
            for x in range(n):
                if cube[base + x] == 1:
                    if not pick & 4 or s2 >= 0:
                        s2 = x
                        break
                    s2 = x

        i_rc = (r * n + c) * n
        i_rc2 = (r * n + c2) * n
        i_r2c = (r2 * n + c) * n
        i_r2c2 = (r2 * n + c2) * n
        cube[i_rc + s] += 1
        cube[i_rc + s2] -= 1
        cube[i_rc2 + s2] += 1
        cube[i_rc2 + s] -= 1
        cube[i_r2c + s2] += 1
        cube[i_r2c + s] -= 1
        cube[i_r2c2 + s] += 1
        cube[i_r2c2 + s2] -= 1
        self.neg = (r2, c2, s2) if cube[i_r2c2 + s2] == -1 else None
        return r, c, s, r2, c2, s2


def step(state: SquareState, rng: RngStream) -> tuple[SquareState, IntercalateMove]:
    """One random +/-1-move; returns the new state and the move taken."""
    if state.n < 2:
        raise DegenerateOrder("the walk needs order at least 2")
    w = _Walker.from_state(state, rng)
    anchors = w.step()
    return w.to_state(), IntercalateMove.from_anchors(*anchors)


def iter_samples(config: ChainConfig, count: int, rng: RngStream | None = None) -> Iterator[GridView]:
    """Stream ``count`` proper squares from one chain; see `sample`."""
    if count < 1:
        raise LatinSquareError("count must be at least 1")
    n = config.n
    if n == 1:
        one = grid_from_cube(cyclic_square(1))
        for _ in range(count):
            yield one
        return
    if rng is None:
        rng = RngStream(config.seed).spawn(1)[0]
    w = _Walker.from_state(cyclic_square(n), rng)
    for _ in range(config.burn_in):
        w.step()
    emitted = 0
    visits = 0
    while emitted < count:
        w.step()
        if w.neg is None:
            visits += 1
            if visits == config.thin:
                visits = 0
                cube = IncidenceCube(np.array(w.cube, dtype=np.int8).reshape(n, n, n))
                yield grid_from_cube(SquareState(cube))
                emitted += 1


def sample(config: ChainConfig, count: int, rng: RngStream | None = None) -> list[GridView]:
    """Draw ``count`` approximately uniform proper squares.

    Starts from the cyclic square, discards ``burn_in`` raw steps, then
    records every ``thin``-th proper visit.  Byte-reproducible for a fixed
    seed; when ``rng`` is omitted the stream is the first spawn of the
    config seed so that a one-chain parallel run matches exactly.
    """
    return list(iter_samples(config, count, rng))


def iter_chains(config: ChainConfig, chains: int, count: int) -> Iterator[GridView]:
    """Stream ``count`` samples from ``chains`` independent chains, chain by chain.

    Each chain gets its own spawned child stream and ceil(count / chains)
    samples; the stream stops after ``count``.  The output depends only on
    (seed, chains, count), never on scheduling.
    """
    if chains < 1:
        raise LatinSquareError("chains must be at least 1")
    if count < 1:
        raise LatinSquareError("sample count must be at least 1")
    per_chain = -(-count // chains)
    streams = RngStream(config.seed).spawn(chains)
    samples = itertools.chain.from_iterable(iter_samples(config, per_chain, s) for s in streams)
    return itertools.islice(samples, count)


def run_parallel(config: ChainConfig, chains: int, count_per_chain: int) -> list[GridView]:
    """Concatenate ``chains`` independent runs of `sample`, one stream each."""
    return list(iter_chains(config, chains, chains * count_per_chain))
