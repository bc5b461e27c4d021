"""In-memory span tracer for the latinsq layers.

The tracer replaces each public function of a layer module with a timing
wrapper, in every module namespace where callers look the name up (for
example ``latinsq.connect.apply_move`` as well as ``latinsq.moves.apply_move``),
so that calls made inside the package are caught too.  Nothing in the package
itself is edited; `Tracer.uninstall` puts every original back.

Spans live in flat arrays while the run goes on and are written to disk once,
by `Tracer.dump`, when the run is over.
"""

from __future__ import annotations

import gzip
import inspect
import json
import time
from array import array
from collections import Counter
from typing import Any, Callable

import numpy as np

LAYERS = ("core", "moves", "connect", "chain", "oracle", "stats", "cli")

# Methods traced besides module-level functions: (layer, class, method).
METHODS = (("connect", "MoveSequence", "replay"),)

# The path finder's primitives whose emitted moves are counted.
CONNECT_PRIMITIVES = ("transform_path", "fix_row", "swap_row_entries", "cycle_swap", "normalize_to_proper")


def _moves_emitted(result: Any) -> int:
    """Move count of what a connect primitive returns."""
    if isinstance(result, tuple):  # (state, MoveSequence | list of moves)
        result = result[1]
    return len(result)


def _candidates(n: int) -> int:
    """Canonical moves `enumerate_valid_moves` examines on an order-n square."""
    pairs = n * (n - 1) // 2
    return pairs * pairs * n * (n - 1)


def _count_enum(counts: Counter, args: tuple, result: Any) -> None:
    counts["moves.enum_valid"] += len(result)
    counts["moves.enum_candidates"] += _candidates(args[0].n)


def _count_moves(name: str) -> Callable[[Counter, tuple, Any], None]:
    def count(counts: Counter, args: tuple, result: Any) -> None:
        counts[name + ".moves"] += _moves_emitted(result)

    return count


# Extra counts taken from a call's arguments and result, by span name.
COUNTERS: dict[str, Callable[[Counter, tuple, Any], None]] = {
    "moves.enumerate_valid_moves": _count_enum,
    **{f"connect.{p}": _count_moves(f"connect.{p}") for p in CONNECT_PRIMITIVES},
}


class Tracer:
    """Records one span per call of a wrapped function: name, parent, start, end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.first = array("b")  # 1 on the first resumption of a traced generator
        self.counts: Counter = Counter()
        self.current_op = -1
        self._stack = [-1]
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, first: int = 0) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.first.append(first)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._id(name)
        count = COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the consumer's work between items
            # is not charged to the generator.
            def traced_gen(*args, **kwargs):
                tracer.counts[name + ".calls"] += 1
                it = fn(*args, **kwargs)
                first = 1
                while True:
                    idx = tracer._open(nid, first)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    first = 0
                    tracer.counts[name + ".items"] += 1
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package: Any, modules: dict[str, Any]) -> None:
        """Wrap every public function of each layer wherever it is bound."""
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self.wrap(fn, f"{layer}.{attr}")
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, key, value))
                            setattr(ns, key, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.wrap(original, f"{layer}.{meth}"))

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "first": np.frombuffer(self.first, dtype=np.int8),
        }

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays(), self.counts)

    def dump(self, path: str, meta: dict) -> None:
        """Write every span, once, as gzip-compressed JSON columns."""
        cols = {k: v.tolist() for k, v in self.arrays().items()}
        doc = {"meta": meta, "names": self.names, "spans": cols, "counts": dict(self.counts)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


class SpanSummary:
    """Per-name calls, inclusive and self time, from the recorded spans.

    A span's self time is its duration minus the time its direct children
    cover; calls run on one thread, so children nest and never overlap.
    """

    def __init__(self, names: list[str], cols: dict[str, np.ndarray], counts: Counter):
        self.names = names
        self.counts = counts
        dur = (cols["end"] - cols["start"]).astype(np.float64) * 1e-9
        parent = cols["parent"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self.dur = dur
        self.self_time = dur - child
        self.name = cols["name"]
        self.first = cols["first"].astype(bool)
        self.top_level_s = float(dur[~has_parent].sum())
        k = len(names)
        self._calls = np.bincount(self.name, minlength=k)
        self._incl = np.bincount(self.name, weights=dur, minlength=k)
        self._self = np.bincount(self.name, weights=self.self_time, minlength=k)

    def _index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            return -1

    def calls(self, name: str) -> int:
        i = self._index(name)
        return int(self._calls[i]) if i >= 0 else 0

    def incl_s(self, name: str) -> float:
        i = self._index(name)
        return float(self._incl[i]) if i >= 0 else 0.0

    def self_s(self, name: str) -> float:
        i = self._index(name)
        return float(self._self[i]) if i >= 0 else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(
            float(self._self[i]) for i, nm in enumerate(self.names) if nm.split(".", 1)[0] == layer
        )

    def _mask(self, name: str, first: bool) -> np.ndarray:
        return (self.name == self._index(name)) & (self.first == first)

    def durations(self, name: str, first: bool) -> np.ndarray:
        """Durations of a generator's first (or later) resumptions."""
        return self.dur[self._mask(name, first)]

    def self_times(self, name: str, first: bool) -> np.ndarray:
        return self.self_time[self._mask(name, first)]
