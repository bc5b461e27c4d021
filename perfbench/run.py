"""Benchmark of the latinsq sampler, path finder and oracles.

Run from the repository root:

    python3 perfbench/run.py --workload path_n12 --seed 1 --seconds 15 --trace 0

One process, no threads, one workload per run.  With ``--trace 0`` the run
times operations for ``--seconds`` seconds and reports the end-to-end
metrics; with ``--trace 1`` it runs the workload's fixed list of operations
once untraced and once with every layer traced, and reports per-layer
metrics.  Outputs are checked after the timed region; a failed check is
counted, never fatal.  The last line of standard output is the result
object; the line before it holds the run's metadata.  Every result and, for
traced runs, every span is also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# A single-threaded run: keep numeric libraries from starting thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (numpy must see the settings above)
from spans import CONNECT_PRIMITIVES, LAYERS, Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 3


def load_package():
    """Import latinsq from this checkout's sources, never from elsewhere."""
    if not (SRC / "latinsq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'latinsq'}")
    sys.path.insert(0, str(SRC))
    import latinsq

    if Path(latinsq.__file__).resolve().parent != (SRC / "latinsq").resolve():
        raise SystemExit(f"perfbench: imported latinsq from {latinsq.__file__}, not {SRC}")
    return latinsq


def import_cli() -> None:
    """A fresh interpreter importing the CLI: the start-up every ``latinsq`` command pays."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import latinsq.cli"], env=env, cwd=ROOT, check=True, timeout=120)


def run_op(wl, inputs, i: int):
    from workloads import Output

    try:
        return wl.op(inputs, i)
    except Exception:  # a failed operation is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        return Output(error=traceback.format_exc(limit=1))


def count_failures(wl, inputs, outs, tamper=None) -> int:
    """Check every output (outside any timed region); returns how many failed."""
    if tamper is not None:
        tamper(outs)
    bad = set(wl.final_checks(inputs, outs))
    for i, out in enumerate(outs):
        if out.error is not None:
            bad.add(i)
            continue
        try:
            ok = wl.check(inputs, i, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            bad.add(i)
    return len(bad)


def end_to_end(wl, seed: int, seconds: float, tamper=None) -> tuple[dict, int, int, dict, None]:
    outs = []
    with SpeedProbe() as probe:
        imports, builds = [], []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            import_cli()
            t1 = perf_counter()
            inputs = wl.setup(seed)
            imports.append(probe.rescale(t0, t1))
            builds.append(probe.rescale(t1, perf_counter()))
        setup_s = statistics.median(imports) + statistics.median(builds)

        start = perf_counter()
        while True:
            t0 = perf_counter()
            out = run_op(wl, inputs, len(outs))
            out.wall = (t0, perf_counter())
            outs.append(out)
            if perf_counter() - start >= seconds and len(outs) % wl.ops_per_pass == 0:
                break

    failed = count_failures(wl, inputs, outs, tamper)
    done = [o for o in outs if o.error is None]
    latencies = [probe.rescale(a, b) for o in done for a, b in o.intervals] or [float("nan")]
    busy = sum(probe.rescale(*o.wall) for o in done)
    items = sum(o.items for o in done)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (float(np.quantile(latencies, 0.5)), "s"),
        "op_s_p90": (float(np.quantile(latencies, 0.9)), "s"),
        "items_per_s": (items / busy if busy > 0 else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = [b - a for o in done for a, b in o.intervals] or [float("nan")]
    info = {
        "ops": len(outs),
        "latency_samples": len(latencies),
        "items": items,
        "setup_reps": SETUP_REPS,
        "raw_op_s_p50": float(np.quantile(raw, 0.5)),
        "raw_op_s_p90": float(np.quantile(raw, 0.9)),
        "speed_factor": probe.factor(),
        "speed_samples": len(probe.took),
    }
    return metrics, len(outs), failed, info, None


def per_layer(wl, seed: int, latinsq, tamper=None) -> tuple[dict, int, int, dict, object]:
    modules = {layer: getattr(latinsq, layer) for layer in LAYERS}
    inputs = wl.setup(seed)
    ops = range(wl.traced_ops)

    tracer = Tracer()
    with SpeedProbe() as probe:
        t0 = perf_counter()
        plain = [run_op(wl, inputs, i) for i in ops]
        untraced = (t0, perf_counter())

        tracer.install(latinsq, modules)
        try:
            t0 = perf_counter()
            traced_inputs = wl.setup(seed)
            t1 = perf_counter()
            traced = []
            for i in ops:
                tracer.current_op = i
                traced.append(run_op(wl, traced_inputs, i))
            t2 = perf_counter()
        finally:
            tracer.uninstall()

    failed = count_failures(wl, inputs, plain, tamper) + count_failures(wl, traced_inputs, traced)
    summary = tracer.summary()
    metrics = layer_metrics(summary, wl)
    metrics["trace_overhead_frac"] = (probe.rescale(t1, t2) / probe.rescale(*untraced) - 1.0, "frac")
    metrics["trace.coverage"] = (summary.top_level_s / (t2 - t0), "frac")
    info = {"ops": len(ops), "spans": len(summary.dur), "speed_factor": probe.factor()}
    return metrics, 2 * len(ops), failed, info, tracer


def layer_metrics(s, wl) -> dict:
    """Per-layer metrics from a span summary; every name appears on every workload."""
    m: dict[str, tuple[float, str]] = {}

    # chain: the sampler's generator, one span per resumption.
    items = s.counts["chain.iter_samples.items"]
    chains = s.counts["chain.iter_samples.calls"]
    firsts = s.durations("chain.iter_samples", first=True)
    later_self = float(s.self_times("chain.iter_samples", first=False).sum())
    later_items = items - min(chains, items)
    m["chain.sample_ms"] = (1e3 * s.layer_self_s("chain") / items if items else 0.0, "ms")
    m["chain.proper_visits_per_s"] = (
        later_items * wl.chain_thin() / later_self if later_self > 0 else 0.0, "1/s")
    m["chain.first_sample_s"] = (statistics.median(firsts.tolist()) if len(firsts) else 0.0, "s")
    m["chain.chains"] = (chains, "count")

    # cli: record formatting and the command layer's own time.
    fmt_calls = s.calls("cli.format_square_text") + s.calls("cli.format_square_json")
    fmt_s = s.incl_s("cli.format_square_text") + s.incl_s("cli.format_square_json")
    m["cli.format_us"] = (1e6 * fmt_s / fmt_calls if fmt_calls else 0.0, "us")

    m["stats.chi_square_s"] = (s.incl_s("stats.chi_square_uniformity"), "s")

    m["oracle.enumerate_s"] = (s.incl_s("oracle.enumerate_latin_squares"), "s")
    m["oracle.key_calls"] = (s.calls("oracle.canonical_key"), "count")
    m["oracle.key_s"] = (s.incl_s("oracle.canonical_key"), "s")
    m["oracle.build_self_s"] = (s.self_s("oracle.build_state_graph"), "s")
    m["oracle.diameter_s"] = (s.incl_s("oracle.check_connectivity_and_diameter"), "s")

    cand = s.counts["moves.enum_candidates"]
    m["moves.enum_calls"] = (s.calls("moves.enumerate_valid_moves"), "count")
    m["moves.enum_s"] = (s.incl_s("moves.enumerate_valid_moves"), "s")
    m["moves.enum_yield"] = (s.counts["moves.enum_valid"] / cand if cand else 0.0, "frac")
    m["moves.apply_calls"] = (s.calls("moves.apply_move"), "count")
    m["moves.apply_s"] = (s.incl_s("moves.apply_move"), "s")

    for p in (*CONNECT_PRIMITIVES, "replay"):
        m[f"connect.{p}_s"] = (s.self_s(f"connect.{p}"), "s")
        m[f"connect.{p}_calls"] = (s.calls(f"connect.{p}"), "count")
    for p in CONNECT_PRIMITIVES:
        m[f"connect.{p}_moves"] = (s.counts[f"connect.{p}.moves"], "count")

    m["core.validate_calls"] = (s.calls("core.validate"), "count")
    m["core.validate_s"] = (s.incl_s("core.validate"), "s")
    m["core.cube_from_grid_s"] = (s.incl_s("core.cube_from_grid"), "s")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (s.layer_self_s(layer), "s")
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "latinsq").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return res.stdout.strip() or "unknown"


def metadata(args, wl, info: dict) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "params": {k: v for k, v in vars(wl).items() if isinstance(v, (int, float, str))},
        **info,
    }


def measure(wl, args, latinsq, tamper=None):
    """One run: returns (result object, metadata, tracer or None)."""
    if args.trace:
        metrics, attempted, failed, info, tracer = per_layer(wl, args.seed, latinsq, tamper)
    else:
        metrics, attempted, failed, info, tracer = end_to_end(wl, args.seed, args.seconds, tamper)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    meta = metadata(args, wl, info)
    meta["fail_frac"] = failed / attempted
    return result, meta, tracer


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    latinsq = load_package()
    from workloads import default_workloads

    workloads = default_workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    result, meta, tracer = measure(workloads[args.workload], args, latinsq)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(str(OUT_DIR / f"{stem}.spans.json.gz"), meta)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
