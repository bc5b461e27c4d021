"""Fast self-check of the benchmark, at tiny sizes (about half a minute).

    python3 perfbench/selfcheck.py

Asserts that each workload emits exactly the metrics BENCHMARK.json names,
with their units, in both modes; that a corrupted output of each workload is
counted as failed; that the exact counts of a traced run repeat for a fixed
seed; and that the benchmark exits non-zero, printing no result, where the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run


def tiny_workloads() -> dict:
    from workloads import GraphReport, PathVerify, SampleGen, UniformityVerdict

    return {
        "sample_n16": SampleGen(n=5, samples=3),
        "uniformity_n4": UniformityVerdict(n=3, samples=120, chains=4),
        "path_n12": PathVerify(n=5, pairs=4),
        "graph_n4": GraphReport(n=3),
    }


def _dup_first_row(outs):
    code, text = outs[0].data
    lines = text.splitlines()
    lines[1] = lines[2]
    outs[0].data = (code, "\n".join(lines) + "\n")


def _biased_verdict(outs):
    # A sampler stuck on a few squares: the statistic far above its band.
    code, text = outs[0].data
    report = json.loads(text)
    report["statistic"] = 100.0 * report["dof"]
    report["pass"] = False
    outs[0].data = (1, json.dumps(report))


def _wrong_endpoint(outs):
    from latinsq.core import cyclic_square

    length, end = outs[0].data
    outs[0].data = (length, cyclic_square(end.n))


def _disconnect(outs):
    code, text = outs[0].data
    outs[0].data = (code, text.replace("connected", "DISCONNECTED", 1))


CORRUPT = {
    "sample_n16": _dup_first_row,
    "uniformity_n4": _biased_verdict,
    "path_n12": _wrong_endpoint,
    "graph_n4": _disconnect,
}


def measure(latinsq, wl, trace: int, tamper=None) -> dict:
    args = argparse.Namespace(workload=wl.name, seed=1, seconds=0.2, trace=trace)
    result, meta, _ = run.measure(wl, args, latinsq, tamper)
    json.dumps(result)  # the result must serialise as it is printed
    assert meta["fail_frac"] == result["failed"] / result["attempted"]
    return result


def main() -> int:
    run.SETUP_REPS = 1  # tiny runs: one fresh-interpreter import is enough
    latinsq = run.load_package()
    tiny = tiny_workloads()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(tiny)

    for name, wl in tiny.items():
        for trace in (0, 1):
            res = measure(latinsq, wl, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want[trace], (name, trace, set(got) ^ set(want[trace]))
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (name, trace, res)
            if trace == 0:
                assert all(v["value"] > 0 for v in res["metrics"].values()), (name, res["metrics"])
        bad = measure(latinsq, wl, 0, CORRUPT[name])
        assert bad["failed"] >= 1 and not bad["correct"], (name, "corruption not counted", bad)
        print(f"ok {name}")

    counts = [
        {k: v["value"] for k, v in measure(latinsq, tiny["path_n12"], 1)["metrics"].items() if v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1] and counts[0]["connect.transform_path_calls"] > 0, counts
    print("ok exact counts repeat")

    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in (run.ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path_n12", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print("ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
