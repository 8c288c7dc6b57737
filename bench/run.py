"""Benchmark of the `cobweb` command line: two workloads, each a fixed list
of CLI operations run in-process in a fresh interpreter.

    python3 bench/run.py --workload enumerate --seed 1 --seconds 55 --trace 0

`--workload all` (the default) runs every workload in turn.  With `--trace 0`
the result line carries the end-to-end metrics; with `--trace 1` it carries
the per-layer metrics of a traced pass, the geometric mean of the
operations' times and the tracing overhead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and what each metric is
expected to move.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, known_defects  # noqa: E402

WORKER_TIMEOUT_S = 150
DEFECTS_TIMEOUT_S = 20

END_TO_END_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "failed_ops": "count",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "cli.op_geomean_ms": "ms",
    "cli.self_s": "s",
    "fseq.admissible.self_s": "s",
    "fseq.fnomial.self_s": "s",
    "fseq.fnomial.calls": "count",
    "fseq.prefix.self_s": "s",
    "fseq.identity.self_s": "s",
    "fseq.max_bits": "bits",
    "poset.self_s": "s",
    "poset.chains": "count",
    "poset.placements": "count",
    "tiling.search.self_s": "s",
    "tiling.search.nodes": "count",
    "tiling.search.solutions": "count",
    "tiling.search.nodes_per_s": "1/s",
    "tiling.search.yield": "ratio",
    "tiling.search.node_cap_used": "ratio",
    "tiling.construct.self_s": "s",
    "tiling.construct.blocks": "count",
    "tiling.verify.self_s": "s",
    "tiling.verify.chains": "count",
    "tiling.count.self_s": "s",
    "tiling.count.cells": "count",
    "seqalg.h_general.self_s": "s",
    "seqalg.reconstruct.self_s": "s",
    "render.self_s": "s",
    "render.bytes": "bytes",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def child(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result.

    `-E` keeps PYTHON* variables (such as PYTHONINTMAXSTRDIGITS) from
    changing the interpreter the program is measured in.
    """
    cmd = [sys.executable, "-E", "-s", str(BENCH / "worker.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def known_defect_results() -> list[dict]:
    try:
        return child(["--known-defects"], DEFECTS_TIMEOUT_S)["results"]
    except subprocess.TimeoutExpired:
        return [{"name": op.name, "ok": False,
                 "problem": f"the known defects did not finish in {DEFECTS_TIMEOUT_S} s"}
                for op in known_defects()]


def pass_seconds(samples: list[list[float]]) -> float:
    return sum(statistics.median(times) for times in samples)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    run = child(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        WORKER_TIMEOUT_S,
    )
    # A pass's time is the sum over operations of each one's median in it;
    # an operation's time in the run is the median of all its samples.
    plain = [p["samples"] for p in run["passes"] if not p["traced"]]
    wall_s = statistics.median(pass_seconds(p) for p in plain)
    if trace:
        traced = [p for p in run["passes"] if p["traced"]]
        layers = [p["layers"] for p in traced]
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        per_op = [statistics.median(t for samples in op for t in samples)
                  for op in zip(*plain)]
        metrics["cli.op_geomean_ms"] = (
            1000 * math.exp(statistics.fmean(math.log(t) for t in per_op))
        )
        metrics["trace.overhead_s"] = (
            statistics.median(pass_seconds(p["samples"]) for p in traced) - wall_s
        )
        defects = []
    else:
        defects = known_defect_results()
        metrics = {
            "wall_s": wall_s,
            "peak_rss_mb": run["peak_rss_mb"],
            "failed_ops": len(run["failures"]) + sum(not d["ok"] for d in defects),
            "setup_s": statistics.median(run["setup_seconds"]),
        }
    return {
        "workload": workload,
        "passes": len(run["passes"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "failures": run["failures"],
        "untraced_targets": run["untraced_targets"],
        "defects": defects,
        "metrics": metrics,
        "elapsed_s": time.perf_counter() - start,
    }


def report(result: dict) -> None:
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    print(f"== {result['workload']}: {result['passes']} passes, "
          f"{result['attempted']} operations, {result['failed']} failed, "
          f"{result['elapsed_s']:.1f} s")
    for name, problem in result["failures"].items():
        print(f"   FAILED {name}: {problem}")
    for d in result["defects"]:
        status = "ok" if d["ok"] else f"fails: {d['problem']}"
        print(f"   known defect {d['name']}: {status}")
    if result["untraced_targets"]:
        print(f"   not traced (missing): {', '.join(result['untraced_targets'])}")
    for name, value in result["metrics"].items():
        print(f"   {name:<30} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cobweb" / "cli.py").is_file():
        print(f"error: no cobweb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in results[0]["metrics"].items()}
    else:
        metrics = {r["workload"]: {name: {"value": value, "unit": units[name]}
                                   for name, value in r["metrics"].items()}
                   for r in results}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
