"""In-process runner for one workload, started in a fresh interpreter by
`run.py`.

Each operation is a call to `cobweb.cli.main(argv)` with stdout and stderr
captured in memory.  The runner never changes the recursion limit, the
int/str digit limit or the thread stack size, and checks before and after
every operation that they still hold their defaults, so that the program is
timed exactly as a user runs it.

Modes (the last stdout line is one JSON object):
  --probe                  import cobweb and load the workload, nothing else
  --workload W --seed S --seconds T --trace 0|1
                           repeat W's operation list for about T seconds
  --known-defects          run the known-defect operations once
  --record                 run every timed operation once, check it against
                           its independent reference and rewrite expected.json
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from tracing import Tracer
from workloads import WORKLOADS, build
from workloads import known_defects as defect_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
DEFAULT_RECURSION_LIMIT = 1000
PROBES_PER_PASS = 3
PROBE_TIMEOUT_S = 30
SHORT_S = 0.1
SLOT_S = 0.02
MAX_REPEATS = 25


def check_interpreter_defaults() -> None:
    """Raise if anything changed the interpreter limits the program runs under."""
    problems = []
    if sys.getrecursionlimit() != DEFAULT_RECURSION_LIMIT:
        problems.append(f"recursion limit is {sys.getrecursionlimit()}")
    if hasattr(sys, "get_int_max_str_digits"):
        if sys.get_int_max_str_digits() != sys.int_info.default_max_str_digits:
            problems.append(f"int_max_str_digits is {sys.get_int_max_str_digits()}")
    if threading.stack_size() != 0:
        problems.append(f"thread stack size is {threading.stack_size()}")
    if problems:
        raise RuntimeError("interpreter defaults changed: " + "; ".join(problems))


class Sink:
    """Write-only text stream that keeps what it is given."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


@dataclass
class Outcome:
    seconds: float
    code: int
    out: Sink
    err: str
    crash: Optional[str]


def run_op(cli, argv) -> Outcome:
    """One timed in-process CLI call.  An exception escaping `main` is what
    the installed `cobweb` script turns into a traceback and exit 1."""
    check_interpreter_defaults()
    out, err = Sink(), Sink()
    crash = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:
            code, crash = 1, f"{type(exc).__name__}: {str(exc)[:200]}"
        seconds = time.perf_counter() - start
    check_interpreter_defaults()
    return Outcome(seconds, code, out, err.text(), crash)


def digest(parts: list[str]) -> tuple[str, int]:
    """sha256 and byte count of the UTF-8 output, encoded in slices."""
    h = hashlib.sha256()
    size = 0
    for part in parts:
        for start in range(0, len(part), 1 << 20):
            chunk = part[start:start + (1 << 20)].encode("utf-8")
            h.update(chunk)
            size += len(chunk)
    return h.hexdigest(), size


def outcome_problem(op, outcome: Outcome) -> Optional[str]:
    if outcome.crash:
        return f"uncaught {outcome.crash}"
    if outcome.code != op.exit:
        return f"exit {outcome.code}, expected {op.exit}: {outcome.err.strip()[:200]}"
    return None


def pass_problem(op, outcome: Outcome, expected: dict, first_digest: dict) -> Optional[str]:
    """What is wrong with one timed execution: its exit code, a digest that
    differs from the first pass, or one that differs from expected.json."""
    problem = outcome_problem(op, outcome)
    if problem is not None:
        return problem
    sha, size = digest(outcome.out.parts)
    if first_digest.setdefault(op.name, sha) != sha:
        return "output differs between passes"
    if op.check == "digest":
        want = expected.get(op.name)
        if want is None or want["argv"] != list(op.argv):
            return "no recorded expectation for this command line"
        if (sha, size, outcome.err) != (want["sha256"], want["bytes"], want["stderr"]):
            return "output differs from the recorded digest"
    return None


def run_checked(cli, op) -> tuple[Outcome, Optional[str]]:
    """Run `op` once, untimed; the problem with its exit code or with its
    independent reference, if any."""
    outcome = run_op(cli, op.argv)
    problem = outcome_problem(op, outcome)
    if problem is None and op.reference is not None:
        problem = op.reference(outcome.out.text())
    return outcome, problem


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle)


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import cobweb.cli
    return cobweb.cli


# ---------------------------------------------------------------------------
# modes

def probe_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports cobweb and loads the
    workload: the benchmark's set-up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-E", "-s", str(BENCH / "worker.py"), "--probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, check=True, capture_output=True, timeout=PROBE_TIMEOUT_S,
    )
    return time.perf_counter() - start


def timed(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the operation list for about `seconds`: no pass starts that
    would, at the pace of the previous one, end more than half a pass past
    the deadline.

    In an untraced pass, every operation runs once in list order, and after
    each of them comes one slot of a short operation (first run under
    SHORT_S), taken in turn.  A slot repeats its operation until the runs add
    up to SLOT_S.  The short operations are thus sampled all through the run
    rather than at two points of each pass, so their medians do not hang on
    the speed of the host at those points.  With tracing, untraced and traced
    passes alternate, at least one each; traced passes run every operation
    once and have no slots, so the counts stay exact.  Every run of every
    operation is checked: its exit code and its output digest.

    Untraced, PROBES_PER_PASS set-up probes follow each pass, so that their
    median samples the host's speed across the whole run.
    """
    ops = build(workload, seed)
    expected = load_expected()
    first_digest: dict[str, str] = {}
    failures: dict[str, str] = {}
    passes = []
    attempted = failed = 0
    missing: list[str] = []
    setup_seconds: list[float] = []
    short: list[int] = []
    turn = 0

    def sample(i: int, into: list[float]) -> None:
        nonlocal attempted, failed
        op = ops[i]
        outcome = run_op(cli, op.argv)
        into.append(outcome.seconds)
        problem = pass_problem(op, outcome, expected, first_digest)
        attempted += 1
        if problem is not None:
            failed += 1
            failures.setdefault(op.name, problem)

    deadline = time.perf_counter() + seconds
    traced = False
    while True:
        pass_start = time.perf_counter()
        tracer = Tracer() if traced else None
        if tracer is not None:
            missing = tracer.install()
        samples: list[list[float]] = [[] for _ in ops]
        try:
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.count_bytes = op.check == "digest"
                # Each operation starts from an empty collector, as in a
                # fresh process, whatever the one before it left behind.
                gc.collect()
                sample(i, samples[i])
                if tracer is not None:
                    continue
                if len(passes) == 0 and samples[i][0] < SHORT_S:
                    short.append(i)
                if short:
                    j = short[turn % len(short)]
                    turn += 1
                    gc.collect()
                    slot: list[float] = []
                    while sum(slot) < SLOT_S and len(slot) < MAX_REPEATS:
                        sample(j, slot)
                    samples[j] += slot
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not trace:
            setup_seconds += [probe_seconds(workload, seed) for _ in range(PROBES_PER_PASS)]
        passes.append({
            "traced": traced,
            "samples": samples,
            "layers": tracer.metrics() if tracer is not None else None,
        })
        # Stop when another pass like the last one would end more than half a
        # pass past the deadline, so a run lasts `seconds` give or take that.
        now = time.perf_counter()
        if now + (now - pass_start) / 2 > deadline and (not trace or len(passes) >= 2):
            break
        traced = trace and not traced
    # ru_maxrss is KiB on Linux; read it before the checks below allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op in ops:
        if op.check == "digest" or op.name in failures:
            continue
        outcome, problem = run_checked(cli, op)
        if problem is None and digest(outcome.out.parts)[0] != first_digest[op.name]:
            problem = "output differs between passes"
        if problem is not None:
            failed += 1
            failures[op.name] = problem
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "setup_seconds": setup_seconds,
        "untraced_targets": missing,
    }


def known_defects(cli) -> dict:
    results = []
    for op in defect_ops():
        _, problem = run_checked(cli, op)
        results.append({"name": op.name, "ok": problem is None, "problem": problem})
    return {"results": results}


def record(cli) -> dict:
    expected, problems = {}, {}
    for workload in WORKLOADS:
        for op in build(workload, seed=1):
            outcome, problem = run_checked(cli, op)
            if problem is not None:
                problems[op.name] = problem
            elif op.check == "digest":
                sha, size = digest(outcome.out.parts)
                expected[op.name] = {
                    "argv": list(op.argv), "sha256": sha, "bytes": size, "stderr": outcome.err,
                }
    if not problems:
        with open(EXPECTED, "w", encoding="utf-8") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return {"recorded": len(expected), "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--probe", action="store_true")
    mode.add_argument("--known-defects", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    check_interpreter_defaults()
    cli = import_program()
    if args.known_defects:
        result = known_defects(cli)
    elif args.record:
        result = record(cli)
    elif args.probe:
        ops = build(args.workload, args.seed)
        load_expected()
        result = {"operations": len(ops)}
    else:
        result = timed(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 1 if result.get("problems") else 0


if __name__ == "__main__":
    sys.exit(main())
