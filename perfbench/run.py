"""Benchmark of the fiatcells workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Every pass of a workload runs in a fresh process (see `worker.py`), one
after another, so the program's module caches start empty and one caller
waits for each pass (a closed loop with one client).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the lines before it repeat the metrics for a reader.

`--trace 0` measures the end-to-end metrics: passes, repeated until the
next would end after `--seconds`, reporting medians.  `--trace 1`
alternates untraced and traced passes (at least two of each), checks that
every counter of the traced passes repeats exactly, and reports the
per-layer metrics with the tracing overhead.
See README.md for every metric, its unit and the layer it belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

TRACED_PASSES = 2  # the counters of these must agree exactly
RUN_LIMIT_S = 170  # a run ends well within three minutes, whatever --seconds says
MEASURE_LIMIT_S = 150  # no pass starts that would end after this
REFERENCE_REPEATS = 10  # reference timings between two passes

UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "checks": "count",
    "wall_s": "s",
    "checks_per_s": "1/s",
}
# printed for a reader but left out of the result: raw seconds drift with
# the machine's speed (see README.md), `wall_ref` divides that drift out
PRINTED_ONLY = ("wall_s", "checks_per_s")


class BenchError(RuntimeError):
    pass


def reference_s() -> float:
    """Seconds taken by a fixed exact-arithmetic loop (a few milliseconds),
    the benchmark's own code: it gauges how fast the machine runs now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 7, i % 11 + 1)
    return time.perf_counter() - start


def reference_timings() -> list:
    return [reference_s() for _ in range(REFERENCE_REPEATS)]


def spawn(args, deadline: float, trace: int = 0) -> dict:
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(trace),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass of {args.workload} did not end within the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced_run(args, start: float, deadline: float):
    # the reference runs in this process between two passes, never inside one
    between = [reference_timings()]
    passes = []
    while True:
        began = time.monotonic()
        passes.append(spawn(args, deadline))
        between.append(reference_timings())
        took = time.monotonic() - began
        if time.monotonic() + took > start + args.seconds:
            break
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in passes),
        "wall_ref": statistics.median(
            r["wall_s"] / statistics.median(before + after)
            for r, before, after in zip(passes, between, between[1:])
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "checks": statistics.median_low(r["attempted"] for r in passes),
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "checks_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in passes),
    }
    return passes, {name: (value, UNITS[name]) for name, value in metrics.items()}, []


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def traced_run(args, start: float, deadline: float):
    # alternate untraced and traced passes so that both see the same machine
    untraced, traced = [], []
    while True:
        began = time.monotonic()
        untraced.append(spawn(args, deadline))
        traced.append(spawn(args, deadline, trace=1))
        took = time.monotonic() - began
        enough = len(traced) >= TRACED_PASSES
        if enough and time.monotonic() + took > start + args.seconds:
            break
    problems = []
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name, value in other["layers"].items():
            if _layer_unit(name) != "s" and value != first[name]:
                problems.append(f"counter {name} differs between traced passes: "
                                f"{first[name]} != {value}")
    metrics = {}
    for name in first:
        unit = _layer_unit(name)
        value = statistics.median(t["layers"][name] for t in traced) if unit == "s" else first[name]
        metrics[name] = (value, unit)
    overhead = (statistics.median(t["wall_s"] for t in traced)
                - statistics.median(u["wall_s"] for u in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return untraced + traced, metrics, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "fiatcells")):
        print(f"no program sources: {os.path.join(ROOT, 'src', 'fiatcells')} is missing",
              file=sys.stderr)
        return 2
    args.seconds = min(args.seconds, MEASURE_LIMIT_S)
    # passes and the reference share one CPU, whose speed the reference gauges
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    run = traced_run if args.trace else untraced_run
    try:
        passes, metrics, problems = run(args, start, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    failures = [f for r in passes for f in r["failures"]]
    for failure in sorted(set(failures))[:20] + problems:
        print(f"FAILED {failure}")
    attempted = sum(r["attempted"] for r in passes)
    failed = len(failures) + len(problems)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"{attempted} check records, {failed} failed")
    print("  pass wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in passes))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in PRINTED_ONLY
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
