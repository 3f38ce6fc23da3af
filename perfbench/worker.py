"""One set-up and one pass of a workload, in a fresh process.

Started by `run.py`; prints one JSON line with the set-up time (from the
moment the parent spawned this process to the first suite call), the pass's
wall time, its check records, the process's peak resident memory and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_rss_mb() -> float:
    """Peak resident memory of this process.  `ru_maxrss` would do, but it
    survives exec and so also counts the parent's memory at the fork."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="input seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="time.monotonic()")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    workloads.import_program()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    inputs = workloads.setup(args.workload, args.seed)
    out = {"setup_s": time.monotonic() - args.spawned_at}
    start = time.perf_counter()
    tally = workloads.run_pass(args.workload, inputs)
    out["wall_s"] = time.perf_counter() - start
    out["attempted"] = tally.attempted
    out["failures"] = tally.failures
    if tracer is not None:
        out["layers"] = tracer.metrics()
    out["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
