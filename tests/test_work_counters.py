"""The benchmark tracer's work counters, pinned as goldens.

The tracer of `perfbench/tracing.py` is imported read-only (no bytecode is
written under `perfbench/`) and installed on `verify.report_all()` and on
one `bimod-ladder` rung each of zigzag A3 and k[x]/(x^6), in a fresh
process under each of two hash seeds.  Its calls, counts and maxima (its
times left out) are exact, so any change of work shows here as a diff of
`tests/data/work_*.json`, free of timing noise.

Regenerate the goldens, after a change that moves the work on purpose, with

    PYTHONPATH=src python tests/test_work_counters.py

and quote the diff of the goldens with the change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DATA = Path(__file__).resolve().parent / "data"
HASH_SEEDS = ("3", "77")
RUNGS = (("zigzag", 3), ("poly", 6))
RUNG_SEED = 5  # permutes each rung's basis order, as the benchmark's seed does


def _measure() -> dict:
    """{golden name: {"calls", "counts", "maxima"}} of one traced process."""
    sys.path.insert(0, str(PERFBENCH))
    import tracing
    import workloads
    from fiatcells import formats, verify

    tracer = tracing.Tracer()
    tracing.install(tracer)

    def counters(run):
        for kept in (tracer.calls, tracer.counts, tracer.maxima):
            kept.clear()  # the wrappers hold these very objects
        run()
        return {
            "calls": dict(sorted(tracer.calls.items())),
            "counts": dict(sorted(tracer.counts.items())),
            "maxima": dict(sorted(tracer.maxima.items())),
        }

    def rung(family, size):
        spec = formats.parse_algebra(workloads._rung_text(family, size, False, RUNG_SEED))
        tally = workloads.Tally()
        workloads._bimod_rung(tally, f"{family}{size}", family, size, spec, 0)
        assert tally.attempted and not tally.failures, tally.failures

    out = {"report_all": counters(verify.report_all)}
    for family, size in RUNGS:
        out[f"{family}{size}"] = counters(lambda: rung(family, size))
    return out


def _measured_under(seeds) -> list:
    """The counters of one fresh process per hash seed, run side by side."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leaves perfbench/ as it is
    procs = [
        subprocess.Popen(
            [sys.executable, __file__, "--measure"],
            env={**env, "PYTHONHASHSEED": seed},
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in seeds
    ]
    outs = []
    for proc in procs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr[-2000:]
        outs.append(json.loads(stdout))
    return outs


def _golden(name) -> Path:
    return DATA / f"work_{name}.json"


def _diff(want: dict, got: dict) -> list:
    return [
        f"{kind} {key}: {want[kind].get(key)} -> {got[kind].get(key)}"
        for kind in want
        for key in sorted(set(want[kind]) | set(got[kind]))
        if want[kind].get(key) != got[kind].get(key)
    ]


def test_work_counters_match_their_goldens_under_two_hash_seeds():
    for seed, measured in zip(HASH_SEEDS, _measured_under(HASH_SEEDS)):
        for name, got in measured.items():
            moved = _diff(json.loads(_golden(name).read_text()), got)
            assert not moved, f"work of {name} under PYTHONHASHSEED={seed} moved: {moved}"


def _regenerate() -> None:
    first, second = _measured_under(HASH_SEEDS)
    if first != second:
        raise SystemExit(f"counters differ between hash seeds {HASH_SEEDS}")
    for name, counters in first.items():
        _golden(name).write_text(json.dumps(counters, indent=1) + "\n")
        print(f"wrote {_golden(name).relative_to(ROOT)}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--measure"]:
        print(json.dumps(_measure()))
    else:
        _regenerate()
