#!/usr/bin/env python3
"""abelia benchmark: time, memory and set-up cost of exact verdicts.

Usage (from the repository root):

    python3 perfbench/run.py --workload {np-groups,lattices,desk} \\
        --seed N --seconds S --trace {0,1}

Every pass of a workload runs in a fresh interpreter (``one_pass.py``),
one after another, with no worker threads or processes.  Pass i of a run
relabels every input algebra with the permutations drawn for (seed, i), so
a run's figures are taken over several isomorphic copies of the inputs:
``cg``'s time and memory move with the labelling, and one copy would make
the run's figures depend on its seed more than on the code.  Seed 0
keeps every pass on the shipped labelling.

With ``--trace 0`` the run first starts the set-up alone 3 times, then
runs passes while the next one is expected to end within S seconds, at
least one.  It reports

* ``wall_s``: the tasks' wall time, set-up excluded, rescaled to the
  machine speed at which the reference kernel (``reference.py``) takes
  ``REF_S``: each pass times the kernel between its tasks and multiplies
  its wall time by ``REF_S`` over the kernel's mean time.  This takes out
  the machine's speed swings, which last longer than a pass; the unscaled
  figure is printed above the result.  Median over passes;
* ``peak_rss_mib``: peak resident memory of the pass's process; mean over
  passes, because it moves with the labelling (``cg``'s worklist grows
  with it) but hardly with timing noise, so the mean estimates the
  expected peak best;
* ``setup_s``: process start until the inputs are written, rescaled by
  a timing of the reference kernel taken right after; median over the
  set-up-only starts and the passes.

With ``--trace 1`` it runs one plain and one traced pass on stream 0 and
reports the traced pass's per-function calls and self times, per-layer
self times, work counts and the tracing overhead (traced minus plain
``wall_s``, both rescaled).  Spans are written to ``perfbench/_traces/``.

Every task's output is checked; failed tasks count in ``failed`` and do
not stop the run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import rescale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ONE_PASS = HERE / "one_pass.py"
WORKLOADS = ("np-groups", "lattices", "desk")
SETUP_PROBES = 3
# Every run must end within 180 s, whatever the passes take.
RUN_LIMIT_S = 170.0


class RunError(Exception):
    pass


def start_pass(workload: str, seed: int, stream: int, mode: str, deadline: float) -> dict:
    """Run one_pass.py to completion and return its result with setup_s added."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(ONE_PASS), workload, str(seed), str(stream), mode],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} pass {stream} of {workload} ran past the run limit") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} pass {stream} of {workload} exited {proc.returncode}:\n"
                       f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["unscaled_setup_s"] = result["setup_end"] - t0
    result["setup_s"] = rescale(result["unscaled_setup_s"], [result["setup_slice"]])
    result["seconds"] = time.monotonic() - t0
    return result


def describe(name: str, values: list[float], unit: str, summary=statistics.median) -> str:
    return (f"{name}: {summary.__name__} {summary(values):.6g} {unit} over "
            f"{len(values)} samples (min {min(values):.4g}, max {max(values):.4g})")


def measure(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    probes = [start_pass(workload, seed, 0, "setup", deadline)
              for _ in range(SETUP_PROBES)]
    passes = [start_pass(workload, seed, 0, "plain", deadline)]
    while time.monotonic() - start + passes[-1]["seconds"] <= seconds:
        passes.append(start_pass(workload, seed, len(passes), "plain", deadline))
    print(describe("unscaled wall", [p["wall_s"] for p in passes], "s"))
    print(describe("unscaled setup", [p["unscaled_setup_s"] for p in probes + passes], "s"))
    print(describe("reference slice", [s for p in passes for s in p["slices"]], "s"))
    samples = {
        "wall_s": ([p["scaled_wall_s"] for p in passes], "s", statistics.median),
        "peak_rss_mib": ([p["peak_rss_kib"] / 1024 for p in passes], "MiB",
                         statistics.mean),
        "setup_s": ([p["setup_s"] for p in probes + passes], "s", statistics.median),
    }
    metrics = {}
    for name, (values, unit, summary) in samples.items():
        metrics[name] = {"value": summary(values), "unit": unit}
        print(describe(name, values, unit, summary))
    return passes, metrics


def measure_traced(workload: str, seed: int, deadline: float):
    plain = start_pass(workload, seed, 0, "plain", deadline)
    traced = start_pass(workload, seed, 0, "traced", deadline)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in traced["layers"].items()}
    stdout_bytes = sum(t["stdout_bytes"] for t in traced["tasks"])
    extra = {
        "cli.stdout_bytes": (stdout_bytes, "B"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.untraced_wall_s": (plain["wall_s"], "s"),
        "trace.overhead_s": (traced["scaled_wall_s"] - plain["scaled_wall_s"], "s"),
        "trace.self_total_s": (traced["self_total_s"], "s"),
        "trace.spans": (traced["spans"], "count"),
    }
    metrics.update({name: {"value": value, "unit": unit}
                    for name, (value, unit) in extra.items()})
    # Self times exclude nested spans, so together they fit in the wall time.
    consistent = traced["self_total_s"] <= traced["wall_s"]
    print(f"traced wall {traced['wall_s']:.3f} s, untraced {plain['wall_s']:.3f} s, "
          f"overhead {metrics['trace.overhead_s']['value']:+.3f} s at reference speed, "
          f"summed self time {traced['self_total_s']:.3f} s over {traced['spans']} spans")
    return [plain, traced], metrics, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "abelia" / "__init__.py").is_file():
        print(f"error: no abelia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    # A terminated run still kills and reaps the pass it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            passes, metrics, consistent = measure_traced(args.workload, args.seed, deadline)
        else:
            passes, metrics = measure(args.workload, args.seed, args.seconds, deadline)
            consistent = True
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = failed = 0
    per_task: dict[str, list[float]] = {}
    for p_index, p in enumerate(passes):
        for t in p["tasks"]:
            attempted += 1
            per_task.setdefault(t["name"], []).append(t["seconds"])
            if t["error"] is not None:
                failed += 1
                print(f"FAILED pass {p_index} task {t['name']}: {t['error']}")
    for name, values in per_task.items():
        print(describe(f"task {name}", values, "s"))
    print(f"failed_share: {failed / attempted:.4g} ({failed} of {attempted} tasks)")
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
