"""Run one pass of a workload in this fresh interpreter; print the result as JSON.

Usage: one_pass.py WORKLOAD SEED STREAM MODE, MODE being ``setup`` (stop
after set-up), ``plain`` or ``traced``.  Set-up is interpreter start,
``import abelia`` and generating and writing the input algebras; it ends at
``setup_end``, a CLOCK_MONOTONIC reading the parent compares with its own
clock taken just before starting this process.  A fresh interpreter per
pass keeps module-level caches, such as the congruence-lattice cache, from
carrying over between passes.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import abelia  # noqa: E402

if not Path(abelia.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: abelia imported from {abelia.__file__}, not from {SRC}")

from reference import reference_slice, rescale  # noqa: E402
from relabel import Relabeller  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, check, execute  # noqa: E402

WORK_DIR = ROOT / "perfbench" / "_work"
TRACE_DIR = ROOT / "perfbench" / "_traces"


def peak_rss_kib() -> int:
    """Peak resident memory of this process plus any process it started."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv: list[str]) -> int:
    workload, seed, stream, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    if workload not in WORKLOADS or mode not in ("setup", "plain", "traced"):
        print(f"error: bad arguments {argv}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        tasks = WORKLOADS[workload](Relabeller(seed, stream), workdir)
        out: dict = {"setup_end": time.monotonic()}
        if mode == "setup":
            out["setup_slice"] = reference_slice()
            print(json.dumps(out))
            return 0
        tracer = Tracer() if mode == "traced" else None
        outcomes, wall_s, slices = execute(tasks, tracer, reference_slice)
        out.update(wall_s=wall_s, peak_rss_kib=peak_rss_kib(),
                   setup_slice=slices[0], slices=slices,
                   scaled_wall_s=rescale(wall_s, slices))
        out["tasks"] = [vars(r) for r in check(tasks, outcomes)]
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["self_total_s"] = tracer.self_total()
            out["spans"] = tracer.span_count
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.write(TRACE_DIR / f"{workload}-seed{seed}.tsv.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
