"""Self-tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench -q

They are not part of the package's test suite.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import abelia  # noqa: E402
import abelia.core  # noqa: E402
from abelia import (Homomorphism, builtin, list_builtins, product,  # noqa: E402
                    serialize_algebra)

import run  # noqa: E402
import workloads  # noqa: E402
from reference import REF_S, reference_slice, rescale  # noqa: E402
from relabel import Relabeller, permute  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (WORKLOADS, Task, check, cli_task, cyclic, desk,  # noqa: E402
                       execute, pointed)


def test_seed_zero_reproduces_shipped_tables():
    relabel = Relabeller(0, stream=3)
    for name in list_builtins():
        A = builtin(name).algebra
        assert serialize_algebra(relabel(A)) == serialize_algebra(A)
    for A in (cyclic(2), cyclic(3), cyclic(4), pointed(2), pointed(3)):
        assert A.tables == builtin(A.name).algebra.tables


def test_relabelling_is_an_isomorphism():
    relabel = Relabeller(7)
    A = product(cyclic(3), cyclic(4))
    perm = relabel.perm(A.size)
    B = permute(A, perm)
    assert perm[0] == 0 and B.tables != A.tables
    Homomorphism(A, B, tuple(perm))  # raises unless perm commutes with every op


def test_seeds_and_streams_draw_different_labellings():
    perms = {tuple(Relabeller(seed, stream).perm(12)) for seed in (1, 2) for stream in (0, 1)}
    assert len(perms) == 4
    assert Relabeller(1, 0).perm(12) == Relabeller(1, 0).perm(12)


def observations(workload: str, seed: int, tmp_path: Path) -> list[dict]:
    workdir = tmp_path / f"{workload}-{seed}"
    workdir.mkdir()
    tasks = WORKLOADS[workload](Relabeller(seed), workdir)
    outcomes, _, _ = execute(tasks)
    results = check(tasks, outcomes)
    assert [r.error for r in results] == [None] * len(tasks)
    return [task.observe(outcome) for task, (outcome, _, _) in zip(tasks, outcomes)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_seeds_give_identical_invariants(workload, tmp_path):
    assert observations(workload, 1, tmp_path) == observations(workload, 2, tmp_path)


def small_desk_tasks(tmp_path: Path) -> list[Task]:
    tasks = desk(Relabeller(0), tmp_path)
    return [t for t in tasks if t.name.endswith((" Z2", " Z3", " P2"))]


def test_wrong_expectation_crash_and_cap_count_as_failures(tmp_path):
    tasks = small_desk_tasks(tmp_path)
    wrong = tasks[0]
    wrong.expect = {**wrong.expect, "exit": 1 - wrong.expect["exit"]}
    z3 = str(tmp_path / "Z3.alg")
    capped = cli_task("np capped", ["np", z3, z3], "cg=4", exit=0, holds=True)

    def crash():
        raise RuntimeError("boom")

    crashing = Task("crash", crash, lambda outcome: {}, {})
    tasks += [capped, crashing]
    outcomes, _, _ = execute(tasks)
    errors = {r.name: r.error for r in check(tasks, outcomes)}
    failed = sorted(name for name, error in errors.items() if error is not None)
    assert failed == sorted([wrong.name, "np capped", "crash"])
    assert "'exit': 3" in errors["np capped"]
    assert "RuntimeError: boom" in errors["crash"]


def test_traced_self_times_do_not_double_count(tmp_path):
    tasks = small_desk_tasks(tmp_path)
    tasks.append(cli_task("np Z3", ["np", str(tmp_path / "Z3.alg"), str(tmp_path / "Z3.alg")],
                          "cg=9", exit=0, holds=True))
    original = abelia.core.product
    tracer = Tracer()
    outcomes, wall_s, _ = execute(tasks, tracer)
    assert abelia.core.product is original and abelia.product is original
    assert all(error is None for _, error, _ in outcomes)
    m = tracer.metrics()
    assert m["cli.main.calls"][0] == len(tasks)
    assert m["clones.find_subtraction_term.calls"][0] == 3
    assert m["normalproj.check_np_pair.calls"][0] == 1
    assert m["core.product.calls"][0] >= 1 and m["congruences.cg.calls"][0] >= 1
    assert m["structures.find_internal_subtractions.found"][0] == 2 + 1 + 1
    assert m["core.enumerate_homomorphisms.yielded"][0] == 2 + 1 + 1
    # Nested spans are subtracted from their parents, so the self times of
    # all spans add up to the durations of the outermost ones (cli.main).
    roots = [tracer._span_end[i] - tracer._span_start[i]
             for i in range(tracer.span_count) if tracer._span_parent[i] == -1]
    assert tracer.self_total() == pytest.approx(sum(roots), rel=1e-9)
    assert tracer.self_total() <= wall_s
    assert sum(m[f"{layer}.self_s"][0] for layer in
               ("core", "congruences", "normalproj", "clones", "structures", "cli")
               ) == pytest.approx(tracer.self_total(), rel=1e-9)


def test_run_refuses_a_tree_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    reported = set(Tracer().metrics()) | {
        "cli.stdout_bytes", "trace.wall_s", "trace.untraced_wall_s",
        "trace.overhead_s", "trace.self_total_s", "trace.spans"}
    assert per_layer == reported
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "peak_rss_mib", "setup_s"}


def test_reference_slices_bracket_long_tasks(monkeypatch):
    assert gc.isenabled() and reference_slice() > 0 and gc.isenabled()
    tasks = [Task(f"sleep {d}", lambda d=d: time.sleep(d), lambda outcome: {}, {})
             for d in (0, 0.02, 0, 0)]
    monkeypatch.setattr(workloads, "SLICE_AFTER_S", 0.01)
    outcomes, wall_s, slices = execute(tasks, reference=lambda: 1.0)
    # before the first task, after the long one, after the last
    assert slices == [1.0, 1.0, 1.0]
    assert wall_s == sum(seconds for _, _, seconds in outcomes) >= 0.02


def test_rescale_divides_by_the_mean_slice():
    # the kernel ran at half the reference speed on average
    assert rescale(3.0, [REF_S, 3 * REF_S]) == pytest.approx(1.5)
