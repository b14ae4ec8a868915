"""The benchmark's workloads: input algebras, tasks and output checks.

Every workload is a list of tasks run back to back in one interpreter.  A
task calls abelia's public API or ``abelia.cli.main`` with its caps set
explicitly through ``ABELIA_CAPS``; its outcome is checked afterwards
against an expectation that is invariant under relabelling, so the checks
hold for every seed.  A task fails on a wrong verdict, on exit 2 or 3 from
the command line, or on an uncaught exception.

Why these three workloads:

* ``np-groups`` materialises one large product table and runs one large
  ``cg`` per task, and sets the peak memory; no lattice, homomorphism or
  clone work.
* ``lattices`` builds congruence lattices: the ops-free ``_merge_blocks``
  path on P3 x P3 (21,147 congruences) inside ``cross_check_conditions``,
  and the generic path, with many small ``cg`` calls, on two group products.
* ``desk`` runs the remaining desk commands, where homomorphism
  enumeration, clone closure, the free-algebra kernel and JSON output do
  the work and ``cg`` is nearly idle.

No two tasks of a workload share a congruence-lattice cache key, so a
change to that cache shows as a change in work, not as a lost cross-task
hit.  The one shared key, the shifting/centralic pair inside
``cross_check_conditions``, is shared in real use too.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import abelia
import abelia.cli
from abelia import (Caps, FiniteAlgebra, POINTED, builtin, list_builtins,
                    op_table, product, serialize_algebra)

from relabel import Relabeller

# Bell(9): every partition of a 9-element set is a congruence of P3 x P3.
P3_SQUARED_LATTICE = 21_147


@dataclass
class Task:
    """``observe`` turns the outcome of ``run`` into named invariants;
    the task passes when every key of ``expect`` matches."""

    name: str
    run: Callable[[], object]
    observe: Callable[[object], dict]
    expect: dict

    def check(self, outcome) -> str | None:
        """None when the outcome meets the expectation, else the reason."""
        seen = self.observe(outcome)
        wrong = {k: seen.get(k) for k, v in self.expect.items() if seen.get(k) != v}
        return None if not wrong else f"expected {self.expect}, observed {wrong}"


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str


def cyclic(n: int) -> FiniteAlgebra:
    """Z_n with the signature of the builtin groups."""
    return FiniteAlgebra(f"Z{n}", n, builtin("Z2").algebra.signature,
                         {"zero": (0,),
                          "add": op_table(n, 2, lambda x, y: (x + y) % n),
                          "neg": op_table(n, 1, lambda x: (-x) % n)})


def pointed(n: int) -> FiniteAlgebra:
    return FiniteAlgebra(f"P{n}", n, POINTED, {"zero": (0,)})


def write(workdir: Path, A: FiniteAlgebra) -> str:
    path = workdir / f"{A.name}.alg"
    path.write_text(serialize_algebra(A), encoding="utf-8")
    return str(path)


def _run_cli(argv: list[str], caps: str) -> CliOutcome:
    os.environ["ABELIA_CAPS"] = caps
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = abelia.cli.main(argv + ["--json"])
    return CliOutcome(code, out.getvalue(), err.getvalue())


def _observe_cli(outcome: CliOutcome) -> dict:
    seen: dict = {"exit": outcome.code}
    if outcome.code not in (0, 1):
        seen["stderr"] = outcome.stderr.strip()
        return seen
    payload = json.loads(outcome.stdout)
    for key in ("holds", "instances", "status", "size"):
        seen[key] = payload.get(key)
    subs = payload.get("subtractions")
    seen["subtractions"] = len(subs) if isinstance(subs, list) else subs
    if "theta" in payload:
        seen["theta_blocks"] = len(payload["theta"])
    if "congruences" in payload:
        seen["congruences"] = len(payload["congruences"])
    return seen


def cli_task(name: str, argv: list[str], caps: str, **expect) -> Task:
    return Task(name, lambda: _run_cli(argv, caps), _observe_cli, expect)


def api_task(name: str, call: Callable[[Caps], object], caps: str,
             observe: Callable[[object], dict], **expect) -> Task:
    return Task(name, lambda: call(Caps.from_env(caps)), observe, expect)


def np_groups(relabel: Relabeller, workdir: Path) -> list[Task]:
    # Z12 sets the peak memory and most of the time; its cost moves with the
    # labelling, so a pass holds only one more, small size and a run gets
    # through as many labellings of Z12 as it can.
    tasks = []
    for n in (8, 12):
        A = cyclic(n)
        a = write(workdir, relabel(A))
        aa = write(workdir, relabel(product(A, A)))
        tasks.append(cli_task(f"np Z{n} Z{n}^2", ["np", a, aa], f"cg={n ** 3}",
                              exit=0, holds=True, theta_blocks=n * n))
    return tasks


def lattices(relabel: Relabeller, workdir: Path) -> list[Task]:
    catalog = [relabel(builtin(name).algebra) for name in list_builtins()]
    P3 = next(A for A in catalog if A.name == "P3")

    def observe_cross(report) -> dict:
        p3 = [p for p in report.pairs if (p.left, p.right) == ("P3", "P3")]
        lattice = None
        if p3 and p3[0].shifting_holds is not None:
            lattice = len(abelia.all_congruences(product(P3, P3),
                                                 Caps.from_env("lattice=9")))
        return {"ok": report.ok, "pairs": len(report.pairs),
                "p3_squared_lattice": lattice}

    Z4 = cyclic(4)
    z6z6 = write(workdir, relabel(product(cyclic(6), cyclic(6))))
    z442 = write(workdir, relabel(product(product(Z4, Z4), cyclic(2))))
    return [
        api_task("cross_check_conditions builtins",
                 lambda caps: abelia.cross_check_conditions(catalog, caps=caps),
                 "cg=256,lattice=12,hom_src=9,hom_tgt=4", observe_cross,
                 ok=True, pairs=22, p3_squared_lattice=P3_SQUARED_LATTICE),
        cli_task("congruences Z6xZ6", ["congruences", z6z6], "cg=36,lattice=36",
                 exit=0, instances=30, congruences=30),
        cli_task("congruences Z4xZ4xZ2", ["congruences", z442], "cg=32,lattice=32",
                 exit=0, instances=54, congruences=54),
    ]


def desk(relabel: Relabeller, workdir: Path) -> list[Task]:
    p4 = write(workdir, relabel(pointed(4)))
    Z6 = relabel(cyclic(6))
    z6 = write(workdir, Z6)
    tasks = [
        # 4**9 tables: nine free cells once s(x,x)=0 and s(x,0)=x are pinned
        cli_task("internal-subtractions P4", ["internal-subtractions", p4],
                 "structure_src=16", exit=0, instances=4 ** 9, subtractions=4 ** 9),
        cli_task("free Z6 3", ["free", z6, "3"], "free_positions=216,free_carrier=4096",
                 exit=0, size=216),
        api_task("generate_term_ops Z6 3",
                 lambda caps: abelia.generate_term_ops(Z6, 3, caps),
                 "clone_tables=100000",
                 lambda r: {"tables": len(r.term_ops), "complete": r.complete},
                 tables=216, complete=True),
    ]
    files = []
    for name in list_builtins():
        fixture = builtin(name)
        path = write(workdir, relabel(fixture.algebra))
        files.append(path)
        exp = {k: v for k, (v, _) in fixture.expectations.items()}
        for check, key in (("subtraction-term", "subtraction_term"),
                           ("unit-term", "unit_term")):
            found = exp[key] == "found"
            tasks.append(cli_task(f"{check} {name}", [check, path], "clone_tables=100000",
                                  exit=0 if found else 1, status=exp[key]))
        abelian = {"subtractions": exp["internal_subtractions"]}
        if "abelian" in exp:
            abelian.update(exit=0 if exp["abelian"] else 1, holds=exp["abelian"])
        tasks.append(cli_task(f"abelian {name}", ["abelian", path], "structure_src=16",
                              **abelian))
    tasks.append(cli_task("crystal builtins", ["crystal", *files],
                          "cg=256,hom_src=9,hom_tgt=4,structure_src=16",
                          exit=0, holds=True))
    return tasks


WORKLOADS = {"np-groups": np_groups, "lattices": lattices, "desk": desk}


@dataclass
class TaskResult:
    name: str
    seconds: float
    error: str | None
    stdout_bytes: int


# A task at least this long is followed by a reference slice.
SLICE_AFTER_S = 1.0


def execute(tasks: list[Task], tracer=None, reference=None) -> tuple[list, float, list]:
    """Run the tasks back to back.

    Returns one (outcome, error, seconds) per task, the wall time of the
    tasks and the reference slices.  ``reference`` times the reference
    kernel; when given, a slice runs before the first task, after every
    task of at least ``SLICE_AFTER_S`` and after the last task, and the
    wall time leaves the slices out.  An uncaught exception is recorded as
    the task's error and the run goes on.
    """
    outcomes = []
    slices = []
    if tracer is not None:
        tracer.install()
    try:
        if reference is not None:
            slices.append(reference())
        for index, task in enumerate(tasks):
            if tracer is not None:
                tracer.task = index
            t = time.perf_counter()
            try:
                outcome, error = task.run(), None
            except Exception:  # a crash is a failed task, not a failed run
                outcome, error = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t
            outcomes.append((outcome, error, seconds))
            if reference is not None and (seconds >= SLICE_AFTER_S
                                          or index == len(tasks) - 1):
                slices.append(reference())
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outcomes, sum(seconds for _, _, seconds in outcomes), slices


def check(tasks: list[Task], outcomes: list) -> list[TaskResult]:
    """Check every outcome that did not crash against its task's expectation."""
    results = []
    for task, (outcome, error, seconds) in zip(tasks, outcomes):
        if error is None:
            try:
                error = task.check(outcome)
            except Exception:
                error = traceback.format_exc(limit=3)
        size = (len(outcome.stdout.encode()) if isinstance(outcome, CliOutcome)
                else 0)
        results.append(TaskResult(task.name, seconds, error, size))
    return results
