"""Span tracer over abelia's public functions, installed from outside the package.

The tracer replaces every binding of each traced function object across the
loaded ``abelia`` modules (``product``, for instance, is bound in ``core``,
``normalproj``, ``structures`` and the package itself), so internal calls
are seen as well as the benchmark's own.  Each call is one span: its name,
its start and end, the span that was open when it began, and the task it
belongs to.  A span's self time is its duration minus the durations of the
spans nested directly inside it, so summed self times never count nested
work twice.  ``enumerate_homomorphisms`` returns a generator; only the time
spent inside its ``next()`` counts, one span per ``next()``.

Spans are kept in memory in flat arrays and written out by ``write``.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

LAYERS: dict[str, tuple[str, ...]] = {
    "core": ("product", "quotient", "enumerate_homomorphisms", "hom_violation",
             "free_algebra", "parse_algebra"),
    "congruences": ("cg", "all_congruences"),
    "normalproj": ("check_np_pair", "shifting_shape_check", "centralic_check",
                   "check_condition_d_instances", "cross_check_conditions"),
    "clones": ("generate_term_ops", "find_subtraction_term", "find_unit_term"),
    "structures": ("find_internal_subtractions", "crystallographic_report"),
    "cli": ("main",),
}

TRACED = [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]
GENERATORS = {"core.enumerate_homomorphisms"}

# Work counts taken from each call's result, keyed by traced function.
RESULT_COUNTS = {
    "core.product": lambda r: {"core.product.entries":
                               sum(len(t) for t in r.tables.values())},
    "core.free_algebra": lambda r: {"core.free_algebra.carrier": r[0].size},
    "congruences.cg": lambda r: {"congruences.cg.carrier_sum": r.size,
                                 "congruences.cg.merges": r.size - r.num_blocks},
    "congruences.all_congruences": lambda r: {
        "congruences.all_congruences.lattice_size": len(r)},
    "normalproj.centralic_check": lambda r: {
        "normalproj.centralic_check.instances": r.instances},
    "normalproj.check_condition_d_instances": lambda r: {
        "normalproj.check_condition_d_instances.instances": r.instances},
    "clones.generate_term_ops": lambda r: {
        "clones.generate_term_ops.tables": len(r.term_ops)},
    "structures.find_internal_subtractions": lambda r: {
        "structures.find_internal_subtractions.found": len(r)},
}

COUNT_NAMES = ["core.product.entries", "core.enumerate_homomorphisms.yielded",
               "core.free_algebra.carrier", "congruences.cg.carrier_sum",
               "congruences.cg.merges", "congruences.all_congruences.lattice_size",
               "normalproj.centralic_check.instances",
               "normalproj.check_condition_d_instances.instances",
               "clones.generate_term_ops.tables",
               "structures.find_internal_subtractions.found"]


class Tracer:
    def __init__(self):
        self.task = -1
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.max_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        # cg calls made while an all_congruences span is open: join attempts
        self.lattice_cg_calls = 0
        self._lattice_depth = 0
        self._names = {qual: i for i, qual in enumerate(TRACED)}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_task = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, qual: str) -> list:
        span = len(self._span_start)
        parent = self._stack[-1][0] if self._stack else -1
        if qual == "congruences.cg" and self._lattice_depth:
            self.lattice_cg_calls += 1
        elif qual == "congruences.all_congruences":
            self._lattice_depth += 1
        self._span_name.append(self._names[qual])
        self._span_parent.append(parent)
        self._span_task.append(self.task)
        self._span_end.append(0.0)
        frame = [span, qual, 0.0, time.perf_counter()]
        self._span_start.append(frame[3])
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        span, qual, child_s, start = frame
        self._stack.pop()
        self._span_end[span] = end
        duration = end - start
        self.self_s[qual] += duration - child_s
        if duration > self.max_s[qual]:
            self.max_s[qual] = duration
        if self._stack:
            self._stack[-1][2] += duration
        if qual == "congruences.all_congruences":
            self._lattice_depth -= 1

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, qual: str, fn):
        counted = RESULT_COUNTS.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[qual] += 1
            frame = self._enter(qual)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if counted is not None:
                self.counts.update(counted(result))
            return result

        return wrapper

    def _wrap_generator(self, qual: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[qual] += 1
            return _TimedIterator(self, qual, fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        """Patch every binding of every traced function in the abelia modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "abelia" or name.startswith("abelia."))]
        for qual in TRACED:
            layer, name = qual.split(".")
            fn = getattr(sys.modules[f"abelia.{layer}"], name)
            wrap = self._wrap_generator if qual in GENERATORS else self._wrap
            wrapper = wrap(qual, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    # -- results -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, per-layer self time, work counts."""
        out: dict[str, tuple[float, str]] = {}
        for qual in TRACED:
            out[f"{qual}.calls"] = (self.calls[qual], "count")
            out[f"{qual}.self_s"] = (self.self_s[qual], "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(self.self_s[q] for q in TRACED
                                          if q.startswith(layer + ".")), "s")
        for name in COUNT_NAMES:
            out[name] = (self.counts[name], "count")
        lattice = self.counts["congruences.all_congruences.lattice_size"]
        out["congruences.all_congruences.cg_per_congruence"] = (
            self.lattice_cg_calls / lattice if lattice else 0.0, "ratio")
        out["normalproj.check_np_pair.max_s"] = (
            self.max_s["normalproj.check_np_pair"], "s")
        return out

    def write(self, path) -> None:
        """Write every span as gzipped tab-separated text, times relative to
        the first span."""
        t0 = self._span_start[0] if self._span_start else 0.0
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("span\tparent\ttask\tname\tstart_s\tend_s\n")
            for i in range(len(self._span_start)):
                fh.write(f"{i}\t{self._span_parent[i]}\t{self._span_task[i]}\t"
                         f"{TRACED[self._span_name[i]]}\t"
                         f"{self._span_start[i] - t0:.7f}\t{self._span_end[i] - t0:.7f}\n")


class _TimedIterator:
    """Iterator proxy that opens one span around each ``next()``."""

    def __init__(self, tracer: Tracer, qual: str, it):
        self._tracer = tracer
        self._qual = qual
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer._enter(self._qual)
        try:
            item = next(self._it)
        finally:
            self._tracer._exit(frame)
        self._tracer.counts["core.enumerate_homomorphisms.yielded"] += 1
        return item
