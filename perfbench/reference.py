"""A fixed pure-Python reference kernel that gauges the machine's current speed.

On a shared machine the same pass of identical work can take 60 % longer
from one minute to the next: the CPU alternates between a fast and a slow
state, and the state lasts seconds to minutes, longer than a pass.  Each
pass therefore times this kernel right after its set-up and between its
tasks, and rescales its set-up and wall times to the speed at which the
kernel takes ``REF_S``.  The kernel is benchmark code, not abelia code, so
a change to abelia never changes it.  It does the same kind of work as
abelia's inner loops: list indexing, tuple allocation, a union-find
worklist and set insertion.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# About the kernel's time on the machine the seed-state figures were taken
# on (2-core Xeon VM at 2.0 GHz, Python 3.11): 0.095 s in its fast state,
# 0.17 s in its slow one.
REF_S = 0.12


def _kernel() -> int:
    merged = 0
    for _ in range(4):
        rng = random.Random(5)
        n = 1 << 12
        table = [rng.randrange(n) for _ in range(8 * n)]
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        queue = [(table[i], table[i + 1]) for i in range(0, 8 * n, 2)]
        seen = set()
        while queue:
            u, v = queue.pop()
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
                merged += 1
            seen.add((ru, rv))
    return merged


def reference_slice() -> float:
    """Seconds one run of the kernel takes now.

    The cyclic garbage collector is off meanwhile, so the size of the heap
    the tasks left behind does not change the kernel's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def rescale(seconds: float, slices: list[float]) -> float:
    """``seconds`` at the speed where the kernel takes ``REF_S``, judged by
    the mean of the slices timed around that work."""
    return seconds * REF_S / statistics.mean(slices)
