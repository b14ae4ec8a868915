"""Seeded relabelling of algebra carriers.

A relabelling is a permutation of 0..n-1 that keeps 0 fixed, so the
relabelled algebra is isomorphic to the original and every verdict, holds
flag and count the benchmark checks is unchanged.  Seed 0 is the identity
and reproduces the input tables exactly; any other seed draws one
permutation per algebra, in the order the algebras are relabelled.
"""

from __future__ import annotations

import itertools
import random

from abelia import FiniteAlgebra


def permute(A: FiniteAlgebra, perm: list[int]) -> FiniteAlgebra:
    """The algebra whose element perm[x] plays the role of x in A."""
    n = A.size
    if sorted(perm) != list(range(n)) or perm[0] != 0:
        raise ValueError("perm must be a permutation of the carrier fixing 0")
    tables = {}
    for opname, arity in A.signature.ops:
        table = A.tables[opname]
        out = [0] * len(table)
        for i, args in enumerate(itertools.product(range(n), repeat=arity)):
            j = 0
            for a in args:
                j = j * n + perm[a]
            out[j] = perm[table[i]]
        tables[opname] = tuple(out)
    return FiniteAlgebra(A.name, n, A.signature, tables)


class Relabeller:
    """Draws a fresh zero-fixing permutation for each algebra it is given.

    ``stream`` separates the independent relabellings used by successive
    passes of one benchmark run; the same (seed, stream) always gives the
    same permutations.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.identity = seed == 0
        self._rng = random.Random(f"{seed}/{stream}")

    def perm(self, n: int) -> list[int]:
        if self.identity:
            return list(range(n))
        rest = list(range(1, n))
        self._rng.shuffle(rest)
        return [0] + rest

    def __call__(self, A: FiniteAlgebra) -> FiniteAlgebra:
        return permute(A, self.perm(A.size))
