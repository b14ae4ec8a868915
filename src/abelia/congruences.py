"""Congruences of finite algebras: principal-congruence generation, joins,
meets, kernels, and full lattice enumeration.

A congruence on a carrier of size n is stored as a representative table
``rep`` of length n in canonical least-element form: rep[x] is the smallest
member of the block of x, so rep[x] <= x and rep[rep[x]] == rep[x].
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .core import CapExceeded, FiniteAlgebra, Homomorphism


@dataclass(frozen=True)
class Congruence:
    size: int
    rep: tuple[int, ...]

    def __post_init__(self):
        if len(self.rep) != self.size:
            raise ValueError(f"rep table has {len(self.rep)} entries for size {self.size}")
        for x, r in enumerate(self.rep):
            if not (0 <= r <= x) or self.rep[r] != r:
                raise ValueError("rep table is not in least-representative form")

    def same(self, x: int, y: int) -> bool:
        return self.rep[x] == self.rep[y]

    @property
    def num_blocks(self) -> int:
        return len(set(self.rep))

    def blocks(self) -> list[list[int]]:
        """Blocks as sorted lists, ordered by least member."""
        out: dict[int, list[int]] = {}
        for x, r in enumerate(self.rep):
            out.setdefault(r, []).append(x)
        return [out[r] for r in sorted(out)]

    def contains(self, other: "Congruence") -> bool:
        """Whether every block of other sits inside a block of self."""
        if other.size != self.size:
            raise ValueError("congruences live on different carriers")
        return all(self.rep[x] == self.rep[other.rep[x]] for x in range(self.size))

    @staticmethod
    def discrete(size: int) -> "Congruence":
        return Congruence(size, tuple(range(size)))

    @staticmethod
    def all_pairs(size: int) -> "Congruence":
        return Congruence(size, (0,) * size)

    @staticmethod
    def from_blocks(size: int, blocks) -> "Congruence":
        rep = [-1] * size
        for block in blocks:
            least = min(block)
            for x in block:
                if not (0 <= x < size) or rep[x] != -1:
                    raise ValueError(f"blocks do not partition 0..{size - 1}")
                rep[x] = least
        if any(r == -1 for r in rep):
            raise ValueError(f"blocks do not partition 0..{size - 1}")
        return Congruence(size, tuple(rep))


def _op_data(A: FiniteAlgebra) -> list[tuple[tuple[int, ...], int, list[int]]]:
    """(table, stride, bases) per non-constant operation and argument position:
    the entries with argument x in position p sit at base + x * stride."""
    n = A.size
    op_data = []
    for opname, arity in A.signature.ops:
        if arity == 0:
            continue
        table = A.tables[opname]
        for p in range(arity):
            stride = n ** (arity - 1 - p)
            bases = [i for i, args in enumerate(itertools.product(range(n), repeat=arity))
                     if args[p] == 0]
            op_data.append((table, stride, bases))
    return op_data


def _close(op_data, parent: list[int], queue: list[tuple[int, int]]) -> tuple[int, ...]:
    """The least congruence containing the partition ``parent`` and every
    pair in ``queue``, as a least-representative table.

    ``parent`` is a union-find forest whose partition is already closed under
    the operations (the discrete partition, or a congruence's rep table).
    Standard worklist closure: when two classes merge, every pair of table
    outputs that differ only in that coordinate is queued for merging.
    Single-coordinate substitutions suffice because blockwise-equal argument
    tuples are linked by a chain of them.  The larger root always goes under
    the smaller, so every root is the least member of its block and
    parent[x] <= x throughout; one ascending pass then resolves every root.
    """

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        if ry < rx:
            rx, ry = ry, rx
        parent[ry] = rx
        for table, stride, bases in op_data:
            ox, oy = ry * stride, rx * stride
            for base in bases:
                u, v = table[base + ox], table[base + oy]
                if find(u) != find(v):
                    queue.append((u, v))
    for x in range(len(parent)):
        parent[x] = parent[parent[x]]
    return tuple(parent)


def cg(A: FiniteAlgebra, pairs, caps: Caps | None = None) -> Congruence:
    """The least congruence of A identifying every pair in ``pairs``."""
    caps = caps or DEFAULT_CAPS
    n = A.size
    if n > caps.cg:
        raise CapExceeded("congruence generation carrier", n, caps.cg)
    queue: list[tuple[int, int]] = []
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"generator pair ({x}, {y}) out of range")
        queue.append((x, y))
    return Congruence(n, _close(_op_data(A), list(range(n)), queue))


def kernel_congruence(h: Homomorphism) -> Congruence:
    """The congruence identifying elements with equal images under h."""
    least: dict[int, int] = {}
    for x, v in enumerate(h.mapping):
        least.setdefault(v, x)
    return Congruence(h.source.size, tuple(least[v] for v in h.mapping))


def join(A: FiniteAlgebra, t1: Congruence, t2: Congruence,
         caps: Caps | None = None) -> Congruence:
    """The least congruence containing both."""
    gens = [(x, t1.rep[x]) for x in range(A.size)] + \
           [(x, t2.rep[x]) for x in range(A.size)]
    return cg(A, gens, caps)


def meet(t1: Congruence, t2: Congruence) -> Congruence:
    """Blockwise intersection; always a congruence when both arguments are."""
    if t1.size != t2.size:
        raise ValueError("congruences live on different carriers")
    least: dict[tuple[int, int], int] = {}
    rep = []
    for x in range(t1.size):
        key = (t1.rep[x], t2.rep[x])
        rep.append(least.setdefault(key, x))
    return Congruence(t1.size, tuple(rep))


_lattice_cache: dict = {}


def _algebra_key(A: FiniteAlgebra):
    return (A.size, A.signature.ops, tuple(sorted(A.tables.items())))


def all_congruences(A: FiniteAlgebra, caps: Caps | None = None) -> list[Congruence]:
    """Every congruence of A, sorted by block count descending then rep table.

    The discrete congruence comes first and the all-pairs congruence last.
    Results are memoized per operation-table content since several checks
    revisit the same product lattices.
    """
    caps = caps or DEFAULT_CAPS
    if A.size > caps.lattice:
        raise CapExceeded("congruence lattice carrier", A.size, caps.lattice)
    key = _algebra_key(A)
    got = _lattice_cache.get(key)
    if got is None:
        got = _build_lattice(A, caps)
        _lattice_cache[key] = got
    return list(got)


def _build_lattice(A: FiniteAlgebra, caps: Caps) -> list[Congruence]:
    n = A.size
    if n > caps.cg:
        raise CapExceeded("congruence generation carrier", n, caps.cg)
    op_data = _op_data(A)
    # Principal congruences, with a generating pair remembered for each.
    principal: dict[tuple[int, ...], tuple[int, int]] = {}
    for x in range(n):
        for y in range(x + 1, n):
            principal.setdefault(_close(op_data, list(range(n)), [(x, y)]), (x, y))

    seen: set[tuple[int, ...]] = {tuple(range(n))}
    frontier = list(principal)
    seen.update(frontier)
    # Every congruence is a join of principals, so closing the principal set
    # under join-with-a-principal reaches the whole lattice.  A join starts
    # from rep itself, which is sound because rep is already a congruence.
    while frontier:
        nxt = []
        for rep in frontier:
            for pair in principal.values():
                if rep[pair[0]] == rep[pair[1]]:
                    continue
                joined = _close(op_data, list(rep), [pair])
                if joined not in seen:
                    seen.add(joined)
                    nxt.append(joined)
        frontier = nxt
    out = [Congruence(n, rep) for rep in seen]
    out.sort(key=lambda t: (-t.num_blocks, t.rep))
    return out
