"""Term operations: enumerate the k-ary part of the clone of an algebra and
search it for terms with prescribed equational behaviour.

Terms are built from variables x1..xk and the operation symbols of the
algebra; each is evaluated to a flat table over k-tuples of carrier
elements, and the search works up the term-size ladder so the first witness
found for any table is one of minimal size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .core import (FiniteAlgebra, ZERO_OP, broken_cell, concat, coordinates, pointwise,
                   split, subtraction_cells, term_variable, unit_cells, vector_type)


@dataclass(frozen=True)
class Term:
    """head is an operation name or a variable name like ``x1``."""

    head: str
    args: tuple["Term", ...] = ()

    @property
    def size(self) -> int:
        return 1 + sum(t.size for t in self.args)

    @property
    def op_nodes(self) -> int:
        """Operation symbols used, not counting variables."""
        own = 0 if term_variable(self.head) is not None else 1
        return own + sum(t.op_nodes for t in self.args)

    def __str__(self):
        if self.head == ZERO_OP:
            return "0"
        if not self.args:
            return self.head
        return f"{self.head}({', '.join(str(t) for t in self.args)})"


def evaluate_term(A: FiniteAlgebra, term: Term, k: int) -> tuple[int, ...]:
    """Flat table of the k-ary term operation, row-major over argument tuples,
    evaluated on the columns ``coordinates((n,) * k)`` of the variables."""
    n = A.size
    variables = coordinates((n,) * k)

    def run(t: Term):
        if t.head in A.tables:
            arity = A.signature.arity(t.head)
            if len(t.args) != arity:
                raise ValueError(f"symbol {t.head!r} has arity {arity}, "
                                 f"given {len(t.args)} arguments")
            if arity == 0:
                return vector_type(n)(A.tables[t.head] * n ** k)
            return pointwise(A.tables[t.head], n, arity)([run(s) for s in t.args])
        i = term_variable(t.head)
        if i is None or not 1 <= i <= k:
            raise ValueError(f"unknown symbol {t.head!r} in a {k}-ary term")
        if t.args:
            raise ValueError(f"variable {t.head!r} given {len(t.args)} arguments")
        return variables[i - 1]

    return tuple(run(term))


@dataclass(frozen=True)
class TermOp:
    arity: int
    table: tuple[int, ...]
    witness: Term


@dataclass(frozen=True)
class TermOps:
    """The k-ary term operations found; complete=False means the table cap
    stopped the enumeration early."""

    arity: int
    term_ops: tuple[TermOp, ...]
    complete: bool


@dataclass(frozen=True)
class TermSearch:
    """status: found (term_op set), none (search exhaustive, no witness),
    unknown (cap hit before exhaustion).  explored counts the distinct term
    operations generated before the search stopped."""

    status: str
    term_op: TermOp | None = None
    explored: int = 0


def _closure(A: FiniteAlgebra, arity: int, cap: int, cells=None):
    """Size-leveled closure of the k-ary clone part.

    Returns (ops, complete, hit): the TermOps found in first-seen order, a
    completeness flag, and the first TermOp whose table holds every cell of
    ``cells`` if any.  Level s holds the terms with s symbols; the
    iteration ends when every level up to the maximum possible composition
    size is exhausted, or once it holds all n**(n**k) k-ary operations.
    The leaves are always kept; past them, ``cap`` tables at most.  A
    closure at the cap runs on without keeping anything and is incomplete
    iff a new table turns up.
    """
    n = A.size
    vector = vector_type(n)
    width = n ** arity
    # Past width 64 there are at least 2**65 operations, more than any
    # closure can hold, so that count is never computed.
    full = n ** width if width <= 64 else None
    # Tables are kept as ``vector_type(n)`` vectors, the type ``pointwise``
    # works on; ``by_table`` maps each one seen to its TermOp, in the order
    # they were first seen.
    by_table: dict = {}
    levels: dict[int, list] = {}

    def candidates():
        # Every candidate as (level, head, parts, table): the leaves, then
        # each composition level, each part a table already kept.
        heads = [f"x{i}" for i in range(1, arity + 1)]
        heads += [opname for opname, k in A.signature.ops if k == 0]
        for head in heads:
            yield 1, head, (), vector(evaluate_term(A, Term(head), arity))
        max_op_arity = max(k for _, k in A.signature.ops)
        ops = [(name, k, pointwise(A.tables[name], n, k))
               for name, k in sorted(A.signature.ops) if k >= 1]
        size = 1
        while True:
            size += 1
            # A composition f(t_1..t_m) has size 1 + sum of part sizes, and
            # every part already exists at a smaller level, so this bound is
            # exhaustive.
            largest = max((s for s in levels if levels[s]), default=0)
            if size > 1 + max_op_arity * largest:
                return
            for opname, k, apply in ops:
                for sizes in itertools.product(range(1, size), repeat=k):
                    if 1 + sum(sizes) != size:
                        continue
                    *pools, last = [levels.get(s, ()) for s in sizes]
                    if not last:
                        continue
                    # One ``pointwise`` call per choice of the other parts:
                    # each repeated once per table of the last pool, and that
                    # pool joined end to end; the output is cut into the
                    # images.  A batch of tables all seen is skipped whole.
                    run = concat(last, n)
                    for prefix in itertools.product(*pools):
                        out = apply([p * len(last) for p in prefix] + [run])
                        batch = split(out, width, n)
                        if all(map(by_table.__contains__, batch)):
                            continue
                        for tail, vec in zip(last, batch):
                            yield size, opname, prefix + (tail,), vec

    for size, head, parts, vec in candidates():
        if vec in by_table:
            continue
        if size > 1 and len(by_table) >= cap:
            return tuple(by_table.values()), False, None
        term = Term(head, tuple(by_table[p].witness for p in parts))
        op = by_table[vec] = TermOp(arity, tuple(vec), term)
        levels.setdefault(size, []).append(vec)
        if cells is not None and broken_cell(op.table, cells) is None:
            return tuple(by_table.values()), True, op
        if len(by_table) == full:
            break
    return tuple(by_table.values()), True, None


def generate_term_ops(A: FiniteAlgebra, arity: int,
                      caps: Caps = DEFAULT_CAPS) -> TermOps:
    """All k-ary term operations of A, up to the table cap."""
    if arity < 0:
        raise ValueError("arity must be non-negative")
    ops, complete, _ = _closure(A, arity, caps.clone_tables)
    return TermOps(arity, ops, complete)


def _binary_term_search(A: FiniteAlgebra, caps: Caps, cells) -> TermSearch:
    """Search the binary clone part for a table that holds every cell."""
    ops, complete, hit = _closure(A, 2, caps.clone_tables, cells)
    if hit is not None:
        return TermSearch("found", hit, len(ops))
    return TermSearch("none" if complete else "unknown", None, len(ops))


def find_subtraction_term(A: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> TermSearch:
    """Search the binary clone part for s with s(x,x)=0 and s(x,0)=x."""
    return _binary_term_search(A, caps, subtraction_cells(A.size))


def find_unit_term(A: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> TermSearch:
    """Search the binary clone part for p with p(x,0)=x and p(0,x)=x."""
    return _binary_term_search(A, caps, unit_cells(A.size))
