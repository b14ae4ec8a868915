"""Independent reference implementations used to derive expected values.

Everything here is deliberately naive: enumerate candidates, filter by the
definition, check pointwise through apply().  The library must agree with
these on small inputs; several frozen literals in the tests were computed
by running these functions.
"""

from __future__ import annotations

import itertools

from abelia.caps import DEFAULT_CAPS
from abelia.core import (ZERO_OP, CapExceeded, FiniteAlgebra, coordinates,
                         enumerate_homomorphisms, pointwise, product,
                         vector_type)

# Bell numbers, for sanity checks on partition enumeration.
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def all_pointed_maps(n, m):
    """Every map table from range(n) to range(m) sending 0 to 0."""
    for rest in itertools.product(range(m), repeat=n - 1):
        yield (0,) + rest


def commutes(A, B, mapping):
    """Definition of a homomorphism, checked through apply()."""
    for opname, arity in A.signature.ops:
        for args in itertools.product(range(A.size), repeat=arity):
            image = B.apply(opname, *(mapping[a] for a in args))
            if mapping[A.apply(opname, *args)] != image:
                return False
    return True


def brute_homs(A, B, pinned=None):
    """Filter every pointed map that keeps ``pinned``, in lexicographic
    order; fine for |A| <= 4 or so, or for few unpinned elements."""
    fixed = {0: 0}
    for e, v in (pinned or {}).items():
        if fixed.setdefault(e, v) != v:
            return []
    free = [e for e in range(A.size) if e not in fixed]
    maps = []
    for values in itertools.product(range(B.size), repeat=len(free)):
        cells = dict(zip(free, values)) | fixed
        m = tuple(cells[e] for e in range(A.size))
        if commutes(A, B, m):
            maps.append(m)
    return maps


def backtrack_homs(A, B):
    """Cell-by-cell backtracking with pruning but no propagation.

    Candidate values ascend, so the output comes in lexicographic order.
    """
    n, m = A.size, B.size
    by_cell = [[] for _ in range(n)]
    for opname, arity in A.signature.ops:
        for args in itertools.product(range(n), repeat=arity):
            res = A.apply(opname, *args)
            inst = (opname, args, res)
            for cell in set(args) | {res}:
                by_cell[cell].append(inst)
    table = [-1] * n
    out = []

    def admissible(cell):
        for opname, args, res in by_cell[cell]:
            vals = [table[a] for a in args]
            if any(v < 0 for v in vals) or table[res] < 0:
                continue
            if B.apply(opname, *vals) != table[res]:
                return False
        return True

    def fill(i):
        if i == n:
            out.append(tuple(table))
            return
        for v in range(m):
            table[i] = v
            if admissible(i):
                fill(i + 1)
        table[i] = -1

    table[0] = 0
    if admissible(0):
        fill(1)
    return out


def oracle_product(A, B):
    """Componentwise product built straight from the definition."""
    n = A.size * B.size
    tables = {}
    for opname, arity in A.signature.ops:
        entries = []
        for args in itertools.product(range(n), repeat=arity):
            ia = A.apply(opname, *(e // B.size for e in args))
            ib = B.apply(opname, *(e % B.size for e in args))
            entries.append(ia * B.size + ib)
        tables[opname] = tuple(entries)
    return FiniteAlgebra(f"{A.name}*{B.name}", n, A.signature, tables)


def relabel(A, perm):
    """The isomorphic copy of A in which element perm[x] plays the role of x,
    built through apply(); perm is a permutation of range(A.size) fixing 0."""
    n = A.size
    if sorted(perm) != list(range(n)) or perm[0] != 0:
        raise ValueError("perm must permute the carrier and fix 0")
    tables = {}
    for opname, arity in A.signature.ops:
        image = {tuple(perm[a] for a in args): perm[A.apply(opname, *args)]
                 for args in itertools.product(range(n), repeat=arity)}
        tables[opname] = tuple(image[args]
                               for args in itertools.product(range(n), repeat=arity))
    return FiniteAlgebra(f"{A.name}'", n, A.signature, tables)


def partitions(n):
    """All partitions of range(n), as least-representative tables."""
    if n == 0:
        yield ()
        return
    rgs = [0] * n

    def grow(i, maxblock):
        if i == n:
            first = {}
            rep = []
            for x, b in enumerate(rgs):
                first.setdefault(b, x)
                rep.append(first[b])
            yield tuple(rep)
            return
        for b in range(maxblock + 2):
            rgs[i] = b
            yield from grow(i + 1, max(maxblock, b))

    yield from grow(1, 0)


def partition_compatible(A, rep):
    """Definition: blockwise-equal argument tuples give equal-block outputs."""
    for opname, arity in A.signature.ops:
        seen = {}
        for args in itertools.product(range(A.size), repeat=arity):
            key = tuple(rep[a] for a in args)
            out = rep[A.apply(opname, *args)]
            if seen.setdefault(key, out) != out:
                return False
    return True


def congruence_reps_by_filter(A):
    """Every congruence of A, by filtering all partitions of the carrier."""
    return [rep for rep in partitions(A.size) if partition_compatible(A, rep)]


def equivalence_join(r1, r2):
    """The transitive closure of the union of two partitions, given as rep
    tables, grown pair by pair until nothing new is related."""
    n = len(r1)
    related = {(x, y) for x in range(n) for y in range(n)
               if r1[x] == r1[y] or r2[x] == r2[y]}
    while True:
        grown = related | {(x, z) for x, y in related for w, z in related if y == w}
        if grown == related:
            break
        related = grown
    return tuple(min(y for y in range(n) if (x, y) in related) for x in range(n))


def np_partition_oracle(A, B):
    """Definitive pair-level verdict by quantifying over raw partitions.

    The law fails iff some compatible partition collapses the (a, 0) axis
    to a point yet separates some (a, b) from (0, b).
    """
    P = oracle_product(A, B)
    nb = B.size
    axis = [a * nb for a in range(A.size)]
    for rep in partitions(P.size):
        if any(rep[c] != rep[0] for c in axis):
            continue
        if not partition_compatible(P, rep):
            continue
        for a in range(A.size):
            for b in range(nb):
                if rep[a * nb + b] != rep[b]:
                    return False
    return True


def np_hom_refutes(A, B, targets):
    """True if some hom f: A x B -> C with f(a, 0) = 0 breaks the
    translation f(a, b) = f(0, b).  One-sided over the listed targets:
    False only means no counterexample was found there."""
    P = oracle_product(A, B)
    nb = B.size
    for C in targets:
        for f in backtrack_homs(P, C):
            if any(f[a * nb] != 0 for a in range(A.size)):
                continue
            for a in range(A.size):
                for b in range(nb):
                    if f[a * nb + b] != f[b]:
                        return True
    return False


def depth_closure_tables(A, arity, depth=6):
    """Tables of term operations reachable within the given composition
    depth; depth 6 is past the fixpoint for every two-element fixture."""
    n = A.size
    rows = list(itertools.product(range(n), repeat=arity))
    current = set()
    for i in range(arity):
        current.add(tuple(args[i] for args in rows))
    for opname, k in A.signature.ops:
        if k == 0:
            current.add(tuple(A.apply(opname) for _ in rows))
    for _ in range(depth):
        grown = set(current)
        for opname, k in A.signature.ops:
            if k == 0:
                continue
            for parts in itertools.product(sorted(current), repeat=k):
                grown.add(tuple(A.apply(opname, *(p[r] for p in parts))
                                for r in range(len(rows))))
        current = grown
    return current


def free_algebra_by_rounds(A, k, caps=DEFAULT_CAPS):
    """free_algebra's carrier by the round loop with one pointwise call per
    argument tuple: (element vectors, generator ids, tables, round starts).
    Round r applies every op to the tuples over ``range(starts[r])`` with
    an argument at or past ``starts[r - 1]``; the last start is the size.
    Refuses with free_algebra's CapExceeded past ``free_carrier``."""
    n, positions = A.size, A.size ** k
    vector = vector_type(n)
    elems, index = [], {}

    def intern(vec):
        got = index.get(vec)
        if got is not None:
            return got
        if len(elems) >= caps.free_carrier:
            raise CapExceeded("free algebra carrier", len(elems) + 1, caps.free_carrier)
        index[vec] = len(elems)
        elems.append(vec)
        return index[vec]

    intern(vector((0,) * positions))
    gen_ids = [intern(col) for col in coordinates((n,) * k)]
    for opname, arity in A.signature.ops:
        if arity == 0 and opname != ZERO_OP:
            intern(vector(A.tables[opname] * positions))

    images = {name: {} for name, arity in A.signature.ops if arity >= 1}
    starts, prev = [], 0
    while True:
        known = len(elems)
        starts.append(known)
        row = elems[:known]
        for name, arity in A.signature.ops:
            if arity == 0:
                continue
            apply = pointwise(A.tables[name], n, arity)
            for combo, cols in zip(itertools.product(range(known), repeat=arity),
                                   itertools.product(row, repeat=arity)):
                if max(combo) >= prev:
                    images[name][combo] = intern(apply(cols))
        if len(elems) == known:
            break
        prev = known

    tables = {}
    for name, arity in A.signature.ops:
        if arity == 0:
            tables[name] = (index[vector(A.tables[name] * positions)],)
        else:
            tables[name] = tuple(map(images[name].__getitem__,
                                     itertools.product(range(known), repeat=arity)))
    return elems, gen_ids, tables, starts


def brute_subtraction_tables(A):
    """Subtraction candidates by filtering: tables over A x A satisfying
    both laws and commuting with the operations, in lexicographic order."""
    P = oracle_product(A, A)
    n = A.size
    out = []
    for f in backtrack_homs(P, A):
        if all(f[x * n + x] == 0 and f[x * n] == x for x in range(n)):
            out.append(f)
    return out


def condition_b_by_loops(X, targets):
    """check_condition_b's instances and failures by the direct loop over
    maps f: X x X -> C with f(x, 0) = 0 and points x.  A failure is
    (map tables, point, lhs, rhs), as are those of the two loops below."""
    P = product(X, X)
    instances, failures = 0, []
    pins = {P.pair(x, 0): 0 for x in range(X.size)}
    for C in targets:
        for f in enumerate_homomorphisms(P, C, pins):
            instances += 1
            for x in range(X.size):
                lhs = f(P.pair(x, x))
                rhs = f(P.pair(0, x))
                if lhs != rhs:
                    failures.append(((f.mapping,), (x,), lhs, rhs))
    return instances, failures


def condition_d_by_loops(A, B, targets, parameter_objects):
    """check_condition_d_instances by the direct loop over targets C,
    parameter objects X, maps f: A x B -> C, a: X -> A and b: X -> B."""
    P = product(A, B)
    instances, failures = 0, []
    for C in targets:
        for X in parameter_objects:
            a_maps = list(enumerate_homomorphisms(X, A))
            b_maps = list(enumerate_homomorphisms(X, B))
            for f in enumerate_homomorphisms(P, C):
                for a in a_maps:
                    if any(f(P.pair(a(x), 0)) != 0 for x in range(X.size)):
                        continue
                    for b in b_maps:
                        instances += 1
                        for x in range(X.size):
                            lhs = f(P.pair(a(x), b(x)))
                            rhs = f(P.pair(0, b(x)))
                            if lhs != rhs:
                                failures.append(((f.mapping, a.mapping, b.mapping),
                                                 (x,), lhs, rhs))
    return instances, failures


def condition_e_by_loops(X, targets, parameter_objects):
    """check_condition_e_instances by the direct loop over targets C,
    parameter objects U, maps f: X x X -> C and x: U -> X."""
    P = product(X, X)
    instances, failures = 0, []
    for C in targets:
        for U in parameter_objects:
            u_maps = list(enumerate_homomorphisms(U, X))
            for f in enumerate_homomorphisms(P, C):
                for x in u_maps:
                    if any(f(P.pair(x(u), 0)) != 0 for u in range(U.size)):
                        continue
                    instances += 1
                    for u in range(U.size):
                        lhs = f(P.pair(x(u), x(u)))
                        rhs = f(P.pair(0, x(u)))
                        if lhs != rhs:
                            failures.append(((f.mapping, x.mapping), (u,), lhs, rhs))
    return instances, failures


def group_law_by_loops(s):
    """verify_group_law's (holds, witness) by the loop over triples: the
    first (x, y, z) in lexicographic order with s(s(x,z), s(y,z)) != s(x,y)."""
    n = s.algebra.size
    for x, y, z in itertools.product(range(n), repeat=3):
        if s(s(x, z), s(y, z)) != s(x, y):
            return False, (x, y, z)
    return True, None


def derive_abelian_by_loops(s):
    """derive_abelian's (failed axiom, witness, add, neg) by one loop per
    axiom in the order unit, inverse, associativity, commutativity,
    addition-homomorphism; the axiom and witness are None when all hold.
    The last axiom is read through apply() on A x A."""
    A, P = s.algebra, s.hom.source
    n = A.size
    neg = tuple(s(0, x) for x in range(n))
    add = tuple(s(x, neg[y]) for x in range(n) for y in range(n))

    def plus(x, y):
        return add[x * n + y]

    for x in range(n):
        if plus(x, 0) != x or plus(0, x) != x:
            return "unit", (x,), add, neg
    for x in range(n):
        if plus(x, neg[x]) != 0:
            return "inverse", (x,), add, neg
    for x, y, z in itertools.product(range(n), repeat=3):
        if plus(plus(x, y), z) != plus(x, plus(y, z)):
            return "associativity", (x, y, z), add, neg
    for x in range(n):
        for y in range(x + 1, n):
            if plus(x, y) != plus(y, x):
                return "commutativity", (x, y), add, neg
    for opname, arity in P.signature.ops:
        for args in itertools.product(range(P.size), repeat=arity):
            if add[P.apply(opname, *args)] != A.apply(opname, *(add[a] for a in args)):
                return "addition-homomorphism", args, add, neg
    return None, None, add, neg
