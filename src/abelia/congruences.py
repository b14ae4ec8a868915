"""Congruences of finite algebras: principal-congruence generation, joins,
meets, kernels, and full lattice enumeration.

A congruence on a carrier of size n is stored as a representative table
``rep`` of length n in canonical least-element form: rep[x] is the smallest
member of the block of x, so rep[x] <= x and rep[rep[x]] == rep[x].
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .core import (CapExceeded, FiniteAlgebra, Homomorphism, ProductAlgebra, coordinates,
                   pointwise, split, vector_type)


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

    @classmethod
    def _proved(cls, size: int, rep: tuple[int, ...]) -> "Congruence":
        """A rep table the caller has built in least-representative form,
        wrapped without the checks of ``__post_init__``."""
        theta = object.__new__(cls)
        object.__setattr__(theta, "size", size)
        object.__setattr__(theta, "rep", rep)
        return theta

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


def _op_rows(A: FiniteAlgebra) -> list:
    """Row functions whose maps generate every basic translation of A.

    A row function maps x to a list of outputs, one per map, in a fixed
    order, so two rows of one function line up entry by entry; entry i of
    row(x) is the i-th map applied to x.  An equivalence closed under maps
    is closed under their composites, so it is a congruence once it is
    closed under these maps (Mal'tsev's lemma, Burris & Sankappanavar,
    §II.5): ``_close`` and ``_principals`` need nothing more.

    A plain algebra gives its full rows (``_plain_rows``), all n rows of an
    op and position cut from one ``pointwise`` call.  A product gives, at
    each op f and argument position p where both factors are unital (see
    ``_unital``), its factors' generator rows lifted one side at a time: a
    basic translation t x u of the product at (f, p) is (t x id) o (id x u),
    and both of those are basic translations at (f, p), since on each factor
    the identity is one.  So a link of Z12 x Z12^2 scans 2 * (12 + 144) + 1
    entries instead of 2 * 1,728 + 1, or 2 * (12 + 12 + 12) + 1 when Z12^2
    is itself a product.  Where a factor is not unital at (f, p), the
    product falls back to the outer sum of its factors' full rows.  No
    homomorphism search reads these rows yet.  One from a product would
    have to check every argument tuple, not only generators, so it would
    read the full rows, the first entries of ``_product_rows``, never these.
    """
    if isinstance(A, ProductAlgebra):
        return [row for _, gens, _ in _product_rows(A) for row in gens]
    return _plain_rows(A)


def _plain_rows(A: FiniteAlgebra) -> list:
    # One row per op and argument position p: row(x) lists the op's outputs
    # with x at p, over the other arguments' settings in row-major order.
    # That is the op on ``coordinates`` with the first column moved to p.
    n = A.size
    out = []
    for opname, arity in A.signature.ops:
        cols = coordinates((n,) * arity)
        for p in range(arity):
            table = pointwise(A.tables[opname], n, arity)(cols[1:p + 1] + cols[:1] + cols[p + 1:])
            out.append([list(row) for row in split(table, n ** (arity - 1), n)].__getitem__)
    return out


def _product_rows(P: ProductAlgebra) -> list[tuple]:
    """(full row, generator rows, unital) for each op and argument position
    of P = left x right, in the order of ``_plain_rows``.  The full row of
    (a, b), the outer sum of the factors' full rows, is never kept, since
    keeping every row would rebuild P's tables.  A product is unital at a
    position iff both of its factors are."""
    nb = P.right.size

    def factor(X: FiniteAlgebra) -> list[tuple]:
        if isinstance(X, ProductAlgebra):
            return _product_rows(X)
        return [(row, [row], _unital(row, X.size)) for row in _plain_rows(X)]

    out = []
    for (full_a, gens_a, unital_a), (full_b, gens_b, unital_b) in \
            zip(factor(P.left), factor(P.right)):
        full, unital = _outer(full_a, full_b, nb), unital_a and unital_b
        if unital:
            gens = [_lift_left(g, nb) for g in gens_a] + [_lift_right(g, nb) for g in gens_b]
        else:
            gens = [full]
        out.append((full, gens, unital))
    return out


def _unital(row, n: int) -> bool:
    """Whether one setting of the other arguments makes the op the identity
    in this row's position: an entry index i with row(x)[i] == x for every
    x.  One scan of the op's table; ``_product_rows`` asks it only of the
    plain factors of a product."""
    hits = [i for i, v in enumerate(row(0)) if v == 0]
    for x in range(1, n):
        if not hits:
            break
        r = row(x)
        hits = [i for i in hits if r[i] == x]
    return bool(hits)


def _outer(row_a, row_b, nb: int):
    def row(e: int) -> list[int]:
        a, b = divmod(e, nb)
        right = row_b(b)
        return [ua + ub for ua in [u * nb for u in row_a(a)] for ub in right]
    return row


def _lift_left(row_a, nb: int):
    # t x id: (a, b) -> (t(a), b) for each map t of row_a.
    def row(e: int) -> list[int]:
        a, b = divmod(e, nb)
        return [u * nb + b for u in row_a(a)]
    return row


def _lift_right(row_b, nb: int):
    # id x u: (a, b) -> (a, u(b)) for each map u of row_b.
    def row(e: int) -> list[int]:
        b = e % nb
        base = e - b
        return [base + v for v in row_b(b)]
    return row


def _close(rows, n: int, pairs) -> tuple[int, ...]:
    """The least congruence on 0..n-1 containing every pair in ``pairs``, as
    a least-representative table.

    A union-find forest starts from the discrete partition.  Unions are
    eager (R. Freese, "Computing congruences efficiently", Algebra
    Universalis 59, 2008): two classes are linked as soon as a pair
    of their members must be identified, and only the pair of roots just
    linked goes on the worklist.  Every entry is a link, and each link
    removes a block, so the worklist never holds more than n - 1 entries.
    Popping a linked pair (r, s) links every pair of outputs row(r)[i],
    row(s)[i] of every row.  This suffices: the result is the equivalence
    closure of the links made, and blockwise-equal argument tuples are
    joined by a chain of single-coordinate substitutions across links.
    The proof uses only that every link is closed under each row's maps, so
    the rows need only generate the basic translations under composition:
    a product's rows from ``_op_rows`` lift its factors' generators one
    side at a time, t x u = (t x id) o (id x u), and are full outer-sum rows
    only at positions where a factor is not unital.
    The larger root always goes under the smaller, so every root is the
    least member of its block and parent[x] <= x throughout; one ascending
    pass then resolves every root.
    """

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parent = list(range(n))
    linked: list[tuple[int, int]] = []
    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            parent[ry] = rx
            linked.append((rx, ry))
    while linked:
        r, s = linked.pop()
        for row in rows:
            # Two elements with one parent stay in one block, since blocks
            # only grow, so this cheap filter drops only identified pairs.
            for u, v in [(u, v) for u, v in zip(row(r), row(s))
                         if parent[u] != parent[v]]:
                ru, rv = find(u), find(v)
                if ru != rv:
                    if rv < ru:
                        ru, rv = rv, ru
                    parent[rv] = ru
                    linked.append((ru, rv))
    for x in range(len(parent)):
        parent[x] = parent[parent[x]]
    return tuple(parent)


def cg(A: FiniteAlgebra, pairs, caps: Caps = DEFAULT_CAPS) -> Congruence:
    """The least congruence of A identifying every pair in ``pairs``."""
    n = A.size
    if n > caps.cg:
        raise CapExceeded("congruence generation carrier", n, caps.cg)
    pairs = list(pairs)
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"generator pair ({x}, {y}) out of range")
    return Congruence(n, _close(_op_rows(A), n, pairs))


def kernel_congruence(h: Homomorphism) -> Congruence:
    """The congruence identifying elements with equal images under h."""
    least: dict[int, int] = {}
    for x, v in enumerate(h.mapping):
        least.setdefault(v, x)
    return Congruence(h.source.size, tuple(least[v] for v in h.mapping))


def join(A: FiniteAlgebra, t1: Congruence, t2: Congruence,
         caps: Caps = DEFAULT_CAPS) -> Congruence:
    """The least congruence containing both."""
    if not t1.size == t2.size == A.size:
        raise ValueError("congruences live on different carriers")
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


def all_congruences(A: FiniteAlgebra, caps: Caps = DEFAULT_CAPS) -> list[Congruence]:
    """Every congruence of A, sorted by block count descending then rep table.

    The discrete congruence comes first and the all-pairs congruence last.
    A lattice of more than ``caps.lattice_count`` congruences is refused as
    soon as the build passes that many.
    """
    if A.size > caps.lattice:
        raise CapExceeded("congruence lattice carrier", A.size, caps.lattice)
    return _build_lattice(A, caps)


def _build_lattice(A: FiniteAlgebra, caps: Caps) -> list[Congruence]:
    n = A.size
    if n > caps.cg:
        raise CapExceeded("congruence generation carrier", n, caps.cg)
    # Principal congruences, with the first generating pair of each.  An
    # edge (x, y) -> (f(x), f(y)) of the pair graph, f a basic translation,
    # means Cg(f(x), f(y)) is inside Cg(x, y) (Burris & Sankappanavar, A
    # Course in Universal Algebra, §II.5).  At the first pair p, in
    # lexicographic order, that no earlier closure has covered, pi = Cg(p)
    # is closed once.  The walk back from p along the predecessor lists goes
    # only through pairs q with pi[q0] == pi[q1], and covers them: q reaches
    # p, so Cg(q) contains pi, and q lies in pi, so Cg(q) is inside pi.  A
    # path from such a q to p never leaves pi, which is closed under
    # translations, so the walk finds all of them.  The first pair of each
    # principal is never covered, since that would take an earlier pair with
    # the same principal; so the dict is what one closure per pair gives.
    # On a product the edges are the generators of ``_op_rows``, t x id and
    # id x u, or full outer-sum rows where a factor is not unital.  Every
    # basic translation is a composite of generators, so a pair reaches
    # along generator edges every pair it reached along translation edges,
    # and each step stays a translation: the walk covers as before.
    gens = _principals(_op_rows(A), n)
    k, vec = len(gens), bytes if vector_type(n) is bytes else _Tuple
    # bytes.translate takes 256-entry tables, so bytes rep tables are padded.
    pad, ident = (bytes(256 - n), bytearray(range(256))) if vec is bytes else ((), list(range(n)))
    X, Y = (vec(pair[c] for pair in gens.values()) for c in (0, 1))
    # Each principal's non-trivial links z -> pi[z], as two vectors.
    links = [(vec(z for z in range(n) if pi[z] != z), vec(r for z, r in enumerate(pi) if r != z))
             for pi in gens]
    bits = [1 << a for a in range(n)]
    # Close-by-One (S. O. Kuznetsov, "A fast algorithm for computing all
    # intersections of objects in a finite semi-lattice", 1993; the idea of
    # Ganter's NextClosure) reaches each join of principals once.  C(theta) =
    # {i : theta[X[i]] == theta[Y[i]]} lists the principals below theta.  A
    # theta reached through pi_{j0-1} tries each j >= j0 outside C(theta) and
    # keeps psi = theta v pi_j only if no i < j is in C(psi) but not in
    # C(theta).  So psi is kept once: from the join of the pi_i <= psi, i < j,
    # for the least j with pi_i <= psi, i <= j, joining to psi.  An i < j with
    # the same pair of theta-blocks as j fails j before any join; when psi
    # merges only that pair of blocks, that is the whole test.  A j in
    # C(theta) or failed so stays failed above theta, since i and j keep
    # equal block pairs; so psi's pool is what passes this check among the
    # j' after j that passed it at theta.
    #
    # A node is pushed with its pool already checked, and not at all when
    # none passes.  When psi merges only the theta-blocks A, B of j's pair,
    # the parent checks each later i of its passed list from theta's keys, u
    # the key of {A, B}.  The block pair of i changes only if it touches A or
    # B: {A, B} puts i in C(psi), and {A, c} or {B, c} meets an earlier index
    # iff the other of the two, key ^ u, occurs before i, since i was the
    # first index of its own pair.  A pair off A and B keeps its first index.
    # So a node builds its k keys only if it has a second j to try, and after
    # a wider merge the parent builds psi's keys.
    bottom = vec(range(n))
    levels = [[] for _ in range(n)] + [[bottom]]  # by block count
    # Distinct principals have distinct first pairs, so each j passes at the
    # bottom.
    found, stack = 1, [(bottom, n, list(range(k)))]
    while stack:
        theta, blocks, passed = stack.pop()
        t = theta + pad
        tx, ty = X.translate(t), Y.translate(t)
        # Block pair {a, b} as bits[a] ^ bits[b]; the key of each i in
        # C(theta) is 0.
        keys = [bits[a] ^ bits[b] for a, b in zip(tx, ty)] if len(passed) > 1 else None
        for m, j in enumerate(passed):
            tab, merged = _join(t, ident, *links[j])
            if merged > 1 and any(a != b and tab[a] == tab[b] for a, b in zip(tx[:j], ty[:j])):
                continue
            found += 1
            if found > caps.lattice_count:
                raise CapExceeded("congruence lattice size", found, caps.lattice_count)
            psi = theta.translate(tab)
            levels[blocks - merged].append(psi)
            pool = passed[m + 1:]
            if pool and merged == 1:
                u = keys[j]
                pool = [i for i in pool if keys[i] != u
                        and not (keys[i] & u and (keys[i] ^ u) in keys[:i])]
            elif pool:
                keys_psi = [bits[tab[a]] ^ bits[tab[b]] for a, b in zip(tx, ty)]
                pool = [i for i in pool if keys_psi[i] and keys_psi.index(keys_psi[i]) == i]
            if pool:
                stack.append((psi, blocks - merged, pool))
    # _join roots each block at its least member: least-representative form.
    proved = Congruence._proved
    return [proved(n, tuple(rep)) for level in reversed(levels) for rep in sorted(level)]


class _Tuple(tuple):
    """A vector past 256 elements, with bytes' ``translate``."""
    def translate(self, table):
        return _Tuple(map(table.__getitem__, self))


def _join(t, ident, zs, rs) -> tuple:
    """theta v pi as a map from theta's block representatives to psi's, and
    its number of merges: union-find over the blocks t[z], t[r] of pi's
    links, t theta's padded rep table.  Con(A) is a complete sublattice of
    Eq(A) (Burris & Sankappanavar, Thm 5.3): this join scans no rows."""
    tab, linked = ident[:], []
    for a, b in zip(zs.translate(t), rs.translate(t)):
        while tab[a] != a:
            a = tab[a]
        while tab[b] != b:
            b = tab[b]
        if a != b:
            if b < a:
                a, b = b, a
            tab[b] = a
            linked.append(b)
    for b in sorted(linked):  # tab[b] < b, so this reads resolved entries
        tab[b] = tab[tab[b]]
    return tab, len(linked)


def _principals(rows, n: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """Each distinct principal congruence Cg(x, y), mapped to the first pair
    (x, y), x < y, in lexicographic order that generates it, in the order of
    those first pairs: what one ``_close`` per pair gives, from one closure
    per class of pairs with a common principal (see ``_build_lattice``).

    The pair graph has an edge from (x, y) to (f(x), f(y)) for every map f
    of the rows, which generate the basic translations (``_op_rows``): the
    aligned entries of row(x) and row(y) of one row function.  Building its
    predecessor lists scans each pair's rows once.
    """
    # Pair (x, y), x < y, is the number x * n + y; pred[q] lists each pair
    # with an edge to q once.
    pred: list[list[int]] = [[] for _ in range(n * n)]
    flat = [[v for row in rows for v in row(x)] for x in range(n)]
    for x in range(n):
        fx = flat[x]
        for y in range(x + 1, n):
            p = x * n + y
            for q in {u * n + v if u < v else v * n + u
                      for u, v in zip(fx, flat[y]) if u != v}:
                pred[q].append(p)
    gens: dict[tuple[int, ...], tuple[int, int]] = {}
    covered = bytearray(n * n)
    for x in range(n):
        for y in range(x + 1, n):
            p = x * n + y
            if covered[p]:
                continue
            pi = _close(rows, n, [(x, y)])
            gens.setdefault(pi, (x, y))
            covered[p] = 1
            stack = [p]
            while stack:
                for q in pred[stack.pop()]:
                    if not covered[q] and pi[q // n] == pi[q % n]:
                        covered[q] = 1
                        stack.append(q)
    return gens
