"""Congruence generation, joins, lattices, products, quotients, the
pair-level law and its lattice-scan and centralic variants, homomorphism
enumeration, the file format, free algebras, subpowers and the clone
closure checked against the oracles on seeded random pointed algebras,
beyond the builtin fixtures."""

import ast
import itertools
import random
import re

import pytest

from abelia import (DEFAULT_CAPS, Caps, CapExceeded, Congruence, FiniteAlgebra,
                    Homomorphism, IncompatiblePartition, InternalSubtraction,
                    ProductAlgebra, Signature, all_congruences, builtin,
                    centralic_check, cg, check_condition_b, check_homomorphic,
                    check_condition_d_instances, check_condition_e_instances,
                    check_np_pair, enumerate_homomorphisms,
                    find_internal_subtractions, find_subtraction_term,
                    find_unit_term, free_algebra, generate_term_ops,
                    hom_violation, join, list_builtins, parse_algebra,
                    product, quotient, serialize_algebra,
                    shifting_shape_check)
from abelia import congruences
from abelia.catalog import _cyclic
from abelia.clones import evaluate_term
from abelia.core import (ZERO_OP, concat, coordinates, op_table, op_violation,
                         pointwise, split, subpower, vector_type)
from oracles import (brute_homs, brute_subtraction_tables, commutes,
                     condition_b_by_loops, condition_d_by_loops,
                     condition_e_by_loops, congruence_reps_by_filter,
                     depth_closure_tables, equivalence_join,
                     free_algebra_by_rounds,
                     np_partition_oracle, oracle_product, partition_compatible,
                     partitions, relabel)


def random_pointed_algebra(rng: random.Random, size: int, tag: str) -> FiniteAlgebra:
    """Up to three unary/binary/ternary ops plus up to two constants.

    Each op draws its values from a random subset of the carrier, so that
    non-trivial congruences are common rather than rare.
    """
    ops, tables = [(ZERO_OP, 0)], {ZERO_OP: (0,)}
    for i in range(rng.randint(0, 2)):
        name = f"c{i}"
        ops.append((name, 0))
        tables[name] = (rng.randrange(1, size) if size > 1 else 0,)
    for i in range(rng.randint(1, 3)):
        name, arity = f"f{i}", rng.choice((1, 1, 2, 2, 3))
        values = rng.sample(range(size), rng.randint(1, size))
        ops.append((name, arity))
        tables[name] = op_table(size, arity, lambda *_: rng.choice(values))
    return FiniteAlgebra(f"{tag}{size}", size, Signature(tuple(ops)), tables)


def random_like(rng: random.Random, A: FiniteAlgebra, size: int, tag: str) -> FiniteAlgebra:
    """Fresh random tables of A's signature on a carrier of the given size."""
    tables = {}
    for name, arity in A.signature.ops:
        if name == ZERO_OP:
            tables[name] = (0,)
        elif arity == 0:
            tables[name] = (rng.randrange(1, size) if size > 1 else 0,)
        else:
            values = rng.sample(range(size), rng.randint(1, size))
            tables[name] = op_table(size, arity, lambda *_: rng.choice(values))
    return FiniteAlgebra(f"{tag}{size}", size, A.signature, tables)


def materialised(P: FiniteAlgebra) -> FiniteAlgebra:
    """The same algebra with its tables read out into a plain dict."""
    return FiniteAlgebra(P.name, P.size, P.signature, dict(P.tables))


def least_containing(oracle, pairs) -> tuple[int, ...]:
    # The least congruence identifying the pairs has strictly more blocks
    # than any other one that does, since it is contained in all of them.
    above = [r for r in oracle if all(r[x] == r[y] for x, y in pairs)]
    return max(above, key=lambda r: len(set(r)))


def generated(count: int, seed: int):
    rng = random.Random(seed)
    for i in range(count):
        yield rng, random_pointed_algebra(rng, 1 + i % 5, "R")


def test_lattices_match_partition_filter():
    for _, A in generated(60, seed=2025):
        oracle = [tuple(r) for r in congruence_reps_by_filter(A)]
        expect = sorted(oracle, key=lambda r: (-len(set(r)), r))
        assert [t.rep for t in all_congruences(A)] == expect, A.signature


def test_cg_and_join_match_partition_filter():
    for rng, A in generated(60, seed=7):
        n = A.size
        oracle = [tuple(r) for r in congruence_reps_by_filter(A)]
        every = list(partitions(n))
        for _ in range(4):
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3))]
            assert cg(A, pairs).rep == least_containing(oracle, pairs)
            # join accepts arbitrary partitions, not only congruences
            t1, t2 = (Congruence(n, rng.choice(every)) for _ in range(2))
            both = [(x, t.rep[x]) for t in (t1, t2) for x in range(n)]
            assert join(A, t1, t2).rep == least_containing(oracle, both)


def test_join_of_congruences_is_their_equivalence_join():
    # Con(A) is a sublattice of Eq(A): the lattice build joins congruences
    # by union-find alone, which rests on this.
    checked = 0
    for _, A in generated(60, seed=17):
        if A.size > 4:
            continue
        lattice = all_congruences(A)
        for t1 in lattice:
            for t2 in lattice:
                assert join(A, t1, t2).rep == equivalence_join(t1.rep, t2.rep), \
                    (A.signature, t1.rep, t2.rep)
                checked += 1
    assert checked >= 500


def test_lattice_refused_above_the_cg_cap():
    rng = random.Random(11)
    A = random_pointed_algebra(rng, 5, "capped")
    with pytest.raises(CapExceeded) as err:
        all_congruences(A, Caps(cg=4, lattice=12))
    assert err.value.what == "congruence generation carrier"
    assert (err.value.needed, err.value.limit) == (5, 4)


def generated_triples(count: int, seed: int):
    """(A, B, C) sharing one random signature, each of size 1 to 3."""
    rng = random.Random(seed)
    for i in range(count):
        A = random_pointed_algebra(rng, 1 + i % 3, "A")
        yield rng, A, random_like(rng, A, 1 + (i // 3) % 3, "B"), \
            random_like(rng, A, rng.randint(1, 3), "C")


def test_cg_on_products_matches_materialised_tables():
    for rng, A, B, C in generated_triples(45, seed=31):
        for P in (product(A, B), product(A, product(B, C))):
            plain = materialised(P)
            assert plain.tables == oracle_product(P.left, P.right).tables
            n = P.size
            for _ in range(3):
                pairs = [(rng.randrange(n), rng.randrange(n))
                         for _ in range(rng.randint(0, 3))]
                assert cg(P, pairs).rep == cg(plain, pairs).rep, (P.name, pairs)


MAGMA = Signature.make((("s", 2),))


def unital_magma(rng: random.Random, size: int, both: bool) -> FiniteAlgebra:
    """A random magma with s(x, 0) = x, and s(0, y) = y too when ``both``:
    B2's signature, unital at position 0, and at 1 when ``both``."""
    def s(x, y):
        if y == 0:
            return x
        return y if both and x == 0 else rng.randrange(size)
    return FiniteAlgebra(f"M{size}", size, MAGMA, {ZERO_OP: (0,), "s": op_table(size, 2, s)})


def group_expansion(rng: random.Random, size: int, arity: int) -> FiniteAlgebra:
    """Z_size with one more random op g of the given arity that fixes 0:
    unital in add, in neg only on Z1 and Z2, rarely in g."""
    Z = _cyclic(size, f"Z{size}")
    g = op_table(size, arity, lambda *xs: rng.randrange(size) if any(xs) else 0)
    return FiniteAlgebra(f"Zg{size}", size, Signature(Z.signature.ops + (("g", arity),)),
                         {**Z.tables, "g": g})


def unital_triples(count: int, seed: int):
    """(A, B, C) of one signature whose ops are often unital at some
    argument position: unital magmas, B2, non-unital magmas and expansions
    of cyclic groups, each of size 1 to 3."""
    rng = random.Random(seed)
    B2 = builtin("B2").algebra
    for i in range(count):
        if i % 2:
            arity = rng.choice((1, 2))
            yield rng, *(group_expansion(rng, rng.randint(1, 3), arity) for _ in range(3))
            continue
        pool = [unital_magma(rng, rng.randint(1, 3), rng.random() < 0.5) for _ in range(3)]
        pool += [B2, random_like(rng, B2, rng.randint(2, 3), "N")]
        yield rng, *(rng.choice(pool) for _ in range(3))


def unital_flags(X: FiniteAlgebra) -> list[bool]:
    """Per op and argument position, whether X is unital there."""
    if isinstance(X, ProductAlgebra):
        return [u for _, _, u in congruences._product_rows(X)]
    return [congruences._unital(row, X.size) for row in congruences._plain_rows(X)]


def test_plain_rows_put_x_at_each_position_in_row_major_order():
    # Entry i of row(x) at (op, p) is the op with x at p and the i-th setting
    # of the other arguments in row-major order; _outer and the lifts rely
    # on this.  Sizes 7 and 17 take pointwise's nested-table path, 300 also
    # tuple vectors.
    rng = random.Random(53)
    algebras = [A for _, A in generated(60, seed=53)]
    for n, arities in ((7, (3, 1)), (17, (2,)), (300, (1, 2))):
        sig = Signature.make(tuple((f"f{k}", k) for k in arities))
        tables = {f"f{k}": op_table(n, k, lambda *_: rng.randrange(n)) for k in arities}
        algebras.append(FiniteAlgebra(f"L{n}", n, sig, {ZERO_OP: (0,), **tables}))
    seen = set()
    for A in algebras:
        rows = iter(congruences._plain_rows(A))
        for opname, arity in A.signature.ops:
            for p in range(arity):
                row = next(rows)
                for x in A.elements():
                    assert row(x) == [A.apply(opname, *a[:p], x, *a[p:]) for a in
                                      itertools.product(A.elements(), repeat=arity - 1)]
                seen.add((arity, p))
        assert next(rows, None) is None
    assert seen == {(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)}


def test_cg_on_products_of_unital_factors_matches_materialised_tables():
    # On a product whose factors are both unital at an op and position,
    # _op_rows returns the factors' generator rows lifted one side at a
    # time; elsewhere it returns the full outer-sum row, which is the first
    # entry of every _product_rows triple.  Both must give the closures and
    # lattices of the materialised tables.
    lifted = mixed = lattices = 0
    for rng, A, B, C in unital_triples(80, seed=83):
        for P in (product(A, B), product(A, product(B, C))):
            plain = materialised(P)
            full = [row for row, _, _ in congruences._product_rows(P)]
            for got, expect in zip(full, congruences._op_rows(plain), strict=True):
                assert [got(e) for e in P.elements()] == [expect(e) for e in P.elements()]
            lifted += any(unital_flags(P))
            mixed += any(a != b for a, b in zip(unital_flags(P.left), unital_flags(P.right)))
            n = P.size
            for _ in range(4):
                pairs = [(rng.randrange(n), rng.randrange(n))
                         for _ in range(rng.randint(0, 3))]
                assert cg(P, pairs).rep == cg(plain, pairs).rep, (P.name, pairs)
            if n <= 12:
                assert all_congruences(P) == all_congruences(plain), P.name
                lattices += 1
    assert lifted >= 100 and mixed >= 80 and lattices >= 120


def test_lattices_of_generated_products_match_partition_filter():
    checked = joined = eights = 0
    for _, A, B, C in generated_triples(90, seed=37):
        for P in (product(A, B), product(A, product(B, C))):
            if not 6 <= P.size <= 8:
                continue
            oracle = [tuple(r) for r in congruence_reps_by_filter(materialised(P))]
            expect = sorted(oracle, key=lambda r: (-len(set(r)), r))
            for X in (P, materialised(P)):
                assert [t.rep for t in all_congruences(X)] == expect, P.name
            checked += 1
            joined += len(expect) > 5
            eights += P.size == 8
    assert checked >= 30 and joined >= 20 and eights >= 2


def test_lattice_build_keeps_each_congruence_once(monkeypatch):
    # Close-by-One keeps every congruence once.  A join that merges more
    # than the two blocks of its generating pair can reach a congruence kept
    # elsewhere; the full canonicity test then drops it, so such algebras
    # take more joins than they have congruences past the discrete one.
    joins = []
    join_ = congruences._join
    monkeypatch.setattr(congruences, "_join", lambda *args: joins.append(1) or join_(*args))
    algebras = [A for _, A in generated(60, seed=2025)]
    for _, A, B, C in generated_triples(90, seed=37):
        algebras += [P for P in (product(A, B), product(A, product(B, C))) if P.size <= 8]
    dropped = 0
    for A in algebras:
        joins.clear()
        reps = [t.rep for t in congruences._build_lattice(A, DEFAULT_CAPS)]
        assert len(set(reps)) == len(reps), A.name
        assert len(joins) >= len(reps) - 1
        dropped += len(joins) > len(reps) - 1
    assert len(algebras) >= 150 and dropped >= 40


def pulled_back(rep, perm) -> tuple[int, ...]:
    """The partition x ~ y iff perm[x] and perm[y] share a block of rep, in
    least-representative form."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(rep[perm[x]], x) for x in range(len(perm)))


def test_lattices_are_invariant_under_relabelling(monkeypatch):
    # A relabelled algebra's lattice, mapped back through the permutation,
    # is the same set of partitions.  Its join count need not be: the
    # canonicity test reads the principals in the order of their first
    # pairs, and a join that merges more than its own pair of blocks can be
    # dropped in one order and kept in another.  Where every principal is
    # an atom of Eq(A), one two-element block, every join merges two blocks
    # and each congruence takes one join in every labelling.
    joins = []
    join_ = congruences._join
    monkeypatch.setattr(congruences, "_join", lambda *args: joins.append(1) or join_(*args))

    def joins_and_reps(A):
        joins.clear()
        reps = [t.rep for t in all_congruences(A)]
        return len(joins), reps

    builtins = [builtin(name).algebra for name in list_builtins()]
    algebras = builtins + [product(A, B) for A in builtins for B in builtins
                           if A.signature == B.signature and A.size * B.size <= 9]
    algebras += [A for _, A in generated(60, seed=2025)]
    for _, A, B, C in generated_triples(90, seed=37):
        algebras += [P for P in (product(A, B), product(A, product(B, C))) if P.size <= 8]
    rng = random.Random(41)
    atomic = 0
    for A in algebras:
        n = A.size
        joined, reps = joins_and_reps(A)
        atoms = all(cg(A, [(x, y)]).num_blocks == n - 1
                    for x in range(n) for y in range(x + 1, n))
        if atoms:
            assert joined == len(reps) - 1, A.name
        for _ in range(2):
            perm = [0] + rng.sample(range(1, n), n - 1)
            joined, image = joins_and_reps(relabel(A, perm))
            back = {pulled_back(rep, perm) for rep in image}
            assert back == set(reps) and len(image) == len(reps), A.name
            if atoms:
                assert joined == len(image) - 1, A.name
        atomic += atoms
    assert len(algebras) >= 200 and atomic >= 80


def one_close_per_pair(A: FiniteAlgebra) -> dict:
    """Each principal congruence with its first generating pair, one closure
    per pair in lexicographic order."""
    rows, n = congruences._op_rows(A), A.size
    gens = {}
    for x in range(n):
        for y in range(x + 1, n):
            gens.setdefault(congruences._close(rows, n, [(x, y)]), (x, y))
    return gens


def test_principals_match_one_closure_per_pair(monkeypatch):
    # The lattice build computes one closure per class of pairs that share
    # a principal congruence; the dict and its order must not change.
    closes = []
    close = congruences._close
    monkeypatch.setattr(congruences, "_close",
                        lambda *args: closes.append(1) or close(*args))
    algebras = [A for _, A in generated(60, seed=71)]
    products = []
    for _, A, B, C in generated_triples(60, seed=73):
        products += [product(A, B), product(A, product(B, C))]
    products = [P for P in products if P.size <= 12]
    triples = sum(isinstance(P.right, ProductAlgebra) for P in products)
    algebras += products
    builtins = [builtin(name).algebra for name in list_builtins()]
    algebras += [product(A, B) for A in builtins for B in builtins
                 if A.signature == B.signature]
    ternary = constants = pairs = runs = 0
    for A in algebras:
        expect = one_close_per_pair(A)
        closes.clear()
        got = congruences._principals(congruences._op_rows(A), A.size)
        assert list(got.items()) == list(expect.items()), A.name
        pairs += A.size * (A.size - 1) // 2
        ternary += any(arity == 3 for _, arity in A.signature.ops)
        constants += any(arity == 0 and A.tables[name] != (0,)
                         for name, arity in A.signature.ops)
        runs += len(closes)
    assert len(algebras) >= 190 and triples >= 20
    assert ternary >= 60 and constants >= 100
    # 1,650 closures for 2,825 pairs
    assert runs * 4 <= pairs * 3


def test_np_matches_partition_oracle_on_generated_pairs():
    checked = 0
    for _, A, B, _ in generated_triples(60, seed=47):
        if A.size * B.size > 6:
            continue
        checked += 1
        assert check_np_pair(A, B).holds == np_partition_oracle(A, B), A.signature
    assert checked >= 30


def test_product_tables_match_definition_on_builtin_pairs():
    algebras = [builtin(name).algebra for name in list_builtins()]
    # A 17-element binary factor takes pointwise's nested-tuple path, a
    # 257-element unary one tuple vectors.
    rng = random.Random(71)
    unary = FiniteAlgebra("U1", 1, Signature.make((("f", 1),)), {ZERO_OP: (0,), "f": (0,)})
    algebras += [random_like(rng, builtin("Z2").algebra, 17, "R"),
                 random_like(rng, unary, 257, "U"), random_like(rng, unary, 3, "U")]
    for A in algebras:
        for B in algebras:
            if A.signature != B.signature or A.size * B.size > 1000:
                continue
            expect = oracle_product(A, B).tables
            P = product(A, B)
            for opname, _ in A.signature.ops:
                assert P.tables[opname] == expect[opname], (A.name, B.name, opname)


def test_coordinates_are_the_row_major_digits():
    for radices in [(), (1, 3), (2, 3, 4), (257, 2)]:
        cols = coordinates(radices)
        assert [tuple(col) for col in cols] \
            == list(zip(*itertools.product(*map(range, radices)))), radices
        assert [type(col) for col in cols] == [vector_type(r) for r in radices]


def random_pins(rng: random.Random, X: FiniteAlgebra, Y: FiniteAlgebra) -> dict:
    return {rng.randrange(X.size): rng.randrange(Y.size)
            for _ in range(rng.randint(1, 2))}


def test_homomorphisms_match_brute_force_in_order():
    pinned = 0
    for rng, A, B, C in generated_triples(60, seed=53):
        for X, Y in ((A, B), (B, C), (product(A, B), C)):
            if X.size > 6:
                continue
            every = [tuple(m) for m in brute_homs(X, Y)]
            got = [h.mapping for h in enumerate_homomorphisms(X, Y)]
            assert got == every, (X.name, Y.name)
            pins = random_pins(rng, X, Y)
            expect = [m for m in every if all(m[e] == v for e, v in pins.items())]
            got = [h.mapping for h in enumerate_homomorphisms(X, Y, pins)]
            assert got == expect, (X.name, Y.name, pins)
            pinned += bool(expect)
    assert pinned >= 30


def test_enumerated_maps_pass_the_independent_check():
    # enumerate_homomorphisms builds the maps it yields without re-checking
    # them; hom_violation checks each one again, with and without pins.  A
    # pin against a value every homomorphism shares must empty the stream.
    checked = contradicted = ternary = constants = 0
    for rng, A, B, C in generated_triples(90, seed=61):
        for X, Y in ((A, B), (B, C), (product(A, B), C),
                     (product(A, product(B, C)), A)):
            if Y.size ** (X.size - 1) > 3000:
                continue
            every = list(enumerate_homomorphisms(X, Y))
            for h in every:
                assert hom_violation(X, Y, h.mapping) is None, (X.name, Y.name, h)
            pins = random_pins(rng, X, Y)
            for h in enumerate_homomorphisms(X, Y, pins):
                assert hom_violation(X, Y, h.mapping) is None, (X.name, Y.name, h)
                assert all(h(e) == v for e, v in pins.items())
            for e in range(X.size):
                images = {h(e) for h in every}
                if len(images) == 1 and Y.size > 1:
                    wrong = {e: (images.pop() + 1) % Y.size}
                    assert list(enumerate_homomorphisms(X, Y, wrong)) == [], \
                        (X.name, Y.name, wrong)
                    contradicted += 1
            checked += 1
            ternary += any(arity == 3 for _, arity in X.signature.ops)
            constants += any(arity == 0 and X.tables[name] != (0,)
                             for name, arity in X.signature.ops)
    assert checked >= 300 and contradicted >= 200
    assert ternary >= 100 and constants >= 150


def first_failure_by_loops(st, tt, n, m, arity, mapping):
    """The first args, in row-major order, with mapping(op(args)) !=
    op(mapping(args)), by one index loop per argument tuple."""
    for args in itertools.product(range(n), repeat=arity):
        src = tgt = 0
        for a in args:
            src, tgt = src * n + a, tgt * m + mapping[a]
        if mapping[st[src]] != tt[tgt]:
            return args
    return None


def test_op_violation_matches_the_index_loop():
    # m = 300 takes tuple vectors; arity 0 compares the constants alone.
    rng = random.Random(97)
    shapes = [(rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 3)) for _ in range(300)]
    shapes += [(3, 300, 2), (2, 300, 1), (300, 2, 1)]
    found = 0
    for n, m, arity in shapes:
        mapping = tuple(rng.randrange(m) for _ in range(n))
        st = tuple(rng.randrange(n) for _ in range(n ** arity))
        # tt agrees with the image of st wherever the map is onto one value
        # per argument tuple, then one entry is changed half the time.
        tt = [rng.randrange(m) for _ in range(m ** arity)]
        for args in itertools.product(range(n), repeat=arity):
            src = tgt = 0
            for a in args:
                src, tgt = src * n + a, tgt * m + mapping[a]
            tt[tgt] = mapping[st[src]]
        if rng.random() < 0.5:
            i = rng.randrange(len(tt))
            tt[i] = (tt[i] + 1) % m
        tt = tuple(tt)
        expect = first_failure_by_loops(st, tt, n, m, arity, mapping)
        assert op_violation(st, tt, n, m, arity, mapping) == expect, (n, m, arity)
        found += expect is not None
    assert 50 <= found <= 250


def test_check_homomorphic_matches_the_double_loop():
    # check_homomorphic reads only the two binary tables and the map, so a
    # binary op of a generated algebra stands in for each subtraction.  Under
    # a homomorphism g the same op on both sides passes; with one entry of
    # the target's table changed it fails wherever g's image reaches it.
    def wrap(A, table):
        return InternalSubtraction._proved(A, Homomorphism._proved(product(A, A), A, table))

    def by_loops(g, s, sp):
        n = g.source.size
        return next(((x, y) for x in range(n) for y in range(n)
                     if g(s(x, y)) != sp(g(x), g(y))), None)

    held = failed = inner = 0
    for rng, A, B, _ in itertools.chain(generated_triples(120, seed=89),
                                        unital_triples(60, seed=89)):
        binary = [name for name, arity in A.signature.ops if arity == 2]
        if not binary:
            continue
        op = rng.choice(binary)
        s = wrap(A, A.tables[op])
        for Y in (A, B):
            changed = list(Y.tables[op])
            i = rng.randrange(len(changed))
            changed[i] = (changed[i] + 1) % Y.size
            for g in itertools.islice(enumerate_homomorphisms(A, Y), 4):
                for sp in (wrap(Y, Y.tables[op]), wrap(Y, tuple(changed))):
                    verdict = check_homomorphic(g, s, sp)
                    expect = by_loops(g, s, sp)
                    assert (verdict.holds, verdict.witness) == (expect is None, expect), \
                        (A.name, Y.name, g)
                    held += verdict.holds
                    failed += not verdict.holds
                    inner += expect not in (None, (0, 0))
    assert held >= 300 and failed >= 90 and inner >= 60


def test_found_subtractions_equal_validated_ones():
    # find_internal_subtractions builds its results without re-checking;
    # the public constructors check each one, and the backtracking oracle
    # checks that none is missing.
    algebras = [builtin(name).algebra for name in list_builtins()]
    algebras += [A for _, A in generated(60, seed=67) if A.size <= 3]
    found = 0
    for A in algebras:
        subs = find_internal_subtractions(A)
        assert [s.hom.mapping for s in subs] == brute_subtraction_tables(A), A.name
        P = product(A, A)
        for s in subs:
            assert s == InternalSubtraction(A, Homomorphism(P, A, s.hom.mapping))
        found += len(subs)
    # the builtins have 86 of them, P3 alone 81
    assert found >= 95


def test_quotient_surjection_is_a_homomorphism():
    # quotient() proves its surjection with hom_violation; ``commutes``
    # checks the map again, independently of it.
    checked = 0
    for _, A in generated(60, seed=11):
        for theta in all_congruences(A):
            Q, q = quotient(A, theta)
            assert commutes(A, Q, q.mapping), (A.signature, theta.rep)
            assert all(theta.rep[x] == theta.rep[y]
                       for x in A.elements() for y in A.elements()
                       if q(x) == q(y)), theta.rep
            checked += 1
    assert checked >= 300


def test_quotient_refuses_exactly_the_incompatible_partitions():
    accepted = refused = 0
    for _, A in generated(80, seed=73):
        for rep in partitions(A.size):
            theta = Congruence(A.size, rep)
            if partition_compatible(A, rep):
                quotient(A, theta)
                accepted += 1
                continue
            with pytest.raises(IncompatiblePartition) as refusal:
                quotient(A, theta)
            # The (op, args) named really fails: args and its tuple of
            # block representatives give outputs in different blocks.
            opname, args = re.fullmatch(r"partition is not compatible with (\S+) at (.*)",
                                        str(refusal.value)).groups()
            args = ast.literal_eval(args)
            assert rep[A.apply(opname, *args)] \
                != rep[A.apply(opname, *(rep[a] for a in args))], (A.signature, rep)
            refused += 1
    assert accepted + refused == 16 * (1 + 2 + 5 + 15 + 52)
    assert accepted >= 200 and refused >= 500


def test_parse_serialize_round_trip_on_generated_algebras():
    for _, A in generated(60, seed=13):
        assert parse_algebra(serialize_algebra(A)) == A


def small_pairs(seed: int):
    """Same-signature pairs (A, B) with |A x B| <= 8, which keeps every
    congruence lattice of A x B small enough to enumerate quickly."""
    for _, A, B, _ in generated_triples(60, seed=seed):
        if A.size * B.size <= 8:
            yield A, B


def test_shifting_and_centralic_agree_with_np():
    checked = fails = centralic_ok = 0
    for A, B in small_pairs(seed=59):
        verdict = check_np_pair(A, B)
        shifting = shifting_shape_check(A, B)
        assert (shifting.holds, shifting.witness, shifting.theta) \
            == (verdict.holds, verdict.witness, verdict.theta), A.signature
        if centralic_check(A, B).ok:
            assert verdict.holds, A.signature
            centralic_ok += 1
        checked += 1
        fails += not verdict.holds
    assert checked >= 40 and fails >= 5 and centralic_ok >= 10


def centralic_by_loops(A, B):
    """centralic_check's report as a direct loop over (theta, x, y, z)."""
    P = product(A, B)
    instances, failures = 0, []
    for theta in all_congruences(P):
        for x in range(A.size):
            for y in range(A.size):
                if not theta.same(P.pair(x, 0), P.pair(y, 0)):
                    continue
                for z in range(B.size):
                    instances += 1
                    u, v = P.pair(x, z), P.pair(y, z)
                    if not theta.same(u, v):
                        failures.append(((x, y, z), theta.rep[u], theta.rep[v], theta))
    return instances, failures


def test_centralic_report_matches_direct_loop():
    builtins = [builtin(name).algebra for name in list_builtins()]
    pairs = list(small_pairs(seed=59)) + [
        (A, B) for A in builtins for B in builtins
        if A.signature == B.signature and A.size * B.size <= DEFAULT_CAPS.lattice]
    failing = 0
    for A, B in pairs:
        report = centralic_check(A, B)
        instances, failures = centralic_by_loops(A, B)
        assert report.instances == instances, (A.name, B.name)
        assert [(f.point, f.lhs, f.rhs, f.theta) for f in report.failures] \
            == failures, (A.name, B.name)
        assert all(f.maps == () for f in report.failures)
        failing += bool(failures)
    assert len(pairs) >= 50 and failing >= 5


def condition_inputs():
    """(X, partners, targets, parameter objects) for the condition checks:
    every builtin with its same-signature builtins, then generated triples."""
    builtins = [builtin(name).algebra for name in list_builtins()]
    for X in builtins:
        same = [Y for Y in builtins if Y.signature == X.signature]
        params = (sorted(same, key=lambda Y: (Y.size, Y.name)) * 2)[:2]
        yield X, [Y for Y in same if X.size * Y.size <= 16], same, params
    for _, A, B, C in generated_triples(30, seed=71):
        yield A, [B], [C, A], [B, C]


def test_condition_reports_match_direct_loops():
    caps = Caps(hom_src=16)
    checked = failing = 0

    def check(report, roles, reference):
        nonlocal checked, failing
        instances, failures = reference
        assert report.instances == instances
        assert [(tuple(h.mapping for _, h in f.maps), f.point, f.lhs, f.rhs)
                for f in report.failures] == failures
        assert all(tuple(role for role, _ in f.maps) == roles for f in report.failures)
        checked += 1
        failing += bool(failures)

    for X, partners, targets, params in condition_inputs():
        for tag in "bc":
            report = check_condition_b(X, targets, caps, tag=tag)
            assert report.condition == tag
            check(report, ("f",), condition_b_by_loops(X, targets))
        check(check_condition_e_instances(X, targets, params, caps), ("f", "x"),
              condition_e_by_loops(X, targets, params))
        for Y in partners:
            check(check_condition_d_instances(X, Y, targets, params, caps), ("f", "a", "b"),
                  condition_d_by_loops(X, Y, targets, params))
    assert checked >= 150 and failing >= 20


def row_major_loop(table, n, cols):
    """The per-row index loop that the pointwise kernel replaces."""
    out = []
    for row in range(len(cols[0])):
        idx = 0
        for col in cols:
            idx = idx * n + col[row]
        out.append(table[idx])
    return tuple(out)


def test_pointwise_matches_row_major_loop():
    rng = random.Random(61)
    shapes = [(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(40)]
    # n**arity = 256 is the largest table on the byte-folding path; 289 and
    # 343 take the nested-tuple path with bytes vectors, 257 and 300 with
    # tuple vectors.
    shapes += [(16, 2), (2, 8), (256, 1), (17, 2), (7, 3), (257, 1), (300, 1)]
    for n, arity in shapes:
        table = tuple(rng.randrange(n) for _ in range(n ** arity))
        vector = vector_type(n)
        apply = pointwise(table, n, arity)
        length = rng.randint(1, 300)
        # every column at n - 1 reaches the last row-major index
        for cols in ([vector(rng.randrange(n) for _ in range(length))
                      for _ in range(arity)],
                     [vector((n - 1,) * length)] * arity):
            got = apply(cols)
            assert type(got) is vector, (n, arity)
            assert got == vector(row_major_loop(table, n, cols)), (n, arity)


def term_depth(term) -> int:
    return 1 + max(map(term_depth, term.args)) if term.args else 0


def assert_free_is_the_clone_part(A, k, F, gens, ops):
    """Reading each witness in F at the generators is an isomorphism from
    the algebra of A's k-ary term operations (ops applied pointwise to
    their tables) onto F, so F's tables are right, not only its size."""
    at = 0
    for g in gens:
        at = at * F.size + g
    elem = {op.table: evaluate_term(F, op.witness, k)[at] for op in ops.term_ops}
    assert sorted(elem.values()) == list(range(F.size)), (A.signature, k)
    positions = A.size ** k
    for name, arity in A.signature.ops:
        for args in itertools.product(elem, repeat=arity):
            image = (tuple(A.apply(name, *row) for row in zip(*args)) if arity
                     else A.tables[name] * positions)
            assert F.apply(name, *map(elem.__getitem__, args)) == elem[image], \
                (A.signature, k, name)


# f grows the carrier before g runs in the same closure round, so g's
# argument tuples must still pair with the columns of that round's start.
UNARY_BEFORE_BINARY = FiniteAlgebra("T2", 2, Signature(((ZERO_OP, 0), ("f", 1), ("g", 2))),
                                    {ZERO_OP: (0,), "f": (1, 0), "g": (0, 0, 1, 1)})


def test_free_algebra_tables_with_a_unary_op_before_a_binary_one():
    A = UNARY_BEFORE_BINARY
    F, gens = free_algebra(A, 1)
    ops = generate_term_ops(A, 1)
    assert F.size == len(ops.term_ops) == 4
    assert_free_is_the_clone_part(A, 1, F, gens, ops)


def test_free_algebra_and_clone_agree():
    caps = Caps(free_carrier=40)
    compared = 0
    for _, A in generated(40, seed=67):
        for k in (1, 2):
            try:
                F, gens = free_algebra(A, k, caps)
            except CapExceeded:
                continue
            ops = generate_term_ops(A, k)
            assert ops.complete
            assert F.size == len(ops.term_ops), (A.signature, k)
            # The oracle at the depth of the deepest witness holds every
            # table found; the free algebra's size says nothing is missing.
            depth = max(term_depth(op.witness) for op in ops.term_ops)
            tables = {op.table for op in ops.term_ops}
            assert tables == depth_closure_tables(A, k, depth), (A.signature, k)
            assert_free_is_the_clone_part(A, k, F, gens, ops)
            compared += 1
    assert compared >= 50


def test_free_algebra_and_clone_agree_past_the_byte_table():
    # Z17's add has 17**2 = 289 entries, so both run on the nested-tuple path.
    Z17 = _cyclic(17, "Z17")
    F, (g,) = free_algebra(Z17, 1, Caps(free_positions=17))
    ops = generate_term_ops(Z17, 1)
    assert ops.complete and F.size == len(ops.term_ops) == 17
    assert {op.table for op in ops.term_ops} \
        == {tuple(a * x % 17 for x in range(17)) for a in range(17)}
    assert_free_is_the_clone_part(Z17, 1, F, [g], ops)


def test_free_algebra_and_clone_agree_on_tuple_vectors():
    # Past 256 elements vectors are tuples.  f(x) = 16x + 1 on 257 elements
    # has order 4, and so has the orbit 0, 1, 17, 16 of 0, so the clone's
    # unary part has 4 + 4 tables.
    A = FiniteAlgebra("A257", 257, Signature(((ZERO_OP, 0), ("f", 1))),
                      {ZERO_OP: (0,), "f": op_table(257, 1, lambda x: (16 * x + 1) % 257)})
    assert vector_type(A.size) is tuple
    F, (g,) = free_algebra(A, 1, Caps(free_positions=257))
    ops = generate_term_ops(A, 1)
    assert ops.complete and F.size == len(ops.term_ops) == 8
    depth = max(term_depth(op.witness) for op in ops.term_ops)
    assert {op.table for op in ops.term_ops} == depth_closure_tables(A, 1, depth)
    assert_free_is_the_clone_part(A, 1, F, [g], ops)


def test_pointwise_maps_joined_columns_to_joined_outputs():
    # The byte-folding path at (6, 2), nested maps over bytes at (17, 2) and
    # over tuples at (257, 1).
    rng = random.Random(71)
    for n, arity in ((6, 2), (17, 2), (257, 1)):
        table = tuple(rng.randrange(n) for _ in range(n ** arity))
        vector = vector_type(n)
        apply = pointwise(table, n, arity)
        blocks = [[vector(rng.randrange(n) for _ in range(length)) for _ in range(arity)]
                  for length in (1, 5, 216)]
        joined = [concat(cols, n) for cols in zip(*blocks)]
        assert apply(joined) == concat([apply(cols) for cols in blocks], n), (n, arity)
        repeated = apply([col * 3 for col in blocks[-1]])
        assert list(split(repeated, 216, n)) == [apply(blocks[-1])] * 3, (n, arity)


def round_loop_cases():
    """(A, k, caps): generated algebras at k = 1 and 2, Z6 at k = 3, and
    one signature each with a unary op before a binary one, with a ternary
    op and with a non-zero constant."""
    small = Caps(free_positions=25, free_carrier=40)
    for _, A in generated(40, seed=67):
        yield A, 1, small
        yield A, 2, small
    yield _cyclic(6, "Z6"), 3, Caps(free_positions=216)
    yield UNARY_BEFORE_BINARY, 1, DEFAULT_CAPS
    ternary = FiniteAlgebra("M3", 3, Signature(((ZERO_OP, 0), ("m", 3))), {
        ZERO_OP: (0,), "m": op_table(3, 3, lambda x, y, z: (x * y + z) % 3)})
    yield ternary, 1, DEFAULT_CAPS
    yield ternary, 2, small
    Z3 = _cyclic(3, "Z3")
    pointed = FiniteAlgebra("Z3c", 3, Signature(Z3.signature.ops + (("c", 0),)),
                            {**Z3.tables, "c": (1,)})
    yield pointed, 1, DEFAULT_CAPS
    yield pointed, 2, DEFAULT_CAPS


def refusal(build, A, k, caps):
    with pytest.raises(CapExceeded) as info:
        build(A, k, caps)
    return info.value.what, info.value.needed, info.value.limit


def test_free_algebra_matches_the_round_loop():
    compared = cut = 0
    for A, k, caps in round_loop_cases():
        try:
            elems, gens, tables, starts = free_algebra_by_rounds(A, k, caps)
        except CapExceeded:
            assert refusal(free_algebra, A, k, caps) \
                == refusal(free_algebra_by_rounds, A, k, caps), (A.signature, k)
            continue
        F, gen_ids = free_algebra(A, k, caps)
        S, sub_ids, vectors = subpower(A, coordinates((A.size,) * k), caps)
        assert vectors == elems and gen_ids == sub_ids == gens, (A.signature, k)
        assert dict(F.tables) == dict(S.tables) == tables, (A.signature, k)
        compared += 1
        # free_carrier cuts the first, a middle and the last growing round.
        rounds = len(starts) - 1
        middle = (rounds - 1) // 2
        for limit in {starts[0], (starts[middle] + starts[middle + 1]) // 2, starts[-1] - 1}:
            if rounds and limit >= starts[0]:
                less = Caps(free_positions=caps.free_positions, free_carrier=limit)
                assert refusal(free_algebra, A, k, less) \
                    == refusal(free_algebra_by_rounds, A, k, less), (A.signature, k, limit)
                cut += 1
    assert compared >= 50 and cut >= 75


def binary_terms_by_subpower(A):
    """(subtractive, unital) read off two subpowers of A**(2n).  On the
    positions (x, 0), (x, x) the generators x1, x2 generate the binary
    terms' images, and s(x, 0) = x, s(x, x) = 0 is one vector there;
    likewise p(x, 0) = x, p(0, x) = x on the positions (x, 0), (0, x)."""
    n = A.size
    xs, zeros = list(range(n)), [0] * n
    _, _, elems = subpower(A, [xs + xs, zeros + xs])
    subtractive = vector_type(n)(xs + zeros) in elems
    _, _, elems = subpower(A, [xs + zeros, zeros + xs])
    return subtractive, vector_type(n)(xs + xs) in elems


def test_subpower_membership_decides_the_binary_term_searches():
    rng = random.Random(73)
    algebras = [builtin(name).algebra for name in list_builtins()]
    algebras += [FiniteAlgebra(f"M{i}", 3, MAGMA, {
        ZERO_OP: (0,), "s": op_table(3, 2, lambda *_: rng.randrange(3))}) for i in range(100)]
    seen = set()
    for A in algebras:
        searches = find_subtraction_term(A), find_unit_term(A)
        assert all(search.status != "unknown" for search in searches), A.name
        verdicts = tuple(search.status == "found" for search in searches)
        assert binary_terms_by_subpower(A) == verdicts, (A.name, A.tables)
        seen.add(verdicts)
    assert len(seen) >= 3, seen


def test_subpower_refuses_ragged_or_out_of_range_generators():
    Z3 = _cyclic(3, "Z3")
    for gens in ([(0, 1), (0, 1, 2)], [(0, 3)], [()]):
        with pytest.raises(ValueError):
            subpower(Z3, gens)
