import itertools
import random

import pytest

from abelia import (Caps, CapExceeded, FiniteAlgebra, Homomorphism,
                    IncompatiblePartition, InvalidAlgebra, InvalidHomomorphism,
                    POINTED, ParseError, ProductAlgebra, Signature, SignatureMismatch,
                    builtin,
                    cg, compose, enumerate_homomorphisms,
                    factor_through_split_epi, free_algebra, generate_term_ops,
                    hom_violation, identity_hom, is_homomorphism,
                    kernel_congruence, op_table, pairing_hom, parse_algebra,
                    product, quotient, serialize_algebra, subpower, zero_hom)
from abelia.catalog import _cyclic
from abelia.core import _hom_tables, op_violation, pointwise, subtraction_cells
from oracles import backtrack_homs, brute_homs, commutes, oracle_product


def test_signature_requires_zero():
    with pytest.raises(InvalidAlgebra):
        Signature((("f", 2),))
    sig = Signature.make((("f", 2),))
    assert sig.arity("zero") == 0
    assert sig.arity("f") == 2
    with pytest.raises(KeyError):
        sig.arity("g")
    assert Signature.make((("f", 1), ("zero", 0))).ops == (("f", 1), ("zero", 0))


def test_signature_rejects_bad_names():
    with pytest.raises(InvalidAlgebra):
        Signature.make((("two words", 1),))
    with pytest.raises(InvalidAlgebra):
        Signature.make((("a#b", 1),))
    with pytest.raises(InvalidAlgebra):
        Signature.make((("f", 1), ("f", 2)))
    with pytest.raises(InvalidAlgebra):
        Signature.make((("f", -1),))


@pytest.mark.parametrize("name", ["x0", "x1", "x12"])
def test_signature_reserves_term_variable_names(name):
    # evaluate_term reads x<digits> as a variable, so an op of that name
    # would be lost from every term.
    with pytest.raises(InvalidAlgebra, match="term variable"):
        Signature.make(((name, 0),))


@pytest.mark.parametrize("name", ["x", "xy", "x1a", "x\u00b2", "y1"])
def test_signature_allows_names_that_are_no_term_variable(name):
    assert Signature.make(((name, 1),)).arity(name) == 1


def test_algebra_validation():
    with pytest.raises(InvalidAlgebra):
        FiniteAlgebra("X", 2, POINTED, {"zero": (1,)})
    with pytest.raises(InvalidAlgebra):
        FiniteAlgebra("X", 2, POINTED, {})
    with pytest.raises(InvalidAlgebra, match="carrier must be non-empty"):
        FiniteAlgebra("X", 0, POINTED, {"zero": (0,)})
    sig = Signature.make((("f", 1),))
    with pytest.raises(InvalidAlgebra):
        FiniteAlgebra("X", 2, sig, {"zero": (0,), "f": (0,)})
    for table in ((0, 5), (-1, 0), (1, 2)):
        with pytest.raises(InvalidAlgebra, match="f: table entry out of range"):
            FiniteAlgebra("X", 2, sig, {"zero": (0,), "f": table})


def test_apply_is_row_major(cat):
    Z4 = cat["Z4"]
    # flat index walks the last argument fastest
    for i, (x, y) in enumerate(itertools.product(range(4), repeat=2)):
        assert Z4.tables["add"][i] == Z4.apply("add", x, y) == (x + y) % 4
    assert op_table(4, 2, lambda x, y: (x + y) % 4) == Z4.tables["add"]


def test_apply_refuses_the_wrong_number_of_arguments(cat):
    Z4 = cat["Z4"]
    with pytest.raises(ValueError, match="'add' has arity 2, given 1 arguments"):
        Z4.apply("add", 3)
    with pytest.raises(ValueError, match="'neg' has arity 1, given 2 arguments"):
        Z4.apply("neg", 1, 1)
    assert Z4.apply("zero") == 0


@pytest.mark.parametrize("args", [(0, 5), (-1, 0), (0, 16), (4, 0)])
def test_apply_refuses_arguments_outside_the_carrier(cat, args):
    # Unchecked, these would read a wrong cell (5 is cell add(1, 1), -1 the
    # last cell) or raise IndexError.
    with pytest.raises(ValueError, match="outside the carrier 0..3"):
        cat["Z4"].apply("add", *args)


@pytest.mark.parametrize("name", ["my alg", "", "a#b"])
def test_algebra_name_must_read_back_as_one_token(name):
    # serialize_algebra writes the name as one token after "algebra".
    with pytest.raises(InvalidAlgebra, match="bad algebra name"):
        FiniteAlgebra(name, 1, POINTED, {"zero": (0,)})


def test_built_algebra_names_round_trip(cat):
    Z4 = cat["Z4"]
    built = [product(cat["Z2"], cat["V4"]), quotient(Z4, cg(Z4, [(0, 2)]))[0],
             free_algebra(cat["Z2"], 2)[0], subpower(Z4, [(1, 2)])[0]]
    assert [A.name for A in built] == ["Z2xV4", "Z4/~", "Free(Z2,2)", "Sub(Z4^2)"]
    for A in list(cat.values()) + built:
        assert parse_algebra(serialize_algebra(A)).name == A.name


@pytest.mark.parametrize("left,right", [("Z2", "Z2"), ("Z2", "Z4"), ("Z3", "V4"),
                                        ("P2", "P3"), ("S2", "S2"), ("B2", "B2")])
def test_product_matches_definition(cat, left, right):
    A, B = cat[left], cat[right]
    P = product(A, B)
    assert P.tables == oracle_product(A, B).tables
    assert P.size == A.size * B.size


def test_product_canonical_maps(cat):
    A, B = cat["Z3"], cat["Z4"]
    P = product(A, B)
    for a in range(A.size):
        for b in range(B.size):
            e = P.pair(a, b)
            assert P.split(e) == (a, b)
            assert P.p1(e) == a and P.p2(e) == b
    assert compose(P.p1, P.i1) == identity_hom(A)
    assert compose(P.p2, P.i2) == identity_hom(B)
    assert compose(P.p2, P.i1) == zero_hom(A, B)
    assert compose(P.p1, P.i2) == zero_hom(B, A)
    paired = pairing_hom(P, P.p1, P.p2)
    assert paired == identity_hom(P)


def test_product_pair_and_split_refuse_elements_outside_the_factors(cat):
    P = product(cat["Z3"], cat["Z3"])
    for a, b in [(5, 7), (3, 0), (0, 3), (-1, 0)]:
        with pytest.raises(ValueError, match="outside the factors' carriers 0..2 x 0..2"):
            P.pair(a, b)
    for e in [100, 9, -1]:
        with pytest.raises(ValueError, match="element .* is outside the carrier 0..8"):
            P.split(e)


def test_product_canonical_maps_build_no_product_table():
    # p1, p2, i1 and i2 commute by the definition of the product, so reading
    # them builds none of the product's tables, not even at the inner
    # product.  Only the one-entry zero tables exist: construction reads them.
    Z12 = _cyclic(12, "Z12")
    P = product(Z12, product(Z12, Z12))
    maps = (P.p1, P.p2, P.i1, P.i2)
    assert P.tables._built == P.right.tables._built == {"zero": (0,)}
    assert [(h.source, h.target) for h in maps] == [
        (P, P.left), (P, P.right), (P.left, P), (P.right, P)]
    assert P.p1.mapping == tuple(P.split(e)[0] for e in P.elements())
    assert P.p2.mapping == tuple(P.split(e)[1] for e in P.elements())
    assert P.i1.mapping == tuple(P.pair(a, 0) for a in Z12.elements())
    assert P.i2.mapping == tuple(P.pair(0, b) for b in P.right.elements())


def test_derived_maps_build_no_product_table():
    # An identity, a composite of homomorphisms and a zero map into an
    # algebra whose ops fix 0 are homomorphisms by construction, so none of
    # them, nor a factorization through a split epi, builds a product table.
    Z12 = _cyclic(12, "Z12")
    P = product(Z12, product(Z12, Z12))
    assert identity_hom(P).mapping == tuple(P.elements())
    assert zero_hom(P.left, P).mapping == (0,) * 12
    assert compose(P.i1, P.p1).mapping == tuple(P.pair(P.split(e)[0], 0) for e in P.elements())
    assert factor_through_split_epi(P.p1, P.p1, P.i1) == identity_hom(Z12)
    assert P.tables._built == P.right.tables._built == {"zero": (0,)}


def test_product_equality_and_pairing_build_no_product_table(cat):
    # A product's tables are its factors', so products are compared through
    # their names and factors, and <p1, p2> is built without a check.
    def z12():
        return _cyclic(12, "Z12")
    P = product(z12(), product(z12(), z12()))
    Q = product(z12(), product(z12(), z12()))
    assert P == Q
    assert pairing_hom(P, P.p1, P.p2).mapping == tuple(P.elements())
    for X in (P, P.right, Q, Q.right):
        assert X.tables._built == {"zero": (0,)}
    # Same name, size and table entries, other factors.
    R = product(product(z12(), z12()), z12())
    assert R.name == P.name and P != R and R != P
    assert product(z12(), z12()) != product(z12(), _cyclic(12, "Z12'"))
    # A plain algebra with a product's tables stays unequal to it.
    S = product(cat["Z2"], cat["Z3"])
    plain = FiniteAlgebra(S.name, S.size, S.signature, dict(S.tables))
    assert S != plain and plain != S


def test_product_algebra_takes_only_its_own_factors_tables(cat):
    Z2, Z3 = cat["Z2"], cat["Z3"]
    P, swapped = product(Z2, Z3), product(Z3, Z2)
    sig = P.signature
    for size, tables, left, right in [
            (6, dict(P.tables), Z2, Z3), (6, swapped.tables, Z2, Z3),
            (6, P.tables, Z3, Z2), (5, P.tables, Z2, Z3),
            (6, P.tables, Z2, _cyclic(3, "Z3"))]:
        with pytest.raises(InvalidAlgebra):
            ProductAlgebra("Z2xZ3", size, sig, tables, left, right)
    renamed = ProductAlgebra("W", 6, sig, P.tables, Z2, Z3)
    assert renamed != P and renamed.p1.mapping == P.p1.mapping


def test_product_canonical_maps_commute_on_builtin_pairs(cat):
    checked = 0
    for A in cat.values():
        for B in cat.values():
            if A.signature != B.signature:
                continue
            P = product(A, B)
            for h in (P.p1, P.p2, P.i1, P.i2):
                assert hom_violation(h.source, h.target, h.mapping) is None, \
                    (A.name, B.name, h)
            checked += 1
    assert checked == 22


def test_product_inclusion_past_a_constant_off_zero_is_refused():
    # i1: a -> (a, 0) commutes with a constant c only when c is 0 in the
    # padded factor, so here it is no homomorphism and i2 still is one.
    sig = Signature.make((("c", 0),))
    A = FiniteAlgebra("A", 2, sig, {"zero": (0,), "c": (0,)})
    B = FiniteAlgebra("B", 2, sig, {"zero": (0,), "c": (1,)})
    P = product(A, B)
    with pytest.raises(InvalidHomomorphism, match="does not commute with c"):
        P.i1
    assert P.i2.mapping == (0, 1)
    assert hom_violation(B, P, P.i2.mapping) is None
    assert hom_violation(A, P, (0, 2)) == ("c", ())


def test_zero_hom_needs_every_target_op_to_fix_zero():
    sig = Signature.make((("g", 1),))
    X = FiniteAlgebra("X", 2, sig, {"zero": (0,), "g": (0, 1)})
    Y = FiniteAlgebra("Y", 2, sig, {"zero": (0,), "g": (1, 0)})
    with pytest.raises(InvalidHomomorphism, match="does not commute with g"):
        zero_hom(X, Y)
    assert zero_hom(Y, X).mapping == (0, 0)


def test_zero_hom_refuses_another_signature(cat):
    with pytest.raises(SignatureMismatch, match="Z2 and P2 have different signatures"):
        zero_hom(cat["Z2"], cat["P2"])


def test_pointwise_applies_a_constant_as_one_row():
    # The row-major order on no arguments has one row, returned as a vector
    # of the carrier's type on either side of 256 elements.
    assert pointwise((2,), 3, 0)([]) == b"\x02"
    assert pointwise((299,), 300, 0)([]) == (299,)


def test_constants_through_the_table_kernels_past_256_elements():
    from abelia import Congruence
    sig = Signature.make((("c", 0),))
    A = FiniteAlgebra("A", 300, sig, {"zero": (0,), "c": (299,)})
    B = FiniteAlgebra("B", 2, sig, {"zero": (0,), "c": (1,)})
    assert product(A, B).tables["c"] == (599,)
    assert op_violation((299,), (1,), 300, 2, 0, (0,) * 299 + (1,)) is None
    assert op_violation((299,), (1,), 300, 2, 0, (0,) * 300) == ()
    assert hom_violation(A, B, (0,) * 300) == ("c", ())
    assert quotient(A, Congruence.discrete(300))[0].tables["c"] == (299,)
    assert quotient(A, Congruence.all_pairs(300))[0].tables["c"] == (0,)
    F, gens = free_algebra(A, 0)
    assert (F.size, gens, F.tables) == (2, [], {"zero": (0,), "c": (1,)})
    assert parse_algebra(serialize_algebra(A)) == A


def test_product_signature_mismatch(cat):
    with pytest.raises(SignatureMismatch):
        product(cat["Z2"], cat["P2"])


def test_op_membership_builds_no_product_table(cat):
    P = product(cat["Z2"], cat["Z3"])
    built = dict(P.tables._built)  # the zero table, read when P was checked
    assert "add" in P.tables and "neg" in P.tables and "s" not in P.tables
    assert len(P.tables) == 3 and list(P.tables) == ["zero", "add", "neg"]
    assert P.tables._built == built and "add" not in built


def test_enumerate_homomorphisms_refuses_another_signature(cat):
    with pytest.raises(SignatureMismatch, match="Z2 and P2 have different signatures"):
        next(enumerate_homomorphisms(cat["Z2"], cat["P2"]))


def test_hom_violation_matches_oracle(cat):
    A = cat["Z3"]
    B = cat["Z3"]
    for mapping in itertools.product(range(3), repeat=3):
        if mapping[0] != 0:
            continue
        assert (hom_violation(A, B, mapping) is None) == commutes(A, B, mapping)
    # a violation names an operation instance that really fails
    bad = (0, 1, 1)
    viol = hom_violation(A, B, bad)
    opname, args = viol
    assert bad[A.apply(opname, *args)] != B.apply(opname, *(bad[a] for a in args))


def test_homomorphism_validation(cat):
    Z2, Z3 = cat["Z2"], cat["Z3"]
    with pytest.raises(InvalidHomomorphism):
        Homomorphism(Z3, Z3, (0, 1, 1))
    with pytest.raises(InvalidHomomorphism):
        Homomorphism(Z3, Z3, (0, 1))
    with pytest.raises(InvalidHomomorphism):
        Homomorphism(Z2, Z2, (0, 7))
    with pytest.raises(SignatureMismatch):
        Homomorphism(Z2, cat["P2"], (0, 1))
    assert is_homomorphism(Z3, Z3, (0, 2, 1))
    assert not is_homomorphism(Z3, Z3, (0, 1, 1))


def test_compose_and_identities(cat):
    V4, Z2 = cat["V4"], cat["Z2"]
    section = Homomorphism(Z2, V4, (0, 1))
    low_bit = Homomorphism(V4, Z2, (0, 1, 0, 1))
    assert compose(low_bit, section) == identity_hom(Z2)
    assert compose(section, low_bit).mapping == (0, 1, 0, 1)
    with pytest.raises(ValueError):
        compose(section, section)


# acceptance criterion 9 sizes: |X| <= 4, |Y| <= 3
@pytest.mark.parametrize("src,tgt", [("P2", "P3"), ("P3", "P2"), ("Z2", "Z3"),
                                     ("Z4", "Z2"), ("V4", "Z2"), ("S2", "S2"),
                                     ("B2", "B2"), ("Z3", "Z3"), ("Z4", "Z3")])
def test_enumerate_homomorphisms_matches_filter_oracle(cat, src, tgt):
    X, Y = cat[src], cat[tgt]
    got = [h.mapping for h in enumerate_homomorphisms(X, Y)]
    assert got == brute_homs(X, Y)
    assert got == backtrack_homs(X, Y)
    assert got == sorted(got)


def test_enumerate_homomorphisms_pinned(cat):
    Z3 = cat["Z3"]
    assert [h.mapping for h in enumerate_homomorphisms(Z3, Z3, {1: 2})] == [(0, 2, 1)]
    # a pin that contradicts the forced structure gives an empty stream
    assert list(enumerate_homomorphisms(Z3, Z3, {1: 1, 2: 1})) == []
    assert list(enumerate_homomorphisms(Z3, Z3, {0: 1})) == []
    with pytest.raises(ValueError):
        list(enumerate_homomorphisms(Z3, Z3, {5: 0}))
    with pytest.raises(ValueError):
        list(enumerate_homomorphisms(Z3, Z3, {0: 9}))


def _pointed(n: int, **constants) -> FiniteAlgebra:
    """The n-element pointed set with the given extra constants."""
    sig = Signature.make(tuple((name, 0) for name in constants))
    tables = {"zero": (0,)} | {name: (v,) for name, v in constants.items()}
    return FiniteAlgebra(f"P{n}", n, sig, tables)


# Signatures with only constants take the product path of ``_hom_tables``.
@pytest.mark.parametrize("n,m", itertools.product(range(1, 5), repeat=2))
def test_constant_only_search_matches_filter_oracle(n, m):
    rng = random.Random(n * 10 + m)
    X, Y = _pointed(n), _pointed(m)
    pin_sets = [{}] + [{e: rng.randrange(m) for e in rng.sample(range(n), rng.randint(1, n))}
                       for _ in range(6)]
    for pins in pin_sets:
        assert list(_hom_tables(X, Y, pins)) == brute_homs(X, Y, pins), pins


def test_constant_only_search_with_a_nonzero_constant():
    X, Y = _pointed(4, c=2), _pointed(3, c=1)
    assert list(_hom_tables(X, Y)) == brute_homs(X, Y)
    assert len(brute_homs(X, Y)) == 9
    for pins in ({2: 1}, {3: 2}, {1: 0, 3: 1}):  # consistent with c
        assert list(_hom_tables(X, Y, pins)) == brute_homs(X, Y, pins) != []
    for pins in ({2: 0}, {2: 2, 3: 1}):  # in conflict with c
        assert list(_hom_tables(X, Y, pins)) == brute_homs(X, Y, pins) == []
    # c names 0 on X but not on Y, against zero
    X0 = _pointed(3, c=0)
    assert list(_hom_tables(X0, Y)) == brute_homs(X0, Y) == []


def test_constant_only_search_with_no_free_cell_or_one_target_element():
    X, Y = _pointed(3), _pointed(3)
    assert list(_hom_tables(X, Y, {1: 2, 2: 1})) == [(0, 2, 1)]
    assert list(_hom_tables(_pointed(4), _pointed(1))) == [(0, 0, 0, 0)]
    assert list(_hom_tables(_pointed(1), _pointed(4))) == [(0,)]


def test_constant_only_search_over_many_blocks():
    # P4's subtractions: nine free cells, 4 ** 9 tables from one product
    P4 = _pointed(4)
    PP, pins = product(P4, P4), dict(subtraction_cells(4))
    got = list(_hom_tables(PP, P4, pins))
    assert len(got) == 4 ** 9
    assert got == brute_homs(PP, P4, pins)


@pytest.mark.parametrize("n", [2, 3])
def test_constant_only_search_into_tuple_vectors(n):
    # A target of 257 elements, more than a byte holds; P3 has 257 ** 2
    # tables, each cell's pool range(257).
    X, Y = _pointed(n), _pointed(257)
    got = list(_hom_tables(X, Y))
    assert len(got) == 257 ** (n - 1)
    assert got == brute_homs(X, Y)
    assert list(_hom_tables(X, Y, {1: 200})) == brute_homs(X, Y, {1: 200})


def test_constant_only_search_refuses_by_its_count_before_the_first_table():
    X, Y = _pointed(4), _pointed(3)
    assert len(list(_hom_tables(X, Y, limit=("maps", 27)))) == 27
    stream = _hom_tables(X, Y, limit=("maps", 26))
    with pytest.raises(CapExceeded) as err:
        next(stream)
    assert (err.value.what, err.value.needed, err.value.limit) == ("maps", 27, 26)


def test_constant_only_search_is_lazy():
    # 2 ** 39 tables are admitted without a limit; only the first five are made.
    X, Y = _pointed(40), _pointed(2)
    got = list(itertools.islice(_hom_tables(X, Y), 5))
    assert got == [(0,) * 37 + tail for tail in itertools.product((0, 1), repeat=3)][:5]
    with pytest.raises(CapExceeded) as err:
        next(_hom_tables(X, Y, limit=("maps", 2 ** 39 - 1)))
    assert (err.value.what, err.value.needed, err.value.limit) == ("maps", 2 ** 39, 2 ** 39 - 1)


def test_search_refuses_past_its_limit(cat):
    # A unary op keeps the depth-first walk; it stops at table limit + 1.
    X, Y = cat["P3"], cat["P3"]
    unary = Signature.make((("i", 1),))
    Xi = FiniteAlgebra("P3i", 3, unary, {"zero": (0,), "i": (0, 1, 2)})
    assert list(_hom_tables(Xi, Xi, limit=("maps", 9))) == list(_hom_tables(X, Y))
    got = []
    with pytest.raises(CapExceeded) as err:
        got.extend(_hom_tables(Xi, Xi, limit=("maps", 8)))
    assert (err.value.what, err.value.needed, err.value.limit) == ("maps", 9, 8)
    assert len(got) == 8


def test_enumerate_homomorphisms_product_source(cat):
    # independently built equal products must compose with enumerated maps
    Z2 = cat["Z2"]
    P = product(Z2, Z2)
    Q = product(Z2, Z2)
    assert P == Q
    homs = list(enumerate_homomorphisms(P, Z2))
    assert [h.mapping for h in homs] == brute_homs(P, Z2)
    for h in homs:
        compose(h, Q.i1)


def test_quotient_first_isomorphism(cat):
    Z4 = cat["Z4"]
    theta = cg(Z4, [(0, 2)])
    Q, q = quotient(Z4, theta)
    assert Q.size == 2
    assert q.mapping == (0, 1, 0, 1)
    assert Q.tables["add"] == cat["Z2"].tables["add"]
    assert kernel_congruence(q) == theta


def test_quotient_block_numbering(cat):
    # zero block first, then by least member ascending
    P3 = cat["P3"]
    theta = cg(P3, [(1, 2)])
    Q, q = quotient(P3, theta)
    assert q.mapping == (0, 1, 1)
    theta2 = cg(P3, [(0, 2)])
    Q2, q2 = quotient(P3, theta2)
    assert q2.mapping == (0, 1, 0)


def test_quotient_rejects_incompatible(cat):
    from abelia import Congruence
    S2 = cat["S2"]
    P = product(S2, S2)
    # merging (0,0) with (1,1) breaks meet against (1,0)
    with pytest.raises(IncompatiblePartition):
        quotient(P, Congruence.from_blocks(4, [[0, 3], [1], [2]]))
    with pytest.raises(ValueError):
        quotient(S2, Congruence.discrete(3))


def test_quotient_keeps_non_zero_constants():
    from abelia import Congruence
    sig = Signature.make((("c", 0), ("f", 1)))
    A = FiniteAlgebra("C2", 2, sig, {"zero": (0,), "c": (1,), "f": (1, 0)})
    Q, q = quotient(A, Congruence.discrete(2))
    assert Q.tables == A.tables
    assert q.mapping == (0, 1)
    Q, q = quotient(A, Congruence.all_pairs(2))
    assert Q.tables == {"zero": (0,), "c": (0,), "f": (0,)}


def test_free_algebra_sizes_equal_clone_sizes(cat):
    # the free algebra on k generators is carried by the k-ary term operations
    for name in ["P2", "P3", "S2", "B2", "Z2", "Z3"]:
        A = cat[name]
        F, gens = free_algebra(A, 1)
        assert F.size == len(generate_term_ops(A, 1).term_ops)
        assert len(gens) == 1
    F2, gens2 = free_algebra(cat["Z2"], 2)
    assert F2.size == len(generate_term_ops(cat["Z2"], 2).term_ops)


def test_free_algebra_one_generator_group(cat):
    Z3 = cat["Z3"]
    F, (g,) = free_algebra(Z3, 1)
    assert F.size == 3
    # the generator generates: iterating add reaches every element
    seen = {0, g}
    cur = g
    for _ in range(3):
        cur = F.apply("add", cur, g)
        seen.add(cur)
    assert seen == {0, 1, 2}


def test_free_algebra_caps(cat):
    with pytest.raises(CapExceeded) as err:
        free_algebra(cat["Z3"], 3, Caps(free_positions=16))
    assert (err.value.what, err.value.needed, err.value.limit) \
        == ("free algebra exponent positions", 27, 16)
    with pytest.raises(CapExceeded):
        free_algebra(cat["Z4"], 2, Caps(free_carrier=3))


def test_free_algebra_refuses_many_generators_before_any_power(cat):
    # 3 ** 100_000 is never computed: the power stops at the first past the cap.
    with pytest.raises(CapExceeded) as err:
        free_algebra(cat["Z3"], 10 ** 5)
    assert (err.value.what, err.value.needed, err.value.limit) \
        == ("free algebra generators", 10 ** 5, 16)
    # 1 ** k never passes the cap, so k itself is bounded.
    T = FiniteAlgebra("T", 1, cat["Z3"].signature,
                      {name: (0,) for name, _ in cat["Z3"].signature.ops})
    with pytest.raises(CapExceeded) as err:
        free_algebra(T, 2000)
    assert (err.value.what, err.value.needed) == ("free algebra generators", 2000)
    assert free_algebra(T, 16)[0].size == 1
    with pytest.raises(CapExceeded) as err:
        free_algebra(cat["Z3"], 5)
    assert (err.value.what, err.value.needed) == ("free algebra exponent positions", 27)


@pytest.mark.parametrize("k,caps,what", [
    (0, Caps(free_carrier=0), "free algebra carrier"),
    (1, Caps(free_carrier=0), "free algebra carrier"),
    (0, Caps(free_positions=0), "free algebra exponent positions")])
def test_a_free_cap_of_0_refuses_the_first_unit(cat, k, caps, what):
    # The zero vector is the first element and |A|**0 = 1 the first position.
    with pytest.raises(CapExceeded) as err:
        free_algebra(cat["Z2"], k, caps)
    assert (err.value.what, err.value.needed, err.value.limit) == (what, 1, 0)


def test_a_free_cap_of_1_still_names_the_same_need(cat):
    with pytest.raises(CapExceeded) as err:
        free_algebra(cat["Z2"], 1, Caps(free_carrier=1))
    assert (err.value.what, err.value.needed, err.value.limit) == ("free algebra carrier", 2, 1)
    assert free_algebra(cat["Z2"], 0, Caps(free_positions=1, free_carrier=1))[0].size == 1


def test_free_algebra_refuses_a_negative_number_of_generators(cat):
    with pytest.raises(ValueError, match="non-negative number of generators"):
        free_algebra(cat["Z2"], -1)


def test_pairing_hom_refuses_maps_that_do_not_fit_the_product(cat):
    Z2, Z3 = cat["Z2"], cat["Z3"]
    P = product(Z2, Z3)
    with pytest.raises(ValueError, match="must share a source"):
        pairing_hom(P, identity_hom(Z2), zero_hom(Z3, Z3))
    with pytest.raises(ValueError, match="targets must be the product factors"):
        pairing_hom(P, identity_hom(Z2), zero_hom(Z2, Z2))


def test_factor_through_split_epi(cat):
    Z2 = cat["Z2"]
    P = product(Z2, Z2)
    u = factor_through_split_epi(P.p1, P.p1, P.i1)
    assert u == identity_hom(Z2)
    assert factor_through_split_epi(P.p2, P.p1, P.i1) is None
    # f = f(s(r(x))) is exactly the factorization condition
    f = compose(P.p2, identity_hom(P))
    assert factor_through_split_epi(f, P.p2, P.i2) == identity_hom(Z2)
    with pytest.raises(ValueError):
        factor_through_split_epi(P.p1, P.p1, P.i2)
    with pytest.raises(ValueError):
        # i1 after p1 is not the identity on the product
        factor_through_split_epi(identity_hom(P), compose(P.i1, P.p1), identity_hom(P))
    with pytest.raises(ValueError, match="retraction/section pair"):
        factor_through_split_epi(P.p1, P.p1, identity_hom(Z2))
    with pytest.raises(ValueError, match="share its source with r"):
        factor_through_split_epi(identity_hom(Z2), P.p1, P.i1)


def test_parse_serialize_round_trip(cat):
    for name, A in cat.items():
        assert parse_algebra(serialize_algebra(A)) == A


def test_parse_comments_and_layout():
    text = """
    # a cyclic group, entries split oddly
    algebra Z2  # trailing comment
    size 2
    zero 0
    op add 2
    0 1 1
    0
    op neg 1
    0 1
    """
    A = parse_algebra(text)
    assert A.name == "Z2"
    assert A.tables["add"] == (0, 1, 1, 0)


@pytest.mark.parametrize("text,fragment", [
    ("size 2\nzero 0", "expected 'algebra'"),
    ("algebra X\nzero 0", "expected 'size'"),
    ("algebra X\nsize 0\nzero 0", "size must be"),
    ("algebra X\nsize 2\nop f 1\n0 0", "missing 'zero 0'"),
    ("algebra X\nsize 2\nzero 1", "element 0"),
    ("algebra X\nsize 2\nzero 0\nop f 1\n0 2", "out of range"),
    ("algebra X\nsize 2\nzero 0\nop f 1\n0", "unexpected end"),
    ("algebra X\nsize 2\nzero 0\nop zero 0\n0", "duplicate operation"),
    ("algebra X\nsize 2\nzero 0\nf 1\n0 0", "expected 'op'"),
    ("algebra X\nsize two\nzero 0", "expected the carrier size"),
    ("algebra X\nsize 2\nzero 0\nop f -1\n", "line 4: arity must be non-negative"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert fragment in str(err.value)


# Each table is read in one pass; the first bad token of a table is still
# the one reported, with its line.
@pytest.mark.parametrize("body,message", [
    ("op f 2\n0 1\n1 x\n", "line 6: expected a table entry for f, got 'x'"),
    ("op f 2\n0 1\n1.0 -1\n", "line 6: expected a table entry for f, got '1.0'"),
    ("op f 2\n0 -1\n1 x\n", "line 5: table entry -1 out of range 0..1"),
    ("op f 2\n0 1 # c\n1 2\nop g 1\n0 1\n", "line 6: table entry 2 out of range 0..1"),
    ("op f 1\n0\nop g 1\n1 0\n", "line 6: expected a table entry for f, got 'op'"),
    ("op f 1\n0 1\nop g 2\n0 1\n",
     "line 7: unexpected end of input, expected a table entry for g"),
])
def test_parse_table_errors(body, message):
    with pytest.raises(ParseError) as err:
        parse_algebra("algebra X\nsize 2\nzero 0\n" + body)
    assert str(err.value) == message


# A table of more entries than the tokens left ends the input, as any short
# table does, without computing its length (3 ** 30000000 alone takes seconds).
# (2, 4) is the smallest arity past the 8 tokens left.  An arity whose
# power would not fit in memory is run in a subprocess in test_cli.py.
@pytest.mark.parametrize("size,arity", [(3, 30000000), (2, 64), (2, 4)])
def test_parse_reads_a_table_longer_than_the_file_as_a_short_table(size, arity):
    head = f"algebra X\nsize {size}\nzero 0\nop f {arity}\n"
    with pytest.raises(ParseError) as err:
        parse_algebra(head + "0 1\n" * 4)
    assert str(err.value) == "line 8: unexpected end of input, expected a table entry for f"
    with pytest.raises(ParseError) as err:
        parse_algebra(head + "0 1\n1 x\n0 0\n")
    assert str(err.value) == "line 6: expected a table entry for f, got 'x'"


def test_parse_reads_a_table_that_fills_the_file():
    A = parse_algebra("algebra X\nsize 2\nzero 0\nop f 3\n" + "0 1\n" * 4)
    assert A.tables["f"] == (0, 1) * 4


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_algebra("algebra X\nsize 2\nzero 0\nop f 1\n0 9\n")
    assert err.value.line == 5
