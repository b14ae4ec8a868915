import itertools

import pytest

from abelia import (Caps, CapExceeded, FiniteAlgebra, Homomorphism,
                    IncompatiblePartition, InvalidAlgebra, InvalidHomomorphism,
                    POINTED, ParseError, ProductAlgebra, Signature, SignatureMismatch,
                    builtin,
                    cg, compose, enumerate_homomorphisms,
                    factor_through_split_epi, free_algebra, generate_term_ops,
                    hom_violation, identity_hom, is_homomorphism,
                    kernel_congruence, op_table, pairing_hom, parse_algebra,
                    product, quotient, serialize_algebra, zero_hom)
from abelia.catalog import _cyclic
from oracles import backtrack_homs, brute_homs, commutes, oracle_product


def test_signature_requires_zero():
    with pytest.raises(InvalidAlgebra):
        Signature((("f", 2),))
    sig = Signature.make((("f", 2),))
    assert sig.arity("zero") == 0
    assert sig.arity("f") == 2
    with pytest.raises(KeyError):
        sig.arity("g")


def test_signature_rejects_bad_names():
    with pytest.raises(InvalidAlgebra):
        Signature.make((("two words", 1),))
    with pytest.raises(InvalidAlgebra):
        Signature.make((("a#b", 1),))
    with pytest.raises(InvalidAlgebra):
        Signature.make((("f", 1), ("f", 2)))
    with pytest.raises(InvalidAlgebra):
        Signature.make((("f", -1),))


def test_algebra_validation():
    with pytest.raises(InvalidAlgebra):
        FiniteAlgebra("X", 2, POINTED, {"zero": (1,)})
    with pytest.raises(InvalidAlgebra):
        FiniteAlgebra("X", 2, POINTED, {})
    sig = Signature.make((("f", 1),))
    with pytest.raises(InvalidAlgebra):
        FiniteAlgebra("X", 2, sig, {"zero": (0,), "f": (0,)})
    with pytest.raises(InvalidAlgebra):
        FiniteAlgebra("X", 2, sig, {"zero": (0,), "f": (0, 5)})


def test_apply_is_row_major(cat):
    Z4 = cat["Z4"]
    # flat index walks the last argument fastest
    for i, (x, y) in enumerate(itertools.product(range(4), repeat=2)):
        assert Z4.tables["add"][i] == Z4.apply("add", x, y) == (x + y) % 4
    assert op_table(4, 2, lambda x, y: (x + y) % 4) == Z4.tables["add"]


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


def test_product_signature_mismatch(cat):
    with pytest.raises(SignatureMismatch):
        product(cat["Z2"], cat["P2"])


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
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert fragment in str(err.value)


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_algebra("algebra X\nsize 2\nzero 0\nop f 1\n0 9\n")
    assert err.value.line == 5
