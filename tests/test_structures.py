import itertools

import pytest

from abelia import (POINTED, Caps, CapExceeded, FiniteAlgebra, Homomorphism,
                    InternalSubtraction,
                    check_homomorphic, check_np_pair, crystallographic_report,
                    derive_abelian, enumerate_homomorphisms,
                    find_internal_subtractions, identity_hom,
                    internal_subtraction_tables, op_table,
                    product, verify_group_law, verify_proof_construction_1,
                    verify_proof_construction_2, zero_hom)
from abelia.catalog import _cyclic
from abelia.core import op_violation
from oracles import brute_subtraction_tables, derive_abelian_by_loops, group_law_by_loops


@pytest.mark.parametrize("name,count", [
    ("P2", 2), ("P3", 81), ("S2", 0), ("B2", 0),
    ("Z2", 1), ("Z3", 1), ("Z4", 1), ("V4", 1),
])
def test_subtraction_counts_match_oracle(cat, name, count):
    subs = find_internal_subtractions(cat[name])
    assert len(subs) == count
    assert [s.hom.mapping for s in subs] == brute_subtraction_tables(cat[name])
    assert list(internal_subtraction_tables(cat[name])) == brute_subtraction_tables(cat[name])


def test_p2_subtractions_exact(cat):
    subs = find_internal_subtractions(cat["P2"])
    assert [s.hom.mapping for s in subs] == [(0, 0, 1, 0), (0, 1, 1, 0)]


def test_z3_subtraction_is_modular(cat):
    (s,) = find_internal_subtractions(cat["Z3"])
    assert s.hom.mapping == op_table(3, 2, lambda x, y: (x - y) % 3)


def test_b2_basic_operation_is_not_internal(cat):
    # the basic table satisfies both subtraction laws pointwise yet no
    # homomorphism from the square realizes them, so B2 has none
    B2 = cat["B2"]
    t = B2.tables["s"]
    assert all(t[x * 2 + x] == 0 and t[x * 2] == x for x in range(2))
    assert find_internal_subtractions(B2) == []


def test_subtraction_validation(cat):
    Z3 = cat["Z3"]
    P = product(Z3, Z3)
    good = next(iter(enumerate_homomorphisms(
        P, Z3, {P.pair(x, x): 0 for x in range(3)} | {P.pair(x, 0): x for x in range(3)})))
    s = InternalSubtraction(Z3, good)
    assert s(2, 1) == 1
    with pytest.raises(ValueError):
        InternalSubtraction(Z3, identity_hom(Z3))
    bad = next(iter(enumerate_homomorphisms(P, Z3)))  # the zero map
    with pytest.raises(ValueError):
        InternalSubtraction(Z3, bad)


def test_subtraction_search_cap(cat):
    # The table stream refuses at the call, before its first table is read.
    for search in (find_internal_subtractions, internal_subtraction_tables):
        with pytest.raises(CapExceeded):
            search(cat["Z4"], Caps(structure_src=9))


def test_group_law(cat):
    (s3,) = find_internal_subtractions(cat["Z3"])
    assert verify_group_law(s3).holds
    first, second = find_internal_subtractions(cat["P2"])
    # x and-not y breaks the law; x xor y satisfies it
    verdict = verify_group_law(first)
    assert not verdict.holds
    assert verdict.witness == (1, 0, 1)
    assert verify_group_law(second).holds


def test_group_law_witness_is_lex_first(cat):
    (first, _) = find_internal_subtractions(cat["P2"])
    verdict = verify_group_law(first)
    for triple in itertools.product(range(2), repeat=3):
        if triple == verdict.witness:
            break
        x, y, z = triple
        assert first(first(x, z), first(y, z)) == first(x, y)


def test_derive_abelian_groups(cat):
    for name in ["Z2", "Z3", "Z4", "V4"]:
        (s,) = find_internal_subtractions(cat[name])
        result = derive_abelian(s)
        assert result.ok
        assert result.structure.add == cat[name].tables["add"]
        assert result.structure.neg == cat[name].tables["neg"]


def test_derive_abelian_p2(cat):
    first, second = find_internal_subtractions(cat["P2"])
    bad = derive_abelian(first)
    assert bad.structure is None
    assert bad.failed_axiom is not None
    assert bad.witness is not None
    good = derive_abelian(second)
    assert good.ok
    assert good.structure.add == (0, 1, 1, 0)


def s3_subtraction() -> InternalSubtraction:
    """s(x, y) = x y^-1 of the symmetric group S3 on a 6-element pointed
    set, the identity permutation numbered 0: a subtraction whose derived
    addition is S3's product, so the audit stops at commutativity."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def over(x, y):
        inv = [0] * 3
        for i, v in enumerate(perms[y]):
            inv[v] = i
        return index[tuple(perms[x][inv[i]] for i in range(3))]

    P6 = FiniteAlgebra("P6", 6, POINTED, {"zero": (0,)})
    return InternalSubtraction(P6, Homomorphism(product(P6, P6), P6, op_table(6, 2, over)))


def test_audits_match_the_loops(cat):
    # verify_group_law and derive_abelian compare whole columns; the loops
    # they replaced are the oracles for verdict, witness, failed axiom, add
    # and neg.  The inverse axiom cannot fail once the unit axiom holds, nor
    # can the addition-homomorphism axiom, so neither outcome occurs.
    P4 = FiniteAlgebra("P4", 4, POINTED, {"zero": (0,)})
    PP4 = product(P4, P4)
    p4 = [InternalSubtraction._proved(P4, Homomorphism._proved(PP4, P4, t)) for t in
          itertools.islice(internal_subtraction_tables(P4, Caps(structure_src=16)), 0, None, 997)]
    subs = find_internal_subtractions(cat["P3"]) + p4 + [s3_subtraction()]
    for name in ("Z2", "Z3", "Z4", "V4"):
        subs += find_internal_subtractions(cat[name])
    outcomes = {}
    for s in subs:
        verdict = verify_group_law(s)
        assert (verdict.holds, verdict.witness) == group_law_by_loops(s), s.hom.mapping
        axiom, witness, add, neg = derive_abelian_by_loops(s)
        result = derive_abelian(s)
        assert (result.failed_axiom, result.witness) == (axiom, witness), s.hom.mapping
        if axiom is None:
            assert (result.structure.add, result.structure.neg) == (add, neg)
        outcomes[axiom] = outcomes.get(axiom, 0) + 1
    assert len(p4) == 263
    assert set(outcomes) == {None, "unit", "associativity", "commutativity"}, outcomes


def test_check_homomorphic(cat):
    (s3,) = find_internal_subtractions(cat["Z3"])
    assert check_homomorphic(identity_hom(cat["Z3"]), s3, s3).holds
    zero = zero_hom(cat["Z3"], cat["Z3"])
    assert check_homomorphic(zero, s3, s3).holds
    first, second = find_internal_subtractions(cat["P2"])
    verdict = check_homomorphic(identity_hom(cat["P2"]), second, first)
    assert not verdict.holds
    assert verdict.witness == (0, 1)
    with pytest.raises(ValueError):
        check_homomorphic(identity_hom(cat["Z2"]), s3, s3)


def test_construction_1_on_groups(cat):
    for name in ["Z2", "Z3"]:
        (s,) = find_internal_subtractions(cat[name])
        report = verify_proof_construction_1(s)
        assert report.f_is_homomorphism
        assert report.zero_section_ok
        assert report.np_holds
        assert report.conclusion_ok
        assert report.group_law.holds


def test_construction_1_conclusion_equals_group_law(cat):
    # wherever the projection-law precondition holds, the conclusion and the
    # direct law check must coincide
    for name in ["P2", "P3", "Z2", "Z3", "V4", "Z4"]:
        for s in find_internal_subtractions(cat[name]):
            report = verify_proof_construction_1(s)
            assert report.f_is_homomorphism
            assert report.zero_section_ok
            if report.np_holds:
                assert report.conclusion_ok == report.group_law.holds
            else:
                assert report.conclusion_ok is None


def test_construction_1_trivial(cat):
    from test_normalproj import trivial
    T = trivial(cat["P2"].signature)
    (s,) = find_internal_subtractions(T)
    report = verify_proof_construction_1(s)
    assert report.np_holds and report.conclusion_ok


def test_construction_1_cap(cat):
    (s,) = find_internal_subtractions(cat["V4"])
    with pytest.raises(CapExceeded) as refused:
        verify_proof_construction_1(s, Caps(cg=32))
    exc = refused.value
    assert (exc.what, exc.needed, exc.limit) == ("congruence generation carrier", 64, 32)


def test_construction_2_on_groups(cat):
    (s2,) = find_internal_subtractions(cat["Z2"])
    report = verify_proof_construction_2(identity_hom(cat["Z2"]), s2, s2)
    assert report.applicable and report.zero_ok and report.np_holds
    assert report.translation_ok and report.addition_preserved
    assert report.subtraction_preserved

    Z3 = cat["Z3"]
    (s3,) = find_internal_subtractions(Z3)
    doubling = Homomorphism(Z3, Z3, (0, 2, 1))
    report = verify_proof_construction_2(doubling, s3, s3)
    assert report.applicable and report.translation_ok
    assert report.addition_preserved and report.subtraction_preserved


def test_construction_2_not_applicable_on_p2(cat):
    first, second = find_internal_subtractions(cat["P2"])
    report = verify_proof_construction_2(identity_hom(cat["P2"]), second, first)
    assert not report.applicable
    assert "P2" in report.reason
    # even so, the comparison map vanishes on the zero section: evaluate
    # f(x, 0) = s'(g(a(x,0)), a'(g(x), g(0))) by hand from the raw tables
    P2 = cat["P2"]
    for x in range(2):
        ax0 = second(x, second(0, 0))
        inner = first(x, first(0, 0))
        assert first(ax0, inner) == 0


def test_construction_2_applicable_but_np_fails(cat):
    _, xor = find_internal_subtractions(cat["P2"])
    report = verify_proof_construction_2(identity_hom(cat["P2"]), xor, xor)
    assert report.applicable
    assert report.zero_ok
    assert not report.np_holds
    assert report.translation_ok is None
    assert report.addition_preserved and report.subtraction_preserved


def test_construction_2_matches_check_homomorphic(cat):
    # both routes to homomorphicity agree on every applicable instance
    for src in ["Z2", "Z3", "Z4", "V4"]:
        for tgt in ["Z2", "Z3", "Z4", "V4"]:
            (s,) = find_internal_subtractions(cat[src])
            (sp,) = find_internal_subtractions(cat[tgt])
            for g in enumerate_homomorphisms(cat[src], cat[tgt]):
                report = verify_proof_construction_2(g, s, sp)
                assert report.applicable and report.zero_ok
                direct = check_homomorphic(g, s, sp).holds
                assert report.subtraction_preserved == direct
                assert report.addition_preserved == direct
                if report.np_holds:
                    assert report.translation_ok == direct


def test_crystal_on_groups(cat):
    report = crystallographic_report([cat["Z2"], cat["Z3"], product(cat["Z2"], cat["Z2"])])
    assert report.ok
    assert len(report.entries) == 3
    for entry in report.entries:
        assert entry.np_self and entry.np_square
        assert entry.subtractions == 1
        assert entry.group_law_ok and entry.abelian
        assert entry.anomalies == ()
    assert report.hom_checks > 0


def test_crystal_p2_anomalies(cat):
    report = crystallographic_report([cat["P2"]])
    assert report.ok  # anomalies are not violations
    (entry,) = report.entries
    assert not entry.np_self
    assert entry.subtractions == 2
    assert any("2 internal subtractions" in a for a in entry.anomalies)
    assert any("group law fails" in a for a in entry.anomalies)


def test_crystal_b2_no_obligations(cat):
    report = crystallographic_report([cat["B2"]])
    assert report.ok
    (entry,) = report.entries
    assert entry.np_self and entry.np_square
    assert entry.subtractions == 0
    assert entry.group_law_ok is None
    assert entry.anomalies == ()
    assert report.hom_checks == 0


def test_crystal_full_catalog(cat):
    report = crystallographic_report(list(cat.values()))
    assert report.ok
    # 51 = every group hom among Z2, Z3, Z4, V4, counted by brute force
    assert report.hom_checks == 51


def test_a_map_preserving_subtraction_preserves_add_and_neg(cat):
    # crystallographic_report audits only the subtraction on maps between
    # verified algebras, since a homomorphism that preserves s preserves the
    # derived add and neg.  Run that claim on the 51 maps of
    # test_crystal_full_catalog and on the maps among Z2 x Z2 and Z6.
    groups = [cat[name] for name in ("Z2", "Z3", "Z4", "V4")]
    groups += [product(cat["Z2"], cat["Z2"]), _cyclic(6, "Z6")]
    structures = [(i, derive_abelian(s).structure)
                  for i, A in enumerate(groups) for s in find_internal_subtractions(A)]
    catalog_maps = 0
    for i, ab in structures:
        for j, ab_p in structures:
            A, B = groups[i], groups[j]
            for g in enumerate_homomorphisms(A, B):
                catalog_maps += i < 4 and j < 4
                if check_homomorphic(g, ab.subtraction, ab_p.subtraction).holds:
                    assert op_violation(ab.add, ab_p.add, A.size, B.size, 2, g.mapping) is None
                    assert op_violation(ab.neg, ab_p.neg, A.size, B.size, 1, g.mapping) is None
    assert catalog_maps == 51
