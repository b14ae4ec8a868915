import itertools

import pytest

from abelia import (POINTED, Caps, CapExceeded, FiniteAlgebra, Homomorphism,
                    InternalSubtraction, Signature,
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


def test_subtraction_search_refuses_p5_by_its_table_count():
    # A bare pointed set leaves 16 of P5 x P5's 25 cells free: 5 ** 16
    # tables, counted and refused before the first.
    P5 = FiniteAlgebra("P5", 5, POINTED, {"zero": (0,)})
    stream = internal_subtraction_tables(P5)
    for search in (lambda: next(stream), lambda: find_internal_subtractions(P5)):
        with pytest.raises(CapExceeded) as err:
            search()
        assert (err.value.what, err.value.needed, err.value.limit) == (
            "internal subtraction count", 5 ** 16, 1_048_576)


def test_subtraction_search_table_cap_is_inclusive():
    P4 = FiniteAlgebra("P4", 4, POINTED, {"zero": (0,)})
    assert sum(1 for _ in internal_subtraction_tables(
        P4, Caps(structure_src=16, structure_tables=4 ** 9))) == 4 ** 9
    with pytest.raises(CapExceeded) as err:
        find_internal_subtractions(P4, Caps(structure_src=16, structure_tables=4 ** 9 - 1))
    assert err.value.needed == 4 ** 9


def test_subtraction_search_with_an_identity_op_refuses_past_the_cap():
    # An identity op keeps every table of P4 but is not a constant, so the
    # depth-first search runs, and it can only refuse once it passes the cap.
    P4 = FiniteAlgebra("P4", 4, POINTED, {"zero": (0,)})
    P4i = FiniteAlgebra("P4", 4, Signature.make((("i", 1),)), {"zero": (0,), "i": (0, 1, 2, 3)})
    caps = Caps(structure_src=16)
    assert list(internal_subtraction_tables(P4i, caps)) == list(
        internal_subtraction_tables(P4, caps))
    for search in (internal_subtraction_tables, find_internal_subtractions):
        with pytest.raises(CapExceeded) as err:
            list(search(P4i, Caps(structure_src=16, structure_tables=1000)))
        assert (err.value.what, err.value.needed, err.value.limit) == (
            "internal subtraction count", 1001, 1000)


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


def test_abelian_structure_reads_plus_and_minus(cat):
    (s,) = find_internal_subtractions(cat["Z4"])
    structure = derive_abelian(s).structure
    assert [structure.plus(3, y) for y in range(4)] == [3, 0, 1, 2]
    assert [structure.minus(x) for x in range(4)] == [0, 3, 2, 1]


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


def test_construction_2_refuses_a_map_between_other_carriers(cat):
    (s2,) = find_internal_subtractions(cat["Z2"])
    (s3,) = find_internal_subtractions(cat["Z3"])
    with pytest.raises(ValueError, match="map endpoints do not match"):
        verify_proof_construction_2(identity_hom(cat["Z2"]), s2, s3)


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


def test_crystal_records_a_map_that_breaks_a_subtraction(cat, monkeypatch):
    # Between verified members every map preserves the subtractions, so a
    # violation is recorded only when the theory or a check is wrong.
    from abelia import structures
    monkeypatch.setattr(structures, "check_homomorphic",
                        lambda g, s, s_prime: structures.LawVerdict(False, (1, 0)))
    report = crystallographic_report([cat["Z2"]])
    assert not report.ok and report.hom_checks == 2
    assert report.violations == ("map Z2->Z2 [0, 0] not homomorphic at (1, 0)",
                                 "map Z2->Z2 [0, 1] not homomorphic at (1, 0)")


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


def _entries(report):
    return [(e.name, e.np_self, e.np_square, e.subtractions, e.group_law_ok, e.abelian,
             e.anomalies) for e in report.entries]


def test_crystal_skips_a_refused_check_and_keeps_the_other_members(cat):
    # Z7 x Z7 x Z7 is past the cg cap and Z7 x Z7 past structure_src, so
    # both are skipped; Z2 is still surveyed.
    report = crystallographic_report([cat["Z2"], _cyclic(7, "Z7")])
    assert report.ok
    assert _entries(report) == [("Z2", True, True, 1, True, True, ()),
                                ("Z7", True, None, None, None, None, ())]
    assert report.hom_checks == 2


CRYSTAL_ENTRIES_PIN = [
    ("B2", True, True, 0, None, None, ()),
    ("P2", False, False, 2, False, False,
     ("P2: 2 internal subtractions", "P2: group law fails at (1, 0, 1)",
      "P2: derived structure fails unit")),
    ("P3", False, False, 81, False, False,
     ("P3: 81 internal subtractions", "P3: group law fails at (1, 0, 1)",
      "P3: derived structure fails unit")),
    ("S2", False, False, 0, None, None, ()),
    ("V4", True, True, 1, True, True, ()),
    ("Z2", True, True, 1, True, True, ()),
    ("Z3", True, True, 1, True, True, ()),
    ("Z4", True, True, 1, True, True, ()),
]

# (hom_src, hom_tgt) -> (hom_checks, violations) on the 8 builtins.  The
# entries do not depend on these caps; a pair whose maps are refused adds
# no checks.
CRYSTAL_PIN = {
    (1, 1): (0, ()), (1, 2): (0, ()), (1, 3): (0, ()), (1, 4): (0, ()),
    (4, 1): (0, ()), (4, 2): (9, ()), (4, 3): (15, ()), (4, 4): (51, ()),
    (9, 1): (0, ()), (9, 2): (9, ()), (9, 3): (15, ()), (9, 4): (51, ()),
}


def test_crystal_pinned_across_hom_caps(cat):
    for (s, t), expected in CRYSTAL_PIN.items():
        report = crystallographic_report(list(cat.values()), Caps(hom_src=s, hom_tgt=t))
        assert _entries(report) == CRYSTAL_ENTRIES_PIN, (s, t)
        assert (report.hom_checks, report.violations) == expected, (s, t)


def test_crystal_skips_a_subtraction_search_past_its_table_cap(cat):
    P5 = FiniteAlgebra("P5", 5, POINTED, {"zero": (0,)})
    report = crystallographic_report([cat["P2"], P5])
    assert _entries(report)[1] == ("P5", False, False, None, None, None, ())
    assert _entries(report)[0] == _entries(crystallographic_report([cat["P2"]]))[0]


def test_crystal_audits_no_map_across_signatures(cat):
    # Z3 with s(x, y) = x - y as its only op: 3 maps into itself, Z2 has 2,
    # and none runs between the two signatures.
    D3 = FiniteAlgebra("D3", 3, Signature.make((("s", 2),)),
                       {"zero": (0,), "s": op_table(3, 2, lambda x, y: (x - y) % 3)})
    report = crystallographic_report([cat["Z2"], D3])
    assert _entries(report) == [("D3", True, True, 1, True, True, ()),
                                ("Z2", True, True, 1, True, True, ())]
    assert (report.hom_checks, report.violations) == (5, ())


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
