import itertools
import tracemalloc

import pytest

from abelia import (Caps, CapExceeded, FiniteAlgebra, SignatureMismatch, check_condition_b,
                    check_condition_d_instances, check_condition_e_instances,
                    check_np_pair, centralic_check, cross_check_conditions,
                    enumerate_homomorphisms, identity_hom, kernel_congruence,
                    op_table, product, ProductAlgebra, shifting_shape_check, zero_hom)
from abelia import core, normalproj
from abelia.catalog import _cyclic
from oracles import np_hom_refutes, np_partition_oracle


def trivial(signature, name="T1"):
    tables = {opname: (0,) for opname, _ in signature.ops}
    return FiniteAlgebra(name, 1, signature, tables)


SMALL_PAIRS = [
    ("P2", "P2"), ("P2", "P3"), ("P3", "P2"), ("P3", "P3"),
    ("S2", "S2"), ("B2", "B2"),
    ("Z2", "Z2"), ("Z2", "Z3"), ("Z2", "Z4"), ("Z2", "V4"),
    ("Z3", "Z2"), ("Z3", "Z3"), ("Z4", "Z2"), ("V4", "Z2"),
]

LARGE_GROUP_PAIRS = [
    ("Z3", "Z4"), ("Z3", "V4"), ("Z4", "Z3"), ("Z4", "Z4"),
    ("Z4", "V4"), ("V4", "Z3"), ("V4", "Z4"), ("V4", "V4"),
]


@pytest.mark.parametrize("left,right", SMALL_PAIRS)
def test_np_matches_partition_oracle(cat, left, right):
    verdict = check_np_pair(cat[left], cat[right])
    assert verdict.holds == np_partition_oracle(cat[left], cat[right])


def test_np_on_a_product_builds_no_product_table(cat):
    # Z6 x (Z6 x Z6) has 216 elements; its addition table alone would hold
    # 46,656 entries, several MiB as a tuple of ints.
    Z6 = FiniteAlgebra("Z6", 6, cat["Z2"].signature, {
        "zero": (0,), "add": op_table(6, 2, lambda x, y: (x + y) % 6),
        "neg": op_table(6, 1, lambda x: -x % 6)})
    square = product(Z6, Z6)
    tracemalloc.start()
    try:
        verdict = check_np_pair(Z6, square, Caps(cg=216))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.holds and verdict.theta.num_blocks == 36
    assert peak < 1 << 20


@pytest.mark.parametrize("left,right", LARGE_GROUP_PAIRS)
def test_np_group_pairs_hold_and_hom_oracle_agrees(cat, left, right):
    verdict = check_np_pair(cat[left], cat[right])
    assert verdict.holds
    targets = [cat[n] for n in ["Z2", "Z3", "Z4", "V4"]]
    assert not np_hom_refutes(cat[left], cat[right], targets)


@pytest.mark.parametrize("left,right,witness", [
    ("P2", "P2", (1, 1)),
    ("P2", "P3", (1, 1)),
    ("P3", "P3", (1, 1)),
    ("S2", "S2", (1, 1)),
])
def test_np_failures_with_witnesses(cat, left, right, witness):
    verdict = check_np_pair(cat[left], cat[right])
    assert not verdict.holds
    assert verdict.witness == witness
    # the witness really is separated from its translate
    P = product(cat[left], cat[right])
    a, b = verdict.witness
    assert not verdict.theta.same(P.pair(a, b), P.pair(0, b))


def test_np_z2_theta_is_kernel_of_p2(cat):
    verdict = check_np_pair(cat["Z2"], cat["Z2"])
    assert verdict.holds
    P = product(cat["Z2"], cat["Z2"])
    assert verdict.theta == kernel_congruence(P.p2)


def test_np_theta_below_second_kernel(cat):
    names = ["P2", "P3", "S2", "B2", "Z2", "Z3", "Z4", "V4"]
    for left in names:
        for right in names:
            A, B = cat[left], cat[right]
            if A.signature != B.signature:
                continue
            verdict = check_np_pair(A, B)
            assert kernel_congruence(product(A, B).p2).contains(verdict.theta)


def test_np_against_trivial_factor(cat):
    for name in ["P3", "S2", "Z4"]:
        A = cat[name]
        assert check_np_pair(A, trivial(A.signature)).holds
        assert check_np_pair(trivial(A.signature), A).holds


def test_condition_b_zero_failures_on_groups(cat):
    report = check_condition_b(cat["Z2"], [cat["Z2"], cat["Z3"]])
    assert report.condition == "b"
    assert report.ok
    assert report.instances > 0


def test_condition_b_p2_failure(cat):
    P2 = cat["P2"]
    report = check_condition_b(P2, [P2])
    assert report.instances == 4
    assert len(report.failures) == 2
    # the conjunction map is among the culprits, failing at x = 1
    tables = {fail.maps[0][1].mapping for fail in report.failures}
    assert (0, 0, 0, 1) in tables
    for fail in report.failures:
        assert fail.point == (1,)


def test_condition_b_reverifies(cat):
    P2 = cat["P2"]
    P = product(P2, P2)
    for fail in check_condition_b(P2, [P2]).failures:
        f = fail.maps[0][1]
        (x,) = fail.point
        assert f(P.pair(x, x)) == fail.lhs
        assert f(P.pair(0, x)) == fail.rhs
        assert fail.lhs != fail.rhs


def test_condition_b_trivial_algebra(cat):
    T = trivial(cat["P2"].signature)
    report = check_condition_b(T, [T])
    assert report.ok


def test_condition_c_same_computation(cat):
    b = check_condition_b(cat["S2"], [cat["S2"]], tag="b")
    c = check_condition_b(cat["S2"], [cat["S2"]], tag="c")
    assert c.condition == "c"
    assert (b.instances, b.failures) == (c.instances, c.failures)


def test_condition_b_cap(cat):
    with pytest.raises(CapExceeded):
        check_condition_b(cat["Z4"], [cat["Z2"]])
    with pytest.raises(CapExceeded):
        check_condition_b(cat["Z2"], [cat["Z2"]], Caps(hom_tgt=1))


def test_condition_d_groups_clean(cat):
    Z2 = cat["Z2"]
    report = check_condition_d_instances(Z2, Z2, [Z2], [Z2])
    assert report.condition == "d"
    assert report.ok
    assert report.instances > 0


def test_condition_d_p2_failure(cat):
    P2 = cat["P2"]
    report = check_condition_d_instances(P2, P2, [P2], [P2])
    assert not report.ok
    ident = identity_hom(P2).mapping
    conj = (0, 0, 0, 1)
    hits = [fail for fail in report.failures
            if fail.maps[0][1].mapping == conj
            and fail.maps[1][1].mapping == ident
            and fail.maps[2][1].mapping == ident]
    assert len(hits) == 1
    assert hits[0].point == (1,)


def test_condition_d_zero_parameter_never_fails(cat):
    P2 = cat["P2"]
    report = check_condition_d_instances(P2, P2, [P2], [P2])
    zero = zero_hom(P2, P2).mapping
    for fail in report.failures:
        assert fail.maps[1][1].mapping != zero


def test_condition_d_reverifies(cat):
    P2 = cat["P2"]
    P = product(P2, P2)
    for fail in check_condition_d_instances(P2, P2, [P2], [P2]).failures:
        f, a, b = (h for _, h in fail.maps)
        (x,) = fail.point
        assert all(f(P.pair(a(u), 0)) == 0 for u in range(P2.size))
        assert f(P.pair(a(x), b(x))) == fail.lhs
        assert f(P.pair(0, b(x))) == fail.rhs
        assert fail.lhs != fail.rhs


def test_parameter_objects_are_checked_after_the_first_target(cat):
    Z2, Z3, P2 = cat["Z2"], cat["Z3"], cat["P2"]
    # With no target no parameter object is read, so a foreign one passes.
    assert check_condition_d_instances(Z2, Z2, [], [P2]).instances == 0
    assert check_condition_e_instances(Z2, [], [P2]).instances == 0
    # The first target's cap check comes before any parameter object's.
    with pytest.raises(CapExceeded, match="target: needs 3"):
        check_condition_d_instances(Z2, Z2, [Z3], [P2], Caps(hom_tgt=2))
    with pytest.raises(CapExceeded, match="target: needs 3"):
        check_condition_e_instances(Z2, [Z3], [P2], Caps(hom_tgt=2))
    # A foreign parameter object is refused even after a clean one.
    with pytest.raises(SignatureMismatch, match="P2 does not share Z2"):
        check_condition_e_instances(Z2, [Z2, Z3], [Z2, P2])


def _condition_calls(cat):
    Z2, Z3, Z4, P2, P3 = (cat[n] for n in ("Z2", "Z3", "Z4", "P2", "P3"))
    P5 = FiniteAlgebra("P5", 5, P2.signature, {"zero": (0,)})
    return {
        # P = P2 x P2 (4 elements); the second target has 3.
        "b": lambda caps: check_condition_b(P2, [P2, P3], caps),
        # P = Z3 x Z4 (12); under hom_tgt=2 both a: X -> Z3 and
        # b: X -> Z4 are over the cap, and A's refusal comes first.
        "d": lambda caps: check_condition_d_instances(
            Z3, Z4, [Z2, Z4], [Z2, product(Z2, Z3)], caps),
        # P = P2 x P2 (4); under hom_src=4, hom_tgt=2 both the first target
        # P3 and the parameter object P5 are over, and the target's comes first.
        "e": lambda caps: check_condition_e_instances(P2, [P3, P2], [P2, P5], caps),
    }


# (tag, hom_src, hom_tgt) -> (what, needed, limit) of the refusal, or
# (instances, number of failures) when the check completes.
CONDITION_REFUSAL_PIN = {
    ("b", 3, 2): ("homomorphism enumeration source", 4, 3),
    ("b", 3, 3): ("homomorphism enumeration source", 4, 3),
    ("b", 3, 4): ("homomorphism enumeration source", 4, 3),
    ("b", 4, 2): ("homomorphism enumeration target", 3, 2),
    ("b", 4, 3): (13, 8),
    ("b", 4, 4): (13, 8),
    ("b", 12, 2): ("homomorphism enumeration target", 3, 2),
    ("b", 12, 3): (13, 8),
    ("b", 12, 4): (13, 8),
    ("d", 4, 2): ("homomorphism enumeration source", 12, 4),
    ("d", 4, 4): ("homomorphism enumeration source", 12, 4),
    ("d", 6, 3): ("homomorphism enumeration source", 12, 6),
    ("d", 12, 2): ("homomorphism enumeration target", 3, 2),
    ("d", 12, 3): ("homomorphism enumeration target", 4, 3),
    ("d", 12, 4): (48, 0),
    ("e", 3, 2): ("homomorphism enumeration source", 4, 3),
    ("e", 3, 4): ("homomorphism enumeration source", 4, 3),
    ("e", 4, 2): ("homomorphism enumeration target", 3, 2),
    ("e", 4, 3): ("homomorphism enumeration source", 5, 4),
    ("e", 4, 4): ("homomorphism enumeration source", 5, 4),
    ("e", 5, 2): ("homomorphism enumeration target", 3, 2),
    ("e", 5, 3): (278, 264),
    ("e", 12, 4): (278, 264),
}


def test_condition_refusals_pinned_across_hom_caps(cat):
    calls = _condition_calls(cat)
    for (tag, s, t), expected in CONDITION_REFUSAL_PIN.items():
        try:
            report = calls[tag](Caps(hom_src=s, hom_tgt=t))
        except CapExceeded as exc:
            got = (exc.what, exc.needed, exc.limit)
        else:
            got = (report.instances, len(report.failures))
        assert got == expected, (tag, s, t)


def test_each_map_family_is_listed_once_per_report(cat, monkeypatch):
    P2, P3 = cat["P2"], cat["P3"]
    listed = []
    hom_tables = core._hom_tables

    def counting(X, Y, *args):
        listed.append((X, Y))
        return hom_tables(X, Y, *args)

    monkeypatch.setattr(core, "_hom_tables", counting)
    check_condition_e_instances(P3, [P3], [P2, P3])
    assert listed.count((product(P3, P3), P3)) == 1
    assert listed.count((P2, P3)) == listed.count((P3, P3)) == 1
    # The survey lists each family A x B -> C once per pair, not once per
    # parameter object.
    listed.clear()
    cross_check_conditions(list(cat.values()))
    families = [(X, Y) for X, Y in listed if isinstance(X, ProductAlgebra)]
    assert families and all(families.count(f) == 1 for f in families)


def test_condition_e_examples(cat):
    Z3 = cat["Z3"]
    report = check_condition_e_instances(Z3, [Z3], [Z3])
    assert report.condition == "e"
    assert report.ok and report.instances > 0

    P2 = cat["P2"]
    report = check_condition_e_instances(P2, [P2], [P2])
    assert not report.ok
    ident = identity_hom(P2).mapping
    hits = [fail for fail in report.failures
            if fail.maps[0][1].mapping == (0, 0, 0, 1)
            and fail.maps[1][1].mapping == ident]
    assert len(hits) == 1
    assert hits[0].point == (1,)
    # the constant-zero parameter map satisfies everything vacuously
    for fail in report.failures:
        assert fail.maps[1][1].mapping != zero_hom(P2, P2).mapping


def test_factoring_equation_where_np_holds(cat):
    # with the law in force, killing the first inclusion forces factoring
    # through the second projection, pointwise
    for name in ["Z2", "Z3", "B2", "S2"]:
        X = cat[name]
        if not check_np_pair(X, X).holds:
            continue
        P = product(X, X)
        pins = {P.pair(x, 0): 0 for x in range(X.size)}
        targets = [cat[k] for k in ["Z2", "Z3", "Z4", "V4", "B2", "S2"]
                   if cat[k].signature == X.signature]
        for C in targets:
            for f in enumerate_homomorphisms(P, C, pins):
                for e in range(P.size):
                    assert f(e) == f(P.pair(0, P.p2(e)))


@pytest.mark.parametrize("left,right", [
    ("Z2", "Z2"), ("Z2", "Z3"), ("Z3", "Z2"), ("P2", "P2"), ("P2", "P3"),
    ("P3", "P3"), ("S2", "S2"), ("B2", "B2"), ("Z2", "Z4"), ("Z2", "V4"),
])
def test_shifting_agrees_with_np(cat, left, right):
    A, B = cat[left], cat[right]
    np = check_np_pair(A, B)
    sh = shifting_shape_check(A, B)
    assert sh.holds == np.holds
    assert sh.theta == np.theta
    assert sh.witness == np.witness


def test_shifting_p2_single_merge_blocks(cat):
    verdict = shifting_shape_check(cat["P2"], cat["P2"])
    assert not verdict.holds
    assert verdict.theta.blocks() == [[0, 2], [1], [3]]
    assert verdict.witness == (1, 1)


def test_shifting_trivial_factor(cat):
    assert shifting_shape_check(cat["Z3"], trivial(cat["Z3"].signature)).holds


@pytest.mark.parametrize("check", [shifting_shape_check, centralic_check])
def test_shifting_cap(cat, check):
    with pytest.raises(CapExceeded) as err:
        check(cat["Z4"], cat["Z4"])
    assert err.value.what == "congruence lattice carrier"
    assert (err.value.needed, err.value.limit) == (16, 12)


def test_centralic_examples(cat):
    assert centralic_check(cat["Z2"], cat["Z2"]).ok
    report = centralic_check(cat["P2"], cat["P2"])
    assert not report.ok
    # the documented counterexample congruence and triple are recorded
    hits = [fail for fail in report.failures
            if fail.theta.blocks() == [[0, 2], [1], [3]]
            and fail.point == (1, 0, 1)]
    assert len(hits) == 1


def test_centralic_failures_reverify(cat):
    P = product(cat["P2"], cat["P2"])
    for fail in centralic_check(cat["P2"], cat["P2"]).failures:
        x, y, z = fail.point
        assert fail.theta.same(P.pair(x, 0), P.pair(y, 0))
        assert not fail.theta.same(P.pair(x, z), P.pair(y, z))
        # all-pairs congruences can never show up here
        assert fail.theta.num_blocks > 1


def test_centralic_pass_implies_np(cat):
    names = ["P2", "P3", "S2", "B2", "Z2", "Z3", "Z4", "V4"]
    for left in names:
        for right in names:
            A, B = cat[left], cat[right]
            if A.signature != B.signature or A.size * B.size > 12:
                continue
            if centralic_check(A, B).ok:
                assert check_np_pair(A, B).holds


def test_cross_check_groups(cat):
    report = cross_check_conditions([cat["Z2"], cat["Z3"]])
    assert report.ok
    assert len(report.pairs) == 4
    assert all(p.np_holds for p in report.pairs)
    assert all(p.shifting_holds for p in report.pairs)
    assert all(p.centralic_ok for p in report.pairs)


def test_cross_check_pointed(cat, monkeypatch):
    # Only the centralic verdict is kept, so no failure is built for it.
    built = []
    monkeypatch.setattr(normalproj, "ConditionFailure",
                        lambda *args: built.append(args))
    report = cross_check_conditions([cat["P2"], cat["P3"]])
    assert report.ok
    assert all(not p.np_holds for p in report.pairs)
    assert all(p.centralic_ok is False for p in report.pairs)
    assert built == []
    assert all(p.d_instances == 0 for p in report.pairs)


def test_cross_check_records_a_condition_d_failure(cat, monkeypatch):
    # Under np(A, B) condition d cannot fail, so this branch runs only when
    # the theory or a check is wrong.  A stub reports one instance and one
    # failure per parameter, whose `a` map has that parameter as its source:
    # each is listed, and only a parameter whose own diagonal law holds (T1,
    # not P2) raises a discrepancy.  Under cg=3 the law of P2 (P2 x P2 has 4
    # elements) is refused, which raises none either and keeps the failure.
    def one_failure_each(tag, P, targets, params, elements, caps):
        return normalproj.ConditionReport(tag, len(params), tuple(
            normalproj.ConditionFailure((("a", identity_hom(X)),), (0,), 1, 0)
            for X in params))

    monkeypatch.setattr(normalproj, "_element_report", one_failure_each)
    T = trivial(cat["P2"].signature)
    for caps in (Caps(), Caps(cg=3)):
        report = cross_check_conditions([T], parameter_objects=[T, cat["P2"]], caps=caps)
        (pair,) = report.pairs
        assert pair.np_holds and pair.d_instances == 2
        assert pair.d_failures == (("T1", 1), ("P2", 1))
        assert report.discrepancies == (
            "generalized-element failure on (T1, T1) with parameter T1 though its "
            "diagonal law holds",)


def test_cross_check_trivial(cat):
    report = cross_check_conditions([trivial(cat["P2"].signature)])
    assert report.ok
    assert report.pairs[0].np_holds


def test_cross_check_skips_beyond_caps(cat):
    report = cross_check_conditions([cat["Z4"], cat["V4"]])
    assert report.ok
    by_pair = {(p.left, p.right): p for p in report.pairs}
    assert by_pair[("Z4", "Z4")].shifting_holds is None
    assert by_pair[("Z4", "Z4")].centralic_ok is None


# The survey over the 8 builtins at 24 cap settings, one row per pair:
# left and right names, then T/F/- (None) for np_holds, shifting_holds and
# centralic_ok, then d_instances, and "!X=n" for each d failure.  The second
# entry of each value is the report's discrepancies.
CROSS_CHECK_PIN = {
    (4, 4, 4, 2): (
        "B2B2:TTT10 P2P2:FFF0 S2S2:FFF0 Z2Z2:TTT68",
        ()),
    (4, 4, 4, 4): (
        "B2B2:TTT10 P2P2:FFF0 S2S2:FFF0 Z2Z2:TTT369",
        ()),
    (4, 4, 9, 2): (
        "B2B2:TTT10 P2P2:FFF0 S2S2:FFF0 Z2Z2:TTT68",
        ()),
    (4, 4, 9, 4): (
        "B2B2:TTT10 P2P2:FFF0 S2S2:FFF0 Z2Z2:TTT369",
        ()),
    (4, 6, 4, 2): (
        "B2B2:TTT10 P2P2:FFF0 S2S2:FFF0 Z2Z2:TTT68",
        ()),
    (4, 6, 4, 4): (
        "B2B2:TTT10 P2P2:FFF0 S2S2:FFF0 Z2Z2:TTT369",
        ()),
    (4, 6, 9, 2): (
        "B2B2:TTT10 P2P2:FFF0 S2S2:FFF0 Z2Z2:TTT68",
        ()),
    (4, 6, 9, 4): (
        "B2B2:TTT10 P2P2:FFF0 S2S2:FFF0 Z2Z2:TTT369",
        ()),
    (9, 4, 4, 2): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:F--0 P3P2:F--0 P3P3:F--0 S2S2:FFF0 V4Z2:T--0 "
        "Z2V4:T--0 Z2Z2:TTT68 Z2Z3:T--0 Z2Z4:T--0 Z3Z2:T--0 Z3Z3:T--0 Z4Z2:T--0",
        ()),
    (9, 4, 4, 4): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:F--0 P3P2:F--0 P3P3:F--0 S2S2:FFF0 V4Z2:T--0 "
        "Z2V4:T--0 Z2Z2:TTT369 Z2Z3:T--0 Z2Z4:T--0 Z3Z2:T--0 Z3Z3:T--0 Z4Z2:T--0",
        ()),
    (9, 4, 9, 2): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:F--0 P3P2:F--0 P3P3:F--0 S2S2:FFF0 V4Z2:T--0 "
        "Z2V4:T--0 Z2Z2:TTT68 Z2Z3:T--0 Z2Z4:T--0 Z3Z2:T--0 Z3Z3:T--0 Z4Z2:T--0",
        ()),
    (9, 4, 9, 4): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:F--0 P3P2:F--0 P3P3:F--0 S2S2:FFF0 V4Z2:T--2145 "
        "Z2V4:T--3425 Z2Z2:TTT369 Z2Z3:T--96 Z2Z4:T--517 Z3Z2:T--117 Z3Z3:T--108 Z4Z2:T--697",
        ()),
    (9, 6, 4, 2): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:FFF0 P3P2:FFF0 P3P3:F--0 S2S2:FFF0 V4Z2:T--0 "
        "Z2V4:T--0 Z2Z2:TTT68 Z2Z3:TTT0 Z2Z4:T--0 Z3Z2:TTT0 Z3Z3:T--0 Z4Z2:T--0",
        ()),
    (9, 6, 4, 4): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:FFF0 P3P2:FFF0 P3P3:F--0 S2S2:FFF0 V4Z2:T--0 "
        "Z2V4:T--0 Z2Z2:TTT369 Z2Z3:TTT0 Z2Z4:T--0 Z3Z2:TTT0 Z3Z3:T--0 Z4Z2:T--0",
        ()),
    (9, 6, 9, 2): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:FFF0 P3P2:FFF0 P3P3:F--0 S2S2:FFF0 V4Z2:T--0 "
        "Z2V4:T--0 Z2Z2:TTT68 Z2Z3:TTT0 Z2Z4:T--0 Z3Z2:TTT0 Z3Z3:T--0 Z4Z2:T--0",
        ()),
    (9, 6, 9, 4): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:FFF0 P3P2:FFF0 P3P3:F--0 S2S2:FFF0 V4Z2:T--2145 "
        "Z2V4:T--3425 Z2Z2:TTT369 Z2Z3:TTT96 Z2Z4:T--517 Z3Z2:TTT117 Z3Z3:T--108 Z4Z2:T--697",
        ()),
    (256, 4, 4, 2): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:F--0 P3P2:F--0 P3P3:F--0 S2S2:FFF0 V4V4:T--0 "
        "V4Z2:T--0 V4Z3:T--0 V4Z4:T--0 Z2V4:T--0 Z2Z2:TTT68 Z2Z3:T--0 Z2Z4:T--0 "
        "Z3V4:T--0 Z3Z2:T--0 Z3Z3:T--0 Z3Z4:T--0 Z4V4:T--0 Z4Z2:T--0 Z4Z3:T--0 "
        "Z4Z4:T--0",
        ()),
    (256, 4, 4, 4): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:F--0 P3P2:F--0 P3P3:F--0 S2S2:FFF0 V4V4:T--0 "
        "V4Z2:T--0 V4Z3:T--0 V4Z4:T--0 Z2V4:T--0 Z2Z2:TTT369 Z2Z3:T--0 Z2Z4:T--0 "
        "Z3V4:T--0 Z3Z2:T--0 Z3Z3:T--0 Z3Z4:T--0 Z4V4:T--0 Z4Z2:T--0 Z4Z3:T--0 "
        "Z4Z4:T--0",
        ()),
    (256, 4, 9, 2): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:F--0 P3P2:F--0 P3P3:F--0 S2S2:FFF0 V4V4:T--0 "
        "V4Z2:T--0 V4Z3:T--0 V4Z4:T--0 Z2V4:T--0 Z2Z2:TTT68 Z2Z3:T--0 Z2Z4:T--0 "
        "Z3V4:T--0 Z3Z2:T--0 Z3Z3:T--0 Z3Z4:T--0 Z4V4:T--0 Z4Z2:T--0 Z4Z3:T--0 "
        "Z4Z4:T--0",
        ()),
    (256, 4, 9, 4): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:F--0 P3P2:F--0 P3P3:F--0 S2S2:FFF0 V4V4:T--0 "
        "V4Z2:T--2145 V4Z3:T--0 V4Z4:T--0 Z2V4:T--3425 Z2Z2:TTT369 Z2Z3:T--96 Z2Z4:T--517 "
        "Z3V4:T--0 Z3Z2:T--117 Z3Z3:T--108 Z3Z4:T--0 Z4V4:T--0 Z4Z2:T--697 Z4Z3:T--0 "
        "Z4Z4:T--0",
        ()),
    (256, 6, 4, 2): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:FFF0 P3P2:FFF0 P3P3:F--0 S2S2:FFF0 V4V4:T--0 "
        "V4Z2:T--0 V4Z3:T--0 V4Z4:T--0 Z2V4:T--0 Z2Z2:TTT68 Z2Z3:TTT0 Z2Z4:T--0 "
        "Z3V4:T--0 Z3Z2:TTT0 Z3Z3:T--0 Z3Z4:T--0 Z4V4:T--0 Z4Z2:T--0 Z4Z3:T--0 "
        "Z4Z4:T--0",
        ()),
    (256, 6, 4, 4): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:FFF0 P3P2:FFF0 P3P3:F--0 S2S2:FFF0 V4V4:T--0 "
        "V4Z2:T--0 V4Z3:T--0 V4Z4:T--0 Z2V4:T--0 Z2Z2:TTT369 Z2Z3:TTT0 Z2Z4:T--0 "
        "Z3V4:T--0 Z3Z2:TTT0 Z3Z3:T--0 Z3Z4:T--0 Z4V4:T--0 Z4Z2:T--0 Z4Z3:T--0 "
        "Z4Z4:T--0",
        ()),
    (256, 6, 9, 2): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:FFF0 P3P2:FFF0 P3P3:F--0 S2S2:FFF0 V4V4:T--0 "
        "V4Z2:T--0 V4Z3:T--0 V4Z4:T--0 Z2V4:T--0 Z2Z2:TTT68 Z2Z3:TTT0 Z2Z4:T--0 "
        "Z3V4:T--0 Z3Z2:TTT0 Z3Z3:T--0 Z3Z4:T--0 Z4V4:T--0 Z4Z2:T--0 Z4Z3:T--0 "
        "Z4Z4:T--0",
        ()),
    (256, 6, 9, 4): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:FFF0 P3P2:FFF0 P3P3:F--0 S2S2:FFF0 V4V4:T--0 "
        "V4Z2:T--2145 V4Z3:T--0 V4Z4:T--0 Z2V4:T--3425 Z2Z2:TTT369 Z2Z3:TTT96 Z2Z4:T--517 "
        "Z3V4:T--0 Z3Z2:TTT117 Z3Z3:T--108 Z3Z4:T--0 Z4V4:T--0 Z4Z2:T--697 Z4Z3:T--0 "
        "Z4Z4:T--0",
        ()),
    # The default caps; the d_instances sum to 7,484.
    (256, 12, 9, 4): (
        "B2B2:TTT10 P2P2:FFF0 P2P3:FFF0 P3P2:FFF0 P3P3:FFF0 S2S2:FFF0 V4V4:T--0 "
        "V4Z2:TTT2145 V4Z3:TTT0 V4Z4:T--0 Z2V4:TTT3425 Z2Z2:TTT369 Z2Z3:TTT96 Z2Z4:TTT517 "
        "Z3V4:TTT0 Z3Z2:TTT117 Z3Z3:TTT108 Z3Z4:TTT0 Z4V4:T--0 Z4Z2:TTT697 Z4Z3:TTT0 "
        "Z4Z4:T--0",
        ()),
}


def _cross_check_rows(report):
    flag = {True: "T", False: "F", None: "-"}
    return " ".join(
        f"{p.left}{p.right}:{flag[p.np_holds]}{flag[p.shifting_holds]}"
        f"{flag[p.centralic_ok]}{p.d_instances}"
        + "".join(f"!{x}={n}" for x, n in p.d_failures)
        for p in report.pairs)


def test_cross_check_pinned_across_caps(cat):
    algebras = list(cat.values())
    for (c, l, h, t), (rows, discrepancies) in CROSS_CHECK_PIN.items():
        report = cross_check_conditions(
            algebras, caps=Caps(cg=c, lattice=l, hom_src=h, hom_tgt=t))
        assert (_cross_check_rows(report), report.discrepancies) == \
            (rows, discrepancies), (c, l, h, t)


def test_cross_check_runs_the_other_parameter_objects_past_a_refused_one(cat):
    # Under hom_src=5 the maps out of Z6 are refused, so Z6 adds no
    # instances, while Z2 (16 instances) and Z3 (5) still run on Z2 x Z2.
    # The families out of Z2 x Z3 and Z3 x Z3 are refused, which skips
    # condition d on those pairs.
    Z2, Z3 = cat["Z2"], cat["Z3"]
    report = cross_check_conditions([Z2, Z3], parameter_objects=[Z2, _cyclic(6, "Z6"), Z3],
                                    caps=Caps(hom_src=5))
    assert (_cross_check_rows(report), report.discrepancies) == \
        ("Z2Z2:TTT21 Z2Z3:TTT0 Z3Z2:TTT0 Z3Z3:TTT0", ())


def test_cross_check_skips_a_lattice_refused_at_its_count(cat):
    # P2 x P2 has 15 congruences, P2 x P3 203 and P3 x P3 21,147, so every
    # lattice passes lattice_count=10 and only its two scans are skipped.
    algebras = [cat["P2"], cat["P3"]]
    report = cross_check_conditions(algebras, caps=Caps(lattice_count=10))
    assert report.ok
    assert len(report.pairs) == 4
    assert all(p.shifting_holds is None and p.centralic_ok is None for p in report.pairs)
    default = cross_check_conditions(algebras)
    assert [p.np_holds for p in report.pairs] == [p.np_holds for p in default.pairs]
