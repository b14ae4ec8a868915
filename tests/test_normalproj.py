import itertools
import tracemalloc

import pytest

from abelia import (Caps, CapExceeded, FiniteAlgebra, SignatureMismatch, check_condition_b,
                    check_condition_d_instances, check_condition_e_instances,
                    check_np_pair, centralic_check, cross_check_conditions,
                    enumerate_homomorphisms, identity_hom, kernel_congruence,
                    op_table, product, shifting_shape_check, zero_hom)
from abelia import normalproj
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
