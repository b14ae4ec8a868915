import pytest

from abelia import (POINTED, Caps, CapExceeded, Congruence, FiniteAlgebra,
                    Signature, all_congruences, cg, identity_hom, join,
                    kernel_congruence, meet, product, quotient, zero_hom)
from oracles import BELL, congruence_reps_by_filter, partition_compatible


def test_congruence_canonical_form():
    with pytest.raises(ValueError):
        Congruence(3, (0, 1))
    with pytest.raises(ValueError):
        Congruence(3, (0, 2, 2))  # rep must be the least member
    with pytest.raises(ValueError):
        Congruence(3, (1, 1, 2))
    with pytest.raises(ValueError):
        Congruence(4, (0, 1, 1, 2))  # 2 is not its own representative
    theta = Congruence(4, (0, 1, 0, 1))
    assert theta.same(0, 2) and not theta.same(0, 1)
    assert theta.num_blocks == 2
    assert theta.blocks() == [[0, 2], [1, 3]]


def test_lattice_members_equal_validated_congruences(cat):
    # The lattice build wraps its tables without the constructor's checks.
    P = product(cat["P2"], cat["P3"])
    for theta in all_congruences(P) + all_congruences(cat["V4"]):
        assert theta == Congruence(theta.size, theta.rep)


def test_from_blocks_round_trip():
    theta = Congruence.from_blocks(5, [[3, 0], [1, 4], [2]])
    assert theta.rep == (0, 1, 2, 0, 1)
    assert Congruence.from_blocks(5, theta.blocks()) == theta
    with pytest.raises(ValueError):
        Congruence.from_blocks(3, [[0, 1]])
    with pytest.raises(ValueError):
        Congruence.from_blocks(3, [[0, 1], [1, 2]])


def test_from_blocks_refuses_an_empty_block():
    with pytest.raises(ValueError, match="do not partition 0..1"):
        Congruence.from_blocks(2, [[0, 1], []])


def test_discrete_and_all_pairs():
    assert Congruence.discrete(3).num_blocks == 3
    assert Congruence.all_pairs(3).num_blocks == 1
    assert Congruence.all_pairs(3).contains(Congruence.discrete(3))
    assert not Congruence.discrete(3).contains(Congruence.all_pairs(3))
    with pytest.raises(ValueError, match="different carriers"):
        Congruence.all_pairs(3).contains(Congruence.discrete(2))


@pytest.mark.parametrize("name,pairs", [
    ("Z4", [(0, 2)]),
    ("Z4", [(0, 1)]),
    ("Z3", [(1, 2)]),
    ("S2", [(0, 1)]),
    ("V4", [(1, 2)]),
])
def test_cg_is_least_compatible(cat, name, pairs):
    A = cat[name]
    theta = cg(A, pairs)
    assert partition_compatible(A, theta.rep)
    for x, y in pairs:
        assert theta.same(x, y)
    # least: every compatible partition containing the pairs contains theta
    for rep in congruence_reps_by_filter(A):
        other = Congruence(A.size, rep)
        if all(other.same(x, y) for x, y in pairs):
            assert other.contains(theta)


def test_cg_translation_in_groups(cat):
    # collapsing 0 with 2 in Z4 drags every coset pair along
    theta = cg(cat["Z4"], [(0, 2)])
    assert theta.rep == (0, 1, 0, 1)
    theta = cg(cat["Z4"], [(1, 2)])
    assert theta.num_blocks == 1


def test_cg_generators_validated(cat):
    with pytest.raises(ValueError):
        cg(cat["Z3"], [(0, 3)])
    with pytest.raises(CapExceeded):
        cg(cat["Z3"], [(0, 1)], Caps(cg=2))


def test_cg_empty_is_discrete(cat):
    assert cg(cat["Z4"], []) == Congruence.discrete(4)


def test_kernel_congruence(cat):
    Z4, Z2 = cat["Z4"], cat["Z2"]
    from abelia import Homomorphism
    parity = Homomorphism(Z4, Z2, (0, 1, 0, 1))
    assert kernel_congruence(parity).rep == (0, 1, 0, 1)
    assert kernel_congruence(identity_hom(Z4)) == Congruence.discrete(4)
    assert kernel_congruence(zero_hom(Z4, Z4)) == Congruence.all_pairs(4)


def test_join_meet_lattice_laws(cat):
    A = cat["Z4"]
    lattice = all_congruences(A)
    for t1 in lattice:
        for t2 in lattice:
            up = join(A, t1, t2)
            down = meet(t1, t2)
            assert up.contains(t1) and up.contains(t2)
            assert t1.contains(down) and t2.contains(down)
            assert partition_compatible(A, up.rep)
            assert partition_compatible(A, down.rep)
    with pytest.raises(ValueError):
        meet(Congruence.discrete(3), Congruence.discrete(4))


def test_join_refuses_congruences_on_another_carrier(cat):
    Z4 = cat["Z4"]
    for other in (Congruence(6, (0, 1, 0, 1, 0, 1)), Congruence.discrete(2)):
        for pair in ((other, Congruence.discrete(4)), (Congruence.discrete(4), other)):
            with pytest.raises(ValueError, match="different carriers"):
                join(Z4, *pair)


def test_quotient_of_join_collapses_both(cat):
    A = cat["V4"]
    t1 = cg(A, [(0, 1)])
    t2 = cg(A, [(0, 2)])
    up = join(A, t1, t2)
    Q, q = quotient(A, up)
    assert Q.size == 1


# acceptance criterion 9: the four-element group product has 5 congruences
def test_klein_product_lattice(cat):
    P = product(cat["Z2"], cat["Z2"])
    lattice = all_congruences(P)
    assert len(lattice) == 5
    reps = {theta.rep for theta in lattice}
    assert reps == {tuple(r) for r in congruence_reps_by_filter(P)}


@pytest.mark.parametrize("build", [
    lambda cat: cat["Z2"],
    lambda cat: cat["Z3"],
    lambda cat: cat["Z4"],
    lambda cat: cat["S2"],
    lambda cat: cat["B2"],
    lambda cat: product(cat["S2"], cat["S2"]),
    lambda cat: product(cat["P2"], cat["P3"]),
    lambda cat: product(cat["Z2"], cat["Z3"]),
    lambda cat: product(cat["B2"], cat["B2"]),
])
def test_all_congruences_matches_partition_filter(cat, build):
    A = build(cat)
    assert A.size <= 6
    got = [theta.rep for theta in all_congruences(A)]
    assert sorted(got) == sorted(tuple(r) for r in congruence_reps_by_filter(A))
    assert len(set(got)) == len(got)


def test_all_congruences_order(cat):
    lattice = all_congruences(product(cat["P2"], cat["P2"]))
    # pointed sets: every partition is a congruence
    assert len(lattice) == BELL[4]
    keys = [(-theta.num_blocks, theta.rep) for theta in lattice]
    assert keys == sorted(keys)
    assert lattice[0] == Congruence.discrete(4)
    assert lattice[-1] == Congruence.all_pairs(4)


def test_all_congruences_cap(cat):
    big = product(cat["Z4"], cat["Z4"])
    with pytest.raises(CapExceeded):
        all_congruences(big)
    assert len(all_congruences(big, Caps(lattice=16))) > 1


def test_lattice_memoization_returns_copies(cat):
    first = all_congruences(cat["Z4"])
    second = all_congruences(cat["Z4"])
    assert first == second
    first.pop()
    assert len(all_congruences(cat["Z4"])) == len(second)


def test_lattice_of_a_product_builds_no_product_table(cat):
    P = product(cat["Z4"], cat["Z4"])
    all_congruences(P, Caps(lattice=16))
    # the one-entry zero table is read when the product is built
    assert set(P.tables._built) == {"zero"}


def test_shifting_and_centralic_share_one_lattice(cat, monkeypatch):
    import abelia.congruences as congruences
    from abelia import cross_check_conditions
    builds = []
    build = congruences._build_lattice
    monkeypatch.setattr(congruences, "_build_lattice",
                        lambda A, caps: builds.append(A.name) or build(A, caps))
    report = cross_check_conditions(list(cat.values()))
    scanned = [p for p in report.pairs if p.shifting_holds is not None]
    assert all(p.centralic_ok is not None for p in scanned)
    # one build per same-signature pair within the lattice cap, none twice
    assert len(builds) == len(set(builds)) == len(scanned) == 18
    assert set(builds) == {f"{p.left}x{p.right}" for p in scanned}


def test_principal_congruences_take_one_closure_per_class(monkeypatch):
    # Z8 x Z8 has 2,016 pairs but 21 principal congruences; the lattice
    # build runs one row-scanning closure per class of pairs, not per pair.
    import abelia.congruences as congruences
    from abelia.catalog import _cyclic
    closes = []
    close = congruences._close
    monkeypatch.setattr(congruences, "_close",
                        lambda *args: closes.append(1) or close(*args))
    Z8 = _cyclic(8, "Z8")
    lattice = all_congruences(product(Z8, Z8), Caps.from_env("cg=64,lattice=64"))
    assert len(lattice) == 37
    assert len(closes) <= 33


def test_product_rows_lift_factor_generators():
    # add is unital at both positions on every factor, so each position
    # scans one lifted row per factor, each holding the one generator x + 1
    # that Z12 keeps: 3 entries, not 1,728.  neg is unital on no factor and
    # keeps its one-entry outer-sum row.
    import abelia.congruences as congruences
    from abelia.catalog import _cyclic
    Z12 = _cyclic(12, "Z12")
    P = product(Z12, product(Z12, Z12))
    rows = congruences._op_rows(P)
    assert sum(len(row(5)) for row in rows) == 2 * (1 + 1 + 1) + 1
    full = [row for row, _, _ in congruences._product_rows(P)]
    assert sum(len(row(5)) for row in full) == 2 * 1728 + 1
    assert P.tables._built == P.right.tables._built == {"zero": (0,)}


def test_np_on_a_group_square_builds_no_product_table(monkeypatch):
    import abelia.normalproj as normalproj
    from abelia import check_np_pair
    from abelia.catalog import _cyclic
    built = []
    product_ = normalproj.product
    monkeypatch.setattr(normalproj, "product",
                        lambda A, B: built.append(product_(A, B)) or built[-1])
    Z12 = _cyclic(12, "Z12")
    verdict = check_np_pair(Z12, product(Z12, Z12), Caps(cg=1728))
    assert verdict.holds and verdict.theta.num_blocks == 144
    (P,) = built
    assert P.tables._built == P.right.tables._built == {"zero": (0,)}


def test_np_on_z16_squared_holds():
    # 4,096 elements: about 4.5 s through full outer-sum rows, about 0.2 s
    # through lifted generator rows on a 2-vCPU Xeon.
    from abelia import check_np_pair
    from abelia.catalog import _cyclic
    Z16 = _cyclic(16, "Z16")
    verdict = check_np_pair(Z16, product(Z16, Z16), Caps(cg=4096))
    assert verdict.holds and verdict.witness is None
    assert verdict.theta.num_blocks == 256


def counting_joins(monkeypatch) -> list:
    """Record every equivalence join of the lattice build."""
    import abelia.congruences as congruences
    joins = []
    join_ = congruences._join
    monkeypatch.setattr(congruences, "_join", lambda *args: joins.append(1) or join_(*args))
    return joins


def test_lattice_count_cap_stops_the_build_early(cat, monkeypatch):
    joins = counting_joins(monkeypatch)
    P = product(cat["P3"], cat["P3"])
    with pytest.raises(CapExceeded) as err:
        all_congruences(P, Caps(lattice_count=100))
    assert err.value.what == "congruence lattice size"
    assert (err.value.needed, err.value.limit) == (101, 100)
    # the whole lattice (21,147 congruences) takes 21,146 joins
    assert len(joins) < 1000


def test_each_congruence_takes_one_join(cat, monkeypatch):
    # Every principal of P3 x P3 is an atom of Eq(9), so each join merges
    # two blocks and the check before the join is the whole canonicity test:
    # one join per congruence past the discrete one.
    joins = counting_joins(monkeypatch)
    lattice = all_congruences(product(cat["P3"], cat["P3"]), Caps(lattice=9))
    assert len(lattice) == 21_147
    assert len(joins) == 21_146


@pytest.mark.parametrize("factors,joined,size", [
    (("Z6", "Z6"), 42, 30),
    (("Z4", "Z4", "Z2"), 63, 54),
    (("Z8", "Z8"), 57, 37),
    (("V4", "Z4"), 33, 27),
])
def test_joins_on_group_products_are_pinned(cat, monkeypatch, factors, joined, size):
    # On groups a principal's join often merges more than its own pair of
    # blocks, so the full canonicity test drops some joins after the fact;
    # the check before each join must pass exactly the same principals.
    from abelia.catalog import _cyclic
    *rest, A = [cat[name] if name in cat else _cyclic(int(name[1:]), name)
                for name in factors]
    for X in reversed(rest):
        A = product(X, A)
    joins = counting_joins(monkeypatch)
    assert len(all_congruences(A, Caps(cg=64, lattice=64))) == size
    assert len(joins) == joined


def test_lattice_count_cap_bounds_the_joins(monkeypatch):
    # Eq(12) has 4,213,597 members; the refusal at the 2,001st takes at most
    # one join per congruence found.
    joins = counting_joins(monkeypatch)
    P12 = FiniteAlgebra("P12", 12, POINTED, {"zero": (0,)})
    with pytest.raises(CapExceeded) as err:
        all_congruences(P12, Caps(lattice_count=2000))
    assert (err.value.needed, err.value.limit) == (2001, 2000)
    assert len(joins) <= 2000


@pytest.mark.parametrize("n", [1, 2])
def test_a_lattice_count_of_0_refuses_the_discrete_congruence(n):
    P = FiniteAlgebra(f"P{n}", n, POINTED, {"zero": (0,)})
    with pytest.raises(CapExceeded) as err:
        all_congruences(P, Caps(lattice_count=0))
    assert (err.value.what, err.value.needed, err.value.limit) \
        == ("congruence lattice size", 1, 0)
    assert len(all_congruences(P, Caps(lattice_count=n))) == n


@pytest.mark.parametrize("n", [257, 258])
def test_lattice_past_the_byte_table(n):
    # The unary cycle x -> x + 1 mod n: the congruences are x = y mod d for
    # each divisor d of n, with rep[x] = x mod d.
    A = FiniteAlgebra(f"C{n}", n, Signature.make([("s", 1)]),
                      {"zero": (0,), "s": tuple((x + 1) % n for x in range(n))})
    lattice = all_congruences(A, Caps(cg=n, lattice=n))
    divisors = [d for d in range(n, 0, -1) if n % d == 0]
    assert [t.rep for t in lattice] == [tuple(x % d for x in range(n)) for d in divisors]
    assert len(lattice) == {257: 2, 258: 8}[n]


def test_lattice_count_cap_boundary(cat):
    P = product(cat["P2"], cat["P2"])
    with pytest.raises(CapExceeded) as err:
        all_congruences(P, Caps(lattice_count=BELL[4] - 1))
    assert err.value.what == "congruence lattice size"
    assert (err.value.needed, err.value.limit) == (BELL[4], BELL[4] - 1)
    assert len(all_congruences(P, Caps(lattice_count=BELL[4]))) == BELL[4]
