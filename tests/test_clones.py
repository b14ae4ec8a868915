import itertools

import pytest

from abelia import (Caps, FiniteAlgebra, Signature, Term, evaluate_term,
                    find_subtraction_term, find_unit_term, generate_term_ops)
from abelia.core import ZERO_OP
from oracles import depth_closure_tables


def test_term_rendering_and_counts():
    t = Term("add", (Term("x1"), Term("neg", (Term("x2"),))))
    assert str(t) == "add(x1, neg(x2))"
    assert t.size == 4
    assert t.op_nodes == 2
    assert str(Term("zero")) == "0"
    assert Term("x2").op_nodes == 0


def test_evaluate_term(cat):
    Z3 = cat["Z3"]
    t = Term("add", (Term("x1"), Term("neg", (Term("x2"),))))
    table = evaluate_term(Z3, t, 2)
    expect = tuple((x - y) % 3 for x, y in itertools.product(range(3), repeat=2))
    assert table == expect
    assert evaluate_term(Z3, Term("zero"), 1) == (0, 0, 0)
    x1 = Term("x1")
    for term, k, match in [(Term("x3"), 2, "unknown symbol 'x3'"),
                           (Term("mystery"), 1, "unknown symbol 'mystery'"),
                           (Term("y"), 1, "unknown symbol 'y'"),
                           (Term("add", (x1,)), 1, "'add' has arity 2"),
                           (Term("neg", (x1, x1)), 1, "'neg' has arity 1")]:
        with pytest.raises(ValueError, match=match):
            evaluate_term(Z3, term, k)


# acceptance criterion 8: closures against the depth-6 oracle, all 2-element fixtures
@pytest.mark.parametrize("name,count", [("P2", 3), ("S2", 4), ("Z2", 4), ("B2", 6)])
def test_binary_clone_matches_depth_oracle(cat, name, count):
    ops = generate_term_ops(cat[name], 2)
    assert ops.complete
    tables = {op.table for op in ops.term_ops}
    assert tables == depth_closure_tables(cat[name], 2, depth=6)
    assert len(tables) == count


def test_unary_clone(cat):
    ops = generate_term_ops(cat["Z3"], 1)
    assert ops.complete
    assert {op.table for op in ops.term_ops} == depth_closure_tables(cat["Z3"], 1)
    # x, -x, 0
    assert len(ops.term_ops) == 3


def test_term_witnesses_evaluate_to_their_tables(cat):
    for name in ["Z3", "Z4", "S2", "B2"]:
        ops = generate_term_ops(cat[name], 2)
        for op in ops.term_ops:
            assert evaluate_term(cat[name], op.witness, 2) == op.table


def test_minimal_size_witnesses(cat):
    # first witness per table comes from the lowest size level
    ops = generate_term_ops(cat["Z2"], 2)
    by_table = {op.table: op.witness for op in ops.term_ops}
    assert str(by_table[(0, 0, 1, 1)]) == "x1"
    assert str(by_table[(0, 1, 1, 0)]) == "add(x1, x2)"


@pytest.mark.parametrize("name,status,term", [
    ("Z2", "found", "add(x1, x2)"),
    ("Z3", "found", "add(x1, neg(x2))"),
    ("Z4", "found", "add(x1, neg(x2))"),
    ("V4", "found", "add(x1, x2)"),
    ("B2", "found", "s(x1, x2)"),
    ("P2", "none", None),
    ("P3", "none", None),
    ("S2", "none", None),
])
def test_find_subtraction_term(cat, name, status, term):
    result = find_subtraction_term(cat[name])
    assert result.status == status
    if status == "found":
        assert str(result.term_op.witness) == term
        n = cat[name].size
        table = result.term_op.table
        for x in range(n):
            assert table[x * n + x] == 0
            assert table[x * n] == x


def test_subtraction_witness_is_small(cat):
    # acceptance criterion 8 wants at most 3 operation nodes for Z3
    result = find_subtraction_term(cat["Z3"])
    assert result.term_op.witness.op_nodes <= 3


@pytest.mark.parametrize("name,status", [
    ("Z2", "found"), ("Z3", "found"), ("Z4", "found"), ("V4", "found"),
    ("S2", "none"), ("B2", "none"), ("P2", "none"), ("P3", "none"),
])
def test_find_unit_term(cat, name, status):
    result = find_unit_term(cat[name])
    assert result.status == status
    if status == "found":
        n = cat[name].size
        table = result.term_op.table
        for x in range(n):
            assert table[x * n] == x
            assert table[x] == x


def test_explored_counts(cat):
    # B2's whole binary clone is walked before concluding none
    result = find_unit_term(cat["B2"])
    assert result.status == "none"
    assert result.explored == 6


def test_cap_gives_unknown(cat):
    tight = Caps(clone_tables=3)
    result = find_subtraction_term(cat["Z3"], tight)
    assert result.status == "unknown"
    assert result.term_op is None
    ops = generate_term_ops(cat["Z3"], 2, tight)
    assert not ops.complete


def test_zero_only_closure(cat):
    ops = generate_term_ops(cat["P3"], 2)
    assert ops.complete
    assert sorted(str(op.witness) for op in ops.term_ops) == ["0", "x1", "x2"]


def test_capped_closure_stops_at_the_same_table(cat):
    # A capped run returns the first tables of the full run: it stops right
    # after the evaluation that reaches the cap.  When the leaves already
    # reach it, the first composition, the first op of least arity applied
    # to x1 only, is still evaluated and kept if new.  s(x, y) = x makes it
    # s(x1, x1) = x1, which is old.
    left = FiniteAlgebra("L2", 2, Signature(((ZERO_OP, 0), ("s", 2))),
                         {ZERO_OP: (0,), "s": (0, 0, 1, 1)})
    for A in [*cat.values(), left]:
        if not any(arity for _, arity in A.signature.ops):
            continue
        arity, name = min((arity, name) for name, arity in A.signature.ops if arity)
        for k in (1, 2):
            full = generate_term_ops(A, k).term_ops
            leaves = {op.table for op in full if op.witness.size == 1}
            first = evaluate_term(A, Term(name, (Term("x1"),) * arity), k)
            reached = len(leaves) + (first not in leaves)
            for cap in range(len(full) + 2):
                got = generate_term_ops(A, k, Caps(clone_tables=cap))
                expect = full[:cap] if cap > len(leaves) else full[:reached]
                assert got.term_ops == expect, (A.name, k, cap)
                assert got.complete == (cap > len(full)), (A.name, k, cap)
