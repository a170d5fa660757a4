"""Expression compilation/evaluation and analysis helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ExecutionError
from repro.expr import (
    ExprCompiler,
    RowBinding,
    columns_referenced,
    conjuncts,
    disjuncts,
    make_and,
    make_or,
)
from repro.expr.analysis import contains_subquery, is_constant
from repro.expr.nodes import (
    And,
    Arith,
    Between,
    ColumnRef,
    CompareOp,
    Comparison,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    ScalarSubquery,
)
from repro.sql.parser import parse_expression


def compile_on(names, expr_text, udfs=None):
    binding = RowBinding.for_table("t", names)
    return ExprCompiler(binding, udfs=udfs or {}).compile(parse_expression(expr_text))


class TestRowBinding:
    def test_qualified_resolution(self):
        b = RowBinding()
        b.add_table("w", ["id", "owner"])
        b.add_table("g", ["id", "grade"])
        assert b.resolve(ColumnRef("owner", "w")) == 1
        assert b.resolve(ColumnRef("grade", "g")) == 3

    def test_unqualified_unambiguous(self):
        b = RowBinding()
        b.add_table("w", ["id", "owner"])
        b.add_table("g", ["gid", "grade"])
        assert b.resolve(ColumnRef("grade")) == 3

    def test_ambiguous_raises(self):
        b = RowBinding()
        b.add_table("w", ["id"])
        b.add_table("g", ["id"])
        with pytest.raises(ExecutionError):
            b.resolve(ColumnRef("id"))

    def test_unknown_raises(self):
        b = RowBinding.for_table("t", ["a"])
        with pytest.raises(ExecutionError):
            b.resolve(ColumnRef("nope"))
        with pytest.raises(ExecutionError):
            b.resolve(ColumnRef("a", "other"))

    def test_case_insensitive(self):
        b = RowBinding.for_table("T", ["Owner"])
        assert b.resolve(ColumnRef("OWNER", "t")) == 0


class TestEvaluation:
    def test_comparisons(self):
        fn = compile_on(["a"], "a >= 5")
        assert fn((5,)) and fn((9,)) and not fn((4,))

    def test_null_comparisons_false(self):
        fn = compile_on(["a"], "a = 5")
        assert not fn((None,))
        fn2 = compile_on(["a"], "a != 5")
        assert not fn2((None,))

    def test_between(self):
        fn = compile_on(["a"], "a BETWEEN 2 AND 4")
        assert fn((2,)) and fn((4,)) and not fn((5,))
        assert not fn((None,))

    def test_not_between(self):
        fn = compile_on(["a"], "a NOT BETWEEN 2 AND 4")
        assert fn((5,)) and not fn((3,))

    def test_in_list_constant_folded(self):
        fn = compile_on(["a"], "a IN (1, 2, 3)")
        assert fn((2,)) and not fn((9,)) and not fn((None,))

    def test_in_list_with_expressions(self):
        fn = compile_on(["a", "b"], "a IN (b, 10)")
        assert fn((10, 0)) and fn((7, 7)) and not fn((3, 4))

    def test_not_in(self):
        fn = compile_on(["a"], "a NOT IN (1, 2)")
        assert fn((3,)) and not fn((1,))

    def test_and_or_not(self):
        fn = compile_on(["a", "b"], "a = 1 AND (b = 2 OR b = 3)")
        assert fn((1, 2)) and fn((1, 3)) and not fn((1, 4)) and not fn((2, 2))
        assert compile_on(["a"], "NOT a = 1")((2,))

    def test_arithmetic(self):
        fn = compile_on(["a", "b"], "a + b * 2")
        assert fn((1, 3)) == 7
        assert compile_on(["a"], "a / 0")((5,)) is None  # guarded division
        assert compile_on(["a"], "a % 3")((7,)) == 1

    def test_arith_null_propagates(self):
        assert compile_on(["a"], "a + 1")((None,)) is None

    def test_is_null(self):
        fn = compile_on(["a"], "a IS NULL")
        assert fn((None,)) and not fn((1,))

    def test_builtin_functions(self):
        assert compile_on(["s"], "lower(s)")(("ABC",)) == "abc"
        assert compile_on(["s"], "length(s)")(("abc",)) == 3
        assert compile_on(["a"], "abs(a)")((-3,)) == 3
        assert compile_on(["a"], "coalesce(a, 7)")((None,)) == 7

    def test_udf(self):
        fn = compile_on(["a"], "double(a)", udfs={"double": lambda x: x * 2})
        assert fn((4,)) == 8

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            compile_on(["a"], "mystery(a)")

    def test_subquery_without_context_raises(self):
        with pytest.raises(ExecutionError):
            compile_on(["a"], "a = (SELECT 1)")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
    def test_between_matches_python(self, value, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        fn = compile_on(["a"], f"a BETWEEN {lo} AND {hi}")
        assert fn((value,)) == (lo <= value <= hi)


class TestAnalysis:
    def test_conjuncts_flatten(self):
        e = parse_expression("a = 1 AND b = 2 AND (c = 3 AND d = 4)")
        assert len(conjuncts(e)) == 4
        assert conjuncts(None) == []

    def test_disjuncts_flatten(self):
        e = parse_expression("a = 1 OR (b = 2 OR c = 3)")
        assert len(disjuncts(e)) == 3

    def test_make_and_or(self):
        parts = [parse_expression("a = 1"), parse_expression("b = 2")]
        assert isinstance(make_and(parts), And)
        assert make_and([]) is None
        assert make_and(parts[:1]) == parts[0]
        assert isinstance(make_or(parts), Or)
        assert make_or([]) is None

    def test_columns_referenced(self):
        e = parse_expression("W.a = 1 AND b + c > 2")
        names = {c.name for c in columns_referenced(e)}
        assert names == {"a", "b", "c"}

    def test_subquery_internals_not_walked(self):
        e = parse_expression("a = (SELECT x FROM t WHERE y = 1)")
        names = {c.name for c in columns_referenced(e)}
        assert names == {"a"}  # x, y hidden inside the subquery

    def test_contains_subquery(self):
        assert contains_subquery(parse_expression("a = (SELECT 1)"))
        assert contains_subquery(parse_expression("a IN (SELECT x FROM t)"))
        assert not contains_subquery(parse_expression("a = 1"))

    def test_is_constant(self):
        assert is_constant(parse_expression("1 + 2 = 3"))
        assert not is_constant(parse_expression("a = 1"))


class TestRememberedHash:
    """``And`` / ``Or`` take their dataclass hash once: the same value,
    so no dict or set order moves, and a repeat costs no child."""

    class Counting:
        """A child that counts how often it is hashed."""

        hashes = 0

        def __hash__(self):
            TestRememberedHash.Counting.hashes += 1
            return 7

    @pytest.mark.parametrize("node_type", [And, Or])
    def test_hash_is_the_dataclass_hash_taken_once(self, node_type):
        counting = TestRememberedHash.Counting
        wide = node_type(tuple(counting() for _ in range(40)))
        counting.hashes = 0
        first = hash(wide)
        assert counting.hashes == 40
        assert hash(wide) == first and counting.hashes == 40  # visits no child
        assert first == hash((wide.children,))
        parsed = parse_expression("a = 1 AND (b = 2 OR c IN (1, 2)) AND d BETWEEN 1 AND 3")
        for node in (parsed, parsed.children[1]):
            assert hash(node) == hash((node.children,)) == hash(node)

    def test_an_or_sharing_its_branches_hashes_its_width(self):
        counting = TestRememberedHash.Counting
        branches = [And((counting(), counting(), counting())) for _ in range(25)]
        held = Or(tuple(branches))
        hash(held)
        counting.hashes = 0
        successor = Or((*branches[:24], And((counting(), counting(), counting()))))
        assert hash(successor) != 0 and counting.hashes == 3  # only the new branch's leaves

    def test_equality_repr_and_replace_are_unchanged(self):
        from dataclasses import fields, replace

        node = parse_expression("a = 1 OR b = 2")
        twin = parse_expression("a = 1 OR b = 2")
        before = repr(node)
        hash(node)
        assert node == twin and twin == node and hash(twin) == hash(node)
        assert repr(node) == before == "Or(children=(Comparison(op=<CompareOp.EQ: '='>, " \
            "left=ColumnRef(name='a', table=None), right=Literal(value=1)), " \
            "Comparison(op=<CompareOp.EQ: '='>, left=ColumnRef(name='b', table=None), " \
            "right=Literal(value=2))))"
        assert [f.name for f in fields(node)] == ["children"]
        other = replace(node, children=node.children[:1])
        assert other == Or(node.children[:1]) and other != node
        assert hash(other) == hash((node.children[:1],))
        assert {node: 1}[twin] == 1
