"""Unit and property tests for the expression codegen tier.

The generated-source compiler must be observationally identical to the
closure compiler: same values on every row (including NULL edge
cases), same ``policy_evals`` metering for wide ORs, and the batch
kernels must agree with per-row evaluation.  Also covers the
compiled-expression cache, the optimized RowIdBitmap paths, and the
paged-heap batch scan helpers.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.counters import CounterSet
from repro.expr.codegen import (
    CodegenExprCompiler,
    CompiledExprCache,
    contains_metered_or,
    is_metered_or,
)
from repro.expr.eval import ExprCompiler, RowBinding
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
)
from repro.index.bitmap import RowIdBitmap
from repro.storage.schema import ColumnType, Schema
from repro.storage.table import HeapTable

COLUMNS = ["a", "b", "c", "d"]


def make_binding() -> RowBinding:
    return RowBinding.for_table("t", COLUMNS)


def col(name: str) -> ColumnRef:
    return ColumnRef(name)


# --------------------------------------------------- expression generator


def expr_strategy():
    literals = st.one_of(
        st.integers(-5, 20).map(Literal),
        st.sampled_from([Literal(None), Literal(3.5), Literal("x")]),
    )
    leaves = st.one_of(st.sampled_from([col(c) for c in COLUMNS]), literals)

    def extend(children):
        ops = st.sampled_from(list(CompareOp))
        return st.one_of(
            st.builds(Comparison, ops, children, children),
            st.builds(lambda e, lo, hi, n: Between(e, lo, hi, n), children, literals, literals, st.booleans()),
            st.builds(
                lambda e, items, n: InList(e, tuple(items), n),
                children,
                st.lists(literals, min_size=1, max_size=4),
                st.booleans(),
            ),
            st.builds(lambda xs: And(tuple(xs)), st.lists(children, min_size=2, max_size=4)),
            st.builds(lambda xs: Or(tuple(xs)), st.lists(children, min_size=2, max_size=5)),
            st.builds(Not, children),
            st.builds(IsNull, children),
            st.builds(
                Arith,
                st.sampled_from(["+", "-", "*", "/", "%"]),
                children,
                children,
            ),
            st.builds(
                lambda a: FuncCall("abs", (a,)),
                children,
            ),
        )

    return st.recursive(leaves, extend, max_leaves=25)


def random_rows(seed: int, n: int = 60) -> list[tuple]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        out.append(
            tuple(
                None if rng.random() < 0.15 else rng.randrange(-3, 15)
                for _ in COLUMNS
            )
        )
    return out


@settings(max_examples=120, deadline=None)
@given(expr=expr_strategy(), seed=st.integers(0, 50))
def test_codegen_matches_closure_rowwise(expr, seed):
    """Same value and same policy metering on every row."""
    binding = make_binding()
    rows = random_rows(seed)
    c_closure = CounterSet()
    c_codegen = CounterSet()
    closure_fn = ExprCompiler(binding, counters=c_closure).compile(expr)
    codegen_fn = CodegenExprCompiler(binding, counters=c_codegen).compile(expr)

    def norm(value):
        try:
            return value, None
        except Exception:  # pragma: no cover
            return None, "error"

    for row in rows:
        try:
            expected = closure_fn(row)
            expected_err = None
        except Exception as exc:
            expected, expected_err = None, type(exc).__name__
        try:
            got = codegen_fn(row)
            got_err = None
        except Exception as exc:
            got, got_err = None, type(exc).__name__
        assert got_err == expected_err, f"error mismatch on {row}: {expr}"
        if expected_err is None:
            assert got == expected, f"value mismatch on {row}: {expr}"
    assert c_codegen.policy_evals == c_closure.policy_evals


@settings(max_examples=60, deadline=None)
@given(expr=expr_strategy(), seed=st.integers(0, 50))
def test_batch_kernels_match_rowwise(expr, seed):
    """Column-mode kernels agree with per-row evaluation (no metering
    in column mode by contract, so compile without counters)."""
    binding = make_binding()
    rows = random_rows(seed)
    cols = list(zip(*rows))
    sel = list(range(len(rows)))
    compiler = CodegenExprCompiler(binding)
    row_fn = ExprCompiler(binding).compile(expr)

    def rowwise_ok():
        try:
            return [row_fn(r) for r in rows]
        except Exception:
            return None

    expected_values = rowwise_ok()
    if expected_values is None:
        return  # expression errors on this data; row parity covered above
    values = compiler.compile_batch_values(expr)(cols, sel)
    assert values == expected_values
    passing = compiler.compile_batch_predicate(expr)(cols, sel)
    assert passing == [i for i in sel if expected_values[i]]


def test_metered_or_counts_short_circuit_exactly():
    binding = make_binding()
    guard = Or(
        tuple(
            Comparison(CompareOp.EQ, col("a"), Literal(v)) for v in range(5)
        )
    )
    rows = [(v, 0, 0, 0) for v in [0, 2, 4, 9, None]]
    # checked per row: hit at index v -> v+1 checks; miss -> 5.
    expected = 1 + 3 + 5 + 5 + 5
    for compiler_cls in (ExprCompiler, CodegenExprCompiler):
        counters = CounterSet()
        fn = compiler_cls(binding, counters=counters).compile(guard)
        results = [fn(r) for r in rows]
        assert results == [True, True, True, False, False]
        assert counters.policy_evals == expected, compiler_cls.__name__
    # The fused batch guard kernel carries the identical total.
    counters = CounterSet()
    kernel = CodegenExprCompiler(binding, counters=counters).compile_batch_guard(guard)
    hits = kernel(list(zip(*rows)), list(range(len(rows))))
    assert hits == [0, 1, 2]
    assert counters.policy_evals == expected


def test_nested_metered_or_metered_in_batch_kernels():
    """A policy OR nested under a conjunction still ticks inside batch
    kernels (kernel-local helper path)."""
    binding = make_binding()
    nested = Or(
        tuple(Comparison(CompareOp.EQ, col("b"), Literal(v)) for v in range(3))
    )
    expr = And((Comparison(CompareOp.GE, col("a"), Literal(0)), nested))
    rows = [(1, 0, 0, 0), (1, 2, 0, 0), (-1, 1, 0, 0), (1, 9, 0, 0)]
    row_counters = CounterSet()
    row_fn = ExprCompiler(binding, counters=row_counters).compile(expr)
    expected_rows = [row_fn(r) for r in rows]
    batch_counters = CounterSet()
    kernel = CodegenExprCompiler(binding, counters=batch_counters).compile_batch_predicate(expr)
    passing = kernel(list(zip(*rows)), list(range(len(rows))))
    assert passing == [i for i, ok in enumerate(expected_rows) if ok]
    # Row a=-1 short-circuits the AND, so its nested OR is never
    # checked in either mode.
    assert batch_counters.policy_evals == row_counters.policy_evals == 1 + 3 + 3


def test_udfs_and_builtins_in_codegen():
    binding = make_binding()
    calls = []

    def double(x):
        calls.append(x)
        return None if x is None else 2 * x

    expr = Comparison(
        CompareOp.GT, FuncCall("double", (col("a"),)), FuncCall("abs", (col("b"),))
    )
    fn = CodegenExprCompiler(binding, udfs={"double": double}).compile(expr)
    assert fn((3, 4, 0, 0)) is True
    assert fn((1, 4, 0, 0)) is False
    assert calls == [3, 1]


def test_is_metered_or_width_contract():
    counters = CounterSet()
    two = Or((col("a"), col("b")))
    three = Or((col("a"), col("b"), col("c")))
    assert not is_metered_or(two, counters)
    assert is_metered_or(three, counters)
    assert not is_metered_or(three, None)
    assert contains_metered_or(Not(three))
    assert not contains_metered_or(Not(two))


# ----------------------------------------------------------- fn cache


def test_compiled_expr_cache_lru_and_id_alias():
    cache = CompiledExprCache(capacity=2)
    counters = CounterSet()
    e1 = Comparison(CompareOp.EQ, col("a"), Literal(1))
    e2 = Comparison(CompareOp.EQ, col("a"), Literal(2))
    e3 = Comparison(CompareOp.EQ, col("a"), Literal(3))
    extra = ((), "row")
    assert cache.lookup(e1, extra, counters) is None
    cache.store(e1, extra, lambda r: 1)
    assert cache.lookup(e1, extra, counters) is not None  # id fast path
    # A structurally equal but distinct object also hits, then aliases.
    e1_clone = Comparison(CompareOp.EQ, col("a"), Literal(1))
    assert cache.lookup(e1_clone, extra, counters) is not None
    cache.store(e2, extra, lambda r: 2)
    cache.store(e3, extra, lambda r: 3)  # evicts e1 (capacity 2)
    assert cache.lookup(e1, extra, counters) is None
    assert cache.lookup(e3, extra, counters) is not None
    assert counters.expr_cache_hits == 3
    assert counters.expr_cache_misses == 2
    assert cache.clear() == 2
    assert len(cache) == 0


def test_compiled_expr_cache_hit_does_not_rehash_the_tree():
    class CountingExpr:
        """Stands in for a policy-wide OR: counts structural hashes."""

        hashes = 0

        def __hash__(self):
            CountingExpr.hashes += 1
            return 7

        def __eq__(self, other):
            return isinstance(other, CountingExpr)

    cache = CompiledExprCache()
    counters = CounterSet()
    expr, extra = CountingExpr(), ((), "colpred", True)
    cache.store(expr, extra, lambda cols, sel: sel)
    assert CountingExpr.hashes == 1
    for _ in range(50):
        assert cache.lookup(expr, extra, counters) is not None
    assert CountingExpr.hashes == 1  # id alias -> stored key, hash remembered
    twin = CountingExpr()
    assert cache.lookup(twin, extra, counters) is not None  # structural: one hash
    assert cache.lookup(twin, extra, counters) is not None  # now aliased too
    assert CountingExpr.hashes == 2
    assert counters.expr_cache_hits == 52 and counters.expr_cache_misses == 0


def test_compiled_expr_cache_discards_by_conjunct_identity():
    cache = CompiledExprCache()
    guard = Or((Comparison(CompareOp.EQ, col("a"), Literal(1)), Comparison(CompareOp.EQ, col("a"), Literal(2))))
    other = Comparison(CompareOp.GT, col("b"), Literal(5))
    extra = ((), "stage", True)
    cache.store(guard, extra, lambda *a: "alone")
    cache.store(And((other, guard)), extra, lambda *a: "conjunct")
    cache.store(other, extra, lambda *a: "unrelated")
    twin = Or(guard.children)  # equal structure, another object: not the one released
    assert cache.discard_conjuncts([twin]) == 0
    assert cache.discard_conjuncts([guard]) == 2
    assert len(cache) == 1
    assert cache.lookup(guard, extra) is None
    assert cache.lookup(other, extra) is not None


def test_database_reuses_compiled_predicates():
    from repro.db.database import connect

    db = connect("mysql", page_size=16)
    db.create_table("t", Schema.of(("a", ColumnType.INT)))
    db.insert("t", [(i,) for i in range(40)])
    db.analyze()
    sql = "SELECT * FROM t WHERE a > 17"
    db.execute(sql)
    warm_before = db.counters.expr_cache_hits
    db.execute(sql)
    assert db.counters.expr_cache_hits > warm_before


# ------------------------------------------------------------- bitmaps


@settings(max_examples=60, deadline=None)
@given(rowids=st.lists(st.integers(0, 4000), max_size=200))
def test_bitmap_from_rowids_and_iter_sorted(rowids):
    bitmap = RowIdBitmap.from_rowids(rowids)
    naive = RowIdBitmap()
    for rid in rowids:
        naive.add(rid)
    assert bitmap == naive
    assert list(bitmap.iter_sorted()) == sorted(set(rowids))
    assert len(bitmap) == len(set(rowids))
    if rowids:
        assert bitmap.pages(64) == sorted({r // 64 for r in rowids})


def test_rowbatch_selection_bitmap_and_narrow():
    from repro.engine.vector import RowBatch

    rows = [(i, i * 2) for i in range(10)]
    batch = RowBatch(rows)
    assert list(batch.selection_bitmap().iter_sorted()) == list(range(10))
    cols = batch.columns()
    narrowed = batch.narrow([1, 4, 7])
    assert narrowed.take() == [rows[1], rows[4], rows[7]]
    assert list(narrowed.selection_bitmap().iter_sorted()) == [1, 4, 7]
    assert narrowed.columns() is cols  # transpose shared, not recomputed


# ----------------------------------------------------------- heap table


def test_scan_batches_page_aligned_and_complete():
    table = HeapTable("t", Schema.of(("x", ColumnType.INT)), page_size=8)
    for i in range(50):
        table.insert((i,))
    for rid in (3, 8, 21, 49):
        table.delete(rid)
    batches = list(table.scan_batches(batch_slots=20))  # rounds down to 16
    all_ids: list[int] = []
    prev_last_page = -1
    for rowids, rows in batches:
        assert len(rowids) == len(rows)
        assert rowids == sorted(rowids)
        if rowids:
            # Page alignment: no page spans two batches.
            assert rowids[0] // 8 > prev_last_page
            prev_last_page = rowids[-1] // 8
        all_ids.extend(rowids)
    assert all_ids == [rid for rid, _ in table.scan()]
    assert [r for _, rows in batches for r in rows] == [row for _, row in table.scan()]


def test_get_many_skips_dead_and_out_of_range():
    table = HeapTable("t", Schema.of(("x", ColumnType.INT)), page_size=8)
    for i in range(10):
        table.insert((i,))
    table.delete(4)
    pairs = table.get_many([2, 4, 9, 99, -1, 0])
    assert pairs == [(2, (2,)), (9, (9,)), (0, (0,))]
