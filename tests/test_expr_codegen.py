"""Unit and property tests for the expression codegen tier.

The generated-source compiler must be observationally identical to the
closure compiler: same values on every row (including NULL edge
cases), same ``policy_evals`` metering for wide ORs, and the batch
kernels must agree with per-row evaluation — the guard-dispatch kernel
included, in the rows it keeps *and* in what it charges.  Also covers
the compiled-expression cache and the optimized RowIdBitmap paths.
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
from repro.expr.params import lift_constants
from repro.index.bitmap import RowIdBitmap
from repro.storage.schema import ColumnType, Schema

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


# ------------------------------------------------- guard dispatch kernels

NAN = float("nan")
#: What a column holds, and is compared with.  Numbers mix int / float
#: / bool (equal across types: ``1 == 1.0 == True``) with the two
#: values a look-up cannot reproduce, NULL and NaN.
NUMBERS = [-1, 0, 1, 2, 3, 5, 1.0, 2.5, True, False, None, NAN]
TEXTS = ["x", "y", "z", None]
FAMILY = {"a": NUMBERS, "b": NUMBERS, "c": TEXTS, "d": NUMBERS}


def guard_kernel(expr, counters, binding=None):
    """``(kernel, source)`` of the fused guard kernel for ``expr``."""
    sources = []

    class Capturing(CodegenExprCompiler):
        @staticmethod
        def _exec(src, env):
            sources.append(src)
            return CodegenExprCompiler._exec(src, env)

    compiler = Capturing(binding or make_binding(), counters=counters)
    return compiler.compile_batch_guard(expr), sources[-1]


def guard_or_strategy():
    """Guard-shaped ORs at least ``METERED_OR_WIDTH`` wide: each branch
    is ``head`` or ``head AND rest``; heads are ``=``, ``IN``,
    ``BETWEEN`` (what a look-up finds) or something it cannot."""
    column = st.sampled_from(COLUMNS)

    def constant(name):  # "=" may meet another type; an ordering may not
        return st.sampled_from(FAMILY[name] + [2, "y"]).map(Literal)

    def bound(name):  # a NULL bound raises in either mode, on the rows it meets
        return st.sampled_from([v for v in FAMILY[name] if v is not None]).map(Literal)

    def head(name):
        ref = col(name)
        return st.one_of(
            constant(name).map(lambda k: Comparison(CompareOp.EQ, ref, k)),
            st.lists(constant(name), min_size=1, max_size=3).map(
                lambda ks: InList(ref, tuple(ks))
            ),
            st.tuples(bound(name), bound(name)).map(lambda b: Between(ref, b[0], b[1])),
            # Not one a dict or a bounds table stands in for:
            st.sampled_from(
                [
                    Comparison(CompareOp.NE, ref, Literal(1)),
                    Comparison(CompareOp.EQ, ref, col("b")),
                    Comparison(CompareOp.EQ, ref, Literal([1])),  # unhashable
                    Not(Comparison(CompareOp.EQ, ref, Literal(0))),
                    InList(ref, (Literal(1), Literal(2)), negated=True),
                    IsNull(ref),
                ]
            ),
        )

    condition = st.one_of(
        st.builds(
            lambda name, op, k: Comparison(op, col(name), Literal(k)),
            st.sampled_from(["a", "b", "d"]),
            st.sampled_from([CompareOp.LT, CompareOp.GE, CompareOp.EQ]),
            st.integers(-1, 4),
        ),
        st.builds(
            lambda name, lo, width: Between(col(name), Literal(lo), Literal(lo + width)),
            st.sampled_from(["a", "b", "d"]),
            st.integers(-1, 3),
            st.integers(0, 3),
        ),
    )
    # A partition narrower than the metering width is a plain OR, a
    # wider one ticks policy_evals itself — only when its guard holds.
    partition = st.lists(condition, min_size=2, max_size=5).map(lambda xs: Or(tuple(xs)))
    rest = st.one_of(
        st.just(()),
        condition.map(lambda c: (c,)),
        partition.map(lambda p: (p,)),
        st.tuples(condition, partition),
    )
    branch = st.builds(
        lambda h, r: And((h, *r)) if r else h, column.flatmap(head), rest
    )
    return st.lists(branch, min_size=3, max_size=9).map(lambda xs: Or(tuple(xs)))


def guard_rows(seed: int, n: int = 50) -> list[tuple]:
    rng = random.Random(seed)
    return [tuple(rng.choice(FAMILY[name]) for name in COLUMNS) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(expr=guard_or_strategy(), seed=st.integers(0, 40), data=st.data())
def test_guard_dispatch_kernel_matches_row_mode(expr, seed, data):
    """The dispatch kernel keeps the rows and charges the policy_evals
    of the row-mode walk over the same OR, on any selection."""
    binding = make_binding()
    rows = guard_rows(seed)
    sel = sorted(data.draw(st.sets(st.integers(0, len(rows) - 1))))
    row_counters, kernel_counters = CounterSet(), CounterSet()
    row_fn = CodegenExprCompiler(binding, counters=row_counters).compile(expr)
    kernel, _source = guard_kernel(expr, kernel_counters)
    expected = [i for i in sel if row_fn(rows[i])]
    assert kernel(list(zip(*rows)), sel) == expected
    assert kernel_counters.policy_evals == row_counters.policy_evals


@settings(max_examples=100, deadline=None)
@given(expr=guard_or_strategy(), seed=st.integers(0, 40), data=st.data())
def test_guard_kernel_assembled_from_cached_branches_matches_row_mode(expr, seed, data):
    """The compile unit is the branch: an OR one branch away from one
    already compiled — a branch dropped, moved or new, as a policy write
    leaves it — takes every other branch's function from the caller's
    cache, and still keeps the rows and charges the policy_evals of the
    row-mode walk over *its* branches in *its* order."""
    binding = make_binding()
    rows = guard_rows(seed)
    sel = sorted(data.draw(st.sets(st.integers(0, len(rows) - 1))))
    counters = CounterSet()
    compiler = CodegenExprCompiler(binding, counters=counters)
    compiled: dict[int, object] = {}

    def branch(node):
        if id(node) not in compiled:
            compiled[id(node)] = compiler.compile_guard_branch(node)
        return compiled[id(node)]

    compiler.compile_batch_guard(expr, branch)
    known = len(compiled)
    assert known <= len(expr.children)  # the unrolled form asks for none
    branches = list(expr.children)
    moved = branches.pop(data.draw(st.integers(0, len(branches) - 1)))
    edit = data.draw(st.sampled_from(["dropped", "moved", "new"]))
    if edit == "moved":
        branches.append(moved)
    elif edit == "new":
        branches.insert(0, data.draw(guard_or_strategy()).children[0])
    sibling = Or(tuple(branches))
    if not is_metered_or(sibling, counters):
        return
    kernel = compiler.compile_batch_guard(sibling, branch)
    assert len(compiled) - known <= (1 if edit == "new" else 0) + (known == 0) * len(branches)
    row_counters = CounterSet()
    row_fn = CodegenExprCompiler(binding, counters=row_counters).compile(sibling)
    expected = [i for i in sel if row_fn(rows[i])]
    assert kernel(list(zip(*rows)), sel, rows) == expected  # as the executor calls it
    assert counters.policy_evals == row_counters.policy_evals


def test_guard_dispatch_charges_the_sequential_walk():
    """Duplicate constants, overlapping ranges, a guard alone, and a
    branch no look-up finds *between* ones it does."""
    a, b = col("a"), col("b")
    partition = Or(tuple(Comparison(CompareOp.EQ, b, Literal(v)) for v in (7, 8, 9)))
    guard = Or(
        (
            And((Comparison(CompareOp.EQ, a, Literal(1)), partition)),  # 0
            And((Between(a, Literal(2), Literal(6)), Comparison(CompareOp.EQ, b, Literal(0)))),  # 1
            Comparison(CompareOp.GT, b, Literal(50)),  # 2: tried for every row
            And((Comparison(CompareOp.EQ, a, Literal(1)), Comparison(CompareOp.EQ, b, Literal(3)))),  # 3
            Between(a, Literal(4), Literal(9)),  # 4: a guard alone
            InList(a, (Literal(1.0), Literal(True), Literal(11))),  # 5
        )
    )
    rows = [(1, 9, 0, 0), (1, 3, 0, 0), (1, 4, 0, 0), (5, 0, 0, 0), (5, 1, 0, 0),
            (3, 99, 0, 0), (None, 1, 0, 0), (12, None, 0, 0), (11, 0, 0, 0)]
    counters = CounterSet()
    kernel, source = guard_kernel(guard, counters)
    assert kernel(list(zip(*rows)), list(range(len(rows)))) == [0, 1, 2, 3, 4, 5, 8]
    # (1,9): branch 0's head, then its partition hits on the third policy.
    # (1,3): partition misses (3), branch 3 hits.  (1,4): only branch 5 holds.
    # (5,0): branch 1.  (5,1): branch 4.  (3,99): branch 2.  NULL and 12: none.
    assert counters.policy_evals == (1 + 3) + (4 + 3) + (6 + 3) + 2 + 5 + 3 + 6 + 6 + 6
    assert "_mrg(" in source  # two look-ups and an always-tried branch, merged by ordinal
    row_counters = CounterSet()
    row_fn = CodegenExprCompiler(make_binding(), counters=row_counters).compile(guard)
    assert [i for i, row in enumerate(rows) if row_fn(row)] == [0, 1, 2, 3, 4, 5, 8]
    assert row_counters.policy_evals == counters.policy_evals


def test_guard_constants_no_lookup_reproduces_are_always_tried():
    """NULL equals nothing, NaN not even itself (a dict would find the
    very object), an unhashable constant cannot be a key: their
    branches stay candidates of every row, evaluated as written."""
    a = col("a")
    guard = Or(
        (
            Comparison(CompareOp.EQ, a, Literal(NAN)),
            Comparison(CompareOp.EQ, a, Literal(None)),
            Comparison(CompareOp.EQ, a, Literal([1])),
            InList(a, (Literal(2), Literal(None))),
            Between(a, Literal(NAN), Literal(5)),
            Comparison(CompareOp.EQ, a, Literal(4)),
        )
    )
    rows = [(NAN, 0, 0, 0), (None, 0, 0, 0), (2, 0, 0, 0), (4, 0, 0, 0), (3, 0, 0, 0)]
    counters = CounterSet()
    kernel, source = guard_kernel(guard, counters)
    assert kernel(list(zip(*rows)), list(range(len(rows)))) == [2, 3]
    assert counters.policy_evals == 6 + 6 + 4 + 6 + 6
    assert "_mrg(" in source  # branches 0-4 ride along as candidates of every row


def test_guard_kernel_without_lookup_is_the_unrolled_loop():
    """No branch a look-up can find: byte for byte the kernel this OR
    compiled to before dispatch existed."""
    a, b, c, d = (col(name) for name in COLUMNS)
    nested = Or(tuple(Comparison(CompareOp.EQ, d, Literal(v)) for v in range(3)))
    guard = Or(
        (
            And((Comparison(CompareOp.GT, a, Literal(1)), Comparison(CompareOp.LT, a, Literal(9)))),
            Comparison(CompareOp.EQ, b, Literal(None)),
            InList(c, (Literal(1), Literal(2)), negated=True),
            And((Comparison(CompareOp.EQ, a, b), nested)),
        )
    )
    _kernel, source = guard_kernel(guard, CounterSet())
    assert source == UNROLLED_GUARD_KERNEL
    # ... in one compile unit: no branch is asked of a caller's cache.
    asked = []
    kernel = CodegenExprCompiler(make_binding(), counters=CounterSet()).compile_batch_guard(
        guard, asked.append
    )
    assert asked == []
    rows = guard_rows(3)
    sel = list(range(len(rows)))  # ... and takes (and ignores) the row tuples the shell form needs
    assert kernel(list(zip(*rows)), sel, rows) == kernel(list(zip(*rows)), sel)


UNROLLED_GUARD_KERNEL = """\
def _kernel(_cols, _sel):
    _c0 = _cols[0]
    _c1 = _cols[1]
    _c2 = _cols[2]
    _c3 = _cols[3]
    def _h11(_i):
        if ((_t13 := _v3) is not None and (_t14 := 0) is not None and _t13 == _t14):
            _k12.policy_evals += 1
            return True
        if ((_t15 := _v3) is not None and (_t16 := 1) is not None and _t15 == _t16):
            _k12.policy_evals += 2
            return True
        if ((_t17 := _v3) is not None and (_t18 := 2) is not None and _t17 == _t18):
            _k12.policy_evals += 3
            return True
        _k12.policy_evals += 3
        return False
    _hits = []
    _add = _hits.append
    _n = 0
    for _i in _sel:
        _v0 = _c0[_i]
        _v1 = _c1[_i]
        _v2 = _c2[_i]
        _v3 = _c3[_i]
        if (bool(((_t1 := _v0) is not None and (_t2 := 1) is not None and _t1 > _t2)) and bool(((_t3 := _v0) is not None and (_t4 := 9) is not None and _t3 < _t4))):
            _n += 1
            _add(_i)
            continue
        if ((_t5 := _v1) is not None and (_t6 := None) is not None and _t5 == _t6):
            _n += 2
            _add(_i)
            continue
        if ((_t7 := _v2) is not None and _t7 not in _k8):
            _n += 3
            _add(_i)
            continue
        if (bool(((_t9 := _v0) is not None and (_t10 := _v1) is not None and _t9 == _t10)) and bool(_h11(_i))):
            _n += 4
            _add(_i)
            continue
        _n += 4
    _k19.policy_evals += _n
    return _hits"""


def test_mall_guard_kernel_finds_its_guards(monkeypatch):
    """The shape the serving path depends on cannot silently regress: a
    Mall querier's guarded expression compiles to a kernel that looks
    its ``owner = c`` guards up, not to a chain of comparisons."""
    from repro.core import Sieve
    from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
    from repro.policy.store import PolicyStore

    mall = generate_mall(MallConfig(seed=23, n_customers=100, days=8))
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall.policies)
    sources = []
    compile_source = CodegenExprCompiler._exec
    monkeypatch.setattr(
        CodegenExprCompiler,
        "_exec",
        staticmethod(lambda src, env: sources.append(src) or compile_source(src, env)),
    )
    sieve = Sieve(mall.db, store)
    querier = mall.shop_querier(mall.shops[0])
    expression, _ = sieve.guarded_expression_for(querier, "analytics", CONNECTIVITY_TABLE)
    assert len(expression.guards) >= 3
    sieve.execute(f"SELECT * FROM {CONNECTIVITY_TABLE}", querier, "analytics")
    (kernel,) = [src for src in sources if "_hits" in src]
    assert "_cand = [(_i, _js) for _i in _sel if (_js := " in kernel
    assert "continue" not in kernel and " == " not in kernel


def test_one_inserted_policy_compiles_one_guard_branch(monkeypatch):
    """A maintained write hands the engine an OR that shares every
    branch node but one with its predecessor: the next execution
    compiles that branch and the dispatch shell around the cached rest
    — two small ``compile()`` calls where the parent recompiled the
    whole fused kernel."""
    from repro.core import Sieve
    from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
    from repro.policy.model import ObjectCondition, Policy
    from repro.policy.store import PolicyStore

    mall = generate_mall(MallConfig(seed=23, n_customers=100, days=8))
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall.policies)
    sieve = Sieve(mall.db, store)
    querier = mall.shop_querier(mall.shops[0])
    sql = f"SELECT * FROM {CONNECTIVITY_TABLE}"
    sieve.execute(sql, querier, "analytics")
    expression = sieve.guard_store.peek(querier, "analytics", CONNECTIVITY_TABLE)
    width = len(expression.guards)
    branch_entries = lambda: sum(e.extra[1] == "branch" for e in mall.db._fn_cache._entries)  # noqa: E731
    assert width >= 3 and branch_entries() == width

    sources = []
    compile_source = CodegenExprCompiler._exec
    monkeypatch.setattr(
        CodegenExprCompiler,
        "_exec",
        staticmethod(lambda src, env: sources.append(src) or compile_source(src, env)),
    )
    guard = expression.guards[0]
    store.insert(
        Policy(
            owner=guard.policies[0].owner, querier=querier, purpose="analytics",
            table=CONNECTIVITY_TABLE,
            object_conditions=(guard.condition, ObjectCondition("ts_date", ">=", 1, "<=", 3)),
        )
    )
    info = sieve.execute_with_info(sql, querier, "analytics")
    assert info.regenerated_tables == []
    branches = [src for src in sources if "(_r):" in src]
    shells = [src for src in sources if "_hits" in src]
    assert len(branches) == 1 and len(shells) == 1 and len(sources) == 2
    assert branch_entries() == width  # the retired branch's entry left as the new one came


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


# ------------------------------------------------- shape-keyed kernels


def conjunct_strategy():
    """Filter conjuncts the executor compiles per *shape*: comparisons,
    BETWEEN, IN, IS NULL and arithmetic over typed columns, combined by
    NOT / AND / OR (ORs up to four wide, so some nest a metered one),
    with NULL, NaN, bool, float and str constants."""

    def constant(name):
        return st.sampled_from(FAMILY[name]).map(Literal)

    def value(name):  # a column, or arithmetic over it
        ref = col(name)
        if name == "c":
            return st.just(ref)
        return st.one_of(
            st.just(ref),
            st.builds(Arith, st.sampled_from(["+", "-", "*", "/", "%"]), st.just(ref), constant(name)),
            st.builds(Arith, st.sampled_from(["+", "*"]), constant(name), st.just(col("d"))),
        )

    def leaf(name):
        return st.one_of(
            st.builds(Comparison, st.sampled_from(list(CompareOp)), value(name), constant(name)),
            st.builds(Comparison, st.sampled_from(list(CompareOp)), constant(name), value(name)),
            st.builds(Between, value(name), constant(name), constant(name), st.booleans()),
            st.builds(
                lambda e, ks, n: InList(e, tuple(ks), n),
                value(name),
                st.lists(constant(name), min_size=1, max_size=4),
                st.booleans(),
            ),
            st.builds(IsNull, value(name)),
            st.just(Comparison(CompareOp.LT, col("a"), col("b"))),
        )

    leaves = st.sampled_from(COLUMNS).flatmap(leaf)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.lists(inner, min_size=2, max_size=3).map(lambda xs: And(tuple(xs))),
            st.lists(inner, min_size=2, max_size=4).map(lambda xs: Or(tuple(xs))),
        ),
        max_leaves=8,
    )


def typed_rows(seed: int, n: int = 40) -> list[tuple]:
    rng = random.Random(seed)
    return [tuple(rng.choice(FAMILY[name]) for name in COLUMNS) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(conj=conjunct_strategy(), seed=st.integers(0, 30))
def test_shape_kernel_equals_literal_kernel_and_row_mode(conj, seed):
    """The kernel compiled from a conjunct's shape, applied to the
    conjunct's constants, keeps the indices — and charges the
    ``policy_evals`` — of the kernel compiled from the literal conjunct
    (what the parent cached per binding) and of the row function."""
    binding = make_binding()
    rows = typed_rows(seed)
    cols, sel = list(zip(*rows)), list(range(len(rows)))
    shape, consts = lift_constants(conj)

    def observe(run):
        counters = CounterSet()
        try:
            return run(CodegenExprCompiler(binding, counters=counters)), counters.policy_evals
        except TypeError as exc:  # an ordering across types, on the row that meets it
            return type(exc).__name__, None

    def by_row(compiler):
        fn = compiler.compile(conj)
        return [i for i in sel if fn(rows[i])]

    literal = observe(lambda compiler: compiler.compile_batch_predicate(conj)(cols, sel))
    shaped = observe(lambda compiler: compiler.compile_batch_predicate(shape)(cols, sel, consts))
    assert shaped == literal == observe(by_row)
    values = observe(lambda compiler: compiler.compile_batch_values(conj)(cols, sel))
    assert observe(lambda compiler: compiler.compile_batch_values(shape)(cols, sel, consts)) == values


def test_one_cache_entry_per_conjunct_shape():
    """Conjuncts that differ only in their constants run one compiled
    kernel; IN lists of different lengths (NULL members, negation) each
    keep their own answer; another operator is another shape; and an
    unbound parameter beside a literal still refuses to run."""
    from repro.common.errors import ExecutionError
    from repro.db.database import connect
    from repro.sql.parser import parse_query

    db = connect("postgres", page_size=16)
    from repro.storage.schema import Column

    db.create_table("t", Schema([Column("a", ColumnType.INT), Column("b", ColumnType.INT, nullable=True)]))
    rows = [(i % 7, None if i % 5 == 0 else i % 3) for i in range(60)]
    db.insert("t", rows)
    db.analyze()
    cache = db._fn_cache

    def run(where, keep):
        got = db.execute(f"SELECT a, b FROM t WHERE {where}").rows
        assert sorted(got, key=repr) == sorted(filter(keep, rows), key=repr), where

    run("a BETWEEN 1 AND 3 AND b IN (0, 1)", lambda r: 1 <= r[0] <= 3 and r[1] in (0, 1))
    held = len(cache)
    compiles = []
    real_exec = CodegenExprCompiler._exec
    CodegenExprCompiler._exec = staticmethod(lambda src, env: compiles.append(src) or real_exec(src, env))
    try:
        run("a BETWEEN 2 AND 6 AND b IN (2, 1)", lambda r: 2 <= r[0] <= 6 and r[1] in (1, 2))
        run("a BETWEEN 0 AND 0 AND b IN (2)", lambda r: r[0] == 0 and r[1] == 2)
        run("a BETWEEN 0 AND 9 AND b IN (0, 1, 2, NULL)", lambda r: r[1] is not None)
        assert compiles == [] and len(cache) == held
        run("a BETWEEN 0 AND 9 AND b NOT IN (0, NULL)", lambda r: r[1] in (1, 2))
        run("a < 3", lambda r: r[0] < 3)
        run("a <= 3", lambda r: r[0] <= 3)
        assert len(compiles) == 3 and len(cache) == held + 3
        with pytest.raises(ExecutionError, match="unbound parameter"):
            db.execute(parse_query("SELECT a FROM t WHERE a = 5 OR b = ?"))
        assert len(cache) == held + 3
    finally:
        CodegenExprCompiler._exec = staticmethod(real_exec)
    assert not cache._id_alias  # no binding above was seen twice: nothing aliased


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


def test_rowbatch_selection_and_narrow():
    from repro.engine.vector import RowBatch

    rows = [(i, i * 2) for i in range(10)]
    batch = RowBatch(rows)
    assert batch.indices() == list(range(10))
    cols = batch.columns()
    narrowed = batch.narrow([1, 4, 7])
    assert narrowed.take() == [rows[1], rows[4], rows[7]]
    assert narrowed.indices() == [1, 4, 7]
    assert narrowed.columns() is cols  # transpose shared, not recomputed
