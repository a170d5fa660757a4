"""A guard branch is a batch function, and a drained BitmapOr hands it
the rows of its own arm.

The batch executor's guard kernel groups a selection by each row's
candidate branches and calls every candidate branch once per group
(``fn(columns, indices) -> (hits, misses, charge)``); a BitmapOr whose
arms are point probes on the column the guard OR looks its branches up
by, when drained (a CTE's materialisation, a root scan), skips the look-
up: each arm key's rows go straight to the branches that key names.
Both must keep the tuple executor's rows, in its order, and every one of
its engine counters — over tombstones, NULL in the guard column, an
owner under two guards, a guard alone, conjuncts on both sides of the
guard OR and a Δ-style UDF call in a branch.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest

from repro.db.database import connect
from repro.engine.plans import BitmapOrPlan, IndexProbe, IndexScanPlan
from repro.engine.vector import VectorizedExecutor
from repro.expr.codegen import CodegenExprCompiler
from repro.expr.eval import RowBinding
from repro.optimizer.planner import PlannedQuery
from repro.sql.parser import parse_query
from repro.storage.schema import Column, ColumnType, Schema

#: Counters both executors charge (``batches`` is the batch executor's own).
ENGINE_COUNTERS = (
    "pages_sequential",
    "pages_random",
    "pages_bitmap",
    "tuples_scanned",
    "tuples_output",
    "predicate_evals",
    "policy_evals",
    "index_node_visits",
    "udf_invocations",
    "udf_policy_evals",
)

#: A guard OR: a metered partition behind ``owner = 1``, an ``IN`` head
#: overlapping the ``=`` head of owner 3 (so two arms find owner 3's
#: rows), a guard alone (owner 4), a four-wide partition, and a branch
#: whose remainder calls a UDF, as a Δ branch does.
GUARD = (
    "(owner = 1 AND (v BETWEEN 0 AND 10 OR v BETWEEN 20 AND 30 OR w = 3))"
    " OR (owner IN (2, 3) AND (v < 50 OR w > 5))"
    " OR (owner = 3 AND v >= 40)"
    " OR owner = 4"
    " OR (owner = 5 AND (v = 1 OR v = 2 OR w BETWEEN 2 AND 4 OR v > 90))"
    " OR (owner = 6 AND delta(owner, v))"
)

#: The arms a planner would probe for GUARD: one per branch head.
ARM_KEYS = ([1], [2, 3], [3], [4], [5], [6])


def make_db(seed: int, index_kind: str = "btree", nulls: bool = False, dead: int = 0, rows: int = 600):
    """``t(id, owner, v, w)``: ``rows`` rows over owners 0-8 (NULL owners
    when ``nulls``, with a hash index, which files them), ``dead`` of
    them deleted, and the UDF ``delta``."""
    rng = random.Random(seed)
    db = connect("postgres", page_size=16)
    db.create_table(
        "t",
        Schema(
            [
                Column("id", ColumnType.INT),
                Column("owner", ColumnType.INT, nullable=nulls),
                Column("v", ColumnType.INT),
                Column("w", ColumnType.INT),
            ]
        ),
    )
    owners = list(range(9)) + ([None, None] if nulls else [])
    db.insert("t", [(i, rng.choice(owners), rng.randrange(100), rng.randrange(8)) for i in range(rows)])
    db.create_index("t", "owner", kind=index_kind)
    db.create_index("t", "v")
    db.create_function("delta", lambda owner, v: None if v is None else v % 3 == 0)
    for rowid in rng.sample(range(rows), dead):
        db.delete_row("t", rowid)
    db.analyze()
    return db


def where(text: str):
    return parse_query(f"SELECT * FROM t WHERE {text}").body.where


def bitmap_plan(db, filter_text: str, keys=ARM_KEYS) -> BitmapOrPlan:
    index = db.catalog.indexes_on("t")[0].name
    return BitmapOrPlan(
        binding=RowBinding.for_table("t", db.catalog.table("t").schema.names),
        table_name="t",
        alias="t",
        arms=[(index, "owner", [IndexProbe.point(k) for k in arm]) for arm in keys],
        filter=where(filter_text),
    )


def run(db, plan, vectorized: bool):
    saved = db.vectorized
    db.vectorized = vectorized
    try:
        before = db.counters.snapshot()
        rows = db.run_plan(PlannedQuery(plan, {})).rows
        diff = db.counters.diff(before)
        return rows, {name: diff[name] for name in ENGINE_COUNTERS}
    finally:
        db.vectorized = saved


@pytest.fixture
def arm_calls(monkeypatch):
    """How often the arm path ran, counted per call."""
    calls = []
    real = VectorizedExecutor._arm_batches

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(VectorizedExecutor, "_arm_batches", counting)
    return calls


@pytest.mark.parametrize(
    "world",
    [
        dict(seed=1),
        dict(seed=2, dead=90),
        dict(seed=3, index_kind="hash", nulls=True),
        dict(seed=4, index_kind="hash", nulls=True, dead=150),
    ],
    ids=["plain", "tombstones", "null-owners", "null-owners-tombstones"],
)
@pytest.mark.parametrize(
    "filter_text",
    [GUARD, f"w >= 1 AND ({GUARD})", f"({GUARD}) AND v <> 7", f"w >= 1 AND ({GUARD}) AND v <> 7"],
    ids=["guard", "before", "after", "both"],
)
def test_drained_bitmap_or_by_arm_matches_the_tuple_executor(world, filter_text, arm_calls):
    db = make_db(**world)
    plan = bitmap_plan(db, filter_text)
    rows, oracle = run(db, plan, vectorized=False)
    assert rows and oracle["policy_evals"] > oracle["tuples_scanned"]  # not vacuous
    got, counters = run(db, plan, vectorized=True)
    assert arm_calls == [plan]  # the root scan is drained: by arm
    assert got == rows  # rowid order, as the bitmap heap scan reads them
    assert counters == oracle


def test_arms_on_another_column_take_the_sorted_union(arm_calls):
    """Arms whose index is not the column the guard looks its branches
    up by: no arm names a branch, so the union and the dispatch run."""
    db = make_db(5)
    plan = bitmap_plan(db, GUARD)
    plan.arms = [("idx_t_v", "v", [IndexProbe.point(k) for k in range(0, 100, 3)])]
    rows, oracle = run(db, plan, vectorized=False)
    assert run(db, plan, vectorized=True) == (rows, oracle)
    assert arm_calls == []


def test_a_branch_runs_once_per_arm(monkeypatch):
    """Each arm key's rows reach each branch it names in one call — the
    rows of that key only — and no branch it does not name."""
    db = make_db(6, dead=40)
    calls: list[tuple[int, set]] = []
    real = CodegenExprCompiler.compile_guard_branch

    def compile_guard_branch(self, branch, *args, **kwargs):
        fn = real(self, branch, *args, **kwargs)
        ordinal = len(calls_by_fn)
        calls_by_fn.append(fn)

        def counted(cols, idx):
            calls.append((ordinal, {cols[1][i] for i in idx}))  # column 1: owner
            return fn(cols, idx)

        return counted

    calls_by_fn: list = []
    monkeypatch.setattr(CodegenExprCompiler, "compile_guard_branch", compile_guard_branch)
    plan = bitmap_plan(db, GUARD)
    rows, oracle = run(db, plan, vectorized=False)
    assert run(db, plan, vectorized=True) == (rows, oracle)
    named = {1: [0], 2: [1], 3: [1, 2], 4: [3], 5: [4], 6: [5]}
    per_key: dict[tuple[int, int], int] = defaultdict(int)
    for ordinal, owners in calls:
        (owner,) = owners  # one arm's rows, one owner
        assert ordinal in named[owner]
        per_key[ordinal, owner] += 1
    assert calls and max(per_key.values()) == 1
    assert len(calls) <= sum(map(len, named.values()))


def test_index_scan_hits_keep_the_key_order():
    """An IndexScan's selection is in key order, not rowid order: the
    guard kernel's hits from several candidate groups come back in that
    order, as the tuple executor returns them — NULL owners, which no
    branch can hold for, among them."""
    db = make_db(7, index_kind="hash", nulls=True, dead=30)
    plan = IndexScanPlan(
        binding=RowBinding.for_table("t", db.catalog.table("t").schema.names),
        table_name="t",
        alias="t",
        index_name="idx_t_v",
        column="v",
        probes=[IndexProbe.range(60, None), IndexProbe.range(None, 30)],
        filter=where(GUARD),
    )
    rows, oracle = run(db, plan, vectorized=False)
    got, counters = run(db, plan, vectorized=True)
    owners = {row[1] for row in rows}
    assert len(owners) > 2 and rows != sorted(rows)
    assert any(row[1] is None for row in db.catalog.table("t").slots if row)  # several groups, not in rowid order
    assert got == rows
    assert counters == oracle
