"""A warm read runs its cached plan as bound.

A CTE whose body is a table scan — what every Sieve rewrite reads its
guarded relation through — is held as the rowids the scan admitted over
the heap and read in slices of ``BATCH_ROWS`` rowids; any other body
(aggregate, DISTINCT, join) still materialises tuples.  And the batch
executor files what it resolves for a plan node — its predicates'
stages, its value functions, a drained BitmapOr's arm dispatch — in the
plan's own dict (``PlannedQuery.resolved``) on the plan's first
execution, so a repeat makes no compiled-expression look-up; the dict
lives and dies with the plan, and nothing holding a subquery is filed.

Every case keeps the tuple executor's rows and counters, on the first
execution and on the repeat, and the figures the engine charged before
either change (``PINNED``: ``CounterSet`` order, ``batches`` included).
"""

from __future__ import annotations

import dataclasses
import gc
import pathlib
import re
import weakref

import pytest

from repro.core import Sieve
from repro.db.counters import CounterSet
from repro.engine.plans import AggSpec, BitmapOrPlan, IndexScanPlan, PlanNode, SeqScanPlan
from repro.engine.vector import BATCH_ROWS, BatchPredicate, VectorizedExecutor
from repro.expr.analysis import contains_subquery
from repro.expr.nodes import ColumnRef
from repro.optimizer.planner import PlannedQuery
from repro.policy.groups import GroupDirectory
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore

from tests.conftest import make_policies, make_wifi_db
from tests.test_guard_arms import GUARD, bitmap_plan, make_db

COUNTERS = CounterSet._COUNTER_NAMES
#: Counters the tuple executor charges too (``batches`` is the batch executor's own).
SHARED = tuple(name for name in COUNTERS if name != "batches")

WORLDS = {
    "plain": dict(seed=1),
    "tombstones": dict(seed=2, dead=90),
    "null-owners": dict(seed=3, index_kind="hash", nulls=True),
    "null-owners-tombstones": dict(seed=4, index_kind="hash", nulls=True, dead=150),
}

G = f"WITH g AS (SELECT * FROM t WHERE {GUARD}) "

QUERIES = {
    "self-join": G + "SELECT a.id, b.id FROM g a JOIN g b ON a.owner = b.owner WHERE a.v < 20 AND b.w = 3",
    "in-subquery": G + "SELECT id, v FROM g WHERE owner IN (SELECT owner FROM g WHERE w = 7)",
    "scalar-subquery": G + "SELECT id, (SELECT COUNT(*) FROM g WHERE v > 90) FROM g WHERE w = 1",
    "index-scan-body": f"WITH g AS (SELECT * FROM t WHERE v BETWEEN 10 AND 12 AND ({GUARD})) SELECT id, owner FROM g",
    "aggregate-body": f"WITH g AS (SELECT owner, COUNT(*) AS n FROM t WHERE {GUARD} GROUP BY owner)"
    " SELECT owner, n FROM g WHERE n > 3",
    "distinct-body": f"WITH g AS (SELECT DISTINCT owner, w FROM t WHERE {GUARD}) SELECT owner, w FROM g WHERE w > 2",
    "join-body": "WITH g AS (SELECT a.id, b.v FROM t a JOIN t b ON a.id = b.id WHERE a.owner = 4)"
    " SELECT id FROM g WHERE v > 50",
}

#: Bodies that are no table scan: their rows are tuples.
TUPLE_BODIES = {"aggregate-body", "distinct-body", "join-body"}


def plans(db, sql: str) -> dict[str, PlannedQuery]:
    """``sql``'s plan, and, where its CTE body is a scan of ``t`` under
    the guard, the same plan reading the CTE through a BitmapOr of the
    guard's ``owner`` arms (drained: the arm dispatch)."""
    planned = db.plan(sql)
    found = {"planned": planned}
    if sql.startswith(G):
        found["bitmap-or"] = PlannedQuery(planned.root, {"g": bitmap_plan(db, GUARD)})
    return found


def run(db, planned: PlannedQuery, vectorized: bool) -> tuple[list, dict]:
    saved = db.vectorized
    db.vectorized = vectorized
    try:
        before = db.counters.snapshot()
        rows = db.run_plan(planned).rows
        return rows, db.counters.diff(before)
    finally:
        db.vectorized = saved


def figures(counters: dict) -> tuple:
    return tuple(counters[name] for name in COUNTERS)


#: The batch executor's counters for each case on the
#: ``null-owners-tombstones`` world, as the engine charged them before
#: CTEs were held as selections and plans resolved once.
PINNED = {
    ('self-join', 'planned'): (38, 0, 0, 792, 178, 792, 2519, 0, 41, 0, 7, 0, 0),
    ('self-join', 'bitmap-or'): (0, 0, 38, 602, 178, 602, 1379, 7, 41, 0, 8, 0, 0),
    ('in-subquery', 'planned'): (38, 0, 0, 792, 117, 792, 2519, 0, 41, 0, 7, 0, 0),
    ('in-subquery', 'bitmap-or'): (0, 0, 38, 602, 117, 602, 1379, 7, 41, 0, 8, 0, 0),
    ('scalar-subquery', 'planned'): (38, 0, 0, 792, 23, 792, 2519, 0, 41, 0, 7, 0, 0),
    ('scalar-subquery', 'bitmap-or'): (0, 0, 38, 602, 23, 602, 1379, 7, 41, 0, 8, 0, 0),
    ('index-scan-body', 'planned'): (0, 10, 0, 14, 4, 10, 63, 2, 1, 0, 2, 0, 0),
    ('aggregate-body', 'planned'): (38, 0, 0, 456, 6, 456, 2519, 0, 41, 0, 6, 0, 0),
    ('distinct-body', 'planned'): (38, 0, 0, 492, 25, 492, 2519, 0, 41, 0, 6, 0, 0),
    ('join-body', 'planned'): (76, 0, 0, 947, 24, 497, 0, 0, 0, 0, 11, 0, 0),
}


@pytest.mark.parametrize("world", list(WORLDS), ids=list(WORLDS))
@pytest.mark.parametrize("name", list(QUERIES), ids=list(QUERIES))
def test_a_cte_read_matches_the_tuple_executor_first_and_warm(world, name):
    """Rows and every shared counter equal the tuple executor's, on the
    plan's first execution (which files what it resolves) and on its
    repeat (which reads it back); ``batches`` too is the same both
    times, and equal to the pinned figure where there is one."""
    db = make_db(**WORLDS[world])
    for path, planned in plans(db, QUERIES[name]).items():
        rows, oracle = run(db, planned, vectorized=False)
        first = run(db, planned, vectorized=True)
        assert planned.resolved, (name, path)  # the first execution filed
        warm = run(db, planned, vectorized=True)
        assert first == warm, (name, path)
        got, counters = warm
        assert got == rows, (name, path)
        assert {k: counters[k] for k in SHARED} == {k: oracle[k] for k in SHARED}, (name, path)
        if world == "null-owners-tombstones":
            assert figures(counters) == PINNED[name, path], (name, path)


def test_a_scan_body_is_held_as_heap_rowids(monkeypatch):
    """A scan's CTE is one table-backed batch — the heap's slots and
    column arrays under the admitted rowids, in scan order — and any
    other body's rows are tuples."""
    held: dict[str, list] = {}
    real = VectorizedExecutor._materialise

    def materialise(self, plan):
        batch = real(self, plan)
        held.setdefault(name, []).append((plan, batch))
        return batch

    monkeypatch.setattr(VectorizedExecutor, "_materialise", materialise)
    db = make_db(**WORLDS["null-owners-tombstones"])
    table = db.catalog.table("t")
    for name, sql in QUERIES.items():
        for planned in plans(db, sql).values():
            db.run_plan(planned)
    for name, seen in held.items():
        for plan, batch in seen:
            if name in TUPLE_BODIES:
                assert not isinstance(plan, (SeqScanPlan, IndexScanPlan, BitmapOrPlan)), name
                assert batch.sel is None, name
                continue
            assert isinstance(plan, (SeqScanPlan, IndexScanPlan, BitmapOrPlan)), name
            assert batch.rows is table.slots and batch.columns() is table.column_arrays(), name
            assert batch.sel and all(table.slots[rowid] is not None for rowid in batch.sel), name
            assert len(set(batch.sel)) == len(batch.sel), name
    assert set(held) == set(QUERIES)


def test_a_cte_is_read_in_slices_of_batch_rows():
    """Over 1 024 admitted rowids: each reference reads them in slices
    of ``BATCH_ROWS``, one ``batches`` tick and ``len(slice)`` scanned
    tuples each, as a chunk of copied rows was charged."""
    db = make_db(5, rows=3000)
    sql = "WITH g AS (SELECT * FROM t WHERE w >= 1) SELECT COUNT(*), SUM(v) FROM g"
    planned = db.plan(sql)
    assert isinstance(planned.cte_plans["g"], SeqScanPlan)
    rows, oracle = run(db, planned, vectorized=False)
    got, counters = run(db, planned, vectorized=True)
    admitted = rows[0][0]
    assert admitted > 2 * BATCH_ROWS
    slices = -(-admitted // BATCH_ROWS)
    scan_batches = -(-db.catalog.table("t").slot_count // (16 * 8))  # BATCH_PAGES pages of 16 rows
    assert got == rows and {k: counters[k] for k in SHARED} == {k: oracle[k] for k in SHARED}
    assert counters["batches"] == scan_batches + slices
    assert figures(counters) == (188, 0, 0, 5640, 1, 3000, 0, 0, 0, 0, 27, 0, 0)


def plan_nodes(planned: PlannedQuery) -> dict[int, PlanNode]:
    """Every node of the plan and of its CTE plans, by id."""
    nodes: dict[int, PlanNode] = {}
    pending = [planned.root, *planned.cte_plans.values()]
    while pending:
        node = pending.pop()
        if node is None:
            continue
        nodes[id(node)] = node
        pending += [getattr(node, attr, None) for attr in ("child", "left", "right")]
    return nodes


#: Plans whose filter holds an ``IN`` subquery, and a row whose insert
#: changes that subquery's answer: through the planned CTE scan, and
#: through a drained BitmapOr whose arm path runs the subquery conjunct
#: before the guard.
SUBQUERY_PLANS = {
    "planned": lambda db: db.plan(G + "SELECT id FROM g WHERE id IN (SELECT id FROM t WHERE w = 7) AND v > 10"),
    "bitmap-or": lambda db: PlannedQuery(
        bitmap_plan(db, f"v IN (SELECT v FROM t WHERE id >= 10000) AND ({GUARD})"), {}
    ),
}


@pytest.mark.parametrize("path", list(SUBQUERY_PLANS), ids=list(SUBQUERY_PLANS))
def test_nothing_of_a_subquery_is_filed(path, monkeypatch):
    """Keys name nodes of the plan itself — never a node of a subquery's
    plan, which is planned afresh per execution — and nothing of a node
    whose expressions hold a subquery, a drained BitmapOr's arm dispatch
    included: its stages carry the subquery's answer, which a write can
    change between two executions."""
    arm_runs = []
    real = VectorizedExecutor._arm_batches

    def arm_batches(self, *args):
        arm_runs.append(args[0])
        return real(self, *args)

    monkeypatch.setattr(VectorizedExecutor, "_arm_batches", arm_batches)
    db = make_db(6)
    planned = SUBQUERY_PLANS[path](db)
    assert run(db, planned, vectorized=True)[0] == run(db, planned, vectorized=False)[0]
    assert bool(arm_runs) == (path == "bitmap-or")
    nodes = plan_nodes(planned)
    for node_id, role in planned.resolved:
        assert node_id in nodes, role
        assert not any(map(contains_subquery, nodes[node_id].expressions())), role
    # The subquery's answer moves: a filed stage would keep the old one.
    db.insert("t", [(10_000, 4, 60, 7)])
    got = run(db, planned, vectorized=True)[0]
    assert got == run(db, planned, vectorized=False)[0]
    assert got and got[-1][0] == 10_000, got


def test_a_node_names_every_expression_it_holds():
    """``PlanNode.expressions()`` decides whether a node's resolved
    stages may be filed, so every plan node names each expression field
    it has — single, listed, or an aggregate's argument."""
    for cls in PlanNode.__subclasses__():
        node, held = cls(), []
        for spec in dataclasses.fields(cls):
            made = ColumnRef(spec.name)
            if spec.type == "Optional[Expr]":
                setattr(node, spec.name, made)
            elif spec.type == "list[Expr]":
                setattr(node, spec.name, [made])
            elif spec.type == "list[AggSpec]":
                setattr(node, spec.name, [AggSpec("sum", made), AggSpec("count")])
            else:
                assert "Expr" not in spec.type, (cls.__name__, spec.name)
                continue
            held.append(made)
        assert [id(e) for e in node.expressions()] == [id(e) for e in held], cls.__name__


def test_a_repeat_execution_makes_no_compiled_cache_lookup():
    """The second execution of one plan resolves nothing: the compiled-
    expression cache's hits and misses stand still — through
    ``db.run_plan`` and through ``Sieve.serve``'s plan cache."""
    db = make_db(7)
    cache = db.expr_cache
    for name, sql in QUERIES.items():
        if name in ("in-subquery", "scalar-subquery"):  # a subquery's kernels are built per execution
            continue
        planned = db.plan(sql)
        db.run_plan(planned)
        looked = cache.hits + cache.misses
        db.run_plan(planned)
        assert cache.hits + cache.misses == looked, sql

    db, _rows, store, sieve = wifi_world(vectorized=True)
    cache = db.expr_cache
    for sql in WIFI_QUERIES:
        sieve.serve(sql, "prof", "analytics")
        sieve.serve(sql, "prof", "analytics")
        looked = cache.hits + cache.misses
        sieve.serve(sql, "prof", "analytics")
        assert cache.hits + cache.misses == looked, sql


def resolved_refs(planned: PlannedQuery) -> list[weakref.ref]:
    """Weak references to the batch predicates and value functions the
    plan's executions filed."""
    refs = []
    for value in planned.resolved.values():
        if isinstance(value, tuple):  # a BitmapOr's filter and its arm dispatch
            value = value[0]
        if isinstance(value, BatchPredicate):
            refs.append(weakref.ref(value))
        elif isinstance(value, list):
            refs += [weakref.ref(fn) for fn in value if fn is not None]
    return refs


def test_an_evicted_plan_takes_its_resolved_stages_along():
    """What a plan resolved lives in the plan's own dict: dropping the
    plan — a PlannedQuery let go, or an entry the plan cache evicts —
    frees its stages."""
    db = make_db(8)
    planned = db.plan(G + "SELECT id FROM g WHERE v < 50")
    db.run_plan(planned)
    refs = resolved_refs(planned)
    assert refs
    del planned
    gc.collect()
    assert all(ref() is None for ref in refs)

    db, _rows, store, _sieve = wifi_world(vectorized=True)
    sieve = Sieve(db, store, plan_cache_capacity=2)
    sieve.serve(WIFI_QUERIES[0], "prof", "analytics")
    epoch, version = store.snapshot().epoch, db.plan_version
    (held,) = [sieve.plan_cache.lookup(key, epoch, version).planned for key in sieve.plan_cache.keys() if len(key) == 4]
    refs = resolved_refs(held)
    assert refs
    del held
    for sql in WIFI_QUERIES[1:]:  # each admits a rewrite and a plan: the first plan is evicted
        sieve.serve(sql, "prof", "analytics")
    gc.collect()
    assert all(ref() is None for ref in refs)


# ----------------------------------------------------- through Sieve

WIFI_QUERIES = [
    "SELECT * FROM wifi WHERE ts_date BETWEEN 10 AND 70",
    "SELECT id, owner FROM wifi WHERE wifiap = 3",
    "SELECT COUNT(*) FROM wifi",
    "SELECT owner, COUNT(*) FROM wifi GROUP BY owner",
]


def wifi_world(vectorized: bool):
    db, rows = make_wifi_db(personality="postgres", n_rows=3000, n_owners=20, seed=3)
    db.vectorized = vectorized
    store = PolicyStore(db, GroupDirectory())
    store.insert_many(make_policies(n_owners=20, per_owner=2, seed=4))
    return db, rows, store, Sieve(db, store)


def test_a_policy_write_between_two_executions():
    """Warm reads, a policy write, then the same reads again, through
    ``Sieve.serve``: each read's rows and counters equal the tuple
    executor's, and its figures are the pinned ones."""
    product, oracle = wifi_world(vectorized=True), wifi_world(vectorized=False)
    got: list[tuple] = []
    for phase in range(3):
        if phase == 2:
            for _db, _rows, store, _sieve in (product, oracle):
                store.insert(
                    Policy(
                        owner=7,
                        querier="prof",
                        purpose="analytics",
                        table="wifi",
                        object_conditions=(ObjectCondition("owner", "=", 7), ObjectCondition("wifiap", "=", 3)),
                    )
                )
        for sql in WIFI_QUERIES:
            answers = []
            for db, _rows, _store, sieve in (product, oracle):
                before = db.counters.snapshot()
                result = sieve.serve(sql, "prof", "analytics").result
                answers.append((result.rows, db.counters.diff(before)))
            (rows, counters), (oracle_rows, oracle_counters) = answers
            assert rows == oracle_rows, (phase, sql)
            assert {k: counters[k] for k in SHARED} == {k: oracle_counters[k] for k in SHARED}, (phase, sql)
            got.append(figures(counters))
    assert got[4:8] == got[0:4]  # a warm read charges as the first one did
    assert got == PINNED_SIEVE


#: ``test_a_policy_write_between_two_executions``'s figures, read by
#: read, as the engine charged them before CTEs were held as selections
#: and plans resolved once.
PINNED_SIEVE = [
    (24, 0, 0, 3599, 599, 3599, 43240, 0, 0, 0, 4, 0, 0),
    (24, 0, 0, 3029, 29, 3029, 2073, 0, 0, 0, 4, 0, 0),
    (24, 0, 0, 3722, 1, 3000, 64727, 0, 0, 0, 4, 0, 0),
    (24, 0, 0, 3722, 20, 3000, 64727, 0, 0, 0, 4, 0, 0),
    (24, 0, 0, 3599, 599, 3599, 43240, 0, 0, 0, 4, 0, 0),
    (24, 0, 0, 3029, 29, 3029, 2073, 0, 0, 0, 4, 0, 0),
    (24, 0, 0, 3722, 1, 3000, 64727, 0, 0, 0, 4, 0, 0),
    (24, 0, 0, 3722, 20, 3000, 64727, 0, 0, 0, 4, 0, 0),
    (24, 0, 0, 3602, 602, 3602, 43237, 0, 0, 0, 4, 0, 0),
    (24, 0, 0, 3033, 33, 3033, 2069, 0, 0, 0, 4, 0, 0),
    (24, 0, 0, 3726, 1, 3000, 64723, 0, 0, 0, 4, 0, 0),
    (24, 0, 0, 3726, 20, 3000, 64723, 0, 0, 0, 4, 0, 0),
]


# ------------------------------------------------------------- the rule

#: Files under ``src/`` that store a memo on a shared node with
#: ``object.__setattr__``, and how many times each does.
SETATTR_SITES = {
    "core/cost_model.py": 1,
    "expr/analysis.py": 2,
    "expr/nodes.py": 1,
    "expr/params.py": 1,
    "optimizer/cardinality.py": 2,
    "optimizer/planner.py": 1,
    "policy/model.py": 1,
    "sql/parser.py": 1,
}


def test_no_new_object_setattr_under_src():
    """Per-binding state lives with the plan-cache entry, never on a
    plan or ``Expr`` node: nothing under ``src/`` calls
    ``object.__setattr__`` anywhere it did not already."""
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    found = {}
    for path in sorted(package.rglob("*.py")):
        count = len(re.findall(r"object\.__setattr__\(", path.read_text()))
        if count:
            found[path.relative_to(package).as_posix()] = count
    assert found == SETATTR_SITES
