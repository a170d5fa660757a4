"""Differential harness: vectorized executor vs the tuple-at-a-time oracle.

The batch executor must be semantically invisible: for every workload
(Mall, TIPPERS), every execution strategy (LinearScan / IndexQuery /
IndexGuards) and Δ on/off, the product engine (batch executor +
generated code, whose fallback subtrees run the tuple executor on
generated row functions) must return the row sets of the oracle — the
tuple-at-a-time closure interpreter, ``db.vectorized = False`` — and
so must the per-tuple counters
(``policy_evals``, ``predicate_evals``, ``tuples_scanned``, page
counters, UDF counters), which is what makes the paper's cost-unit
shapes independent of the execution mode.  Random-query property
tests cover the engine substrate beyond the guarded workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Sieve
from repro.core.strategy import Strategy, StrategyDecision
from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
from repro.datasets.policies import PolicyGenConfig, generate_campus_policies
from repro.datasets.tippers import TippersConfig, WIFI_TABLE, generate_tippers
from repro.db.database import connect
from repro.policy.store import PolicyStore
from repro.sql.parser import parse_query
from repro.storage.schema import ColumnType, Schema

#: Engine-level counters that must be identical across execution modes.
#: ``batches`` / ``expr_cache_*`` are intentionally excluded: they
#: describe the execution mechanism itself, not the work done.
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

#: (label, vectorized): the one product mode; the oracle is
#: ``vectorized=False``.
MODES = [("vectorized", True)]


def run_mode(db, query, vectorized: bool):
    """Execute under one engine mode; returns (rows, engine counters).
    An oracle run must not touch the compiled-expression cache — it
    shares no compiled code with the product it is compared against."""
    saved = db.vectorized
    db.vectorized = vectorized
    try:
        before = db.counters.snapshot()
        result = db.execute(query)
        diff = db.counters.diff(before)
    finally:
        db.vectorized = saved
    if not vectorized:
        assert diff["expr_cache_hits"] == 0 and diff["expr_cache_misses"] == 0
    return result, {k: diff[k] for k in ENGINE_COUNTERS}


def assert_modes_identical(db, query, context: str = ""):
    oracle_result, oracle_counters = run_mode(db, query, False)
    for label, vectorized in MODES:
        result, counters = run_mode(db, query, vectorized)
        assert result.rows == oracle_result.rows, f"{context}: rows diverged in {label}"
        assert [c.lower() for c in result.columns] == [
            c.lower() for c in oracle_result.columns
        ], f"{context}: columns diverged in {label}"
        assert counters == oracle_counters, (
            f"{context}: counters diverged in {label}: "
            f"{ {k: (oracle_counters[k], counters[k]) for k in counters if counters[k] != oracle_counters[k]} }"
        )
    return oracle_result


# ----------------------------------------------------------- sieve worlds


@dataclass
class VecWorld:
    name: str
    db: object
    store: PolicyStore
    sieve: Sieve
    table: str
    queriers: list = field(default_factory=list)
    queries: list[str] = field(default_factory=list)
    purpose: str = "analytics"


@pytest.fixture(scope="module")
def tippers_world() -> VecWorld:
    dataset = generate_tippers(
        TippersConfig(seed=17, n_devices=120, days=10, personality="mysql")
    )
    campus = generate_campus_policies(dataset, PolicyGenConfig(seed=18))
    store = PolicyStore(dataset.db, dataset.groups)
    store.insert_many(campus.policies)
    queriers = [
        campus.designated_queriers["faculty"][0],
        campus.designated_queriers["staff"][0],
    ]
    return VecWorld(
        name="tippers",
        db=dataset.db,
        store=store,
        sieve=Sieve(dataset.db, store),
        table=WIFI_TABLE,
        queriers=queriers,
        queries=[
            f"SELECT * FROM {WIFI_TABLE}",
            f"SELECT * FROM {WIFI_TABLE} WHERE ts_date BETWEEN 2 AND 8",
            f"SELECT wifiAP, count(*) AS n FROM {WIFI_TABLE} "
            f"WHERE ts_date >= 3 GROUP BY wifiAP",
            f"SELECT owner, ts_time FROM {WIFI_TABLE} "
            f"WHERE ts_time BETWEEN 540 AND 780 ORDER BY ts_time DESC, owner LIMIT 25",
        ],
    )


@pytest.fixture(scope="module")
def mall_world() -> VecWorld:
    mall = generate_mall(
        MallConfig(seed=23, n_customers=100, days=8, personality="postgres")
    )
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall.policies)
    queriers = [mall.shop_querier(s) for s in mall.shops[:2]]
    return VecWorld(
        name="mall",
        db=mall.db,
        store=store,
        sieve=Sieve(mall.db, store),
        table=CONNECTIVITY_TABLE,
        queriers=queriers,
        queries=[
            f"SELECT * FROM {CONNECTIVITY_TABLE}",
            f"SELECT * FROM {CONNECTIVITY_TABLE} WHERE ts_date BETWEEN 1 AND 6",
            f"SELECT shop_id, count(*) AS n FROM {CONNECTIVITY_TABLE} "
            f"WHERE ts_date >= 2 GROUP BY shop_id",
            f"SELECT owner FROM {CONNECTIVITY_TABLE} "
            f"WHERE ts_time BETWEEN 660 AND 900 ORDER BY ts_time, owner LIMIT 10",
        ],
    )


def _world(request, name: str) -> VecWorld:
    return request.getfixturevalue(f"{name}_world")


WORKLOADS = ["tippers", "mall"]


# --------------------------------------------------------- end-to-end path


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sieve_rewrites_identical_across_modes(request, workload):
    """Every Sieve rewrite executes identically (rows + counters) in
    every engine mode, for every querier and query."""
    world = _world(request, workload)
    compared = 0
    for querier in world.queriers:
        for sql in world.queries:
            rewritten = world.sieve.rewrite(sql, querier, world.purpose)
            assert_modes_identical(
                world.db, rewritten, context=f"{workload}/{querier}/{sql}"
            )
            compared += 1
    assert compared == len(world.queriers) * len(world.queries)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_execution_info_names_engine_tier(request, workload):
    """SieveExecution.engine reflects the database's engine mode."""
    world = _world(request, workload)
    sql = f"SELECT * FROM {world.table}"
    saved = world.db.vectorized
    try:
        world.db.vectorized = True
        info = world.sieve.execute_with_info(sql, world.queriers[0], world.purpose)
        assert info.engine == "vectorized"
        world.db.vectorized = False
        info = world.sieve.execute_with_info(sql, world.queriers[0], world.purpose)
        assert info.engine == "tuple"
    finally:
        world.db.vectorized = saved


@pytest.mark.parametrize("workload", WORKLOADS)
def test_vectorized_path_actually_engaged(request, workload):
    """Guard against silent whole-plan fallback: the vectorized run of
    a guarded scan must form batches."""
    world = _world(request, workload)
    rewritten = world.sieve.rewrite(
        f"SELECT * FROM {world.table}", world.queriers[0], world.purpose
    )
    saved = world.db.vectorized
    world.db.vectorized = True
    try:
        before = world.db.counters.snapshot()
        world.db.execute(rewritten)
        diff = world.db.counters.diff(before)
    finally:
        world.db.vectorized = saved
    assert diff["batches"] > 0


# ------------------------------------------------------- forced strategies


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
@pytest.mark.parametrize("delta_on", [False, True], ids=["inline", "delta"])
def test_strategy_matrix_identical(request, workload, strategy, delta_on):
    """Every (workload, strategy, Δ on/off) rewrite runs identically —
    rows and per-tuple counters — in every engine mode."""
    world = _world(request, workload)
    sieve = world.sieve
    table_lc = world.table.lower()
    checked = 0
    for querier in world.queriers:
        expression, _ = sieve.guarded_expression_for(querier, world.purpose, world.table)
        if not expression.guards:
            continue
        if delta_on:
            delta_guards = frozenset(
                i
                for i, g in enumerate(expression.guards)
                if not any(p.has_derived_conditions for p in g.policies)
            )
        else:
            delta_guards = frozenset()
        decision = StrategyDecision(
            strategy=strategy,
            query_index_column="ts_date" if strategy is Strategy.INDEX_QUERY else None,
            delta_guards=delta_guards,
        )
        for sql in world.queries[1:3]:
            query = parse_query(sql)
            rewritten, _info = sieve.rewriter.rewrite(
                query, {table_lc: expression}, {table_lc: decision}, set()
            )
            assert_modes_identical(
                world.db,
                rewritten,
                context=f"{workload}/{strategy.value}/delta={delta_on}/{querier}",
            )
            checked += 1
    assert checked > 0


# --------------------------------------------------------- random queries


def _build_random_db(seed: int, personality: str):
    rng = random.Random(seed)
    db = connect(personality, page_size=16)
    db.create_table(
        "t",
        Schema.of(
            ("id", ColumnType.INT),
            ("a", ColumnType.INT),
            ("b", ColumnType.INT),
            ("c", ColumnType.INT),
        ),
    )
    rows = [
        (i, rng.randrange(10), rng.randrange(50), rng.randrange(1000))
        for i in range(300)
    ]
    db.insert("t", rows)
    db.create_index("t", "a")
    db.create_index("t", "b")
    db.analyze()
    return db


_QUERIES = [
    "SELECT * FROM t WHERE a = 3 OR b < 5 OR c > 950",
    "SELECT * FROM t WHERE a IN (1, 2, 3) AND (b BETWEEN 10 AND 30 OR c < 50 OR b > 45)",
    "SELECT a, count(*) AS n, sum(c) AS s FROM t WHERE b >= 10 GROUP BY a",
    "SELECT id, c FROM t ORDER BY c DESC, id LIMIT 7",
    "SELECT id, a + b AS ab FROM t WHERE NOT a = 2 ORDER BY ab, id LIMIT 11",
    "SELECT DISTINCT a FROM t WHERE b < 20 UNION SELECT DISTINCT a FROM t WHERE b >= 40",
    "SELECT t.id, u.c FROM t, t AS u WHERE t.a = u.a AND t.b < 4 AND u.b < 4",
    "SELECT count(*) AS n FROM t WHERE a = (SELECT min(a) FROM t)",
    "SELECT * FROM t WHERE a IN (SELECT a FROM t WHERE c > 900) ORDER BY id LIMIT 9",
    "SELECT a, b FROM t WHERE c % 7 = 0 OR b / 2 > 20 OR a = 9",
    # Bare LIMIT (no ORDER BY): terminates the scan mid-stream, so the
    # whole subtree must run tuple-at-a-time for counter parity.
    "SELECT * FROM t LIMIT 5",
    "SELECT id FROM t WHERE b < 40 LIMIT 17",
]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 200),
    sql=st.sampled_from(_QUERIES),
    personality=st.sampled_from(["mysql", "postgres"]),
)
def test_random_queries_identical_across_modes(seed, sql, personality):
    db = _build_random_db(seed, personality)
    assert_modes_identical(db, sql, context=f"{personality}/{sql}")


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 200),
    limit=st.integers(1, 40),
    directions=st.tuples(st.booleans(), st.booleans()),
)
def test_topk_fusion_matches_full_sort(seed, limit, directions):
    """ORDER BY + LIMIT (the fused top-k) equals the full sort's prefix
    in every mode, for every direction combination."""
    db = _build_random_db(seed, "mysql")
    d1 = "ASC" if directions[0] else "DESC"
    d2 = "ASC" if directions[1] else "DESC"
    full = db.execute(f"SELECT id, a, c FROM t ORDER BY a {d1}, c {d2}, id")
    limited = assert_modes_identical(
        db,
        f"SELECT id, a, c FROM t ORDER BY a {d1}, c {d2}, id LIMIT {limit}",
        context=f"top-k {d1}/{d2}/{limit}",
    )
    assert limited.rows == full.rows[:limit]


# --------------------------------------------------- table-backed batches


def _scan_plans(db):
    """A SeqScan, an IndexScan whose probes overlap (the same rowid
    from several) and a BitmapOr, built by hand so each runs whatever
    the optimizer would have preferred on a table this small."""
    from repro.engine.plans import BitmapOrPlan, IndexProbe, IndexScanPlan, SeqScanPlan
    from repro.expr.eval import RowBinding
    from repro.sql.parser import parse_query

    binding = RowBinding.for_table("t", db.catalog.table("t").schema.names)
    where = parse_query("SELECT * FROM t WHERE c >= 100 AND (a = 1 OR a = 3 OR b < 30)").body.where
    common = dict(binding=binding, table_name="t", alias="t", filter=where, batchable=True)
    return {
        "seq": SeqScanPlan(**common),
        "index": IndexScanPlan(
            index_name="idx_t_b",
            column="b",
            probes=[IndexProbe.range(2, 12), IndexProbe.point(8), IndexProbe.range(8, 20, False)],
            **common,
        ),
        "bitmap": BitmapOrPlan(
            arms=[
                ("idx_t_a", "a", [IndexProbe.point(3), IndexProbe.point(4)]),
                ("idx_t_b", "b", [IndexProbe.range(None, 9), IndexProbe.point(3)]),
            ],
            **common,
        ),
    }


def _run_plan(db, plan, vectorized: bool):
    from repro.optimizer.planner import PlannedQuery

    saved = db.vectorized
    db.vectorized = vectorized
    try:
        before = db.counters.snapshot()
        result = db.run_plan(PlannedQuery(plan, {}))
        return result.rows, db.counters.diff(before)
    finally:
        db.vectorized = saved


def test_table_backed_scans_match_tuple_path_after_every_write_kind():
    """SeqScan, multi-probe IndexScan and BitmapOr read the heap in
    place; after deletes (a stale index entry and a wholly dead page
    among them), an update and inserts they return the tuple path's
    rows and charge every one of its counters."""
    from repro.engine.vector import BATCH_PAGES

    db = _build_random_db(5, "postgres")  # 300 rows, 16 to a page
    table = db.catalog.table("t")

    def check(stage: str):
        for name, plan in _scan_plans(db).items():
            rows, oracle = _run_plan(db, plan, vectorized=False)
            batch_rows, counters = _run_plan(db, plan, vectorized=True)
            assert batch_rows == rows, f"{stage}/{name}: rows diverged"
            batches = counters["batches"]
            oracle, counters = ({k: diff[k] for k in ENGINE_COUNTERS} for diff in (oracle, counters))
            assert counters == oracle, f"{stage}/{name}: " + str(
                {k: (oracle[k], v) for k, v in counters.items() if v != oracle[k]}
            )
            assert rows and oracle["tuples_scanned"] > len(rows), f"{stage}/{name}: vacuous"
            paged = {"seq": "pages_sequential", "index": "pages_random", "bitmap": "pages_bitmap"}
            assert oracle[paged[name]] > 0 and (name == "seq" or oracle["index_node_visits"] > 0)
            if name == "seq":  # one batch per 8-page stretch holding a live row
                step = 16 * BATCH_PAGES
                assert batches == len({rowid // step for rowid in table.iter_rowids()})
            else:
                assert batches == 1
        arrays = table.column_arrays()
        assert len(arrays[0]) == table.slot_count
        return arrays

    arrays = check("loaded")
    for rowid in (0, 17, 150, 299, *range(128, 144)):  # page 8 dies whole
        db.delete_row("t", rowid)
    stale = next(r for r in db.catalog.index_by_name("t", "idx_t_b").search_eq(8) if r != 150)
    table.delete(stale)  # behind the catalog's back: idx_t_b still lists it
    assert table.column_arrays() is not arrays
    arrays = check("deleted")
    db.update_row("t", 5, (5, 3, 8, 999))
    assert table.column_arrays() is not arrays
    arrays = check("updated")
    db.insert("t", [(300 + i, i % 10, i % 50, 100 + i) for i in range(40)])
    assert table.column_arrays() is not arrays
    check("inserted")


def test_table_backed_batches_always_carry_a_selection():
    """A scan's batch is the heap's slots under a list of live rowids —
    never ``sel=None``, which would sweep tombstones in."""
    from repro.engine.vector import VectorizedExecutor

    db = _build_random_db(6, "mysql")
    table = db.catalog.table("t")
    for rowid in (3, 40, 41):
        db.delete_row("t", rowid)
    executor = VectorizedExecutor(db.catalog, db.counters, {})
    for name, plan in _scan_plans(db).items():
        for with_filter in (True, False):
            plan.filter = plan.filter if with_filter else None
            batches = list(executor._batches(plan))
            assert batches, name
            for batch in batches:
                assert batch.rows is table.slots and batch.columns() is table.column_arrays()
                assert batch.sel is not None and len(batch.sel) == len(set(batch.sel))
                assert all(table.slots[rowid] is not None for rowid in batch.sel)
                assert batch.take() == [table.row(rowid) for rowid in batch.sel]
