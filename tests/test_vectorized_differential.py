"""Differential harness: vectorized executor vs the tuple-at-a-time oracle.

The batch executor must be semantically invisible: for every workload
(Mall, TIPPERS), every execution strategy (LinearScan / IndexQuery /
IndexGuards) and Δ on/off, the product engine (a batch operator per
plan node, on generated code) must return the row sets of the oracle —
the tuple-at-a-time closure interpreter, ``db.vectorized = False`` —
and so must the per-tuple counters
(``policy_evals``, ``predicate_evals``, ``tuples_scanned``, page
counters, UDF counters), which is what makes the paper's cost-unit
shapes independent of the execution mode.  Random-query property
tests cover the engine substrate beyond the guarded workloads.

The comparison is only worth something if the two sides share no
execution code: the structural tests at the end hold that every plan
node has its own batch operator and that a product run never enters
one of the oracle's ``_exec_*`` methods.  One contract is a bound, not
an equality: an operator streaming into a bare ``LIMIT`` finishes the
batch it is on (``assert_limit_bound``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Sieve
from repro.core.strategy import Strategy, StrategyDecision
from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
from repro.datasets.policies import PolicyGenConfig, generate_campus_policies
from repro.datasets.tippers import TippersConfig, WIFI_TABLE, generate_tippers
from repro.common.errors import ExecutionError
from repro.db.database import connect
from repro.engine import plans as plan_nodes
from repro.engine.executor import Executor, _AggState
from repro.engine.vector import BATCH_PAGES, BATCH_ROWS, VectorizedExecutor
from repro.policy import GroupDirectory, ObjectCondition, Policy
from repro.policy.store import PolicyStore
from repro.sql.parser import parse_query
from repro.storage.schema import Column, ColumnType, Schema

#: Engine-level counters that must be identical across execution modes.
#: ``batches`` is intentionally excluded: the oracle forms none — it
#: describes the execution mechanism itself, not the work done.
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
    cache = db.expr_cache
    lookups = cache.hits + cache.misses
    try:
        before = db.counters.snapshot()
        result = db.execute(query)
        diff = db.counters.diff(before)
    finally:
        db.vectorized = saved
    if not vectorized:
        assert cache.hits + cache.misses == lookups
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


def assert_limit_bound(db, query, batch: int, context: str = ""):
    """A plan with a bare ``LIMIT``: rows identical, and every counter
    in ``[oracle, oracle + batch)`` — the operators streaming into the
    LIMIT finish the batch they are on (``batch``: the most one such
    batch can charge a counter) where the oracle stops at the row."""
    oracle_result, oracle = run_mode(db, query, False)
    result, product = run_mode(db, query, True)
    assert result.rows == oracle_result.rows, f"{context}: rows diverged"
    assert product["tuples_output"] == oracle["tuples_output"]
    for name in ENGINE_COUNTERS:
        assert oracle[name] <= product[name] < oracle[name] + batch, (
            f"{context}: {name} oracle={oracle[name]} product={product[name]} batch={batch}"
        )
    return oracle, product


def node_names(plan) -> list[str]:
    return [plan.node_name] + [n for c in plan.children() if c is not None for n in node_names(c)]


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


def _matrix_rewrites(world: VecWorld, strategy: Strategy, delta_on: bool):
    """The rewrites of one (strategy, Δ on/off) cell, forced past the
    cost model: ``(querier, rewritten query)`` pairs."""
    sieve = world.sieve
    table_lc = world.table.lower()
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
            rewritten, _info = sieve.rewriter.rewrite(
                parse_query(sql), {table_lc: expression}, {table_lc: decision}, set()
            )
            yield querier, rewritten


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
@pytest.mark.parametrize("delta_on", [False, True], ids=["inline", "delta"])
def test_strategy_matrix_identical(request, workload, strategy, delta_on):
    """Every (workload, strategy, Δ on/off) rewrite runs identically —
    rows and per-tuple counters — in every engine mode."""
    world = _world(request, workload)
    checked = 0
    for querier, rewritten in _matrix_rewrites(world, strategy, delta_on):
        assert_modes_identical(
            world.db,
            rewritten,
            context=f"{workload}/{strategy.value}/delta={delta_on}/{querier}",
        )
        checked += 1
    assert checked > 0


# --------------------------------------------------------- random queries


#: A nullable FLOAT column's values: NULL, NaN (one shared object and
#: fresh ones), ties, signed zeros and ints beside floats.
_X_VALUES = [None, float("nan"), "fresh-nan", -1.5, -0.0, 0.0, 2, 2.0, 7.25, 1e300]


def _build_random_db(seed: int, personality: str, with_x: bool = False):
    """``t``: 300 rows of random ints; ``with_x`` adds the nullable
    FLOAT column ``x`` drawn from ``_X_VALUES``."""
    rng = random.Random(seed)
    db = connect(personality, page_size=16)
    columns = [Column(name, ColumnType.INT) for name in ("id", "a", "b", "c")]
    if with_x:
        columns.append(Column("x", ColumnType.FLOAT, nullable=True))
    db.create_table("t", Schema(columns))
    rows = [
        (i, rng.randrange(10), rng.randrange(50), rng.randrange(1000))
        for i in range(300)
    ]
    if with_x:
        xs = [rng.choice(_X_VALUES) for _ in rows]
        rows = [row + (float("nan") if x == "fresh-nan" else x,) for row, x in zip(rows, xs)]
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
]

#: Bare LIMIT (no ORDER BY) cuts the scan mid-stream: rows identical,
#: counters within one scan batch of the oracle's.
_LIMIT_QUERIES = [
    "SELECT * FROM t LIMIT 5",
    "SELECT id FROM t WHERE b < 40 LIMIT 17",
]
_SCAN_BATCH = 16 * BATCH_PAGES  # rows in one SeqScan batch at 16 rows a page


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 200),
    sql=st.sampled_from(_QUERIES + _LIMIT_QUERIES),
    personality=st.sampled_from(["mysql", "postgres"]),
)
def test_random_queries_identical_across_modes(seed, sql, personality):
    db = _build_random_db(seed, personality)
    if sql in _LIMIT_QUERIES:
        assert_limit_bound(db, sql, _SCAN_BATCH, context=f"{personality}/{sql}")
    else:
        assert_modes_identical(db, sql, context=f"{personality}/{sql}")


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 200),
    limit=st.integers(1, 40),
    directions=st.tuples(st.booleans(), st.booleans()),
)
def test_topk_fusion_matches_full_sort(seed, limit, directions):
    """ORDER BY + LIMIT equals the full sort's prefix in every mode, for
    every direction combination — also over a FLOAT key holding NULL,
    NaN and ties, where NULL sorts first and NaN after every number,
    all NaNs equal (PostgreSQL's order; ``id`` breaks the ties)."""
    db = _build_random_db(seed, "mysql", with_x=True)
    d1 = "ASC" if directions[0] else "DESC"
    d2 = "ASC" if directions[1] else "DESC"
    full = db.execute(f"SELECT id, a, c FROM t ORDER BY a {d1}, c {d2}, id")
    limited = assert_modes_identical(
        db,
        f"SELECT id, a, c FROM t ORDER BY a {d1}, c {d2}, id LIMIT {limit}",
        context=f"top-k {d1}/{d2}/{limit}",
    )
    assert limited.rows == full.rows[:limit]

    for by_x in (  # NULLs and ints beside floats; then floats alone, NaN among them
        f"SELECT id, x FROM t ORDER BY x {d1}, id {d2}",
        f"SELECT id, x * 1.0 AS y FROM t WHERE x IS NOT NULL ORDER BY y {d1}, id {d2}",
    ):
        full, limited = (_exactly_as_oracle(db, sql) for sql in (by_x, f"{by_x} LIMIT {limit}"))
        assert _exact(limited.rows) == _exact(full.rows[:limit])
        ranks = [0 if x is None else 2 if math.isnan(x) else 1 for _id, x in full.rows]
        assert ranks == sorted(ranks, reverse=not directions[0])
        runs: dict[tuple, list[int]] = {}
        for row_id, x in full.rows:
            runs.setdefault(("nan",) if x is not None and math.isnan(x) else (x,), []).append(row_id)
        for ids in runs.values():  # ties (all NaNs one tie) ordered by id
            assert ids == sorted(ids, reverse=not directions[1])
        numbers = [x for _id, x in full.rows if x is not None and not math.isnan(x)]
        assert numbers == sorted(numbers, reverse=not directions[0])


def _exactly_as_oracle(db, sql: str):
    """The product's result, once its rows equal the oracle's value for
    value (``_exact``: a computed NaN equals a NaN) and its counters
    too."""
    oracle, oracle_counters = run_mode(db, sql, False)
    product, counters = run_mode(db, sql, True)
    assert _exact(product.rows) == _exact(oracle.rows), sql
    assert counters == oracle_counters, sql
    return product


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
    common = dict(binding=binding, table_name="t", alias="t", filter=where)
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


# -------------------------------------------------------------- aggregates


@pytest.fixture(scope="module", params=["mysql", "postgres"])
def agg_db(request):
    """``t``: 2 × ``BATCH_ROWS`` + 300 rows, so every group spans batch
    boundaries; nullable group keys ``g`` (INT) and ``h`` (VARCHAR) and
    arguments ``i`` (INT), ``f`` (FLOAT: NaN — one shared object and
    fresh ones — ±0.0, ints beside floats, sums whose order shows) and
    ``s`` (VARCHAR).  Group ``g = 9`` holds only -0.0 and NULL in ``f``.
    ``w`` (FLOAT) falls with ``id`` and is NaN at every 64th row after
    the first — at each later batch's first row — so MIN and MAX meet
    NaN after their first value, where only the oracle's fold order
    gives the oracle's answer."""
    rng = random.Random(5)
    db = connect(request.param)
    db.create_table(
        "t",
        Schema(
            [
                Column("id", ColumnType.INT),
                Column("g", ColumnType.INT, nullable=True),
                Column("h", ColumnType.VARCHAR, nullable=True),
                Column("i", ColumnType.INT, nullable=True),
                Column("f", ColumnType.FLOAT, nullable=True),
                Column("s", ColumnType.VARCHAR, nullable=True),
                Column("w", ColumnType.FLOAT),
            ]
        ),
    )
    shared_nan = float("nan")
    floats = [None, shared_nan, -0.0, 0.0, 3, 3.0, 0.1, 0.2, 1e16, -2.5]
    rows = []
    for n in range(2 * BATCH_ROWS + 300):
        g = rng.choice([None, 0, 1, 2, 3, 9])
        if g == 9:
            f = rng.choice([None, -0.0])
        else:
            f = float("nan") if rng.random() < 0.01 else rng.choice(floats)
        h = rng.choice([None, "p", "q"])
        i = rng.choice([None, *range(-3, 20)])
        s = rng.choice([None, "ant", "bee", "Cat", ""])
        rows.append((n, g, h, i, f, s, float("nan") if n and n % 64 == 0 else float(-n)))
    db.insert("t", rows)
    db.analyze()
    return db


_AGGS = (
    "count(*) AS n, count(i) AS ci, count(f) AS cf, count(s) AS cs, "
    "sum(i) AS si, avg(i) AS ai, min(i) AS mi, max(i) AS xi, "
    "sum(f) AS sf, avg(f) AS af, min(f) AS mf, max(f) AS xf, min(s) AS ms, max(s) AS xs, "
    "min(w) AS mw, max(0 - w) AS xw"
)
_DISTINCT_AGGS = (
    "count(DISTINCT i) AS ci, count(DISTINCT f) AS cf, count(DISTINCT s) AS cs, "
    "sum(DISTINCT i) AS si, avg(DISTINCT i) AS ai, sum(DISTINCT f) AS sf, "
    "avg(DISTINCT f) AS af, min(DISTINCT f) AS mf, max(DISTINCT f) AS xf, max(DISTINCT s) AS xs"
)
_AGG_QUERIES = [
    f"SELECT {_AGGS} FROM t",
    f"SELECT {_DISTINCT_AGGS} FROM t",
    f"SELECT g, {_AGGS} FROM t GROUP BY g",
    f"SELECT g, h, {_AGGS} FROM t GROUP BY g, h",
    f"SELECT h, g, {_DISTINCT_AGGS} FROM t GROUP BY h, g",
    "SELECT g, count(*) AS n FROM t GROUP BY g",
    "SELECT h, g, count(*) AS n FROM t WHERE i > 4 GROUP BY h, g",
    "SELECT g, h, count(*) AS n FROM t GROUP BY g, h HAVING count(*) > 100",
    f"SELECT g, {_AGGS} FROM t GROUP BY g HAVING sum(i) > 1000 AND count(f) > 10",
    # A CTE scan hands its consumer batches of exactly BATCH_ROWS rows.
    f"WITH c AS (SELECT * FROM t WHERE id >= 0) SELECT g, h, {_AGGS} FROM c GROUP BY g, h",
    f"WITH c AS (SELECT * FROM t) SELECT {_DISTINCT_AGGS} FROM c",
    # Computed arguments: fresh values, not the stored objects.
    "SELECT g, sum(f * 2) AS s2, avg(i + f) AS a2, max(i - 1) AS m2 FROM t GROUP BY g",
    # Empty input: one row without GROUP BY, none with it.
    f"SELECT {_AGGS} FROM t WHERE id < 0",
    f"SELECT {_DISTINCT_AGGS} FROM t WHERE id < 0",
    f"SELECT g, {_AGGS} FROM t WHERE id < 0 GROUP BY g",
]


def _exact(rows: list[tuple]) -> list[tuple]:
    """Each value as ``(type, repr)``: NaN equals NaN, while -0.0 and
    0.0, 1 and 1.0, and floats one ulp apart differ."""
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


@pytest.mark.parametrize("sql", _AGG_QUERIES)
def test_aggregates_identical_across_modes(agg_db, sql):
    """The batch fold equals the oracle's row-at-a-time fold: values to
    the bit and type, groups in first-seen order, counters equal."""
    _exactly_as_oracle(agg_db, sql)


def test_the_aggregate_world_holds_its_awkward_cases(agg_db):
    """What the differential above depends on is really there: a SUM
    that ``sum()``'s ``0 +`` would turn from -0.0 into 0.0, a NaN that
    reaches SUM and MIN / MAX, and groups on both sides of a batch
    boundary."""
    (row,) = agg_db.execute("SELECT sum(f) AS s, count(f) AS c FROM t WHERE g = 9").rows
    assert row[1] > 0 and repr(row[0]) == "-0.0"
    (row,) = agg_db.execute("SELECT sum(f) AS s, count(f) AS c FROM t").rows
    assert math.isnan(row[0])
    ids = agg_db.execute("SELECT g, min(id) AS lo, max(id) AS hi FROM t GROUP BY g").rows
    assert len(ids) == 6 and all(lo < BATCH_ROWS < hi for _g, lo, hi in ids)


def test_a_batch_aggregate_never_folds_row_by_row(monkeypatch):
    """The product folds a batch per call: a COUNT(*) over 10 000 rows,
    grouped or not, and a grouped SUM never reach the oracle's per-row
    ``_AggState.update_value`` — which the spy does see the oracle use."""
    calls: list = []
    update_value = _AggState.update_value

    def spy(self, value):
        calls.append(value)
        update_value(self, value)

    monkeypatch.setattr(_AggState, "update_value", spy)
    db = connect("mysql")
    db.create_table("t", Schema.of(("id", ColumnType.INT), ("a", ColumnType.INT)))
    db.insert("t", [(i, i % 7) for i in range(10_000)])
    db.analyze()
    assert db.execute("SELECT count(*) AS n FROM t").rows == [(10_000,)]
    grouped = db.execute("SELECT a, count(*) AS n, sum(id) AS s FROM t GROUP BY a").rows
    assert [n for _a, n, _s in grouped] == [1429] * 4 + [1428] * 3
    assert calls == []
    run_mode(db, "SELECT sum(id) AS s FROM t", vectorized=False)
    assert len(calls) == 10_000


# ------------------------------------------- every node a batch operator


@pytest.fixture(scope="module", params=["mysql", "postgres"])
def join_db(request):
    """``t``: 3000 rows, indexed ``id`` (unique), ``a`` and ``b`` — large
    enough that probing it beats hashing it; ``n``: 43 rows with NULLs
    and duplicates in both columns, unindexed."""
    rng = random.Random(3)
    db = connect(request.param, page_size=16)
    db.create_table(
        "t",
        Schema.of(
            ("id", ColumnType.INT), ("a", ColumnType.INT), ("b", ColumnType.INT), ("c", ColumnType.INT)
        ),
    )
    db.insert(
        "t", [(i, rng.randrange(10), rng.randrange(50), rng.randrange(1000)) for i in range(3000)]
    )
    for column in ("id", "a", "b"):
        db.create_index("t", column)
    db.create_table(
        "n", Schema([Column("k", ColumnType.INT, nullable=True), Column("v", ColumnType.INT, nullable=True)])
    )
    db.insert(
        "n",
        [(None if i % 4 == 0 else i % 12, i % 3 if i % 5 else None) for i in range(40)]
        + [(None, None)] * 3,
    )
    db.analyze()
    return db


_SET_OPERANDS = "SELECT k, v FROM n {op} SELECT v, k FROM n"

#: (sql, a node the plan must hold) — equal rows *and* counters.
_EXACT_CASES = [
    ("SELECT t.id, n.k FROM t, n WHERE t.a < n.k AND t.b < 3", "NLJoin"),  # non-equi
    ("SELECT t.id, n.k FROM t, n WHERE t.b < 2", "NLJoin"),  # cross
    (  # NULL outer keys, a repeated inner row, inner filter and residual
        "SELECT n.k, n.v, t.id FROM n, t WHERE n.k = t.id AND t.c % 2 = 0 AND n.v < t.b",
        "IndexNLJoin",
    ),
    (_SET_OPERANDS.format(op="UNION ALL"), "SetOp"),
    (_SET_OPERANDS.format(op="UNION"), "SetOp"),
    (_SET_OPERANDS.format(op="EXCEPT"), "SetOp"),
    (_SET_OPERANDS.format(op="INTERSECT"), "SetOp"),
    (
        f"SELECT k, count(*) AS c FROM ({_SET_OPERANDS.format(op='UNION ALL')}) u GROUP BY k",
        "SetOp",
    ),
    # Nested UNIONs: the inner duplicate handling survives only under UNION ALL.
    (f"({_SET_OPERANDS.format(op='UNION')}) UNION ALL ({_SET_OPERANDS.format(op='UNION')})", "SetOp"),
    (f"({_SET_OPERANDS.format(op='UNION ALL')}) UNION ({_SET_OPERANDS.format(op='UNION ALL')})", "SetOp"),
    (f"{_SET_OPERANDS.format(op='UNION ALL')} UNION ALL SELECT k, k FROM n", "SetOp"),
    ("SELECT * FROM t LIMIT 0", "Limit"),
    ("SELECT 1", "Project"),
    ("SELECT 1 + 2 AS three, 'x' AS x", "Project"),
    ("SELECT id FROM t WHERE c > (SELECT avg(c) FROM t) AND a = 3", "SeqScan"),
    ("SELECT id, (SELECT max(c) FROM t) AS m FROM t WHERE b = 7", "Project"),
    ("SELECT id, (SELECT count(*) FROM n WHERE n.k = t.a) AS m FROM t WHERE b = 7", "Project"),
    ("SELECT id FROM t WHERE c > (SELECT max(v) FROM n WHERE n.k = t.a) AND b < 10", "Project"),
]

#: (sql, node, the most one batch beneath the LIMIT charges a counter).
_LIMIT_CASES = [
    ("SELECT * FROM t LIMIT 5", "SeqScan", _SCAN_BATCH),
    ("SELECT id FROM t WHERE b < 40 LIMIT 17", "SeqScan", _SCAN_BATCH),
    ("SELECT d.id FROM (SELECT id, c FROM t) d WHERE d.c > 500 LIMIT 4", "Filter", _SCAN_BATCH),
    ("SELECT t.id, u.id FROM t, t AS u WHERE t.a = u.a AND u.b < 1 LIMIT 20", "HashJoin", _SCAN_BATCH),
    # One left batch's pairs come in chunks of BATCH_ROWS.
    ("SELECT t.id, n.k FROM t, n WHERE t.a < n.k LIMIT 2000", "NLJoin", BATCH_ROWS),
    # One left batch (all of n), a probe of a few index nodes per key.
    (
        "SELECT n.k, n.v, t.id FROM n, t WHERE n.k = t.id AND t.c % 2 = 0 AND n.v < t.b LIMIT 3",
        "IndexNLJoin",
        BATCH_ROWS,
    ),
]


@pytest.mark.parametrize("sql,node", _EXACT_CASES)
def test_every_node_type_identical_across_modes(join_db, sql, node):
    assert node in node_names(join_db.plan(sql).root), f"plan lost its {node}: {sql}"
    result = assert_modes_identical(join_db, sql, context=sql)
    assert result.rows or "LIMIT 0" in sql, f"vacuous case: {sql}"


def test_set_operations_keep_the_oracles_row_order_and_null_rows(join_db):
    union = join_db.execute(_SET_OPERANDS.format(op="UNION")).rows
    union_all = join_db.execute(_SET_OPERANDS.format(op="UNION ALL")).rows
    assert len(union_all) == 86 and len(set(union_all)) < len(union_all)
    assert union == list(dict.fromkeys(union_all))  # first-seen order, left then right
    assert (None, None) in union and any(k is None and v is not None for k, v in union)


@pytest.mark.parametrize("op", ["UNION", "UNION ALL"])
def test_a_union_a_branch_per_guard_runs_as_one_operator(join_db, op):
    """The MySQL IndexGuards rewrite is a left-deep UNION with a node
    per guard; hundreds of them must not cost a frame each."""
    sql = f" {op} ".join(f"SELECT k, v FROM n WHERE v = {i % 3}" for i in range(400))
    result = assert_modes_identical(join_db, sql, context=f"400-branch {op}")
    assert (len(result.rows) == len(set(result.rows))) == (op == "UNION")


@pytest.mark.parametrize("sql,node,batch", _LIMIT_CASES)
def test_bare_limit_rows_identical_counters_within_one_batch(join_db, sql, node, batch):
    names = node_names(join_db.plan(sql).root)
    assert names[0] == "Limit" and "Sort" not in names and node in names, names
    oracle, product = assert_limit_bound(join_db, sql, batch, context=sql)
    assert product != oracle, f"the LIMIT cut nothing short: {sql}"


def _overlap_world(personality: str):
    """Two guards on different indexed columns whose row sets overlap."""
    db = connect(personality)
    db.create_table(
        "wifi",
        Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT), ("ap", ColumnType.INT)),
    )
    db.insert("wifi", [(i, i % 7, i % 5) for i in range(3500)])
    for column in ("owner", "ap"):
        db.create_index("wifi", column)
    db.analyze()
    store = PolicyStore(db, GroupDirectory())
    everyone = ObjectCondition("owner", "IN", list(range(7)))
    for conditions in ((ObjectCondition("owner", "=", 1),), (everyone, ObjectCondition("ap", "=", 2))):
        store.insert(
            Policy(owner=1, querier="q", purpose="p", table="wifi", object_conditions=conditions)
        )
    return db, Sieve(db, store)


def _forced_index_guards(sieve: Sieve, sql: str):
    expression, _ = sieve.guarded_expression_for("q", "p", "wifi")
    decision = StrategyDecision(strategy=Strategy.INDEX_GUARDS, query_index_column=None)
    rewritten, _info = sieve.rewriter.rewrite(
        parse_query(sql), {"wifi": expression}, {"wifi": decision}, set()
    )
    return expression, rewritten


def test_mysql_index_guards_union_dedups_overlapping_guards():
    """The paper's MySQL rewrite (a UNION of per-guard forced index
    scans) on the product engine: a row both guards reach comes out
    once, and rows and counters equal the oracle's."""
    db, sieve = _overlap_world("mysql")
    expression, rewritten = _forced_index_guards(sieve, "SELECT id, owner, ap FROM wifi")
    assert len(expression.guards) == 2
    planned = db.plan(rewritten)
    assert "SetOp" in [n for plan in planned.cte_plans.values() for n in node_names(plan)]
    result = assert_modes_identical(db, rewritten, context="overlapping guards")
    expected = [(i, i % 7, i % 5) for i in range(3500) if i % 7 == 1 or i % 5 == 2]
    assert sorted(result.rows) == expected
    assert any(owner == 1 and ap == 2 for _id, owner, ap in result.rows)


@pytest.mark.parametrize("personality", ["mysql", "postgres"])
def test_bare_limit_over_a_sieve_rewrite_keeps_enforcement_counters_exact(personality):
    """The guarded scan lives in a CTE both engines materialise in
    full: only the outer CTEScan's count can differ under a LIMIT."""
    db, sieve = _overlap_world(personality)
    rewritten = sieve.rewrite("SELECT id FROM wifi WHERE id > 5 LIMIT 3", "q", "p")
    oracle, product = assert_limit_bound(db, rewritten, BATCH_ROWS, context=personality)
    differing = {name for name in ENGINE_COUNTERS if oracle[name] != product[name]}
    assert differing <= {"tuples_scanned", "predicate_evals"}, differing
    assert product["policy_evals"] == oracle["policy_evals"]


# ------------------------------------------- the oracle is only an oracle


def _concrete_plan_nodes() -> list[type]:
    return [
        cls
        for cls in vars(plan_nodes).values()
        if isinstance(cls, type) and issubclass(cls, plan_nodes.PlanNode) and cls is not plan_nodes.PlanNode
    ]


def test_every_plan_node_has_a_batch_operator_and_no_oracle_override():
    nodes = _concrete_plan_nodes()
    assert len(nodes) == 15
    for cls in nodes:
        assert callable(getattr(VectorizedExecutor, f"_vexec_{cls.__name__}", None)), cls.__name__
        assert hasattr(Executor, f"_exec_{cls.__name__}"), cls.__name__
    assert not [name for name in vars(VectorizedExecutor) if name.startswith("_exec_")]


def test_unknown_plan_node_is_a_typed_error():
    class TeleportPlan(plan_nodes.PlanNode):
        pass

    db = _build_random_db(1, "mysql")
    executor = VectorizedExecutor(db.catalog, db.counters, {})
    with pytest.raises(ExecutionError, match="no batch operator for TeleportPlan"):
        executor._batches(TeleportPlan())


@pytest.fixture
def oracle_walled_off(monkeypatch):
    """Every tuple-at-a-time method of the oracle raises: what still
    answers ran on batch operators alone."""

    def refuse(self, plan):
        raise AssertionError(f"a product run entered Executor._exec_{type(plan).__name__}")

    methods = [name for name in vars(Executor) if name.startswith("_exec_")]
    assert len(methods) == 15
    for name in methods:
        monkeypatch.setattr(Executor, name, refuse)


def test_a_product_run_never_enters_the_oracle(request, oracle_walled_off, join_db):
    with pytest.raises(AssertionError, match="entered Executor._exec_"):
        run_mode(join_db, "SELECT 1", vectorized=False)  # the wall stands
    for sql, _node in _EXACT_CASES:
        join_db.execute(sql)
    for sql, _node, _batch in _LIMIT_CASES:
        join_db.execute(sql)
    for personality in ("mysql", "postgres"):
        db = _build_random_db(7, personality)
        for sql in _QUERIES + _LIMIT_QUERIES:
            db.execute(sql)
    for workload in WORKLOADS:  # Mall (PostgreSQL) + TIPPERS (MySQL: the UNION rewrite)
        world = _world(request, workload)
        assert world.db.vectorized
        for strategy in Strategy:
            for delta_on in (False, True):
                for _querier, rewritten in _matrix_rewrites(world, strategy, delta_on):
                    world.db.execute(rewritten)
    db, sieve = _overlap_world("mysql")
    db.execute(_forced_index_guards(sieve, "SELECT id, owner, ap FROM wifi")[1])
    sieve.execute("SELECT id FROM wifi WHERE id IN (SELECT id FROM wifi WHERE ap = 2) LIMIT 3", "q", "p")
