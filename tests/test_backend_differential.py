"""Differential harness: bundled engine vs the SQLite backend.

The backend tier must be semantically invisible: for every workload
(Mall, TIPPERS), every execution strategy (LinearScan / IndexQuery /
IndexGuards) and Δ on/off, the row set produced by shipping Sieve's
rewrite to SQLite must be identical to the bundled engine's.  The
strategy matrix drives the rewriter directly with forced
:class:`~repro.core.strategy.StrategyDecision` objects so every
combination is exercised regardless of what the cost model would pick;
the end-to-end tests go through the plain ``Sieve.execute`` path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.backend import SqliteBackend
from repro.core import Sieve
from repro.core.strategy import Strategy, StrategyDecision
from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
from repro.datasets.policies import PolicyGenConfig, generate_campus_policies
from repro.datasets.tippers import TippersConfig, WIFI_TABLE, generate_tippers
from repro.db.database import connect
from repro.policy.store import PolicyStore
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql
from repro.storage.schema import Column, ColumnType, Schema


@dataclass
class DiffWorld:
    """One workload wired up twice: bundled-only and backend-backed."""

    name: str
    db: object
    store: PolicyStore
    sieve: Sieve  # bundled execution
    sieve_backend: Sieve  # same middleware, SQLite execution
    backend: SqliteBackend
    table: str
    queriers: list = field(default_factory=list)
    denied_querier: object = "nobody-without-policies"
    queries: list[str] = field(default_factory=list)
    purpose: str = "analytics"


@pytest.fixture(scope="module")
def tippers_world() -> DiffWorld:
    dataset = generate_tippers(
        TippersConfig(seed=7, n_devices=150, days=12, personality="mysql")
    )
    campus = generate_campus_policies(dataset, PolicyGenConfig(seed=8))
    store = PolicyStore(dataset.db, dataset.groups)
    store.insert_many(campus.policies)
    backend = SqliteBackend().ship(dataset.db)
    queriers = [
        campus.designated_queriers["faculty"][0],
        campus.designated_queriers["staff"][0],
        campus.designated_queriers["grad"][0],
    ]
    return DiffWorld(
        name="tippers",
        db=dataset.db,
        store=store,
        sieve=Sieve(dataset.db, store),
        sieve_backend=Sieve(dataset.db, store, backend=backend),
        backend=backend,
        table=WIFI_TABLE,
        queriers=queriers,
        queries=[
            f"SELECT * FROM {WIFI_TABLE}",
            f"SELECT * FROM {WIFI_TABLE} WHERE ts_date BETWEEN 2 AND 8",
            f"SELECT * FROM {WIFI_TABLE} WHERE ts_time BETWEEN 540 AND 780 AND wifiAP < 32",
            f"SELECT wifiAP, count(*) AS n FROM {WIFI_TABLE} "
            f"WHERE ts_date >= 3 GROUP BY wifiAP",
        ],
    )


@pytest.fixture(scope="module")
def mall_world() -> DiffWorld:
    mall = generate_mall(
        MallConfig(seed=13, n_customers=120, days=10, personality="postgres")
    )
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall.policies)
    backend = SqliteBackend().ship(mall.db)
    queriers = [mall.shop_querier(s) for s in mall.shops[:3]]
    return DiffWorld(
        name="mall",
        db=mall.db,
        store=store,
        sieve=Sieve(mall.db, store),
        sieve_backend=Sieve(mall.db, store, backend=backend),
        backend=backend,
        table=CONNECTIVITY_TABLE,
        queriers=queriers,
        queries=[
            f"SELECT * FROM {CONNECTIVITY_TABLE}",
            f"SELECT * FROM {CONNECTIVITY_TABLE} WHERE ts_date BETWEEN 1 AND 6",
            f"SELECT * FROM {CONNECTIVITY_TABLE} WHERE ts_time BETWEEN 660 AND 900",
            f"SELECT shop_id, count(*) AS n FROM {CONNECTIVITY_TABLE} "
            f"WHERE ts_date >= 2 GROUP BY shop_id",
        ],
    )


def _world(request, name: str) -> DiffWorld:
    return request.getfixturevalue(f"{name}_world")


WORKLOADS = ["tippers", "mall"]


# --------------------------------------------------------- end-to-end path


@pytest.mark.parametrize("workload", WORKLOADS)
def test_execute_identical_rowsets(request, workload):
    """Plain Sieve.execute: bundled and SQLite results are row-set equal."""
    world = _world(request, workload)
    compared = 0
    for querier in world.queriers:
        for sql in world.queries:
            bundled = world.sieve.execute(sql, querier, world.purpose)
            shipped = world.sieve_backend.execute(sql, querier, world.purpose)
            assert sorted(bundled.rows) == sorted(shipped.rows), (
                f"{workload}: rows diverged for querier={querier!r} sql={sql!r}"
            )
            assert [c.lower() for c in bundled.columns] == [
                c.lower() for c in shipped.columns
            ]
            compared += 1
    assert compared == len(world.queriers) * len(world.queries)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_denied_querier_empty_on_both(request, workload):
    world = _world(request, workload)
    sql = f"SELECT * FROM {world.table}"
    assert world.sieve.execute(sql, world.denied_querier, world.purpose).rows == []
    assert (
        world.sieve_backend.execute(sql, world.denied_querier, world.purpose).rows
        == []
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_backend_counters_charged(request, workload):
    world = _world(request, workload)
    before = world.db.counters.snapshot()
    result = world.sieve_backend.execute(
        f"SELECT * FROM {world.table}", world.queriers[0], world.purpose
    )
    diff = world.db.counters.diff(before)
    assert diff["backend_queries"] == 1
    assert diff["backend_rows"] == len(result.rows)


# ------------------------------------------------------- forced strategies


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
@pytest.mark.parametrize("delta_on", [False, True], ids=["inline", "delta"])
def test_strategy_matrix_identical(request, workload, strategy, delta_on):
    """Every (workload, strategy, Δ on/off) rewrite runs identically."""
    world = _world(request, workload)
    sieve = world.sieve_backend
    table_lc = world.table.lower()
    checked = 0
    for querier in world.queriers[:2]:
        expression, _ = sieve.guarded_expression_for(querier, world.purpose, world.table)
        if not expression.guards:
            continue
        if delta_on:
            # Δ partitions must be constant-only; derived-condition
            # guards stay inline exactly as the strategy selector would
            # keep them.
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
        for sql in world.queries[1:3]:  # the predicated queries
            query = parse_query(sql)
            rewritten, _info = sieve.rewriter.rewrite(
                query, {table_lc: expression}, {table_lc: decision}, set()
            )
            bundled = world.db.execute(rewritten)
            shipped = world.backend.execute(to_sql(rewritten, dialect=world.backend.dialect))
            assert sorted(bundled.rows) == sorted(shipped.rows), (
                f"{workload}/{strategy.value}/delta={delta_on}: diverged for "
                f"querier={querier!r} sql={sql!r}"
            )
            checked += 1
    assert checked > 0


# ----------------------------------------------------------- data mutation


@pytest.mark.parametrize("workload", WORKLOADS)
def test_refresh_propagates_new_rows(request, workload):
    """refresh() re-mirrors bundled-engine writes into the backend."""
    world = _world(request, workload)
    table = world.db.catalog.table(world.table)
    count_sql = f"SELECT count(*) AS n FROM {world.table}"
    before = world.backend.execute(count_sql).rows[0][0]
    # A row the backend cannot have seen: max id + 1, owned by device 0.
    new_id = max(row[0] for _rid, row in table.scan()) + 1
    template = next(row for _rid, row in table.scan())
    new_row = (new_id, *template[1:])
    world.db.insert_row(world.table, new_row)
    try:
        assert world.backend.execute(count_sql).rows[0][0] == before  # snapshot
        world.backend.refresh(world.db, world.table)
        assert world.backend.execute(count_sql).rows[0][0] == before + 1
    finally:
        rowid = next(
            rid for rid, row in table.scan() if row[0] == new_id
        )
        world.db.delete_row(world.table, rowid)
        world.backend.refresh(world.db, world.table)


# ------------------------------------------------- NULL bounds and items
#
# SQL in WHERE: a BETWEEN with a NULL bound is never true, NOT BETWEEN is
# true only past its non-NULL bound, and NOT IN with a NULL item is never
# true.  SQLite is the reference; the bundled engine must agree on every
# path — the planner's index probes (a NULL bound is not "unbounded"),
# the product's generated code and the tuple oracle's closures — plain,
# through Sieve, and with a ``?`` bound to NULL.

NULL_PREDICATES = [
    "ts_date BETWEEN NULL AND 4",
    "ts_date BETWEEN 2 AND NULL",
    "ts_date NOT BETWEEN NULL AND 4",
    "ts_date NOT BETWEEN 2 AND NULL",
    "ts_date NOT BETWEEN NULL AND NULL",
    "owner NOT IN (NULL, 2)",
    "owner IN (NULL, 2)",
    "owner NOT IN (shop_id, NULL)",
    "ts_date BETWEEN shop_id AND NULL",
    "ts_date NOT BETWEEN NULL AND shop_id",
]


@pytest.mark.parametrize("predicate", NULL_PREDICATES)
def test_null_bounds_and_items_answer_as_sqlite(mall_world, predicate):
    world = mall_world
    sql = f"SELECT id FROM {world.table} WHERE {predicate}"
    expected = sorted(world.backend.execute(sql).rows)
    try:
        for vectorized in (True, False):
            world.db.vectorized = vectorized
            assert sorted(world.db.execute(sql).rows) == expected, (vectorized, sql)
            for querier in world.queriers:
                assert sorted(world.sieve.execute(sql, querier, world.purpose).rows) == sorted(
                    world.sieve_backend.execute(sql, querier, world.purpose).rows
                ), (vectorized, querier, sql)
    finally:
        world.db.vectorized = True


@pytest.mark.parametrize(
    "template, values",
    [
        ("ts_date BETWEEN ? AND ?", (None, 4)),
        ("ts_date BETWEEN ? AND ?", (2, None)),
        ("ts_date NOT BETWEEN ? AND ?", (None, 4)),
        ("owner NOT IN (?, ?)", (None, 2)),
        ("owner IN (?, ?)", (None, 2)),
    ],
)
def test_a_parameter_bound_to_null_answers_as_sqlite(mall_world, template, values):
    """The prepared path binds the NULL into a template planned for
    values: the index candidate of a NULL-bound conjunct is dropped per
    binding, and the rows are SQLite's for the bound text."""
    world = mall_world
    template = f"SELECT id FROM {world.table} WHERE {template}"
    for querier in world.queriers:
        prepared = world.sieve.prepare(template, querier, world.purpose)
        prepared.execute([1, 3])  # the template is planned for values first
        got = sorted(prepared.execute(list(values)).rows)
        bound = to_sql(parse_query(template.replace("?", "{}").format(*("NULL" if v is None else v for v in values))))
        assert got == sorted(world.sieve_backend.execute(bound, querier, world.purpose).rows), (
            querier,
            bound,
        )


# ------------------------------------------------- NOT over an unknown
#
# Beneath NOT, a predicate is three-valued: the negation of unknown is
# unknown and rejects the row, like false.  The probe table holds one NULL.

NOT_PROBES = [
    ("NOT (v > 2)", [1]),
    ("NOT (v < NULL)", []),
    ("NOT (v = 1 OR v = NULL)", []),
    ("NOT (v > 2 OR id = 2)", [1]),
    ("NOT (v > 2 AND id < 3)", [1, 3]),
    ("NOT (v BETWEEN 0 AND 2)", [3]),
    ("NOT (v BETWEEN NULL AND 2)", [3]),
    ("NOT (v IN (1, NULL))", []),
    ("NOT (v NOT IN (1, NULL))", [1]),
    ("NOT (NOT (v > 2))", [3]),
    ("NOT (v IS NULL)", [1, 3]),
    ("NOT (id = 1 OR v > 2 OR v = 7)", []),  # a metered OR: unknown on row 2
]


@pytest.mark.parametrize("predicate, ids", NOT_PROBES)
def test_not_over_an_unknown_answers_as_sqlite(predicate, ids):
    db = connect("postgres")
    db.create_table("t", Schema([Column("id", ColumnType.INT), Column("v", ColumnType.INT, nullable=True)]))
    db.insert("t", [(1, 1), (2, None), (3, 5)])
    db.analyze()
    backend = SqliteBackend().ship(db)
    sql = f"SELECT id FROM t WHERE {predicate}"
    assert sorted(row[0] for row in backend.execute(sql).rows) == ids
    for vectorized in (True, False):
        db.vectorized = vectorized
        assert sorted(row[0] for row in db.execute(sql).rows) == ids, (vectorized, sql)


# ------------------------------------------ IS NULL over a predicate
#
# A predicate is NULL where it is unknown, so ``(p) IS NULL`` holds on
# exactly the rows ``p`` neither admits nor refutes.  The probe table
# holds NULLs in both nullable columns; a truth value reads as 0 / 1.

IS_NULL_PROBES = [
    ("SELECT id FROM t WHERE (v > 2) IS NULL", [(2,), (4,)]),
    ("SELECT id FROM t WHERE (v > 2) IS NOT NULL", [(1,), (3,)]),
    ("SELECT id FROM t WHERE (v IN (1, NULL)) IS NULL", [(2,), (3,), (4,)]),
    ("SELECT COUNT(*) FROM t WHERE (v > 2) IS NULL", [(2,)]),
    ("SELECT id, (v > 2) IS NULL FROM t", [(1, 0), (2, 1), (3, 0), (4, 1)]),
    ("SELECT id FROM t WHERE (v > 2 AND w > 2) IS NULL", [(2,), (4,)]),
    ("SELECT id FROM t WHERE (v > 2 OR w > 2) IS NULL", [(1,), (4,)]),
    ("SELECT id FROM t WHERE (v = w) IS NOT NULL", [(3,)]),
    ("SELECT id FROM t WHERE (v BETWEEN 0 AND w) IS NULL", [(1,), (2,), (4,)]),
    ("SELECT id FROM t WHERE (NOT (v > 2)) IS NULL", [(2,), (4,)]),
    ("SELECT id FROM t WHERE ((v > 2) IS NULL) IS NULL", []),
    ("SELECT id FROM t WHERE (id = 1 OR v > 2 OR v = 7) IS NULL", [(2,), (4,)]),  # metered
]


# ------------------------------------------- a predicate read as a value
#
# Where a predicate's value is read — a select-list item, an operand, an
# aggregate's argument, a sort key — it is three-valued: unknown is NULL.
# On the ``NOT`` probes' table; a truth value reads as 0 / 1.

VALUE_PROBES = [
    ("SELECT id, v > 2 FROM t", [(1, 0), (2, None), (3, 1)]),
    ("SELECT id, NOT (v > 2) FROM t", [(1, 1), (2, None), (3, 0)]),
    ("SELECT id, (v > 2) AND (id > 0) FROM t", [(1, 0), (2, None), (3, 1)]),
    ("SELECT id, (v > 2) OR (id = 2) FROM t", [(1, 0), (2, 1), (3, 1)]),
    ("SELECT id, v BETWEEN 0 AND 2 FROM t", [(1, 1), (2, None), (3, 0)]),
    ("SELECT id, v IN (1, NULL) FROM t", [(1, 1), (2, None), (3, None)]),
    ("SELECT id, (v > 2) + 1 FROM t", [(1, 1), (2, None), (3, 2)]),
    ("SELECT id, COALESCE(v > 2, 7) FROM t", [(1, 0), (2, 7), (3, 1)]),
    ("SELECT id FROM t WHERE (v > 2) = (id > 2)", [(1,), (3,)]),
    ("SELECT COUNT(v > 2), SUM(v > 2) FROM t", [(2, 1)]),
]


@pytest.mark.parametrize("sql, rows", VALUE_PROBES)
def test_a_predicate_read_as_a_value_answers_as_sqlite(sql, rows):
    db = connect("postgres")
    db.create_table("t", Schema([Column("id", ColumnType.INT), Column("v", ColumnType.INT, nullable=True)]))
    db.insert("t", [(1, 1), (2, None), (3, 5)])
    db.analyze()
    backend = SqliteBackend().ship(db)

    def read(result):
        return sorted(tuple(int(x) if isinstance(x, bool) else x for x in row) for row in result.rows)

    assert read(backend.execute(sql)) == rows
    for vectorized in (True, False):
        db.vectorized = vectorized
        assert read(db.execute(sql)) == rows, (vectorized, sql)


@pytest.mark.parametrize("sql, rows", IS_NULL_PROBES)
def test_is_null_over_a_predicate_answers_as_sqlite(sql, rows):
    db = connect("postgres")
    db.create_table(
        "t",
        Schema([
            Column("id", ColumnType.INT),
            Column("v", ColumnType.INT, nullable=True),
            Column("w", ColumnType.INT, nullable=True),
        ]),
    )
    db.insert("t", [(1, 1, None), (2, None, 3), (3, 5, 5), (4, None, None)])
    db.analyze()
    backend = SqliteBackend().ship(db)

    def read(result):
        return sorted(tuple(int(x) if isinstance(x, bool) else x for x in row) for row in result.rows)

    assert read(backend.execute(sql)) == rows
    for vectorized in (True, False):
        db.vectorized = vectorized
        assert read(db.execute(sql)) == rows, (vectorized, sql)
