"""The prepared-query tier: parameters, templates, and the plan cache.

Three layers under test:

* the SQL front end — ``?`` positional and ``:name`` parameters parse
  into :class:`~repro.expr.nodes.Param` nodes, print back, and refuse
  to execute unbound;
* :mod:`repro.expr.params` — binding-vector normalization, the
  identity-preserving binder, and the auto-parameterizer (predicate
  positions only: output shape stays inline);
* the :class:`~repro.core.cache.PlanCache` behind
  ``Sieve.prepare()`` — value-keyed memoization of the post-rewrite,
  post-plan artifact, fenced on the policy epoch and the catalog/stats
  ``plan_version``.

The invariant everything here defends: **a prepared execution is
indistinguishable from an unprepared one** — same rows, same
enforcement counters (:data:`repro.audit.AUDIT_COUNTERS`; cache
bookkeeping counters are zero-weight and excluded by design) — for
every workload (Mall, TIPPERS), every engine (vectorized, tuple
oracle, SQLite backend), and at every moment of a policy churn
(a stale plan is never served).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.audit import AUDIT_COUNTERS
from repro.backend import SqliteBackend
from repro.common.errors import ExecutionError, ParseError
from repro.core import Sieve
from repro.core.cache import PlanCache
from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
from repro.datasets.policies import PolicyGenConfig, generate_campus_policies
from repro.datasets.tippers import TippersConfig, WIFI_TABLE, generate_tippers
from repro.db.database import connect
from repro.expr.nodes import Param
from repro.expr.params import (
    bind_query,
    collect_params,
    normalize_bindings,
    parameterize_query,
)
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql
from repro.storage.schema import ColumnType, Schema

# --------------------------------------------------------- SQL front end


def test_positional_params_parse_print_roundtrip():
    sql = "SELECT a FROM t WHERE a = ? AND b < ?"
    query = parse_query(sql)
    params = collect_params(query)
    assert [p.index for p in params] == [0, 1]
    assert all(p.name is None for p in params)
    printed = to_sql(query)
    assert printed.count("?") == 2
    assert parse_query(printed) == query


def test_named_params_share_one_slot():
    query = parse_query("SELECT a FROM t WHERE a >= :lo AND b <= :lo AND c = :hi")
    params = collect_params(query)
    assert [(p.index, p.name) for p in params] == [(0, "lo"), (1, "hi")]
    printed = to_sql(query)
    assert printed.count(":lo") == 2 and printed.count(":hi") == 1
    assert parse_query(printed) == query


def test_bare_colon_is_a_parse_error():
    with pytest.raises(ParseError, match="parameter name"):
        parse_query("SELECT a FROM t WHERE a = :")


def test_unbound_param_refuses_to_execute():
    db = connect("mysql")
    db.create_table("t", Schema.of(("a", ColumnType.INT)))
    db.insert("t", [(1,), (2,)])
    for codegen in (True, False):
        db.codegen = codegen
        with pytest.raises(ExecutionError, match="unbound parameter"):
            db.execute(parse_query("SELECT a FROM t WHERE a = ?"))


def test_normalize_bindings_validates_both_shapes():
    named = collect_params(parse_query("SELECT a FROM t WHERE a = :x AND b = :y"))
    with pytest.raises(ParseError, match="missing"):
        normalize_bindings(named, {"x": 1})
    with pytest.raises(ParseError):
        normalize_bindings(named, [1])  # arity mismatch
    mixed = collect_params(parse_query("SELECT a FROM t WHERE a = :x AND b = ?"))
    with pytest.raises(ParseError, match="positional"):
        normalize_bindings(mixed, {"x": 1})  # by-name needs all-named slots
    assert normalize_bindings(mixed, [1, 2]) == (1, 2)
    positional = collect_params(parse_query("SELECT a FROM t WHERE a = ? AND b = ?"))
    assert normalize_bindings(positional, [1, 2]) == (1, 2)
    with pytest.raises(ParseError):
        normalize_bindings(positional, {"x": 1})  # unnamed slots by name


def test_bind_query_substitutes_and_preserves_identity():
    query = parse_query("SELECT a, 7 AS k FROM t WHERE a < ? AND b IN (?, ?)")
    bound = bind_query(query, [10, 1, 2])
    assert collect_params(bound) == ()
    assert bound == parse_query("SELECT a, 7 AS k FROM t WHERE a < 10 AND b IN (1, 2)")
    # Param-free trees come back as the same object (the compiled-expr
    # cache's id-alias fast path depends on it).
    literal_only = parse_query("SELECT a FROM t WHERE a < 10")
    assert bind_query(literal_only, []) is literal_only


def test_auto_parameterizer_extracts_predicates_not_output_shape():
    query = parse_query(
        "SELECT a, 7 AS k FROM t WHERE a < 10 AND b BETWEEN 2 AND 5 "
        "GROUP BY a HAVING count(*) > 3 ORDER BY a LIMIT 4"
    )
    template, values = parameterize_query(query)
    # WHERE and HAVING literals become params; the SELECT item, the
    # LIMIT and the GROUP BY / ORDER BY shape stay inline.
    assert values == (10, 2, 5, 3)
    printed = to_sql(template)
    assert "7" in printed and "LIMIT 4" in printed
    assert printed.count("?") == 4
    # Rebinding the extracted values reproduces the original query.
    assert bind_query(template, values) == query


def test_parameterizing_a_parameterized_query_is_identity():
    query = parse_query("SELECT a FROM t WHERE a < ?")
    template, values = parameterize_query(query)
    assert template is query and values == ()


# ------------------------------------------------- plan cache semantics


def small_world():
    db = connect("mysql")
    db.create_table(
        "t",
        Schema.of(
            ("id", ColumnType.INT),
            ("owner", ColumnType.INT),
            ("v", ColumnType.INT),
        ),
    )
    db.insert("t", [(i, i % 5, i * 7 % 1000) for i in range(400)])
    db.create_index("t", "owner")
    db.create_index("t", "v")
    db.analyze()
    store = PolicyStore(db)
    for owner in range(5):
        store.insert(
            Policy(
                owner=owner,
                querier="alice",
                purpose="analytics",
                table="t",
                object_conditions=(
                    ObjectCondition("owner", "=", owner),
                    ObjectCondition("v", "<", 600),
                ),
            )
        )
    return db, store


def audit_diff(db, before):
    return {k: v for k, v in db.counters.diff(before).items() if k in AUDIT_COUNTERS}


def test_prepared_rows_and_counters_match_unprepared():
    db, store = small_world()
    sieve = Sieve(db, store)
    prepared = sieve.prepare("SELECT id, v FROM t WHERE v < ? ORDER BY id", "alice", "analytics")
    oracle_sql = "SELECT id, v FROM t WHERE v < 300 ORDER BY id"

    expected = sieve.execute(oracle_sql, "alice", "analytics")
    before = db.counters.snapshot()
    cold = prepared.execute([300])
    cold_diff = audit_diff(db, before)
    assert cold.rows == expected.rows

    before = db.counters.snapshot()
    warm = prepared.execute([300])
    warm_diff = audit_diff(db, before)
    assert warm.rows == expected.rows
    assert db.counters.diff(before)["plan_cache_hits"] == 1

    before = db.counters.snapshot()
    sieve.execute(oracle_sql, "alice", "analytics")
    unprepared_diff = audit_diff(db, before)
    assert warm_diff == unprepared_diff == cold_diff


def test_policy_epoch_bump_invalidates_but_never_breaks():
    db, store = small_world()
    sieve = Sieve(db, store)
    prepared = sieve.prepare("SELECT id FROM t WHERE v < ?", "alice", "analytics")
    prepared.execute([300])
    before = db.counters.snapshot()
    prepared.execute([300])
    assert db.counters.diff(before)["plan_cache_hits"] == 1

    grant = store.insert(
        Policy(
            owner=0,
            querier="alice",
            purpose="analytics",
            table="t",
            object_conditions=(
                ObjectCondition("owner", "=", 0),
                ObjectCondition("v", ">=", 600, "<=", 999),
            ),
        )
    )
    before = db.counters.snapshot()
    widened = prepared.execute([2000])
    diff = db.counters.diff(before)
    assert diff["plan_cache_misses"] >= 1 and diff["plan_cache_hits"] == 0
    oracle = sieve.execute("SELECT id FROM t WHERE v < 2000", "alice", "analytics")
    assert widened.rows == oracle.rows

    store.delete(grant.id)
    narrowed = prepared.execute([2000])
    oracle = sieve.execute("SELECT id FROM t WHERE v < 2000", "alice", "analytics")
    assert narrowed.rows == oracle.rows
    assert len(narrowed.rows) < len(widened.rows)  # the grant mattered


def test_plan_version_bump_invalidates():
    db, store = small_world()
    sieve = Sieve(db, store)
    prepared = sieve.prepare("SELECT id FROM t WHERE v < ?", "alice", "analytics")
    prepared.execute([300])

    db.analyze("t")  # stats version bump
    before = db.counters.snapshot()
    prepared.execute([300])
    assert db.counters.diff(before)["plan_cache_misses"] == 1

    prepared.execute([300])  # re-warm
    db.create_index("t", "id")  # schema version bump
    before = db.counters.snapshot()
    prepared.execute([300])
    assert db.counters.diff(before)["plan_cache_misses"] == 1


def test_midstream_policy_churn_never_serves_stale_plans():
    db, store = small_world()
    sieve = Sieve(db, store)
    prepared = sieve.prepare("SELECT id FROM t WHERE v < ?", "alice", "analytics")
    inserted = []
    for round_no in range(4):
        for value in (250, 700):
            got = prepared.execute([value])
            oracle = sieve.execute(
                f"SELECT id FROM t WHERE v < {value}", "alice", "analytics"
            )
            assert got.rows == oracle.rows, (round_no, value)
        if round_no % 2 == 0:
            inserted.append(
                store.insert(
                    Policy(
                        owner=round_no % 5,
                        querier="alice",
                        purpose="analytics",
                        table="t",
                        object_conditions=(
                            ObjectCondition("owner", "=", round_no % 5),
                            ObjectCondition("v", ">=", 600, "<=", 650 + round_no),
                        ),
                    )
                )
            )
        elif inserted:
            store.delete(inserted.pop().id)
    assert sieve.plan_cache.stats.invalidations >= 1


def test_policy_churn_retains_nothing_per_write():
    """200 alternating writes, each a *new* policy (a corpus no earlier
    epoch had), with reads in between: the superseded expression's
    compiled predicates leave with it, so the compiled-predicate cache,
    the plan cache and the guard store stay flat instead of gaining an
    AST and a kernel per write."""
    db, store = small_world()
    sieve = Sieve(db, store)
    shapes = [
        sieve.prepare("SELECT id FROM t WHERE v < ?", "alice", "analytics"),
        sieve.prepare("SELECT COUNT(*) FROM t", "alice", "analytics"),
    ]

    def sizes():
        return len(db._fn_cache), len(sieve.plan_cache), sieve.guard_store.cache_size()

    settled = None
    grant = None
    for write in range(200):
        if grant is None:
            lo = 600 + write
            grant = store.insert(
                Policy(
                    owner=write % 5,
                    querier="alice",
                    purpose="analytics",
                    table="t",
                    object_conditions=(
                        ObjectCondition("owner", "=", write % 5),
                        ObjectCondition("v", ">=", lo, "<=", lo + 40),
                    ),
                )
            )
        else:
            store.delete(grant.id)
            grant = None
        shapes[0].execute([300])
        shapes[1].execute()
        sieve.execute("SELECT id FROM t WHERE v < 450", "alice", "analytics")  # unprepared path
        if write == 5:
            settled = sizes()
        elif write > 5:
            assert sizes() == settled, write


def test_session_refresh_drops_plan_entries():
    db, store = small_world()
    sieve = Sieve(db, store)
    session = sieve.session("alice", "analytics")
    prepared = session.prepare("SELECT id FROM t WHERE v < ?")
    prepared.execute([300])
    assert session.refresh() >= 1
    before = db.counters.snapshot()
    prepared.execute([300])
    assert db.counters.diff(before)["plan_cache_misses"] == 1


def test_plan_cache_lru_evicts_at_capacity():
    db, store = small_world()
    sieve = Sieve(db, store, plan_cache_capacity=2)
    prepared = sieve.prepare("SELECT id FROM t WHERE v < ?", "alice", "analytics")
    for value in (100, 200, 300):  # three value-keyed entries, capacity 2
        prepared.execute([value])
    assert sieve.plan_cache.stats.evictions >= 1
    before = db.counters.snapshot()
    prepared.execute([300])  # most recent entry survived
    assert db.counters.diff(before)["plan_cache_hits"] == 1


def test_plan_cache_invalidate_by_querier_and_table():
    db, store = small_world()
    sieve = Sieve(db, store)
    prepared = sieve.prepare("SELECT id FROM t WHERE v < ?", "alice", "analytics")
    prepared.execute([300])
    assert sieve.plan_cache.queriers() == {"alice"}
    assert sieve.plan_cache.invalidate(table="other") == 0
    assert sieve.plan_cache.invalidate(querier="bob") == 0
    assert sieve.plan_cache.invalidate(table="T") == 1  # case-insensitive


def test_server_auto_prepares_repeated_shapes():
    from repro.service import SieveServer

    db, store = small_world()
    sieve = Sieve(db, store)
    thresholds = [(i * 53) % 400 for i in range(12)]
    oracle_sieve = Sieve(db, store)
    expected = [
        oracle_sieve.execute(
            f"SELECT id FROM t WHERE v < {t} ORDER BY id", "alice", "analytics"
        ).rows
        for t in thresholds
    ]
    with SieveServer(sieve, workers=2) as server:
        got = server.execute_many(
            [f"SELECT id FROM t WHERE v < {t} ORDER BY id" for t in thresholds],
            "alice",
            "analytics",
            timeout=60,
        )
    assert [r.rows for r in got] == expected
    stats = server.stats()
    # All twelve requests share one auto-parameterized template: the
    # shape crosses the threshold early and later repeats (different
    # literals included) run through the plan cache.
    assert stats.plan_cache is not None
    assert stats.plan_cache["misses"] >= 1
    assert sieve.plan_cache.stats.misses + sieve.plan_cache.stats.hits >= 10


# ----------------------------- the differential property (all engines)


@pytest.fixture(scope="module")
def prepared_mall():
    mall = generate_mall(MallConfig(seed=19, n_shops=12, n_customers=80, days=8))
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall.policies)
    backend = SqliteBackend().ship(mall.db)
    return {
        "db": mall.db,
        "table": CONNECTIVITY_TABLE,
        "querier": mall.shop_querier(mall.shops[0]),
        "purpose": "any",
        "sieve": Sieve(mall.db, store),
        "sieve_backend": Sieve(mall.db, store, backend=backend),
    }


@pytest.fixture(scope="module")
def prepared_tippers():
    dataset = generate_tippers(TippersConfig(seed=23, n_devices=80, days=8))
    campus = generate_campus_policies(dataset, PolicyGenConfig(seed=24))
    store = PolicyStore(dataset.db, dataset.groups)
    store.insert_many(campus.policies)
    backend = SqliteBackend().ship(dataset.db)
    return {
        "db": dataset.db,
        "table": WIFI_TABLE,
        "querier": campus.designated_queriers["faculty"][0],
        "purpose": "analytics",
        "sieve": Sieve(dataset.db, store),
        "sieve_backend": Sieve(dataset.db, store, backend=backend),
    }


def _roundtrip_one(world, engine, sql):
    """Auto-parameterize → prepare → rebind must equal the unprepared
    execution in rows AND enforcement counters, cold and warm."""
    db = world["db"]
    sieve = world["sieve_backend"] if engine == "sqlite" else world["sieve"]
    saved = (db.vectorized, db.codegen)
    db.vectorized, db.codegen = (False, False) if engine == "tuple" else (True, True)
    try:
        querier, purpose = world["querier"], world["purpose"]
        before = db.counters.snapshot()
        expected = sieve.execute(sql, querier, purpose)
        expected_diff = audit_diff(db, before)

        template, values = parameterize_query(parse_query(sql))
        prepared = sieve.prepare(template, querier, purpose)
        for _ in range(2):  # cold fill, then the warm plan-cache hit
            before = db.counters.snapshot()
            got = prepared.execute(values)
            assert got.rows == expected.rows, (engine, sql)
            assert audit_diff(db, before) == expected_diff, (engine, sql)
    finally:
        db.vectorized, db.codegen = saved


ENGINES = ["vectorized", "tuple", "sqlite"]


@pytest.mark.parametrize("engine", ENGINES)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    date_lo=st.integers(min_value=0, max_value=7),
    date_span=st.integers(min_value=0, max_value=7),
    time_lo=st.integers(min_value=0, max_value=1380),
    shape=st.integers(min_value=0, max_value=2),
)
def test_prepared_roundtrip_property(
    prepared_mall, prepared_tippers, engine, date_lo, date_span, time_lo, shape
):
    for world in (prepared_mall, prepared_tippers):
        table = world["table"]
        if shape == 0:
            sql = (
                f"SELECT * FROM {table} "
                f"WHERE ts_date BETWEEN {date_lo} AND {date_lo + date_span}"
            )
        elif shape == 1:
            sql = (
                f"SELECT * FROM {table} "
                f"WHERE ts_time >= {time_lo} AND ts_time <= {time_lo + 120}"
            )
        else:
            sql = (
                f"SELECT count(*) AS n FROM {table} "
                f"WHERE ts_date >= {date_lo} OR ts_time < {time_lo}"
            )
        _roundtrip_one(world, engine, sql)
