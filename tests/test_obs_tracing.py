"""Observability tier: span tracing through the middleware pipeline.

Covers the tracing tentpole — span-tree shape across every pipeline
phase, trace-id stamping/uniqueness, cross-thread propagation through
the serving and cluster tiers, the slow-query log, and the replay
regression (trace ids must never break audit bit-identity).
"""

from __future__ import annotations

import pytest

from conftest import load_tool_module, make_policies, make_wifi_db
from repro.audit import AuditLog
from repro.bench.scenarios import mall_policies_for_shop
from repro.cluster import SieveCluster
from repro.core.middleware import Sieve
from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
from repro.obs.tracing import (
    NULL_SCOPE,
    Span,
    Tracer,
    attributed_fraction,
    clear_inherited_trace_id,
    current_span,
    current_trace_id,
    new_trace_id,
    set_inherited_trace_id,
    span,
)
from repro.policy.store import PolicyStore
from repro.service import SieveServer

SQL = "SELECT * FROM wifi WHERE ts_date BETWEEN 10 AND 40"


def _traced_sieve(audit: bool = True, **kwargs):
    db, _rows = make_wifi_db(**kwargs)
    store = PolicyStore(db)
    store.insert_many(make_policies())
    sieve = Sieve(db, store, audit=AuditLog() if audit else None)
    sieve.enable_tracing()
    return sieve


# ------------------------------------------------------------- span basics


def test_span_outside_any_trace_is_shared_noop():
    scope = span("anything", table="t")
    assert scope is NULL_SCOPE
    with scope as s:
        s.set(ignored=True)  # discarded, no error
    assert current_span() is None
    assert current_trace_id() is None


def test_trace_ids_are_unique_and_thread_stamped():
    ids = {new_trace_id() for _ in range(1000)}
    assert len(ids) == 1000
    assert all("-" in tid for tid in ids)


def test_span_tree_walk_find_and_to_dict():
    tracer = Tracer()
    with tracer.trace("root") as root:
        with span("a"):
            with span("b", table="wifi"):
                pass
        with span("a"):
            pass
    names = [s.name for s in root.walk()]
    assert names == ["root", "a", "b", "a"]
    assert root.find("b").attrs["table"] == "wifi"
    assert len(root.find_all("a")) == 2
    tree = root.to_dict()
    assert tree["name"] == "root"
    assert tree["children"][0]["children"][0]["attrs"] == {"table": "wifi"}
    assert all(s.trace_id == root.trace_id for s in root.walk())


def test_exception_marks_span_and_still_delivers():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.trace("root"):
            with span("inner"):
                raise ValueError("boom")
    (root,) = tracer.traces()
    assert root.attrs["error"] == "ValueError"
    assert root.find("inner").attrs["error"] == "ValueError"
    assert current_span() is None  # stack fully unwound


def test_nested_trace_degrades_to_child_span():
    tracer = Tracer()
    with tracer.trace("outer") as outer:
        with tracer.trace("inner") as inner:
            assert isinstance(inner, Span)
            assert inner.trace_id == outer.trace_id
    roots = tracer.traces()
    assert [r.name for r in roots] == ["outer"]  # one trace, not two
    assert outer.find("inner") is not None


def test_inherited_trace_id_adopted_by_next_root():
    tracer = Tracer()
    set_inherited_trace_id("ride-along")
    try:
        with tracer.trace("root") as root:
            assert root.trace_id == "ride-along"
    finally:
        clear_inherited_trace_id()
    with tracer.trace("root2") as root2:
        assert root2.trace_id != "ride-along"


def test_tracer_ring_capacity_and_finished_count():
    tracer = Tracer(capacity=4)
    for i in range(6):
        with tracer.trace(f"t{i}"):
            pass
    assert tracer.finished_count == 6
    retained = tracer.traces()
    assert [r.name for r in retained] == ["t2", "t3", "t4", "t5"]
    assert tracer.clear() == 4
    assert tracer.traces() == []


def test_raising_callback_is_disarmed():
    tracer = Tracer()
    tracer.on_finish(lambda root: (_ for _ in ()).throw(RuntimeError("cb")))
    with tracer.trace("root"):
        pass
    assert tracer.callback_errors == 1
    assert len(tracer.traces()) == 1


# ---------------------------------------------------------- middleware spans


def test_middleware_trace_covers_every_phase():
    sieve = _traced_sieve()
    execution = sieve.execute_with_info(SQL, "prof", "analytics")
    (root,) = sieve.tracer.traces()
    assert root.name == "sieve.query"
    for phase in (
        "middleware.prepare",
        "parse",
        "guard.resolve",
        "strategy",
        "rewrite",
        "execute",
        "plan",
        "run",
        "audit.record",
    ):
        assert root.find(phase) is not None, f"missing span {phase}"
    assert root.attrs["engine"] == execution.engine
    assert root.attrs["rows_admitted"] == len(execution.result.rows)
    assert root.find("guard.resolve").attrs["table"] == "wifi"
    assert root.find("strategy").attrs["strategy"] in (
        "LinearScan",
        "IndexQuery",
        "IndexGuards",
    )
    # The named phases explain nearly all of the end-to-end time.
    assert attributed_fraction(root) > 0.8


def test_named_phases_explain_mall_query_time():
    """Duration-weighted over ~20 traced Mall queries (shops as
    queriers, scan/aggregate shapes, audit on), the root's direct
    children — ``middleware.prepare``, ``execute``, ``audit.record`` —
    cover >= 90% of ``sieve.query`` wall time: the trace tree explains
    a request's latency instead of leaving it in unlabelled gaps."""
    mall = generate_mall(
        MallConfig(seed=13, n_customers=200, days=10, personality="postgres")
    )
    store = PolicyStore(mall.db, mall.groups)
    shops = mall.shops[:4]
    for shop in shops:
        store.insert_many(mall_policies_for_shop(mall, shop, 60))
    sieve = Sieve(mall.db, store, audit=AuditLog())
    sieve.enable_tracing()
    sqls = [
        f"SELECT COUNT(*) FROM {CONNECTIVITY_TABLE}",
        f"SELECT owner, COUNT(*) FROM {CONNECTIVITY_TABLE} GROUP BY owner",
        f"SELECT COUNT(*) FROM {CONNECTIVITY_TABLE} WHERE ts_time BETWEEN 600 AND 1200",
    ]
    for _ in range(2):  # one cold pass (guard generation), one warm
        for shop in shops:
            for sql in sqls:
                sieve.execute(sql, mall.shop_querier(shop), "any")
    roots = sieve.tracer.traces()
    assert len(roots) == 24 and {r.name for r in roots} == {"sieve.query"}
    total_ms = sum(root.duration_ms for root in roots)
    covered_ms = sum(root.duration_ms * attributed_fraction(root) for root in roots)
    assert covered_ms / total_ms >= 0.90


def test_trace_id_stamped_into_execution_and_audit():
    sieve = _traced_sieve()
    execution = sieve.execute_with_info(SQL, "prof", "analytics")
    assert execution.trace_id
    record = sieve.audit.records()[-1]
    assert record.payload["trace_id"] == execution.trace_id
    # Replay comparisons must ignore the id: it names one live run.
    assert "trace_id" not in record.decision_view()
    assert "trace_id" not in record.decision_view(include_counters=False)


def test_tracing_disabled_is_inert():
    db, _rows = make_wifi_db()
    store = PolicyStore(db)
    store.insert_many(make_policies())
    sieve = Sieve(db, store, audit=AuditLog())
    execution = sieve.execute_with_info(SQL, "prof", "analytics")
    assert sieve.tracer is None
    assert execution.trace_id == ""
    assert sieve.audit.records()[-1].payload["trace_id"] == ""


def test_enable_tracing_is_idempotent():
    sieve = _traced_sieve(audit=False)
    tracer = sieve.tracer
    assert sieve.enable_tracing() is tracer
    assert sieve.enable_tracing(slow_query_ms=0.0) is tracer
    log = sieve.slow_query_log
    assert log is not None
    assert sieve.enable_tracing(slow_query_ms=50.0).on_finish  # still same tracer
    assert sieve.slow_query_log is log  # threshold not silently replaced


# ------------------------------------------------------------ slow-query log


def test_slow_query_log_threshold():
    sieve = _traced_sieve(audit=False)
    sieve.enable_tracing(slow_query_ms=1e9)  # nothing is that slow
    sieve.execute(SQL, "prof", "analytics")
    assert len(sieve.slow_query_log) == 0

    sieve2 = _traced_sieve(audit=False)
    sieve2.enable_tracing(slow_query_ms=0.0)  # everything qualifies
    sieve2.execute(SQL, "prof", "analytics")
    entries = sieve2.slow_query_log.entries()
    assert len(entries) == 1
    entry = entries[0]
    assert entry["name"] == "sieve.query"
    assert entry["duration_ms"] > 0.0
    # Retained evidence is a plain dict tree, not live spans.
    assert isinstance(entry["tree"], dict)
    child_names = [c["name"] for c in entry["tree"]["children"]]
    assert "middleware.prepare" in child_names and "execute" in child_names


# --------------------------------------------------------------- serving tier


def test_server_stress_trace_ids_unique_across_workers():
    db, _rows = make_wifi_db()
    store = PolicyStore(db)
    queriers = [f"prof{i}" for i in range(8)]
    for querier in queriers:
        store.insert_many(make_policies(n_owners=10, querier=querier))
    sieve = Sieve(db, store)
    sieve.enable_tracing()
    n_requests = 200
    server = SieveServer(sieve, workers=8)
    with server:
        futures = [
            server.submit_with_info(SQL, queriers[i % len(queriers)], "analytics")
            for i in range(n_requests)
        ]
        executions = [f.result(timeout=60) for f in futures]
    ids = [e.trace_id for e in executions]
    assert all(ids)
    assert len(set(ids)) == n_requests
    # Worker-buffered delivery: after stop() every trace reached the ring
    # (capacity 1024 >= n_requests) exactly once.
    ring_ids = [root.trace_id for root in sieve.tracer.traces()]
    assert sorted(ring_ids) == sorted(ids)
    assert sieve.tracer.finished_count == n_requests


def test_cluster_routing_span_correlates_with_shard_execution():
    db, _rows = make_wifi_db()
    store = PolicyStore(db)
    store.insert_many(make_policies())
    cluster = SieveCluster.replicated(db, store, n_shards=2)
    tracer = cluster.enable_tracing()
    with cluster:
        execution = cluster.execute_with_info(SQL, "prof", "analytics")
    roots = tracer.traces()
    routes = [r for r in roots if r.name == "cluster.route"]
    queries = [r for r in roots if r.name == "sieve.query"]
    assert routes and queries
    # The shard-side execution root reuses the routing root's trace id.
    assert execution.trace_id == routes[0].trace_id
    assert queries[0].trace_id == routes[0].trace_id
    assert routes[0].attrs["shard"] in cluster.shard_names


# ------------------------------------------------------------------- replay


def test_replay_bit_identical_with_tracing_enabled():
    """Tracing must not perturb the audit chain: records made under a
    live tracer replay bit-identically on an untraced Sieve."""
    sieve = _traced_sieve()
    for sql in (
        SQL,
        "SELECT * FROM wifi WHERE wifiap = 3",
        "SELECT COUNT(*) FROM wifi",
    ):
        sieve.execute(sql, "prof", "analytics")
    replay = load_tool_module("replay")
    report = replay.replay_records(
        sieve.audit.records(),
        sieve.policy_store,
        db=sieve.db,
        cost_model=sieve.cost_model,
    )
    assert report.ok, report.describe()
    assert report.replayed == 3
