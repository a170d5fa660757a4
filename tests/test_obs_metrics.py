"""Observability tier: the unified metrics registry and exposition.

Counter-name consistency against the engine CounterSet (exactly-once
registration, cost-weight-derived zero_weight flags), Prometheus/JSON
rendering, the serving and cluster endpoints, the to_dict() snapshot
surfaces.
"""

from __future__ import annotations

import pytest

from conftest import hist_of, make_policies, make_wifi_db
from repro.cluster import ClusterStats, SieveCluster
from repro.core.middleware import Sieve
from repro.db.counters import CounterSet
from repro.obs.export import to_json, to_prometheus
from repro.obs.metrics import (
    COUNTER_METRIC_PREFIX,
    Metric,
    MetricsRegistry,
    register_counterset,
    weighted_counter_names,
)
from repro.policy.store import PolicyStore
from repro.service import LatencySummary, ServiceStats, SieveServer

SQL = "SELECT * FROM wifi WHERE ts_date BETWEEN 10 AND 40"

#: Counters that carry cost_units weight — pinned by hand so a weight
#: accidentally dropped from the cost model fails this file, not just
#: flips a flag silently.
EXPECTED_WEIGHTED = {
    "pages_sequential",
    "pages_random",
    "pages_bitmap",
    "tuples_scanned",
    "predicate_evals",
    "policy_evals",
    "index_node_visits",
    "udf_invocations",
    "udf_policy_evals",
}


def _served_sieve():
    db, _rows = make_wifi_db()
    store = PolicyStore(db)
    store.insert_many(make_policies())
    return Sieve(db, store)


# ------------------------------------------------------- registry mechanics


def test_every_engine_counter_registers_exactly_once():
    registry = MetricsRegistry()
    counters = CounterSet()
    metrics = register_counterset(registry, counters)
    assert len(metrics) == len(CounterSet._COUNTER_NAMES)
    for name in CounterSet._COUNTER_NAMES:
        metric_name = f"{COUNTER_METRIC_PREFIX}{name}_total"
        found = registry.get(metric_name)
        assert len(found) == 1, f"{metric_name} registered {len(found)} times"
        assert found[0].kind == "counter"
        assert found[0].zero_weight == (name not in EXPECTED_WEIGHTED)


def test_weighted_set_probes_the_live_cost_model():
    assert weighted_counter_names() == frozenset(EXPECTED_WEIGHTED)


def test_counter_samples_track_the_live_counterset():
    registry = MetricsRegistry()
    counters = CounterSet()
    register_counterset(registry, counters)
    counters.tuples_scanned += 7
    (metric,) = registry.get("sieve_tuples_scanned_total")
    (sample,) = metric.samples()
    assert sample.value == 7.0
    counters.tuples_scanned += 3
    (sample,) = metric.samples()
    assert sample.value == 10.0  # reads are live, not snapshotted


def test_duplicate_registration_raises():
    registry = MetricsRegistry()
    registry.register_gauge("sieve_x", "x", lambda: 1.0)
    with pytest.raises(ValueError, match="already registered"):
        registry.register_gauge("sieve_x", "x again", lambda: 2.0)
    # Same name under different fixed labels is a distinct series.
    registry.register_gauge("sieve_x", "x by shard", lambda: 3.0, labels={"shard": "s0"})
    assert len(registry.get("sieve_x")) == 2


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown metric kind"):
        Metric("sieve_y", "histogram", "nope", lambda: 0.0)


def test_preparer_runs_once_per_collect():
    registry = MetricsRegistry()
    calls = {"n": 0}
    snap = {}

    def prepare():
        calls["n"] += 1
        snap["v"] = calls["n"]

    registry.add_preparer(prepare)
    registry.register_gauge("sieve_a", "a", lambda: snap["v"])
    registry.register_gauge("sieve_b", "b", lambda: snap["v"])
    collected = registry.collect()
    assert calls["n"] == 1  # two metrics, one shared snapshot
    assert [s.value for _, samples in collected for s in samples] == [1.0, 1.0]
    registry.collect()
    assert calls["n"] == 2


# -------------------------------------------------------------- exposition


def test_prometheus_text_format():
    registry = MetricsRegistry()
    registry.register_counter("sieve_widgets_total", "Widgets\nmade", lambda: 4)
    registry.register_gauge(
        "sieve_depth", "Depth", lambda: 2.5, labels={"shard": 'a"b\\c'}
    )
    registry.register_summary(
        "sieve_lat_ms",
        "Latency",
        lambda: {"count": 2, "mean_ms": 3.0, "p50_ms": 2.0, "p95_ms": 4.0, "p99_ms": 5.0},
    )
    text = to_prometheus(registry)
    lines = text.splitlines()
    assert "# HELP sieve_widgets_total Widgets\\nmade" in lines
    assert "# TYPE sieve_widgets_total counter" in lines
    assert "sieve_widgets_total 4" in lines
    assert 'sieve_depth{shard="a\\"b\\\\c"} 2.5' in lines
    assert "# TYPE sieve_lat_ms summary" in lines
    assert 'sieve_lat_ms{quantile="0.95"} 4' in lines
    assert "sieve_lat_ms_count 2" in lines
    assert "sieve_lat_ms_sum 6" in lines  # mean * count
    assert text.endswith("\n")


def test_prometheus_headers_once_per_name_across_label_sets():
    registry = MetricsRegistry()
    registry.register_gauge("sieve_x", "x", lambda: 1.0, labels={"shard": "s0"})
    registry.register_gauge("sieve_x", "x", lambda: 2.0, labels={"shard": "s1"})
    text = to_prometheus(registry)
    assert text.count("# TYPE sieve_x gauge") == 1
    assert 'sieve_x{shard="s0"} 1' in text
    assert 'sieve_x{shard="s1"} 2' in text


def test_json_snapshot_carries_metadata():
    registry = MetricsRegistry()
    counters = CounterSet()
    register_counterset(registry, counters)
    counters.pages_sequential += 5
    body = to_json(registry)
    by_name = {m["name"]: m for m in body["metrics"]}
    scanned = by_name["sieve_pages_sequential_total"]
    assert scanned["kind"] == "counter"
    assert scanned["zero_weight"] is False
    assert scanned["samples"] == [
        {"name": "sieve_pages_sequential_total", "labels": {}, "value": 5.0}
    ]
    assert by_name["sieve_audit_records_total"]["zero_weight"] is True


# --------------------------------------------------------- serving endpoints


def test_server_metrics_endpoints():
    sieve = _served_sieve()
    sieve.enable_tracing(slow_query_ms=0.0)
    server = SieveServer(sieve, workers=2)
    with server:
        for _ in range(4):
            server.execute(SQL, "prof", "analytics")
        registry = server.metrics_registry()
        assert server.metrics_registry() is registry  # built once, reused
        text = server.metrics_prometheus()
        body = server.metrics_json()

    assert "sieve_service_workers 2" in text
    assert 'sieve_request_latency_ms{quantile="0.95"}' in text
    assert "sieve_queue_wait_ms_count 4" in text
    assert "sieve_guard_cache_hit_rate" in text
    # Tracer metrics register because tracing was on at build time.
    assert "sieve_traces_finished_total 4" in text
    assert "sieve_slow_queries_retained 4" in text

    by_name = {m["name"]: m for m in body["metrics"]}
    live = sieve.db.counters.tuples_scanned
    assert by_name["sieve_tuples_scanned_total"]["samples"][0]["value"] == float(live)
    assert live > 0


def test_cluster_metrics_endpoints_label_shards():
    db, _rows = make_wifi_db()
    store = PolicyStore(db)
    store.insert_many(make_policies())
    cluster = SieveCluster.replicated(db, store, n_shards=2)
    with cluster:
        for _ in range(3):
            cluster.execute(SQL, "prof", "analytics")
        text = cluster.metrics_prometheus()
        body = cluster.metrics_json()
        names = cluster.shard_names

    assert "sieve_cluster_shards 2" in text
    for name in names:
        assert f'sieve_shard_requests{{shard="{name}"}}' in text
        assert f'sieve_shard_partition_policies{{shard="{name}"}}' in text
    by_name = {m["name"]: m for m in body["metrics"]}
    shard_requests = {
        s["labels"]["shard"]: s["value"]
        for s in by_name["sieve_shard_requests"]["samples"]
    }
    assert set(shard_requests) == set(names)
    assert sum(shard_requests.values()) == 3.0
    assert by_name["sieve_cluster_requests_total"]["samples"][0]["value"] == 3.0


# ----------------------------------------------------------- dict snapshots


def test_service_stats_to_dict_shapes():
    sieve = _served_sieve()
    server = SieveServer(sieve, workers=2)
    with server:
        server.execute(SQL, "prof", "analytics")
        stats = server.stats()
    data = stats.to_dict()
    assert data["workers"] == 2
    assert data["requests"] == 1
    assert data["latency"]["count"] == 1
    assert set(data["latency"]) == {"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"}
    assert data["mean_batch_size"] == stats.mean_batch_size
    assert isinstance(data["guard_cache"], dict)
    import json

    json.dumps(data)  # fully JSON-serializable


def test_cluster_stats_to_dict_without_a_cluster():
    shard = ServiceStats(
        workers=1, pending=0, requests=5, batches=2, rejections=0, failures=1,
        latency_hist=hist_of([1.0, 2.0]),
        guard_cache={"hits": 3, "misses": 2, "evictions": 0, "invalidations": 0,
                     "coalesced": 0, "hit_rate": 0.6},
    )
    merged = ClusterStats.merge({"s0": shard}, {"s0": 40}, {"cluster_requests": 5})
    data = merged.to_dict()
    assert data["shards"] == 1
    assert data["requests"] == 5
    assert data["failures"] == 1
    assert data["partition_policies"] == {"s0": 40}
    assert data["per_shard"]["s0"]["requests"] == 5
    assert data["counters"]["cluster_requests"] == 5
    assert data["latency"] == shard.latency.to_dict()  # single-shard passthrough


def test_latency_summary_to_dict_round_trip():
    hist = hist_of([1.0, 3.0, 2.0])
    summary = LatencySummary.of_histogram(hist)
    data = summary.to_dict()
    assert data["count"] == 3
    assert data["p50_ms"] == pytest.approx(2.0, rel=hist.relative_error)
    assert LatencySummary(**data) == summary
