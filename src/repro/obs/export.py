"""Metric exposition: Prometheus text format and JSON snapshots.

Builders here are duck-typed against the serving/cluster tiers (no
imports from :mod:`repro.service` or :mod:`repro.cluster`, so the
dependency arrow stays one-way): :func:`server_registry` wires a
:class:`~repro.obs.metrics.MetricsRegistry` over a ``SieveServer``
and :func:`cluster_registry` over a ``SieveCluster``.  Both expose
every count once, read from the tier that keeps it: engine counters
from the executing database's :class:`~repro.db.counters.CounterSet`
(on a cluster, each shard's, labelled ``shard=``), compiled-expression
traffic from that database's cache, serving and cache totals from
``stats()`` (``ServiceStats`` / ``ClusterStats`` and their
:class:`~repro.core.cache.CacheStats`), audit records from the audit
log, and the coordinator's routing and fault counts from
``ClusterStats.counters``.  Queue-wait and service-time totals are the
latency summaries' ``_sum`` samples.  Each tier's own
gauges/summaries read one ``stats()`` snapshot per scrape through a
registry preparer.

Exposition:

* :func:`to_prometheus` — the text format scrapers ingest
  (``# HELP`` / ``# TYPE`` per metric, ``name{labels} value`` per
  sample; summaries expand to quantile-labelled samples plus
  ``_count`` / ``_sum``);
* :func:`to_json` — a structured snapshot carrying the same samples
  plus registry metadata (kind, help, the engine counters'
  ``zero_weight`` flags), shaped for dashboards and tests.

The serving endpoints — ``SieveServer.metrics_prometheus()`` /
``metrics_json()`` and the cluster equivalents — are thin wrappers
over these functions.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry, register_counterset

__all__ = [
    "to_prometheus",
    "to_json",
    "server_registry",
    "cluster_registry",
]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render every metric in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_headers: set[str] = set()
    for metric, samples in registry.collect():
        if metric.name not in seen_headers:
            seen_headers.add(metric.name)
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
        for sample in samples:
            if sample.labels:
                rendered = ",".join(
                    f'{key}="{_escape_label(value)}"' for key, value in sample.labels
                )
                lines.append(f"{sample.name}{{{rendered}}} {_format_value(sample.value)}")
            else:
                lines.append(f"{sample.name} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry) -> dict[str, Any]:
    """A structured JSON-ready snapshot of every metric."""
    metrics: list[dict[str, Any]] = []
    for metric, samples in registry.collect():
        metrics.append(
            {
                "name": metric.name,
                "kind": metric.kind,
                "help": metric.help,
                "zero_weight": metric.zero_weight,
                "samples": [
                    {"name": s.name, "labels": dict(s.labels), "value": s.value}
                    for s in samples
                ],
            }
        )
    return {"metrics": metrics}


def _cache_metrics(registry: MetricsRegistry, name: str, read: Any) -> None:
    """Counters and gauges over a CacheStats.snapshot()-shaped dict source."""

    def field(key: str):
        return lambda: float(read().get(key, 0.0))

    for key in ("hits", "misses"):
        registry.register_counter(f"sieve_{name}_{key}_total", f"{name} {key}", field(key))
    registry.register_gauge(
        f"sieve_{name}_hit_rate", f"{name} hit rate (0..1)", field("hit_rate")
    )
    registry.register_gauge(
        f"sieve_{name}_entries_evicted", f"{name} evictions", field("evictions")
    )
    registry.register_gauge(
        f"sieve_{name}_invalidations", f"{name} invalidations", field("invalidations")
    )


def _owned_counts(
    registry: MetricsRegistry, stats: Any, dbs: Any, audit_logs: Any
) -> None:
    """The counts both front ends expose, each read from its owner:
    engine counters and compiled-expression traffic of the databases
    ``dbs()`` maps labels to, serving and cache totals of the scrape's
    ``stats()`` snapshot, records of the logs ``audit_logs()`` returns."""
    register_counterset(
        registry, lambda: {labels: db.counters for labels, db in dbs().items()}
    )
    for event in ("hits", "misses"):
        registry.register_counter(
            f"sieve_expr_cache_{event}_total",
            f"Compiled-expression cache {event}",
            lambda e=event: {
                labels: getattr(db.expr_cache, e) for labels, db in dbs().items()
            },
        )
    for field in ("requests", "batches", "rejections", "failures", "deadline_timeouts"):
        registry.register_counter(
            f"sieve_service_{field}_total",
            f"Serving count stats().{field}",
            lambda f=field: getattr(stats(), f),
        )
    _cache_metrics(registry, "guard_cache", lambda: stats().guard_cache)
    _cache_metrics(registry, "plan_cache", lambda: stats().plan_cache)
    registry.register_counter(
        "sieve_audit_records_total",
        "Decision records chained into the audit log",
        lambda: sum(len(log) for log in audit_logs()),
    )
    registry.register_counter(
        "sieve_audit_flushes_total",
        "Audit chaining passes (a worker buffer's flush, or one direct append)",
        lambda: sum(log.flushes for log in audit_logs()),
    )


def server_registry(server: Any) -> MetricsRegistry:
    """A registry over one ``SieveServer``: the engine, serving, cache
    and audit counts + serving gauges/summaries (one ``stats()`` call
    per scrape)."""
    registry = MetricsRegistry()
    cell: dict[str, Any] = {}
    registry.add_preparer(lambda: cell.__setitem__("stats", server.stats()))
    sieve = server.sieve
    _owned_counts(
        registry,
        lambda: cell["stats"],
        lambda: {(): sieve.db},
        lambda: [] if sieve.audit is None else [sieve.audit],
    )

    def stat(reader):
        return lambda: reader(cell["stats"])

    registry.register_gauge(
        "sieve_service_workers", "Worker threads in the serving pool", stat(lambda s: s.workers)
    )
    registry.register_gauge(
        "sieve_service_pending", "Requests queued, not yet picked up", stat(lambda s: s.pending)
    )
    registry.register_gauge(
        "sieve_service_mean_batch_size",
        "Mean admission-batch size",
        stat(lambda s: s.mean_batch_size),
    )
    registry.register_summary(
        "sieve_request_latency_ms",
        "Service time (worker pickup to result), milliseconds",
        stat(lambda s: s.latency),
    )
    registry.register_summary(
        "sieve_queue_wait_ms",
        "Queue wait (submit to worker pickup), milliseconds",
        stat(lambda s: s.queue_wait),
    )
    registry.register_summary(
        "sieve_total_latency_ms",
        "End-to-end latency (submit to result, queue wait included), milliseconds",
        stat(lambda s: s.total_latency),
    )

    tracer = getattr(server.sieve, "tracer", None)
    if tracer is not None:
        registry.register_gauge(
            "sieve_traces_retained",
            "Finished traces currently in the tracer ring",
            lambda: len(tracer.traces()),
        )
        registry.register_counter(
            "sieve_traces_finished_total",
            "Root spans delivered to the tracer ring",
            lambda: tracer.finished_count,
        )
    slow_log = getattr(server.sieve, "slow_query_log", None)
    if slow_log is not None:
        registry.register_gauge(
            "sieve_slow_queries_retained",
            f"Span trees retained above the {slow_log.threshold_ms}ms threshold",
            lambda: len(slow_log),
        )
    return registry


def cluster_registry(cluster: Any) -> MetricsRegistry:
    """A registry over one ``SieveCluster``: each shard's engine counters
    labelled ``shard=`` (no shard executes on the coordinator's
    database), the serving, cache and coordinator totals of
    ``stats()``, merged serving summaries, and per-shard labelled
    gauges."""
    registry = MetricsRegistry()
    cell: dict[str, Any] = {}

    def prepare() -> None:
        cell["stats"] = cluster.stats()
        cell["dbs"] = {
            (("shard", name),): db for name, db in cluster.shard_databases().items()
        }

    registry.add_preparer(prepare)
    _owned_counts(
        registry,
        lambda: cell["stats"],
        lambda: cell["dbs"],
        lambda: cluster.audit_logs().values(),
    )
    for name in cluster.stats().counters:
        registry.register_counter(
            f"sieve_{name}_total",
            f"Coordinator count {name} (ClusterStats.counters)",
            lambda n=name: cell["stats"].counters[n],
        )

    def stat(reader):
        return lambda: reader(cell["stats"])

    registry.register_gauge(
        "sieve_cluster_shards", "Shards currently in the ring", stat(lambda s: s.shards)
    )
    registry.register_gauge(
        "sieve_cluster_pending",
        "Requests queued across all shards",
        stat(lambda s: s.pending),
    )
    registry.register_summary(
        "sieve_cluster_latency_ms",
        "Merged per-shard service latency, milliseconds",
        stat(lambda s: s.latency),
    )
    registry.register_summary(
        "sieve_cluster_queue_wait_ms",
        "Merged per-shard queue wait, milliseconds",
        stat(lambda s: s.queue_wait),
    )

    def per_shard(reader):
        def collect() -> dict[tuple[tuple[str, str], ...], float]:
            stats = cell["stats"]
            return {
                (("shard", name),): float(reader(shard_stats))
                for name, shard_stats in stats.per_shard.items()
            }

        return collect

    registry.register_gauge(
        "sieve_shard_requests", "Requests served, per shard", per_shard(lambda s: s.requests)
    )
    registry.register_gauge(
        "sieve_shard_pending", "Queued requests, per shard", per_shard(lambda s: s.pending)
    )
    registry.register_gauge(
        "sieve_shard_failures", "Failed requests, per shard", per_shard(lambda s: s.failures)
    )
    registry.register_gauge(
        "sieve_shard_p95_ms",
        "p95 service latency, per shard (milliseconds)",
        per_shard(lambda s: s.latency.p95_ms),
    )
    registry.register_gauge(
        "sieve_shard_partition_policies",
        "Policy-partition size, per shard (the ~1/N corpus share)",
        lambda: {
            (("shard", name),): float(count)
            for name, count in cell["stats"].partition_policies.items()
        },
    )
    registry.register_gauge(
        "sieve_shard_health",
        "Tracked shard health (0=healthy, 2=unhealthy)",
        lambda: {
            (("shard", name),): 2.0 if status == "unhealthy" else 0.0
            for name, status in cell["stats"].health.items()
        },
    )
    registry.register_gauge(
        "sieve_cluster_reroutes",
        "Active health detours (down shards being routed around)",
        stat(lambda s: len(s.reroutes)),
    )
    return registry
