"""Observability tier: phase tracing, unified metrics, selectivity feedback.

Three pieces, all pull- or callback-based so the enforcement hot path
stays allocation-light:

* :mod:`repro.obs.tracing` — per-request span trees (``Tracer`` /
  ``Span``) threaded from :meth:`Sieve.execute
  <repro.core.middleware.Sieve.execute>` through guard resolution,
  strategy choice, rewrite, planning and execution, plus the
  :class:`SlowQueryLog` that keeps full span trees for outliers;
* :mod:`repro.obs.metrics` + :mod:`repro.obs.export` — one
  :class:`MetricsRegistry` unifying the deterministic
  :class:`~repro.db.counters.CounterSet`, ``ServiceStats``,
  ``ClusterStats`` and cache stats behind Prometheus text exposition
  and JSON snapshots;
* :mod:`repro.obs.profile` — :class:`SelectivityProfiler`, which turns
  finished traces into per-guard *observed* selectivities and cache
  hit rates and feeds them back through
  :meth:`SieveCostModel.observe <repro.core.cost_model.SieveCostModel.observe>`
  so :mod:`repro.core.strategy` prefers measured over estimated rows;
* :mod:`repro.obs.histogram` — :class:`LatencyHistogram`, the
  log-bucketed, exactly-mergeable latency population behind every
  serving-tier summary (error-bounded quantiles, exact cross-shard
  merges);
* :mod:`repro.obs.health` — per-component :class:`HealthRegistry`
  checks (worker liveness, queue depth, snapshot consistency, cache
  hit-rate floors, shard liveness) rolled up to
  healthy/degraded/unhealthy.

See ``docs/ARCHITECTURE.md`` §11 for the span taxonomy and exposition
formats and §12 for histogram buckets and the health checks.
"""

from repro.obs.health import (
    ComponentHealth,
    HealthRegistry,
    HealthReport,
    HealthStatus,
    cluster_health,
    server_health,
)
from repro.obs.histogram import LatencyHistogram
from repro.obs.metrics import (
    Metric,
    MetricsRegistry,
    Sample,
    register_counterset,
    weighted_counter_names,
)
from repro.obs.profile import SelectivityProfiler
from repro.obs.tracing import (
    SlowQueryLog,
    Span,
    Tracer,
    attributed_fraction,
    current_span,
    current_trace_id,
    span,
)

__all__ = [
    "ComponentHealth",
    "HealthRegistry",
    "HealthReport",
    "HealthStatus",
    "LatencyHistogram",
    "Metric",
    "MetricsRegistry",
    "Sample",
    "SelectivityProfiler",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "attributed_fraction",
    "cluster_health",
    "current_span",
    "current_trace_id",
    "register_counterset",
    "server_health",
    "span",
    "weighted_counter_names",
]
