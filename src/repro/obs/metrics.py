"""A unified metrics registry over the repo's scattered stat sources.

Before this module the system had four disjoint accounting surfaces —
the deterministic :class:`~repro.db.counters.CounterSet`, the serving
tier's ``ServiceStats``, the cluster's ``ClusterStats`` and the cache
tiers' ``CacheStats`` — each with its own snapshot shape.  A
:class:`MetricsRegistry` names them all uniformly:

* **counter** — monotonically non-decreasing (Prometheus convention:
  names end in ``_total``).  Counters registered from a
  :class:`~repro.db.counters.CounterSet` carry a ``zero_weight`` flag:
  True exactly when the counter contributes nothing to ``cost_units``
  (``tuples_output``, ``batches``, the backend counts) — derived by
  *probing* the cost model (:func:`weighted_counter_names`), so the
  flag can never drift from the authoritative weights.  The registry
  stores nothing of its own: every other counter reads the tier that
  keeps the count (:mod:`repro.obs.export`).
* **gauge** — a point-in-time level (queue depth, worker count,
  cache hit rate).
* **summary** — a latency population exposed Prometheus-summary
  style: ``<name>{quantile="0.5|0.95|0.99"}``, ``<name>_count`` and
  ``<name>_sum`` samples, collected from anything with a
  ``LatencySummary``-shaped ``to_dict()``.

Collection is pull-based: nothing here costs the hot path anything.
A registry's *preparers* run once per :meth:`MetricsRegistry.collect`
so N metrics reading one expensive snapshot (``server.stats()``)
share a single call.  Metric names are unique per ``(name, fixed
labels)`` — duplicate registration raises, which is what the
counter-consistency test leans on.

Rendering lives in :mod:`repro.obs.export` (Prometheus text / JSON).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.db.counters import CounterSet

__all__ = [
    "Sample",
    "Metric",
    "MetricsRegistry",
    "register_counterset",
    "weighted_counter_names",
    "COUNTER_METRIC_PREFIX",
]

#: Registry name of an engine counter ``x`` is ``sieve_x_total``.
COUNTER_METRIC_PREFIX = "sieve_"

KINDS = ("counter", "gauge", "summary")

#: Label sets are canonicalized to sorted tuples of (key, value) pairs.
Labels = tuple[tuple[str, str], ...]


def _canonical_labels(labels: Mapping[str, Any] | Labels | None) -> Labels:
    if not labels:
        return ()
    if isinstance(labels, tuple):
        pairs = labels
    else:
        pairs = tuple(labels.items())
    return tuple(sorted((str(k), str(v)) for k, v in pairs))


@dataclass(frozen=True)
class Sample:
    """One exposed value: metric name + resolved labels + value."""

    name: str
    value: float
    labels: Labels = ()


@dataclass
class Metric:
    """One named metric and how to read it.

    ``collect`` returns, depending on ``kind``:

    * counter/gauge — a number, or a mapping ``{labels: number}``
      (labels as a dict or canonical tuple) for dynamic label sets
      such as per-shard values;
    * summary — an object with a ``to_dict()`` producing
      ``count`` / ``mean_ms`` / ``p50_ms`` / ``p95_ms`` / ``p99_ms``
      (a :class:`~repro.service.server.LatencySummary`), or that dict
      directly.

    ``zero_weight`` is meaningful only for counters mirrored from the
    engine :class:`~repro.db.counters.CounterSet`: True when the
    counter carries no ``cost_units`` weight.  ``None`` = not an
    engine counter.
    """

    name: str
    kind: str
    help: str
    collect: Callable[[], Any]
    zero_weight: bool | None = None
    labels: Labels = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        self.labels = _canonical_labels(self.labels)

    def samples(self) -> list[Sample]:
        value = self.collect()
        if self.kind == "summary":
            data = value.to_dict() if hasattr(value, "to_dict") else dict(value)
            count = float(data.get("count", 0))
            mean = float(data.get("mean_ms", 0.0))
            out = [
                Sample(
                    self.name,
                    float(data.get(f"p{q}_ms", 0.0)),
                    self.labels + (("quantile", f"0.{q}"),),
                )
                for q in (50, 95, 99)
            ]
            out.append(Sample(f"{self.name}_count", count, self.labels))
            out.append(Sample(f"{self.name}_sum", mean * count, self.labels))
            return out
        if isinstance(value, Mapping):
            return [
                Sample(self.name, float(v), self.labels + _canonical_labels(k))
                for k, v in value.items()
            ]
        return [Sample(self.name, float(value), self.labels)]


class MetricsRegistry:
    """Named metrics with uniqueness enforcement and shared preparers.

    Thread-safe for registration vs collection; ``collect`` itself
    calls out to the metric sources, which snapshot under their own
    locks.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, Labels], Metric] = {}
        self._preparers: list[Callable[[], None]] = []

    # --------------------------------------------------------- registration

    def register(self, metric: Metric) -> Metric:
        key = (metric.name, metric.labels)
        with self._lock:
            if key in self._metrics:
                raise ValueError(
                    f"metric {metric.name!r} with labels {dict(metric.labels)!r} "
                    f"is already registered"
                )
            self._metrics[key] = metric
        return metric

    def register_counter(
        self,
        name: str,
        help: str,
        collect: Callable[[], Any],
        zero_weight: bool | None = None,
        labels: Mapping[str, Any] | None = None,
    ) -> Metric:
        return self.register(
            Metric(name, "counter", help, collect, zero_weight, _canonical_labels(labels))
        )

    def register_gauge(
        self,
        name: str,
        help: str,
        collect: Callable[[], Any],
        labels: Mapping[str, Any] | None = None,
    ) -> Metric:
        return self.register(
            Metric(name, "gauge", help, collect, None, _canonical_labels(labels))
        )

    def register_summary(
        self,
        name: str,
        help: str,
        collect: Callable[[], Any],
        labels: Mapping[str, Any] | None = None,
    ) -> Metric:
        return self.register(
            Metric(name, "summary", help, collect, None, _canonical_labels(labels))
        )

    def add_preparer(self, prepare: Callable[[], None]) -> None:
        """Run once per :meth:`collect`, before any metric is read —
        the hook for refreshing one shared snapshot many metrics
        consume (e.g. one ``server.stats()`` call)."""
        with self._lock:
            self._preparers.append(prepare)

    # ------------------------------------------------------------ collection

    def metrics(self) -> list[Metric]:
        """Registered metrics, name-ordered (stable exposition)."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def get(self, name: str) -> list[Metric]:
        """Every registered metric with this name (one per label set)."""
        with self._lock:
            return [m for (n, _), m in sorted(self._metrics.items()) if n == name]

    def collect(self) -> list[tuple[Metric, list[Sample]]]:
        """Resolve every metric to its current samples."""
        with self._lock:
            preparers = list(self._preparers)
            metrics = [self._metrics[key] for key in sorted(self._metrics)]
        for prepare in preparers:
            prepare()
        return [(metric, metric.samples()) for metric in metrics]

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


def weighted_counter_names() -> frozenset[str]:
    """Engine counters that contribute to ``cost_units``, derived by
    probing :meth:`CounterSet.cost_of` with one unit of each counter —
    the flags in the registry can therefore never drift from the cost
    model's actual weights."""
    return frozenset(
        name
        for name in CounterSet._COUNTER_NAMES
        if CounterSet.cost_of({name: 1}) > 0.0
    )


def register_counterset(
    registry: MetricsRegistry,
    counters: Callable[[], Mapping[Labels, CounterSet]],
    prefix: str = COUNTER_METRIC_PREFIX,
) -> list[Metric]:
    """Mirror every :class:`CounterSet` counter into ``registry``.

    Each counter ``x`` registers exactly once as ``<prefix>x_total``
    with ``zero_weight`` derived from the live cost weights.
    ``counters`` returns ``{labels: CounterSet}`` at each scrape, one
    labelled sample per entry (``{(): db.counters}`` for one database,
    a cluster's shards labelled ``shard=``); reads go straight to the
    (GIL-coherent) attributes, no snapshot needed.
    """
    weighted = weighted_counter_names()
    return [
        registry.register_counter(
            f"{prefix}{name}_total",
            f"Engine counter {name} (deterministic, see repro.db.counters)",
            lambda n=name: {labels: getattr(c, n) for labels, c in counters().items()},
            zero_weight=name not in weighted,
        )
        for name in CounterSet._COUNTER_NAMES
    ]
