"""Per-component health checks rolled up to healthy/degraded/unhealthy.

The serving and cluster tiers expose *numbers* (counters, gauges,
latency summaries); this module turns them into a *verdict* an
operator or an actuator can branch on.  A :class:`HealthRegistry`
holds named check callables, each returning a
:class:`ComponentHealth`; :meth:`HealthRegistry.report` runs them all
and rolls the statuses up worst-first:

* ``healthy`` — serving normally;
* ``degraded`` — serving, but outside normal operating bounds (queue
  depth near the admission bound, one shard down in a cluster that
  routes around it);
* ``unhealthy`` — not serving (server stopped, worker threads dead,
  every shard unreachable).

A check that *raises* — returning anything but a
:class:`ComponentHealth` included — reports ``unhealthy`` with the
exception as detail: a health endpoint must never throw.  Checks read
the same snapshots the metrics tier exposes, so a verdict is always
explainable by the numbers next to it (each :class:`ComponentHealth`
carries its evidence in ``data``).

:func:`server_health` and :func:`cluster_health` build the standard
registries over a ``SieveServer`` / ``SieveCluster`` (duck-typed, no
imports from the service/cluster tiers — the dependency arrow stays
one-way, mirroring :mod:`repro.obs.export`).  They back the serving
tiers' ``health()`` / ``health_json()`` endpoints and the
``tools/health_report.py`` dashboard.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "HealthStatus",
    "ComponentHealth",
    "HealthReport",
    "HealthRegistry",
    "server_health",
    "cluster_health",
    "rollup_cluster",
    "DEFAULT_QUEUE_FLOOR",
]

#: Queue depth above this fraction of ``max_pending`` marks admission degraded.
DEFAULT_QUEUE_FLOOR = 0.8


class HealthStatus(str, enum.Enum):
    """Ordered worst-last; comparisons go through :attr:`severity`."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    UNHEALTHY = "unhealthy"

    @property
    def severity(self) -> int:
        return _SEVERITY[self]

    @classmethod
    def worst(cls, statuses: "list[HealthStatus]") -> "HealthStatus":
        if not statuses:
            return cls.HEALTHY
        return max(statuses, key=lambda s: s.severity)


_SEVERITY = {
    HealthStatus.HEALTHY: 0,
    HealthStatus.DEGRADED: 1,
    HealthStatus.UNHEALTHY: 2,
}


@dataclass(frozen=True)
class ComponentHealth:
    """One component's verdict plus the evidence behind it."""

    name: str
    status: HealthStatus
    detail: str = ""
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status.value,
            "detail": self.detail,
            "data": dict(self.data),
        }


@dataclass(frozen=True)
class HealthReport:
    """The rolled-up verdict over every registered component."""

    status: HealthStatus
    components: tuple[ComponentHealth, ...]

    @property
    def healthy(self) -> bool:
        return self.status is HealthStatus.HEALTHY

    def component(self, name: str) -> ComponentHealth:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status.value,
            "components": [c.to_dict() for c in self.components],
        }


class HealthRegistry:
    """Named health checks; :meth:`report` runs them all.

    A check returns a :class:`ComponentHealth`; its ``name`` is
    overwritten with the registered one.
    """

    def __init__(self) -> None:
        self._checks: list[tuple[str, Callable[[], ComponentHealth]]] = []

    def register(self, name: str, check: Callable[[], ComponentHealth]) -> None:
        if any(existing == name for existing, _ in self._checks):
            raise ValueError(f"health check {name!r} is already registered")
        self._checks.append((name, check))

    def names(self) -> list[str]:
        return [name for name, _ in self._checks]

    def _run_one(self, name: str, check: Callable[[], ComponentHealth]) -> ComponentHealth:
        try:
            result = check()
            return ComponentHealth(name, result.status, result.detail, result.data)
        except Exception as exc:  # endpoint must not throw
            return ComponentHealth(
                name, HealthStatus.UNHEALTHY, detail=f"check raised: {exc!r}"
            )

    def report(self) -> HealthReport:
        components = tuple(self._run_one(name, check) for name, check in self._checks)
        return HealthReport(
            status=HealthStatus.worst([c.status for c in components]),
            components=components,
        )


# --------------------------------------------------------------- check makers


def server_health(server: Any, queue_floor: float = DEFAULT_QUEUE_FLOOR) -> HealthRegistry:
    """The standard registry over one ``SieveServer``: worker-pool
    liveness, admission-queue depth and policy snapshot consistency."""
    registry = HealthRegistry()

    def workers() -> ComponentHealth:
        alive = server.alive_workers()
        data = {"workers": server.workers, "alive": alive}
        if not server.running:
            return ComponentHealth(
                "workers", HealthStatus.UNHEALTHY, "server is not running", data
            )
        if alive < server.workers:
            return ComponentHealth(
                "workers",
                HealthStatus.DEGRADED,
                f"{server.workers - alive} worker thread(s) dead",
                data,
            )
        return ComponentHealth("workers", HealthStatus.HEALTHY, "", data)

    def admission() -> ComponentHealth:
        pending = server.pending()
        max_pending = server.max_pending
        ratio = pending / max_pending if max_pending else 0.0
        data = {"pending": pending, "max_pending": max_pending}
        if ratio >= queue_floor:
            return ComponentHealth(
                "admission_queue",
                HealthStatus.DEGRADED,
                f"queue {ratio:.0%} full",
                data,
            )
        return ComponentHealth("admission_queue", HealthStatus.HEALTHY, "", data)

    def policy_store() -> ComponentHealth:
        store = server.sieve.policy_store
        snapshot = store.snapshot()
        data = {"epoch": store.epoch, "snapshot_epoch": snapshot.epoch}
        if snapshot.epoch > store.epoch:
            # A snapshot from the future means epoch bookkeeping broke.
            return ComponentHealth(
                "policy_store",
                HealthStatus.UNHEALTHY,
                f"snapshot epoch {snapshot.epoch} ahead of store epoch {store.epoch}",
                data,
            )
        lag = store.epoch - snapshot.epoch
        data["epoch_lag"] = lag
        if lag > 0:
            # snapshot() memoizes per epoch; any lag means a fresh
            # snapshot could not observe the latest mutations.
            return ComponentHealth(
                "policy_store",
                HealthStatus.DEGRADED,
                f"snapshot lags the store by {lag} epoch(s)",
                data,
            )
        return ComponentHealth("policy_store", HealthStatus.HEALTHY, "", data)

    registry.register("workers", workers)
    registry.register("admission_queue", admission)
    registry.register("policy_store", policy_store)
    return registry


def cluster_health(cluster: Any) -> HealthRegistry:
    """The standard registry over one ``SieveCluster``.

    Per-shard liveness components (``shard:<name>``) report whether
    the shard is serving (available and running).  The roll-up is
    cluster-aware: unreachable shards cap the *cluster* verdict at
    ``degraded`` while at least one shard still serves (the router
    steers around them); only a cluster with no serving shard is
    ``unhealthy``.
    """
    registry = HealthRegistry()

    def coordinator() -> ComponentHealth:
        snapshot = cluster.store.snapshot()
        data = {
            "epoch": cluster.store.epoch,
            "snapshot_epoch": snapshot.epoch,
            "reroutes": dict(cluster.reroutes()),
        }
        if data["reroutes"]:
            return ComponentHealth(
                "coordinator",
                HealthStatus.DEGRADED,
                f"routing around {len(data['reroutes'])} down shard(s)",
                data,
            )
        return ComponentHealth("coordinator", HealthStatus.HEALTHY, "", data)

    registry.register("coordinator", coordinator)

    def shard_check(name: str) -> Callable[[], ComponentHealth]:
        def check() -> ComponentHealth:
            shard = cluster.shard(name)
            stats = shard.server.stats()
            data = {
                "available": shard.available,
                "running": shard.server.running,
                "pending": stats.pending,
                "requests": stats.requests,
                "p99_ms": stats.latency.p99_ms,
            }
            if not shard.serving:
                return ComponentHealth(
                    f"shard:{name}",
                    HealthStatus.UNHEALTHY,
                    "shard unreachable" if not shard.available else "server stopped",
                    data,
                )
            return ComponentHealth(f"shard:{name}", HealthStatus.HEALTHY, "", data)

        return check

    for name in cluster.shard_names:
        registry.register(f"shard:{name}", shard_check(name))
    return registry


def rollup_cluster(components: tuple[ComponentHealth, ...]) -> HealthStatus:
    """Cluster-aware roll-up: dead shards degrade (not kill) the
    cluster while any shard still serves."""
    shard_statuses = [c.status for c in components if c.name.startswith("shard:")]
    other_statuses = [c.status for c in components if not c.name.startswith("shard:")]
    if shard_statuses and all(s is HealthStatus.UNHEALTHY for s in shard_statuses):
        return HealthStatus.UNHEALTHY
    capped = [
        HealthStatus.DEGRADED if s is HealthStatus.UNHEALTHY else s
        for s in shard_statuses
    ]
    return HealthStatus.worst(capped + other_statuses)
