"""Deterministic execution counters (paper Section 7 methodology).

Section 7 reports query latencies; wall-clock timings of a pure-Python
engine are noisy and hardware dependent, so the paper's *shapes* (who
wins, where crossovers fall — Figures 3-6, Tables 6-11) are asserted
on these counters instead.  ``cost_units`` aggregates them with
PostgreSQL-inspired weights: sequential page = 1.0, random page = 4.0,
bitmap heap page = 2.0 (between the two, since bitmap heap visits are
page-ordered), plus CPU terms for per-tuple work, predicate and policy
evaluations, and UDF invocations (the Δ operator of Section 5.2).

``guard_cache_hits`` / ``guard_cache_misses`` track the session guard
cache (:mod:`repro.core.cache`); they carry zero cost weight — cache
bookkeeping is not an engine cost — but let benches assert hit rates
deterministically.

``plan_cache_hits`` / ``plan_cache_misses`` track the prepared-query
plan cache (:class:`repro.core.cache.PlanCache`): a hit means an
execution reused a memoized post-rewrite, post-plan artifact and
skipped parse → strategy → rewrite → plan entirely.  Zero cost weight
for the same reason as the guard cache — cache bookkeeping is not
enforcement work, and the executed plan charges the exact same
engine counters either way — but benches and the serving tier's
stats assert hit rates on them deterministically.

``batches`` counts row batches formed by the vectorized executor's
scan nodes, and ``expr_cache_hits`` / ``expr_cache_misses`` track the
Database's compiled-expression cache (:mod:`repro.expr.codegen`).
All three carry zero cost weight — batching and compilation caching
are engine mechanics, not simulated I/O or per-tuple work, and the
per-tuple counters (``tuples_scanned``, ``predicate_evals``,
``policy_evals``) are charged identically by both executors so
``cost_units`` stays execution-mode independent.

``backend_queries`` / ``backend_rows`` count rewritten statements
shipped to an external execution backend (:mod:`repro.backend`) and
the rows it returned.  They also carry zero cost weight: the backend
is a real engine whose cost shows up as wall time, not as bundled
engine page/CPU charges.

``service_*`` counters track the concurrent serving tier
(:mod:`repro.service`): admitted/rejected/failed requests, scheduler
batches, and two accumulated wall-time totals in integer microseconds
— ``service_queue_wait_us`` (submit → worker pickup) and
``service_exec_us`` (worker pickup → result).  The time totals are the
one deliberate exception to the no-wall-clock rule: queueing delay
*is* the phenomenon the service tier measures, there is no
deterministic proxy for it, and they carry zero cost weight so
``cost_units`` stays hardware-independent.  The server updates them
under its own lock (plain ``+=`` from many workers would lose
increments).

``audit_records`` / ``audit_flushes`` track the audit tier
(:mod:`repro.audit`): decision records chained into an
:class:`~repro.audit.AuditLog` and buffer flushes that chained them
(a direct, unbuffered append counts as a flush of one).  Zero cost
weight — audit is accounting *about* enforcement, not enforcement
work — and deliberately excluded from the enforcement counters the
differential suites compare, so an audited run's enforcement deltas
are bit-identical to an unaudited run's.

``cluster_*`` counters track the sharded cluster tier
(:mod:`repro.cluster`), charged to the *coordinator's* database (the
one holding the base policy corpus) under the coordinator's lock:
``cluster_requests`` (requests routed to a shard),
``cluster_unavailable`` (requests refused because the owning shard is
down — :class:`~repro.common.errors.ShardUnavailableError`
backpressure), ``cluster_policy_writes`` /
``cluster_policy_fanout`` (admin write operations routed, and the
total shard deliveries they scattered to — a group policy fans out to
every shard holding a member, so fanout ≥ writes), and
``cluster_rebalance_moves`` (queriers migrated by hash-ring changes).
All zero cost weight: routing is coordination, not engine work — the
per-query engine cost lands on each shard's own counters, whose sum
the differential suite holds identical to a single server's.

The fault-tolerance tier (:mod:`repro.faults` plus the coordinator's
resilient request path) adds: ``service_deadline_timeouts`` (queued
requests a worker refused because their deadline had already passed),
``cluster_retries`` (transient shard failures retried with jittered
backoff), ``cluster_hedges`` / ``cluster_hedge_wins`` (hedged
duplicate reads issued after the hedge delay, and how many resolved
first — safe to duplicate because queries are read-only),
``cluster_deadline_timeouts`` (coordinator-side waits converted into
:class:`~repro.common.errors.DeadlineExceededError`),
``cluster_scatter_aborts`` (two-phase policy scatters rolled back in
prepare — no shard observed the write), ``cluster_shard_rebuilds``
(crashed shards the supervisor rebuilt from the authoritative store),
and ``faults_injected`` (faults a :class:`~repro.faults.FaultInjector`
actually fired).  All zero cost weight: fault handling is
coordination, and the chaos differential suite proves the *answers*
under faults stay row-identical to the fault-free oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class CostWeights:
    seq_page: float = 1.0
    random_page: float = 4.0
    bitmap_page: float = 2.0
    cpu_tuple: float = 0.01
    cpu_predicate: float = 0.0025
    cpu_policy: float = 0.0025
    index_node: float = 0.005
    udf_invocation: float = 0.5
    udf_policy: float = 0.001


@dataclass
class CounterSet:
    """Mutable counters accumulated during query execution."""

    pages_sequential: int = 0
    pages_random: int = 0
    pages_bitmap: int = 0
    tuples_scanned: int = 0
    tuples_output: int = 0
    predicate_evals: int = 0
    policy_evals: int = 0
    index_node_visits: int = 0
    udf_invocations: int = 0
    udf_policy_evals: int = 0
    guard_cache_hits: int = 0
    guard_cache_misses: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    batches: int = 0
    expr_cache_hits: int = 0
    expr_cache_misses: int = 0
    backend_queries: int = 0
    backend_rows: int = 0
    service_requests: int = 0
    service_batches: int = 0
    service_rejections: int = 0
    service_failures: int = 0
    service_queue_wait_us: int = 0
    service_exec_us: int = 0
    cluster_requests: int = 0
    cluster_unavailable: int = 0
    cluster_policy_writes: int = 0
    cluster_policy_fanout: int = 0
    cluster_rebalance_moves: int = 0
    service_deadline_timeouts: int = 0
    cluster_retries: int = 0
    cluster_hedges: int = 0
    cluster_hedge_wins: int = 0
    cluster_deadline_timeouts: int = 0
    cluster_scatter_aborts: int = 0
    cluster_shard_rebuilds: int = 0
    faults_injected: int = 0
    audit_records: int = 0
    audit_flushes: int = 0
    weights: CostWeights = field(default_factory=CostWeights)

    def reset(self) -> None:
        for name in self._COUNTER_NAMES:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self._COUNTER_NAMES}

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        return {
            name: getattr(self, name) - before.get(name, 0)
            for name in self._COUNTER_NAMES
        }

    @property
    def cost_units(self) -> float:
        w = self.weights
        return (
            self.pages_sequential * w.seq_page
            + self.pages_random * w.random_page
            + self.pages_bitmap * w.bitmap_page
            + self.tuples_scanned * w.cpu_tuple
            + self.predicate_evals * w.cpu_predicate
            + self.policy_evals * w.cpu_policy
            + self.index_node_visits * w.index_node
            + self.udf_invocations * w.udf_invocation
            + self.udf_policy_evals * w.udf_policy
        )

    @staticmethod
    def cost_of(snapshot_diff: dict[str, int], weights: CostWeights | None = None) -> float:
        """Cost units of a snapshot diff (for per-query accounting)."""
        w = weights or CostWeights()
        temp = CounterSet(weights=w)
        for name, value in snapshot_diff.items():
            if name in CounterSet._COUNTER_NAMES:
                setattr(temp, name, value)
        return temp.cost_units

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{name}={getattr(self, name)}" for name in self._COUNTER_NAMES]
        parts.append(f"cost_units={self.cost_units:.2f}")
        return "CounterSet(" + ", ".join(parts) + ")"


#: The counters: every ``int`` field, in declaration order — what
#: ``reset`` / ``snapshot`` / ``diff`` and the metrics registry
#: (:func:`repro.obs.metrics.register_counterset`) iterate, so declaring
#: a field above is the whole of adding a counter.
CounterSet._COUNTER_NAMES = tuple(f.name for f in fields(CounterSet) if f.type == "int")
