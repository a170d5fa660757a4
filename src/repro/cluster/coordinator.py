"""The sharded cluster coordinator: scatter-gather serving at N shards.

One :class:`SieveCluster` fronts N :class:`ClusterShard`\\ s.  Each
shard owns the full vertical slice of the serving stack for *its*
queriers — a partition-scoped policy view
(:meth:`~repro.policy.store.PolicyStore.partition`), its own
guard/plan caches and guard store, its own execution engine (a
replicated bundled-engine database or a shipped
:class:`~repro.backend.Backend`), and its own
:class:`~repro.service.SieveServer` worker pool.  The coordinator owns
only the routing table (one :class:`~repro.cluster.ring.Assignment`:
the hash ring plus the health tier's detours) and the base
:class:`~repro.policy.store.PolicyStore`:

.. code-block:: text

    cluster.submit(sql, querier, purpose)          # → Future
        │ route: assignment.owner(querier) → shard (read-locked swap point;
        ▼         down shard → ShardUnavailableError backpressure)
    shard.admit(...)                               # per-shard admission,
        │                                          # batching, backpressure
        ▼
    shard Sieve: partition snapshot → shard guard cache → rewrite
        → shard engine (replica / backend)         # 1/N corpus per shard

    cluster.insert_policy(p)                       # admin write path
        │ scatter set: assignment.holders(querier), or — for a group
        ▼ policy — the holders of every member; every shard when
          the write changes the protected set (a relation's first policy)
    base store write → partition event relay       # only covering shards'
                                                   # epochs advance

Scaling argument: policy filtering, guard caching, snapshot rebuilds
and Δ registration on each shard touch ~1/N of the corpus, and corpus
*churn* costs each shard only its share (foreign mutations do not even
re-stamp a shard's cache).  The differential guarantee — proven by
``tests/test_cluster_differential.py`` — is that none of this is
observable: for every (querier, purpose, query), cluster rows *and*
per-request enforcement counters are identical to one
:class:`~repro.service.SieveServer` over the whole corpus.

**The handover.**  Who holds a querier changes four ways — a shard
joins (:meth:`SieveCluster.add_shard`; ring stability moves only ~1/N
of the queriers, all onto the joiner), a shard leaves
(:meth:`SieveCluster.remove_shard`), a detour is installed over a
flagged shard, a detour is lifted (:meth:`SieveCluster.health_tick`) —
and every one of them is the same step from the old assignment to the
new one, which never produces a wrong answer mid-flight:

1. *grow*: every partition is widened to the union of its old and new
   coverage (a partition holding extra queriers is still exactly
   correct for each of them), so a request admitted under either
   assignment finds its whole policy set;
2. *swap*: the assignment reference is replaced under the routing
   write lock (route-and-admit holds the read lock) — new requests
   follow the new assignment atomically;
3. *drain → shrink → forget*, only on the shards whose coverage lost
   something: wait for the already-admitted requests of the queriers
   the shard no longer covers
   (:meth:`~repro.service.SieveServer.wait_quiesced` — terminating
   even under load, since such requests stop arriving at the swap),
   then shrink the partition and drop exactly those queriers' cached
   guards and plans.  Every other querier keeps its warm state — the
   property
   ``tests/test_cluster.py::test_add_shard_migrates_few_and_preserves_warm_guards``
   asserts.  A shard that cannot drain within
   :data:`REBALANCE_TIMEOUT_S` keeps its *widened* coverage and the
   :class:`RebalanceReport` says ``drained=False``: its stragglers
   stay exactly correct, at the cost of the shard observing those
   queriers' mutations until a later handover shrinks it — never
   shrink under a live straggler, which would silently serve it an
   emptied policy view.

**Crash tolerance** (the fault tier; one request path — without a
:class:`RetryPolicy` it makes a single attempt, without a deadline it
waits unbounded):

* **deadlines** — ``submit(..., deadline_s=)`` (or a cluster
  ``default_deadline_s``) stamps an absolute deadline that rides the
  request into the shard's admission queue; expired queued work is
  refused typed (:class:`~repro.common.errors.DeadlineExceededError`)
  and the coordinator's waits are bounded by the same budget.
* **retries + hedged reads** — :meth:`SieveCluster.execute` retries
  *transient* failures (shard down, admission full) with
  seeded-jitter backoff, and can hedge a slow read with a duplicate
  to the owning shard (safe: queries are read-only).
* **epoch-fenced two-phase policy scatter** — prepare on every shard
  covering the written querier, then the base-store write as the
  single commit point; an abort is atomic (no shard observed
  anything), and a shard crashing mid-scatter is *fenced out of
  routing* (``policy_fence < expected_fence`` → typed refusal) rather
  than left silently serving stale policy.
* **supervision** — :meth:`SieveCluster.supervise` rebuilds crashed
  shards (fresh partition view + guard store from the authoritative
  base store, same data replica, coverage read from the current
  assignment) and rejoins them through the health tier's recovery hold.

``tests/test_chaos_differential.py`` drives seeded
:class:`~repro.faults.FaultPlan`\\ s against all of it and holds the
fail-closed contract: row-identical answers or typed errors, never a
silent partial/stale answer.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as wait_futures
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.audit import AuditLog, DecisionRecord, merge_records
from repro.common.concurrency import RWLock
from repro.common.errors import (
    ClusterError,
    DeadlineExceededError,
    PolicyScatterError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ShardUnavailableError,
)
from repro.common.rng import make_rng
from repro.core.cache import CacheStats
from repro.core.cost_model import SieveCostModel
from repro.core.middleware import Sieve
from repro.cluster.replicate import replicate_database
from repro.cluster.ring import Assignment, HashRing
from repro.db.database import Database
from repro.obs.histogram import LatencyHistogram
from repro.obs.slo import SLO, BurnRateMonitor, SLOSample
from repro.obs.tracing import SlowQueryLog, Tracer
from repro.policy.model import Policy
from repro.policy.store import PolicyStore
from repro.service.admission import SessionKey
from repro.service.server import LatencySummary, ServiceStats, SieveServer

DEFAULT_WORKERS_PER_SHARD = 2
#: How long a handover waits for a shard's migrated-key stragglers.
REBALANCE_TIMEOUT_S = 30.0

_CLUSTER_COUNTERS = (
    "cluster_requests",
    "cluster_unavailable",
    "cluster_policy_writes",
    "cluster_policy_fanout",
    "cluster_rebalance_moves",
    "cluster_retries",
    "cluster_hedges",
    "cluster_hedge_wins",
    "cluster_deadline_timeouts",
    "cluster_scatter_aborts",
    "cluster_shard_rebuilds",
    "faults_injected",
)

#: Failures the coordinator's resilient path may transparently retry:
#: all three say "this attempt never produced an answer" — routing hit
#: a down shard, admission was full, or the server was not accepting.
#: Everything else (ExecutionError, PolicyError, a worker-side
#: DeadlineExceededError...) is the *request's* outcome and propagates.
_TRANSIENT_ERRORS = (
    ShardUnavailableError,
    ServiceOverloadedError,
    ServiceStoppedError,
)

_NO_SPAN = nullcontext()  # what a request is routed under with tracing off


@dataclass(frozen=True)
class RetryPolicy:
    """Opt-in coordinator-side resilience knobs.

    Without one (the default), a request gets one routing attempt and
    errors propagate immediately — pinned by
    ``tests/test_cluster.py::test_cluster_shard_failure_is_explicit_backpressure``.
    With one, :meth:`SieveCluster.execute
    <repro.cluster.coordinator.SieveCluster.execute>` retries
    *transient* failures (shard down, admission full, server stopping)
    with exponential backoff jittered by a seeded RNG — deterministic
    across runs, decorrelated across retries — and, when
    ``hedge_delay_s`` is set, issues a hedged duplicate of a slow read
    to the owning shard after that delay, letting whichever answer
    lands first win.  Hedging is safe because queries are read-only;
    the duplicate costs engine work, never correctness.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.005
    max_backoff_s: float = 0.1
    #: Issue a duplicate read after this long without an answer
    #: (None = never hedge).
    hedge_delay_s: float | None = None
    #: Seed for the jitter RNG (streams decorrelated via make_rng).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts <= 0:
            raise ClusterError("max_attempts must be positive")
        if self.base_backoff_s < 0.0 or self.max_backoff_s < 0.0:
            raise ClusterError("backoff bounds must be non-negative")
        if self.hedge_delay_s is not None and self.hedge_delay_s < 0.0:
            raise ClusterError("hedge_delay_s must be non-negative")


@dataclass(frozen=True)
class ShardRebuild:
    """One supervisor rebuild: which shard, how long, to what fence."""

    name: str
    #: Base-store epoch the rebuilt shard is current to (its fences).
    fence: int
    duration_s: float


@dataclass
class ShardSpec:
    """What a shard needs from the outside: an engine of its own.

    ``db`` is the shard's private data replica (see
    :func:`~repro.cluster.replicate.replicate_database`); ``backend``
    optionally ships execution to a real DBMS mirrored *from that
    replica* (e.g. ``SqliteBackend().ship(db)``).  ``name`` defaults
    to a coordinator-assigned ``shard-<i>``.
    """

    db: Database
    backend: Any = None
    name: str | None = None


class ClusterShard:
    """One shard: partition view + Sieve + server over a private engine.

    The methods below are everything the coordinator asks of a shard —
    the surface a process boundary would have to carry.  ``sieve`` /
    ``server`` / ``partition`` stay public for tests and tools.
    """

    def __init__(
        self,
        name: str,
        spec: ShardSpec,
        store: PolicyStore,
        owns: Callable[[Any], bool],
        workers: int,
        cost_model: SieveCostModel | None = None,
        audit: bool = False,
        tracer: Tracer | None = None,
    ):
        self.name = name
        #: Retained: the supervisor rebuilds a crashed shard over the
        #: same data replica/backend (a restart on the same volume).
        self.spec = spec
        self.db = spec.db
        self.backend = spec.backend
        self.partition = store.partition(owns, name=name)
        # Per-shard audit chain, chain id = shard name: decisions made
        # here chain here, on this shard's own counters, so chains stay
        # lock-disjoint across shards and merge without re-hashing.
        self.audit_log = AuditLog(chain_id=name) if audit else None
        self.sieve = Sieve(
            self.db,
            self.partition,
            cost_model=cost_model,
            backend=self.backend,
            audit=self.audit_log,
        )
        if tracer is not None:
            self.enable_tracing(tracer)
        self.server = SieveServer(self.sieve, workers=workers)
        #: The routed request's way in (absolute deadline, fault
        #: ordinal): :meth:`SieveServer.admit
        #: <repro.service.server.SieveServer.admit>`, bound once — it
        #: is the one shard call on the request hot path.
        self.admit = self.server.admit
        #: Flipped by fault injection / decommissioning; the
        #: coordinator refuses to route to an unavailable shard.
        self.available = True
        #: Set by :meth:`crash` — the shard process is dead (server
        #: killed, relay detached) and must be rebuilt by the
        #: supervisor, not merely restored.
        self.crashed = False
        #: Epoch fencing for the two-phase policy scatter: the base
        #: epoch of the last committed write this shard *applied*
        #: (``policy_fence``) vs the last it *owes*
        #: (``expected_fence``).  Routing refuses a shard whose applied
        #: fence trails its owed fence — it would serve stale policy.
        self.policy_fence = 0
        self.expected_fence = 0
        #: The health loop's (:meth:`SieveCluster.health_tick`) view of
        #: this shard: its burn-rate monitor and when its current
        #: healthy streak began.  Both die with the shard — a rebuilt
        #: one starts without the dead process's history.
        self.monitor: BurnRateMonitor | None = None
        self.healthy_since: float | None = None

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        self.server.start()

    def stop(self, drain: bool = True) -> None:
        """Decommission: refuse routing, finish (or fail) queued work,
        and unhook the partition from the base store so a dead shard's
        view stops observing (and being pinned by) its mutation events."""
        self.available = False
        self.server.stop(drain=drain)
        self.partition.detach()

    def crash(self) -> None:
        """The shard *process* dies: the server is killed — queued
        requests fail with
        :class:`~repro.common.errors.ShardUnavailableError`, workers
        exit after their current batch — the policy-event relay
        detaches (the shard will MISS subsequent policy writes), and
        routing refuses the shard."""
        self.crashed = True
        self.available = False
        self.server.kill()
        self.partition.detach()

    def enable_tracing(self, tracer: Tracer) -> None:
        """Deliver this shard's ``sieve.query`` roots into the
        coordinator's shared tracer ring."""
        self.sieve.enable_tracing(tracer=tracer)

    def inject_faults(self, injector: Any, clock_skew_s: float) -> None:
        """Install the cluster's shared fault injector and this shard's
        planned clock skew (chaos runs)."""
        self.server.fault_injector = injector
        self.server.clock_skew_s = clock_skew_s

    def inject_delay(self, delay_s: float) -> None:
        """Pad every request this shard serves by ``delay_s``."""
        self.server.inject_delay_s = delay_s

    def drop_relay(self) -> None:
        """The policy-event relay dies while the serving stack stays up."""
        self.partition.detach()

    # ------------------------------------------------------------- liveness

    @property
    def serving(self) -> bool:
        """Routable and accepting work (the health loop's liveness)."""
        return self.available and self.server.running

    def can_apply(self) -> bool:
        """Can this shard observe a base-store write right now?  The
        hazards are a dead process (``crashed`` / killed server) and a
        detached event relay — a merely ``fail_shard``-ed shard still
        applies writes fine (its partition stays attached)."""
        return not (self.crashed or self.server.killed or self.partition.detached)

    def needs_rebuild(self) -> bool:
        """Anything :meth:`can_apply` rules out, or a shrunken worker
        pool (a crashed worker thread never comes back) — states
        :meth:`SieveCluster.restore_shard` cannot fix because
        shard-local state (partition view, caches, worker pool) is
        unrecoverable.  A merely ``fail_shard``-ed shard is intact and
        NOT rebuilt."""
        return not self.can_apply() or self.server.lost_workers > 0

    # ------------------------------------------------------------- coverage

    def cover(self, owns: Callable[[Any], bool]) -> None:
        """Point the partition at the queriers ``owns`` claims."""
        self.partition.set_ownership(owns)

    def drain(self, keep: Callable[[Any], bool], timeout: float) -> bool:
        """Wait until no admitted request belongs to a querier outside
        ``keep``; False on timeout."""
        return self.server.wait_quiesced(
            lambda key: not keep(key[0]), timeout=timeout
        )

    def cached_queriers(self) -> set[Any]:
        """Queriers with warm state in any shard-local tier (guard
        cache, plan cache, or persisted guard store)."""
        sieve = self.sieve
        return (
            sieve.guard_cache.queriers()
            | sieve.plan_cache.queriers()
            | {e.querier for e in sieve.guard_store.cached_expressions()}
        )

    def forget(self, keep: Callable[[Any], bool]) -> int:
        """Drop the state every shard tier holds for queriers outside
        ``keep``; returns the entries dropped."""
        return sum(
            self.sieve.invalidate_caches(querier=querier)
            for querier in self.cached_queriers()
            if not keep(querier)
        )

    # ----------------------------------------------------------- accounting

    def stats(self) -> ServiceStats:
        return self.server.stats()

    def slo_sample(self, threshold_ms: float | None, now: float) -> SLOSample:
        return self.server.slo_sample(threshold_ms, now)

    def policy_count(self) -> int:
        """Policies in this shard's partition — its corpus share."""
        return len(self.partition)


@dataclass
class ClusterStats:
    """Cluster-level aggregation of every shard's accounting.

    Counts are exact sums; ``latency`` / ``queue_wait`` merge the
    per-shard latency *histograms* bucket-for-bucket, so the merged
    quantiles are identical to one histogram over the union population
    (:meth:`LatencyHistogram.merge
    <repro.obs.histogram.LatencyHistogram.merge>`); ``guard_cache`` /
    ``plan_cache`` aggregate the shards'
    :class:`~repro.core.cache.CacheStats` snapshots
    (:meth:`~repro.core.cache.CacheStats.merge`) with the hit rate
    recomputed over the summed traffic.  ``partition_policies`` is the
    per-shard policy-partition size (the 1/N corpus share);
    ``per_shard`` retains each shard's full
    :class:`~repro.service.ServiceStats`, and ``health`` /
    ``reroutes`` carry the coordinator's tracked per-shard verdicts
    and active routing detours (:meth:`SieveCluster.health_tick`).
    """

    shards: int
    requests: int
    batches: int
    rejections: int
    failures: int
    pending: int
    latency: LatencySummary = field(default_factory=LatencySummary)
    queue_wait: LatencySummary = field(default_factory=LatencySummary)
    guard_cache: dict[str, float] = field(default_factory=dict)
    plan_cache: dict[str, float] = field(default_factory=dict)
    partition_policies: dict[str, int] = field(default_factory=dict)
    per_shard: dict[str, ServiceStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    health: dict[str, str] = field(default_factory=dict)
    reroutes: dict[str, str] = field(default_factory=dict)

    @classmethod
    def merge(
        cls,
        per_shard: dict[str, ServiceStats],
        partition_policies: dict[str, int],
        counters: dict[str, int],
        health: dict[str, str] | None = None,
        reroutes: dict[str, str] | None = None,
    ) -> "ClusterStats":
        stats = list(per_shard.values())
        return cls(
            shards=len(stats),
            requests=sum(s.requests for s in stats),
            batches=sum(s.batches for s in stats),
            rejections=sum(s.rejections for s in stats),
            failures=sum(s.failures for s in stats),
            pending=sum(s.pending for s in stats),
            latency=LatencySummary.of_histogram(
                LatencyHistogram.merge(s.latency_hist for s in stats)
            ),
            queue_wait=LatencySummary.of_histogram(
                LatencyHistogram.merge(s.queue_wait_hist for s in stats)
            ),
            guard_cache=CacheStats.merge(s.guard_cache for s in stats),
            plan_cache=CacheStats.merge(s.plan_cache for s in stats),
            partition_policies=dict(partition_policies),
            per_shard=dict(per_shard),
            counters=dict(counters),
            health=dict(health or {}),
            reroutes=dict(reroutes or {}),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot (dashboards, the cluster metrics body)."""
        return {
            "shards": self.shards,
            "requests": self.requests,
            "batches": self.batches,
            "rejections": self.rejections,
            "failures": self.failures,
            "pending": self.pending,
            "latency": self.latency.to_dict(),
            "queue_wait": self.queue_wait.to_dict(),
            "guard_cache": dict(self.guard_cache),
            "plan_cache": dict(self.plan_cache),
            "partition_policies": dict(self.partition_policies),
            "per_shard": {
                name: stats.to_dict() for name, stats in self.per_shard.items()
            },
            "counters": dict(self.counters),
            "health": dict(self.health),
            "reroutes": dict(self.reroutes),
        }


@dataclass(frozen=True)
class RebalanceReport:
    """What one ring change did, for assertions and dashboards."""

    added: str | None
    removed: str | None
    #: Routable queriers whose owner changed (≈ 1/N of the universe).
    moved_queriers: frozenset
    #: Size of the routable-querier universe the fraction is over.
    universe: int
    #: Cache/guard-store entries dropped — migrated queriers only.
    invalidated_entries: int
    #: True when every affected shard drained its stragglers in time.
    drained: bool

    @property
    def moved_fraction(self) -> float:
        return len(self.moved_queriers) / self.universe if self.universe else 0.0


class SieveCluster:
    """Consistent-hash-routed scatter-gather serving over N shards.

    Usage::

        store = PolicyStore(db, groups); store.insert_many(policies)
        cluster = SieveCluster.replicated(db, store, n_shards=4)
        with cluster:
            rows = cluster.execute(sql, querier, purpose).rows
            cluster.insert_policy(policy)          # routed admin write
            report = cluster.add_shard(cluster.replica_spec())
        print(cluster.stats().latency.p95_ms)

    Query routing raises
    :class:`~repro.common.errors.ShardUnavailableError` when the
    owning shard is down (explicit backpressure, mirroring
    ``ServiceOverloadedError``) — fault injection via
    :meth:`fail_shard` / :meth:`restore_shard`.  ``cluster_*``
    counters are charged to the *coordinator's* database (the one
    holding the base policy store).  Like the underlying servers, a
    stopped cluster cannot be restarted.
    """

    def __init__(
        self,
        store: PolicyStore,
        specs: Sequence[ShardSpec],
        workers_per_shard: int = DEFAULT_WORKERS_PER_SHARD,
        cost_model: SieveCostModel | None = None,
        audit: bool = False,
        retry_policy: RetryPolicy | None = None,
        default_deadline_s: float | None = None,
        fault_injector: Any = None,
    ):
        if not specs:
            raise ClusterError("a cluster needs at least one shard")
        if default_deadline_s is not None and default_deadline_s <= 0.0:
            raise ClusterError("default_deadline_s must be positive")
        self.store = store
        #: Resilience: no retry policy = one attempt per request, no
        #: default deadline = waits bounded only by the caller's own.
        self.retry_policy = retry_policy
        self.default_deadline_s = default_deadline_s
        #: Shared :class:`~repro.faults.FaultInjector` (chaos runs).
        self.fault_injector = fault_injector
        if fault_injector is not None and fault_injector.counters is None:
            fault_injector.counters = store.db.counters
        self._retry_rng = make_rng(
            retry_policy.seed if retry_policy is not None else 0, "cluster-retry"
        )
        self._retry_lock = threading.Lock()
        #: Stable shard index for fault-plan addressing (clock skew is
        #: keyed by creation order, not by mutable sorted position).
        self._fault_index: dict[str, int] = {}
        self.audit_enabled = audit
        self.workers_per_shard = workers_per_shard
        self.cost_model = cost_model
        self._counters = store.db.counters
        self._counter_lock = threading.Lock()
        # Cluster-level observability (None = off); enable_tracing()
        # shares one Tracer across every shard.
        self.tracer: Tracer | None = None
        self.slow_query_log: SlowQueryLog | None = None
        self._route_lock = RWLock()  # readers: routing; writer: assignment swap
        self._admin_lock = threading.RLock()  # serializes handovers, scatters, supervision
        self._shard_seq = 0
        self._started = False
        self._stopped = False
        # Health-aware routing state (configure_health() arms it),
        # touched only under the admin lock.
        self._health_slo: SLO | None = None
        self._health_clock: Callable[[], float] = time.monotonic
        self._recovery_hold_s = 0.0
        self._shard_status: dict[str, str] = {}

        ring = HashRing()
        named: dict[str, ShardSpec] = {}
        for spec in specs:
            name = self._claim_name(spec, ring)
            ring = ring.with_node(name)
            named[name] = spec
        #: Who holds which querier — the one reference routing,
        #: partition coverage, the policy scatter set and the
        #: supervisor read; replaced whole, under the route write lock,
        #: by :meth:`_apply_assignment` and by nothing else.
        self._assignment = Assignment(ring)
        self._shards: dict[str, ClusterShard] = {
            name: self._build_shard(name, spec, self._assignment)
            for name, spec in named.items()
        }

    @classmethod
    def replicated(
        cls,
        db: Database,
        store: PolicyStore,
        n_shards: int,
        backend_factory: Callable[[Database], Any] | None = None,
        **kwargs: Any,
    ) -> "SieveCluster":
        """Build an N-shard cluster whose shards each execute on a
        fresh replica of ``db``'s data tier.

        ``backend_factory(replica_db)`` optionally ships each replica
        to a real DBMS (e.g. ``lambda d: SqliteBackend().ship(d)``);
        without one, shards run the bundled engine.
        """
        if n_shards <= 0:
            raise ClusterError("n_shards must be positive")
        specs = []
        for _ in range(n_shards):
            replica = replicate_database(db)
            backend = backend_factory(replica) if backend_factory else None
            specs.append(ShardSpec(db=replica, backend=backend))
        return cls(store, specs, **kwargs)

    # ------------------------------------------------------------- plumbing

    def _claim_name(self, spec: ShardSpec, ring: HashRing) -> str:
        if spec.name is not None:
            if spec.name in ring:
                raise ClusterError(f"shard name {spec.name!r} is already in use")
            return spec.name
        # Auto-assigned names skip over any caller-supplied ones so a
        # mixed named/unnamed spec list can never collide.
        while f"shard-{self._shard_seq}" in ring:
            self._shard_seq += 1
        name = f"shard-{self._shard_seq}"
        self._shard_seq += 1
        return name

    def _build_shard(
        self, name: str, spec: ShardSpec, assignment: Assignment
    ) -> ClusterShard:
        # The ownership predicate closes over one immutable assignment;
        # handovers install new predicates explicitly, so an in-flight
        # snapshot can never observe a half-swapped one.
        shard = ClusterShard(
            name,
            spec,
            self.store,
            owns=assignment.covers(name),
            workers=self.workers_per_shard,
            cost_model=self.cost_model,
            audit=self.audit_enabled,
            tracer=self.tracer,
        )
        injector = self.fault_injector
        if injector is not None:
            index = self._fault_index.setdefault(name, len(self._fault_index))
            shard.inject_faults(injector, injector.skew_s(index))
        return shard

    def enable_tracing(
        self, tracer: Tracer | None = None, slow_query_ms: float | None = None
    ) -> Tracer:
        """Attach one shared span tracer across the whole cluster
        (idempotent).  Routing opens a ``cluster.route`` root per
        request; the owning shard's ``sieve.query`` root joins the
        same trace id (carried through admission), so one trace id
        correlates coordinator routing with shard-side execution.
        Shards added later inherit the tracer automatically.
        ``slow_query_ms`` retains slow span trees cluster-wide."""
        if self.tracer is None:
            self.tracer = tracer if tracer is not None else Tracer()
            with self._route_lock.read_locked():
                shards = list(self._shards.values())
            for shard in shards:
                shard.enable_tracing(self.tracer)
        if slow_query_ms is not None and self.slow_query_log is None:
            self.slow_query_log = SlowQueryLog(threshold_ms=slow_query_ms)
            self.tracer.on_finish(self.slow_query_log.observe)
        return self.tracer

    def _tick(self, counter: str, amount: int = 1) -> None:
        with self._counter_lock:
            setattr(self._counters, counter, getattr(self._counters, counter) + amount)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "SieveCluster":
        with self._admin_lock:
            if self._stopped:
                raise ClusterError("a stopped cluster cannot be restarted")
            if not self._started:
                self._started = True
                for shard in self._shards.values():
                    shard.start()
        return self

    def stop(self, drain: bool = True) -> None:
        with self._admin_lock:
            self._stopped = True
            for shard in self._shards.values():
                shard.stop(drain=drain)

    def __enter__(self) -> "SieveCluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop(drain=True)

    # -------------------------------------------------------------- routing

    @property
    def shard_names(self) -> list[str]:
        with self._route_lock.read_locked():
            return sorted(self._shards)

    def shard(self, name: str) -> ClusterShard:
        with self._route_lock.read_locked():
            try:
                return self._shards[name]
            except KeyError:
                raise ClusterError(f"unknown shard {name!r}") from None

    def route(self, querier: Any) -> str:
        """The home shard of ``querier`` (its ring owner; while a
        detour is up its requests are admitted to the home's fallback,
        see :meth:`reroutes`)."""
        return self._assignment.ring.route(querier)

    def _checked_shard_locked(self, querier: Any) -> ClusterShard:
        """Owning shard for a routable request.  Caller must hold the
        routing read lock *across the admission call too*: the
        rebalance protocol's drain phase only waits for requests
        already queued, so route-then-enqueue must be atomic against a
        swap of the assignment (the swap takes the write lock).

        Health-aware detour: a shard :meth:`health_tick` flagged is
        deprioritized — its queriers land on the fallback shard, whose
        partition covers them too, so rerouted answers stay
        row-identical."""
        shard = self._shards[self._assignment.owner(querier)]
        if not shard.available:
            self._tick("cluster_unavailable")
            raise ShardUnavailableError(
                f"shard {shard.name!r} owning querier {querier!r} is unavailable"
            )
        self._check_fence(shard)
        return shard

    def _check_fence(self, shard: ClusterShard) -> None:
        """Epoch fence (fail-closed): a shard that owes a committed
        policy write it never applied — its relay died mid-epoch —
        would serve *stale policy*, the one failure mode worse than no
        answer.  Refuse until the supervisor rebuilds it."""
        if shard.policy_fence < shard.expected_fence:
            self._tick("cluster_unavailable")
            raise ShardUnavailableError(
                f"shard {shard.name!r} is behind the committed policy fence "
                f"(applied {shard.policy_fence} < owed {shard.expected_fence}); "
                "awaiting supervisor rebuild"
            )

    # ------------------------------------------------------------- requests

    def _apply_shard_fault(self, fault: Any) -> None:
        """Actuate one planned shard fault (chaos runs): ``crash`` kills
        the addressed shard's process, ``slow`` pads its service times,
        ``drop_relay`` silently detaches its policy-event relay."""
        names = self.shard_names
        name = names[fault.shard % len(names)]
        self.fault_injector.record(fault.kind)
        if fault.kind == "crash":
            self.crash_shard(name)
        elif fault.kind == "slow":
            self.slow_shard(name, fault.delay_s)
        elif fault.kind == "drop_relay":
            self.drop_relay(name)

    def _absolute_deadline(
        self, deadline_s: float | None, timeout: float | None = None
    ) -> float | None:
        """Relative budget (explicit, else the cluster default, else
        the caller's ``timeout``) → an absolute perf_counter deadline
        shared by retries and hedges."""
        budget = deadline_s if deadline_s is not None else self.default_deadline_s
        if budget is None:
            budget = timeout
        return None if budget is None else time.perf_counter() + budget

    def _route_span(self, querier: Any) -> Any:
        """Context manager yielding the ``cluster.route`` root span of
        one routed admission — or ``None``, with tracing off, so both
        cases share one admit body.  Its trace id rides the admitted
        request — the shard worker's ``sieve.query`` root then reuses
        it, correlating coordinator and shard sides of one request."""
        if self.tracer is None:
            return _NO_SPAN
        return self.tracer.trace("cluster.route", querier=str(querier))

    def _routed_submit(
        self,
        sql: Any,
        querier: Any,
        purpose: str,
        with_info: bool,
        deadline: float | None = None,
    ) -> "Future[Any]":
        """Route-and-admit one request under one read lock."""
        fault_tag = None
        injector = self.fault_injector
        if injector is not None:
            # Advance the fault clock and actuate due shard faults
            # BEFORE taking the routing read lock: crash/slow/restore
            # go through admin entry points that take locks themselves.
            fault_tag, due = injector.next_request()
            for fault in due:
                self._apply_shard_fault(fault)
        with self._route_span(querier) as root:
            with self._route_lock.read_locked():
                shard = self._checked_shard_locked(querier)
                future = shard.admit(
                    sql, querier, purpose, with_info=with_info,
                    deadline=deadline, fault_tag=fault_tag,
                )
            if root is not None:
                root.set(shard=shard.name)
        self._tick("cluster_requests")
        return future

    def submit(
        self, sql: Any, querier: Any, purpose: str, deadline_s: float | None = None
    ) -> "Future[Any]":
        """Route one query to its owning shard; future resolves to the
        :class:`~repro.engine.executor.QueryResult`.  ``deadline_s``
        (default: the cluster's ``default_deadline_s``) rides the
        request so an expired queued request is refused typed by the
        shard worker instead of executed late."""
        return self._routed_submit(
            sql, querier, purpose, with_info=False,
            deadline=self._absolute_deadline(deadline_s),
        )

    def submit_with_info(
        self, sql: Any, querier: Any, purpose: str, deadline_s: float | None = None
    ) -> "Future[Any]":
        return self._routed_submit(
            sql, querier, purpose, with_info=True,
            deadline=self._absolute_deadline(deadline_s),
        )

    def execute(
        self,
        sql: Any,
        querier: Any,
        purpose: str,
        timeout: float | None = None,
        deadline_s: float | None = None,
    ) -> Any:
        """Blocking execute: one routed attempt, or — with a
        :class:`RetryPolicy` — transparent retries of transient
        failures and optional hedged reads.  The wait is bounded by
        ``deadline_s`` (default: the cluster's ``default_deadline_s``;
        failing both, ``timeout``) and ends in a typed
        :class:`~repro.common.errors.DeadlineExceededError` when it
        runs out."""
        return self._resilient_result(
            sql, querier, purpose, with_info=False,
            deadline=self._absolute_deadline(deadline_s, timeout),
        )

    def execute_with_info(
        self,
        sql: Any,
        querier: Any,
        purpose: str,
        timeout: float | None = None,
        deadline_s: float | None = None,
    ) -> Any:
        return self._resilient_result(
            sql, querier, purpose, with_info=True,
            deadline=self._absolute_deadline(deadline_s, timeout),
        )

    # ------------------------------------------------------ resilient path

    def _resilient_result(
        self,
        sql: Any,
        querier: Any,
        purpose: str,
        with_info: bool,
        deadline: float | None,
    ) -> Any:
        """Retry loop around :meth:`_one_attempt`: transient failures
        (shard down, admission full, server stopping) retry with
        seeded-jitter exponential backoff until the policy's attempt
        budget or the deadline runs out; every other outcome — rows, or
        a typed non-transient error — propagates on first occurrence."""
        policy = self.retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        attempt = 0
        last_exc: Exception | None = None
        while True:
            if deadline is not None and time.perf_counter() >= deadline:
                self._tick("cluster_deadline_timeouts")
                raise DeadlineExceededError(
                    f"deadline exhausted after {attempt} attempt(s) for "
                    f"querier {querier!r}"
                ) from last_exc
            if attempt > 0:
                self._tick("cluster_retries")
                self._backoff_sleep(attempt, deadline)
            try:
                return self._one_attempt(sql, querier, purpose, with_info, deadline)
            except _TRANSIENT_ERRORS as exc:
                attempt += 1
                last_exc = exc
                if attempt >= max_attempts:
                    raise

    def _deadline_exhausted(self, querier: Any) -> DeadlineExceededError:
        self._tick("cluster_deadline_timeouts")
        return DeadlineExceededError(
            f"cluster wait for querier {querier!r} exhausted its deadline"
        )

    def _bounded_result(
        self, future: "Future[Any]", querier: Any, deadline: float | None
    ) -> Any:
        """The future's outcome, waiting no longer than the deadline."""
        if deadline is None:
            return future.result()
        try:
            return future.result(timeout=max(0.0, deadline - time.perf_counter()))
        except FutureTimeoutError:
            raise self._deadline_exhausted(querier) from None

    def _backoff_sleep(self, attempt: int, deadline: float | None) -> None:
        policy = self.retry_policy
        if policy is None:
            return
        base = policy.base_backoff_s * (2 ** (attempt - 1))
        with self._retry_lock:
            jitter = self._retry_rng.uniform(0.5, 1.5)
        delay = min(policy.max_backoff_s, base * jitter)
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - time.perf_counter()))
        if delay > 0.0:
            time.sleep(delay)

    def _one_attempt(
        self,
        sql: Any,
        querier: Any,
        purpose: str,
        with_info: bool,
        deadline: float | None,
    ) -> Any:
        """One routed submit plus a bounded, optionally hedged wait."""
        future = self._routed_submit(
            sql, querier, purpose, with_info, deadline=deadline
        )
        policy = self.retry_policy
        hedge_delay = policy.hedge_delay_s if policy is not None else None
        if hedge_delay is None:
            return self._bounded_result(future, querier, deadline)
        # Hedged wait: give the primary ``hedge_delay`` seconds, then
        # duplicate the read to the owning shard and take whichever
        # answers first.  Safe — queries are read-only; the duplicate
        # costs engine work, never correctness.
        wait_s = hedge_delay
        if deadline is not None:
            wait_s = min(wait_s, max(0.0, deadline - time.perf_counter()))
        try:
            return future.result(timeout=wait_s)
        except FutureTimeoutError:
            pass
        if deadline is not None and time.perf_counter() >= deadline:
            raise self._deadline_exhausted(querier)
        hedge: "Future[Any] | None" = None
        try:
            hedge = self._routed_submit(
                sql, querier, purpose, with_info, deadline=deadline
            )
            self._tick("cluster_hedges")
        except _TRANSIENT_ERRORS:
            hedge = None  # the primary may still answer; keep waiting
        waiters = [future] if hedge is None else [future, hedge]
        while True:
            remaining = (
                None if deadline is None else deadline - time.perf_counter()
            )
            if remaining is not None and remaining <= 0.0:
                raise self._deadline_exhausted(querier)
            done, _ = wait_futures(
                waiters, timeout=remaining, return_when=FIRST_COMPLETED
            )
            if not done:
                raise self._deadline_exhausted(querier)
            failure: BaseException | None = None
            for settled in done:
                exc = settled.exception()
                if exc is None:
                    if hedge is not None and settled is hedge:
                        self._tick("cluster_hedge_wins")
                    return settled.result()
                failure = exc
            waiters = [f for f in waiters if f not in done]
            if not waiters:
                # Both attempts failed; surface the (typed) failure —
                # the retry loop above decides whether it is transient.
                raise failure

    def execute_many(
        self,
        sqls: Iterable[Any],
        querier: Any,
        purpose: str,
        timeout: float | None = None,
    ) -> list[Any]:
        """One querier's batch — single-shard by construction, served
        with :meth:`SieveServer.execute_many
        <repro.service.SieveServer.execute_many>` ordering
        semantics (``result[i]`` answers ``sqls[i]``).  The batch
        shares one deadline (the cluster's ``default_deadline_s``,
        else ``timeout``): it rides every admitted request and bounds
        the gather, so a hung worker surfaces as
        :class:`~repro.common.errors.DeadlineExceededError`."""
        deadline = self._absolute_deadline(None, timeout)
        # One routing root covers the whole batch; every admitted
        # request carries its trace id, so the batch's N shard-side
        # executions all correlate back to this one route.
        with self._route_span(querier) as root:
            with self._route_lock.read_locked():
                shard = self._checked_shard_locked(querier)
                futures = [
                    shard.admit(sql, querier, purpose, deadline=deadline)
                    for sql in sqls
                ]
            if root is not None:
                root.set(shard=shard.name, batch=len(futures))
        self._tick("cluster_requests", len(futures))
        return [self._bounded_result(future, querier, deadline) for future in futures]

    # ------------------------------------------------------- policy writes

    def owning_shards(self, querier: Any) -> list[str]:
        """Shards that observe a policy naming ``querier`` — the
        scatter set of a policy write.

        For a user identity: every shard holding it (its ring owner,
        plus that shard's fallback while a detour is up).  For a group
        identity: the holders of every member (their PQM filters
        consult the group's policies) *plus* those of the group
        identity itself, which serve any request issued under the
        group's own name.  Mirrors :meth:`PolicyPartition.owns_querier
        <repro.policy.store.PolicyPartition.owns_querier>` exactly.
        """
        assignment = self._assignment
        targets = set(assignment.holders(querier))
        if querier in self.store.groups:
            for member in self.store.groups.members_of(querier):
                targets.update(assignment.holders(member))
        return sorted(targets)

    def _abort_scatter(self, reason: str) -> "PolicyScatterError":
        self._tick("cluster_scatter_aborts")
        return PolicyScatterError(f"policy scatter aborted in prepare: {reason}")

    def _scatter_policy_write(
        self, queriers: Iterable[Any] | None, table: str, apply: Callable[[], Any]
    ) -> Any:
        """Epoch-fenced two-phase policy scatter.

        The scatter set is the shards holding ``queriers``
        (:meth:`owning_shards`) — or, when the write changes the
        *protected set* (``queriers`` is ``None``: ``protect`` /
        ``unprotect``; or the first policy on a not-yet-protected
        ``table``), **every** shard: protection is corpus-wide, and a
        shard that cannot hear the change would go on serving its
        queriers the unrewritten plan.  ``cluster_policy_fanout``
        records the width.

        *Prepare* (:meth:`_prepare_scatter`) runs **before** the base
        store is touched, so an abort is atomic: no shard, and no
        partition, ever observes a rolled-back write.

        *Commit*: the base-store mutation (``apply()``) is the single
        commit point — live partitions relay it synchronously on this
        thread — after which the fences of every shard in the scatter
        set advance to the new epoch.  A shard that died *between* prepare and the commit
        point (the injected ``commit``-phase fault) misses the relay:
        its ``expected_fence`` advances but its ``policy_fence`` does
        not, and the routing fence gate refuses it (fail-closed) until
        the supervisor rebuilds it from the authoritative store.
        """
        injector = self.fault_injector
        write_no = injector.next_write() if injector is not None else None
        with self._admin_lock:  # scatters serialize with rebalance/supervise
            # Stable: handovers and rebuilds hold the admin lock too.
            all_names = self.shard_names
            if queriers is None or table.lower() not in self.store.snapshot().protected:
                targets = all_names
            else:
                targets = sorted({n for q in queriers for n in self.owning_shards(q)})
            shards = {name: self._shards[name] for name in targets}
            self._prepare_scatter(shards, write_no)
            # A commit-phase fault crashes its victim here — after
            # prepare passed, before the commit point — so the victim
            # genuinely misses the write (the mid-scatter crash the
            # fence exists for).
            if injector is not None:
                fault = injector.scatter_fault(write_no, "commit")
                if fault is not None:
                    self.crash_shard(all_names[fault.shard % len(all_names)])
            stamped = apply()  # ← commit point: base write + live relay
            fence = self.store.epoch
            for shard in shards.values():
                shard.expected_fence = fence
                if shard.can_apply():
                    shard.policy_fence = fence
        self._tick("cluster_policy_writes")
        self._tick("cluster_policy_fanout", len(targets))
        return stamped

    def _prepare_scatter(self, shards: dict[str, ClusterShard], write_no: Any) -> None:
        """Prepare phase: every shard of the scatter set must be able
        to apply the write (process alive, relay attached) — any that
        cannot aborts the whole write with
        :class:`~repro.common.errors.PolicyScatterError`."""
        injector = self.fault_injector
        if injector is not None and injector.scatter_fault(write_no, "prepare"):
            raise self._abort_scatter(f"injected prepare fault (write {write_no})")
        for name in sorted(shards):
            if not shards[name].can_apply():
                raise self._abort_scatter(
                    f"owning shard {name!r} cannot apply the write "
                    "(crashed or relay detached)"
                )

    def insert_policy(self, policy: Policy) -> Policy:
        """Route one policy insert through the coordinator.

        The write lands in the base store (single source of truth) via
        the two-phase scatter (:meth:`_scatter_policy_write`);
        partition event relay delivers it to exactly the owning
        shards — all of them when it is the relation's first policy.
        """
        return self._scatter_policy_write(
            [policy.querier], policy.table, lambda: self.store.insert(policy)
        )

    def insert_policies(self, policies: Iterable[Policy]) -> int:
        count = 0
        for policy in policies:
            self.insert_policy(policy)
            count += 1
        return count

    def delete_policy(self, policy_id: int) -> None:
        policy = self.store.get(policy_id)
        self._scatter_policy_write(
            [policy.querier], policy.table, lambda: self.store.delete(policy_id)
        )

    def update_policy(self, policy: Policy) -> Policy:
        old = self.store.get(policy.id)
        return self._scatter_policy_write(
            [old.querier, policy.querier], policy.table, lambda: self.store.update(policy)
        )

    def protect(self, table: str) -> None:
        """Declare ``table`` protected on every shard (an all-shard
        write; see :meth:`PolicyStore.protect
        <repro.policy.store.PolicyStore.protect>`)."""
        self._scatter_policy_write(None, table, lambda: self.store.protect(table))

    def unprotect(self, table: str) -> None:
        """Release ``table`` on every shard; refused while a policy
        names it (:meth:`PolicyStore.unprotect
        <repro.policy.store.PolicyStore.unprotect>`)."""
        self._scatter_policy_write(None, table, lambda: self.store.unprotect(table))

    # ------------------------------------------------------ fault injection

    def fail_shard(self, name: str) -> None:
        """Mark a shard down: routing to it raises
        :class:`~repro.common.errors.ShardUnavailableError` until
        :meth:`restore_shard` (its queued work still drains)."""
        self.shard(name).available = False

    def restore_shard(self, name: str) -> None:
        self.shard(name).available = True

    def slow_shard(self, name: str, delay_s: float) -> None:
        """Fault injection: pad every request ``name`` serves by
        ``delay_s`` (0 heals it).  The shard still answers correctly —
        just slowly enough to burn its latency SLO, which is exactly
        the failure mode :meth:`health_tick` detects and routes
        around."""
        if delay_s < 0.0:
            raise ClusterError("delay_s must be non-negative")
        self.shard(name).inject_delay(delay_s)

    def crash_shard(self, name: str) -> None:
        """Fault injection: the shard *process* dies
        (:meth:`ClusterShard.crash`).  Harsher than :meth:`fail_shard`
        (a routing verdict over an intact shard), and recovery is a
        supervisor rebuild (:meth:`supervise`), not
        :meth:`restore_shard`: the dead process's partition view and
        caches are gone for good."""
        self.shard(name).crash()

    def drop_relay(self, name: str) -> None:
        """Fault injection: the shard's policy-event relay dies while
        its serving stack stays up — a *partial* process failure.

        The nastiest fault this tier models: the shard keeps answering
        (fast, confidently) from a partition that silently stops
        observing base-store writes.  Nothing fails until the next
        policy write, when the two-phase scatter's prepare finds the
        detached relay and aborts (the chaos suite's teeth test removes
        that check in a subclass and must catch the stale answers)."""
        self.shard(name).drop_relay()

    # ----------------------------------------------------------- supervision

    def supervise(self) -> list[ShardRebuild]:
        """One supervisor pass: detect dead/degenerate shards and
        rebuild each from the coordinator's authoritative state.

        A rebuild constructs a *fresh* :class:`ClusterShard` over the
        retained :class:`ShardSpec` — same data replica/backend (a
        restart on the same volume) but a brand-new policy partition
        view filtered from the authoritative base store to what the
        current assignment says the shard covers (its own queriers and
        those of any shard detoured onto it), a new guard store and
        guard/plan caches, and a new worker pool — then
        swaps it in under the routing write lock with its fences set to
        the current base epoch (it is, by construction, policy-current).
        The husk's relay is detached and its pool killed.

        Rejoin goes through the existing health machinery: the rebuilt
        shard is immediately routable, and if health-aware routing had
        installed a detour for it, the recovery hold
        (:meth:`configure_health`) keeps the detour until the shard has
        stayed healthy for the hold window — rebuilds get no shortcut
        around the hysteresis.  Call it periodically (there is no
        background thread, matching :meth:`health_tick`)."""
        with self._admin_lock:
            if self._stopped or not self._started:
                return []
            rebuilds: list[ShardRebuild] = []
            for name, husk in list(self._shards.items()):
                if not husk.needs_rebuild():
                    continue
                started = time.perf_counter()
                replacement = self._build_shard(name, husk.spec, self._assignment)
                replacement.start()
                fence = self.store.epoch
                replacement.policy_fence = fence
                replacement.expected_fence = fence
                with self._route_lock.write_locked():
                    self._shards[name] = replacement
                # Whatever was still alive of the husk must not keep
                # observing the base store or serving.
                husk.crash()
                self._tick("cluster_shard_rebuilds")
                rebuilds.append(
                    ShardRebuild(
                        name=name,
                        fence=fence,
                        duration_s=time.perf_counter() - started,
                    )
                )
            return rebuilds

    # ----------------------------------------------------------- health/SLO

    def configure_health(
        self,
        slo: SLO,
        recovery_hold_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "SieveCluster":
        """Arm health-aware routing: one per-shard
        :class:`~repro.obs.slo.BurnRateMonitor` over ``slo``, actuated
        by :meth:`health_tick`.

        ``recovery_hold_s`` is the hysteresis window — a flagged shard
        must stay clear for this long before its reroute is lifted
        (default: the SLO's short window).  Recovery is *time-based*
        by necessity: a rerouted-away shard receives no traffic, so
        its burn signal decays to zero as the windows drain rather
        than by serving proof.  ``clock`` is injectable for
        deterministic tests (readings are stamped with it)."""
        if recovery_hold_s is not None and recovery_hold_s < 0.0:
            raise ClusterError("recovery_hold_s must be non-negative")
        with self._admin_lock:
            self._health_slo = slo
            self._health_clock = clock
            self._recovery_hold_s = (
                recovery_hold_s if recovery_hold_s is not None else slo.short_window_s
            )
            self._shard_status = {}
            for shard in self._shards.values():
                shard.monitor = shard.healthy_since = None
        return self

    def health_tick(self, now: float | None = None) -> dict[str, str]:
        """One health-control-loop iteration (call it periodically —
        there is no background thread, matching the serving tier's
        piggybacked ticking).

        Per shard: unavailable/stopped → ``unhealthy``; burn-rate
        alert firing → ``degraded``; else ``healthy``.  The tick only
        decides *which detours should exist*: every non-healthy shard
        without one gets a healthy fallback, and a detoured shard that
        has stayed healthy for ``recovery_hold_s`` loses its detour.
        The handover (module docstring) does the rest.  Returns the
        tracked status per shard."""
        with self._admin_lock:
            if self._health_slo is None:
                raise ClusterError("configure_health() must run before health_tick()")
            if now is None:
                now = self._health_clock()
            slo, clock = self._health_slo, self._health_clock
            shards = dict(self._shards)  # stable: membership changes hold the admin lock
            statuses: dict[str, str] = {}
            for name, shard in shards.items():
                if shard.monitor is None:
                    # Readings are stamped on the cluster's clock so
                    # injected test clocks line up with the monitor's
                    # window arithmetic.
                    shard.monitor = BurnRateMonitor(
                        slo,
                        source=lambda s=shard: s.slo_sample(slo.latency_ms, clock()),
                        clock=clock,
                    )
                if not shard.serving:
                    statuses[name] = "unhealthy"
                else:
                    state = shard.monitor.tick(now=now)
                    firing = state.fast_firing or state.slow_firing
                    statuses[name] = "degraded" if firing else "healthy"
                if statuses[name] != "healthy":
                    shard.healthy_since = None
                elif shard.healthy_since is None:
                    shard.healthy_since = now
            self._shard_status = statuses
            detours = dict(self._assignment.detours)
            for name, status in statuses.items():
                if status != "healthy" and name not in detours:
                    fallback = self._pick_fallback(name, statuses, detours)
                    # None: no healthy stand-in; routing keeps its verdict.
                    if fallback is not None:
                        detours[name] = fallback
            for name in list(detours):
                since = shards[name].healthy_since
                if since is not None and now - since >= self._recovery_hold_s:
                    del detours[name]
            if detours != self._assignment.detours:
                self._apply_assignment(Assignment(self._assignment.ring, detours))
            return dict(statuses)

    @staticmethod
    def _pick_fallback(
        degraded: str, statuses: dict[str, str], detours: dict[str, str]
    ) -> str | None:
        """A healthy, non-detoured shard to stand in for ``degraded``
        (preferring one not already covering another detour)."""
        candidates = [
            name
            for name in sorted(statuses)
            if name != degraded
            and statuses[name] == "healthy"
            and name not in detours
        ]
        free = [name for name in candidates if name not in detours.values()]
        choices = free or candidates
        return choices[0] if choices else None

    def reroutes(self) -> dict[str, str]:
        """Active detours: degraded shard → fallback serving for it."""
        return dict(self._assignment.detours)

    def shard_health(self) -> dict[str, str]:
        """The coordinator's tracked verdict per live shard (shards
        never ticked default to ``healthy``)."""
        statuses = self._shard_status  # atomic reference, swapped whole
        with self._route_lock.read_locked():
            return {name: statuses.get(name, "healthy") for name in self._shards}

    def health_registry(self) -> Any:
        """A fresh :class:`~repro.obs.health.HealthRegistry` over the
        current shard set (rebuilt per call — rebalances change the
        component list)."""
        from repro.obs.health import cluster_health

        return cluster_health(self)

    def health(self) -> Any:
        """The cluster :class:`~repro.obs.health.HealthReport` with the
        cluster-aware roll-up: dead shards cap the verdict at
        ``degraded`` while any shard still serves."""
        from repro.obs.health import HealthReport, rollup_cluster

        report = self.health_registry().report()
        return HealthReport(
            status=rollup_cluster(report.components), components=report.components
        )

    def health_json(self) -> dict[str, Any]:
        """JSON-ready :meth:`health` (the ``/health`` endpoint body)."""
        return self.health().to_dict()

    # ----------------------------------------------------------- rebalance

    def routable_queriers(self) -> set[Any]:
        """The querier universe routing decisions range over: every
        user identity with direct policies plus every member of a
        group that has policies (group identities themselves are not
        routed — their policies follow the members)."""
        out: set[Any] = set()
        groups = self.store.groups
        for q in self.store.queriers():
            if q in groups:
                out |= set(groups.members_of(q))
            else:
                out.add(q)
        return out

    def replica_spec(self, backend_factory: Callable[[Database], Any] | None = None) -> ShardSpec:
        """A fresh :class:`ShardSpec` replicating the coordinator's
        data tier — the usual argument to :meth:`add_shard`."""
        db = replicate_database(self.store.db)
        return ShardSpec(db=db, backend=backend_factory(db) if backend_factory else None)

    def add_shard(self, spec: ShardSpec) -> RebalanceReport:
        """Online scale-out: join one shard, migrating ~1/(N+1) of the
        queriers onto it (hash-ring stability — no querier moves
        between surviving shards)."""
        with self._admin_lock:
            if self._stopped:
                raise ClusterError("cluster is stopped")
            old = self._assignment
            name = self._claim_name(spec, old.ring)
            new = Assignment(old.ring.with_node(name), old.detours)
            shard = self._build_shard(name, spec, new)
            if self._started:
                shard.start()
            return self._apply_assignment(new, joining=shard)

    def remove_shard(self, name: str) -> RebalanceReport:
        """Online scale-in: decommission one shard, migrating exactly
        its queriers onto the survivors (no survivor-to-survivor
        movement), then drain and stop it.  A detour from or onto it
        lapses: the queriers of a detour that lost its fallback go
        home (typed backpressure while home is still down)."""
        with self._admin_lock:
            if self._stopped:
                raise ClusterError("cluster is stopped")
            if name not in self._shards:
                raise ClusterError(f"unknown shard {name!r}")
            if len(self._shards) == 1:
                raise ClusterError("cannot remove the last shard")
            old = self._assignment
            return self._apply_assignment(
                Assignment(old.ring.without_node(name), old.detours)
            )

    def _apply_assignment(
        self, new: Assignment, joining: ClusterShard | None = None
    ) -> RebalanceReport:
        """The handover from the current assignment to ``new`` (grow →
        swap → drain → shrink → forget; see the module docstring).
        Caller holds the admin lock."""
        old = self._assignment
        shards = list(self._shards.values())
        leaving = [shard for shard in shards if shard.name not in new.ring]
        covers = {shard.name: new.covers(shard.name) for shard in shards}
        # Without a joiner, ring stability keeps every surviving key's
        # home, so a shard still covering every home it covered has
        # lost no querier; a joiner may take keys from anyone.
        stable = new.ring.nodes <= old.ring.nodes
        losers = []
        for shard in shards:
            held, keep = old.covers(shard.name), covers[shard.name]
            was, now = old.homes(shard.name), new.homes(shard.name)
            if not (stable and was <= now):
                losers.append(shard)
                shard.cover(lambda q, held=held, keep=keep: held(q) or keep(q))
            elif new.ring is not old.ring or was != now:
                shard.cover(keep)
        # A leaving shard stops receiving *new* traffic in the same
        # critical section that swaps the assignment.
        with self._route_lock.write_locked():
            if joining is not None:
                self._shards[joining.name] = joining
            self._assignment = new
            for shard in leaving:
                shard.available = False
        drained = True
        invalidated = 0
        for shard in losers:
            keep = covers[shard.name]
            if shard.drain(keep, REBALANCE_TIMEOUT_S):
                shard.cover(keep)
                invalidated += shard.forget(keep)
            else:
                drained = False
        for shard in leaving:
            shard.stop(drain=True)
            with self._route_lock.write_locked():
                del self._shards[shard.name]
        universe = self.routable_queriers()
        moved = old.ring.moved_keys(new.ring, universe)
        self._tick("cluster_rebalance_moves", len(moved))
        return RebalanceReport(
            added=joining.name if joining is not None else None,
            removed=leaving[0].name if leaving else None,
            moved_queriers=moved,
            universe=len(universe),
            invalidated_entries=invalidated,
            drained=drained,
        )

    # ----------------------------------------------------------------- audit

    def audit_logs(self) -> dict[str, AuditLog]:
        """The live per-shard decision chains (cluster built with
        ``audit=True``); chain id = shard name."""
        with self._route_lock.read_locked():
            shards = list(self._shards.values())
        return {
            shard.name: shard.audit_log
            for shard in shards
            if shard.audit_log is not None
        }

    def merged_audit_records(self) -> "list[DecisionRecord]":
        """One deterministic, verifiability-preserving merged log.

        Each per-shard chain is verified against its live head, then
        records interleave by ``(chain, seq)`` — see
        :func:`~repro.audit.merge_records`.  The merge is re-checkable
        with :func:`~repro.audit.verify_merged` because every record
        keeps its shard chain id: the merged sequence re-partitions
        into the original intact chains.
        """
        return merge_records(self.audit_logs().values())

    # ------------------------------------------------------------ accounting

    def partition_sizes(self) -> dict[str, int]:
        """Policies per shard partition — the ~1/N corpus share."""
        with self._route_lock.read_locked():
            shards = list(self._shards.values())
        return {shard.name: shard.policy_count() for shard in shards}

    def stats(self) -> ClusterStats:
        with self._route_lock.read_locked():
            shards = list(self._shards.values())
        per_shard = {shard.name: shard.stats() for shard in shards}
        partition_policies = {shard.name: shard.policy_count() for shard in shards}
        with self._counter_lock:
            counters = {
                name: getattr(self._counters, name) for name in _CLUSTER_COUNTERS
            }
        return ClusterStats.merge(
            per_shard,
            partition_policies,
            counters,
            health=self.shard_health(),
            reroutes=self.reroutes(),
        )

    # -------------------------------------------------------------- metrics

    def metrics_registry(self) -> Any:
        """The cluster's :class:`~repro.obs.metrics.MetricsRegistry`
        (built lazily, once): coordinator engine counters, merged
        serving summaries and per-shard labelled gauges."""
        registry = getattr(self, "_metrics_registry", None)
        if registry is None:
            from repro.obs.export import cluster_registry

            registry = self._metrics_registry = cluster_registry(self)
        return registry

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition of :meth:`metrics_registry`."""
        from repro.obs.export import to_prometheus

        return to_prometheus(self.metrics_registry())

    def metrics_json(self) -> dict[str, Any]:
        """The JSON snapshot of :meth:`metrics_registry`."""
        from repro.obs.export import to_json

        return to_json(self.metrics_registry())
