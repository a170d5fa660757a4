"""SieveServer — one Sieve pipeline serving many concurrent sessions.

The paper positions Sieve as *middleware* in front of a DBMS serving
"a large number of queries" from many queriers (Section 1); this
module is the tier that actually accepts that traffic.  One
:class:`SieveServer` owns one :class:`~repro.core.middleware.Sieve`
and runs a fixed pool of worker threads over a bounded
:class:`~repro.service.admission.AdmissionQueue`:

.. code-block:: text

    submit(sql, querier, purpose)          # → Future, or
    execute(sql, querier, purpose)         # → blocking convenience
        │  admit (bounded queue; ServiceOverloadedError = backpressure)
        ▼
    AdmissionQueue — batch same-(querier, purpose), serialize per key
        │  worker pickup (queue-wait recorded)
        ▼
    Sieve pipeline — policy snapshot → shared guard cache (single-
        flight) → strategy → rewrite → execute (bundled engine or a
        Backend with per-thread connections)
        │
        ▼
    Future resolved; latency split into queue-wait + service time
        (``service_*`` counters and :meth:`SieveServer.stats`)

What each layer buys under concurrency:

* the **policy snapshot** gives every request one consistent corpus
  view while policy writers run concurrently;
* the **shared guard cache** means N queriers' warm state is one
  process-wide LRU, and single-flight collapses N concurrent cold
  misses of one key into one guard generation;
* **batching** serves all queued requests of one (querier, purpose)
  back to back and guarantees no two workers concurrently
  rewrite the same key (Δ partition registration stays per-key
  serial);
* the **bounded queue** turns overload into fast, explicit
  :class:`~repro.common.errors.ServiceOverloadedError` rejections
  instead of unbounded latency;
* latency populations (service, queue wait, end-to-end total) are
  **log-bucketed histograms** (:mod:`repro.obs.histogram`) — exactly
  mergeable across shards, error-bounded quantiles — and with
  :meth:`SieveServer.enable_slo` a **burn-rate monitor**
  (:mod:`repro.obs.slo`) watches the end-to-end population and clamps
  admission (:class:`~repro.service.admission.AdaptiveShedder`)
  while the latency budget burns fast, so the requests that *are*
  served stay inside budget; ``health()`` / ``health_json()`` roll
  the whole story up to healthy/degraded/unhealthy
  (:mod:`repro.obs.health`).

Throughput scales with workers only as far as the engine allows: the
bundled pure-Python engine serializes on the GIL (workers buy
concurrency, not parallelism), while a real backend such as
:class:`~repro.backend.SqliteBackend` releases the GIL during
execution.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.common.errors import (
    DeadlineExceededError,
    ExecutionError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ShardUnavailableError,
    WorkerCrashedError,
)
from repro.core.middleware import Sieve
from repro.expr.params import collect_params, parameterize_query
from repro.sql.ast import Query
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql
from repro.obs.histogram import LatencyHistogram
from repro.obs.slo import SLO, BurnRateMonitor, SLOSample
from repro.obs.tracing import (
    clear_inherited_trace_id,
    current_trace_id,
    set_inherited_trace_id,
)
from repro.service.admission import AdaptiveShedder, AdmissionQueue, Batch, ServiceRequest

DEFAULT_WORKERS = 4
DEFAULT_MAX_PENDING = 1024
DEFAULT_MAX_BATCH = 16
#: Bound on the per-server map of prepared handles, one per query
#: shape (auto-parameterized template) and (querier, purpose);
#: least-recently-created shapes age out beyond it.
AUTO_PREPARE_MAX_SHAPES = 512
#: The SLO monitor ticks at most this often (piggybacked on request
#: admission/completion — no background thread).
SLO_TICK_INTERVAL_S = 0.05


@dataclass
class LatencySummary:
    """Percentiles of one latency population, in milliseconds — the
    five-field view of a :class:`~repro.obs.histogram.LatencyHistogram`."""

    count: int = 0
    mean_ms: float = 0.0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0

    @classmethod
    def of_histogram(cls, hist: LatencyHistogram) -> "LatencySummary":
        """The histogram-backed summary: count and mean are exact,
        quantiles carry the histogram's documented relative error
        bound (:attr:`LatencyHistogram.relative_error
        <repro.obs.histogram.LatencyHistogram.relative_error>`,
        ~2.5% at the default bucketing)."""
        return cls(**hist.summary_dict())

    def to_dict(self) -> dict[str, float]:
        """JSON-ready form (the metrics tier's summary sample source)."""
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
        }


@dataclass
class ServiceStats:
    """One consistent snapshot of a server's accounting.

    ``guard_cache`` / ``plan_cache`` are
    :meth:`~repro.core.cache.CacheStats.snapshot` dicts (``hits``,
    ``misses``, ``evictions``, ``invalidations``, ``coalesced``,
    ``hit_rate``) of the pipeline's two memoization tiers.
    Serving dashboards read hit rates and rejection counts from here;
    :class:`~repro.cluster.ClusterStats` aggregates them across shards.
    """

    workers: int
    pending: int
    requests: int
    batches: int
    rejections: int
    failures: int
    guard_cache: dict[str, float] = field(default_factory=dict)
    #: Always ``None``: the text-keyed rewrite memo is gone (it was
    #: never consulted once auto-prepare served repeated shapes).  The
    #: field and its ``to_dict`` key stay only until the canonical
    #: benchmark's traced run stops reading them.
    rewrite_cache: None = None
    plan_cache: dict[str, float] = field(default_factory=dict)
    #: Rejections issued by the adaptive shedder specifically (a
    #: subset of ``rejections``; 0 when no SLO clamp is configured).
    sheds: int = 0
    #: The three latency populations — service time, queue wait, and
    #: end-to-end (submit → result, queue wait included; what the
    #: serving SLO is stated over) — as histogram snapshots, which the
    #: cluster merges exactly.  ``latency`` / ``queue_wait`` /
    #: ``total_latency`` are their five-field summaries.
    latency_hist: LatencyHistogram = field(default_factory=LatencyHistogram)
    queue_wait_hist: LatencyHistogram = field(default_factory=LatencyHistogram)
    total_latency_hist: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def latency(self) -> LatencySummary:
        return LatencySummary.of_histogram(self.latency_hist)

    @property
    def queue_wait(self) -> LatencySummary:
        return LatencySummary.of_histogram(self.queue_wait_hist)

    @property
    def total_latency(self) -> LatencySummary:
        return LatencySummary.of_histogram(self.total_latency_hist)

    @property
    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    @property
    def guard_cache_hit_rate(self) -> float:
        return float(self.guard_cache.get("hit_rate", 0.0))

    @property
    def plan_cache_hit_rate(self) -> float:
        return float(self.plan_cache.get("hit_rate", 0.0))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot (dashboards, the /metrics JSON body)."""
        return {
            "workers": self.workers,
            "pending": self.pending,
            "requests": self.requests,
            "batches": self.batches,
            "rejections": self.rejections,
            "failures": self.failures,
            "sheds": self.sheds,
            "mean_batch_size": self.mean_batch_size,
            "latency": self.latency.to_dict(),
            "queue_wait": self.queue_wait.to_dict(),
            "total_latency": self.total_latency.to_dict(),
            "guard_cache": dict(self.guard_cache),
            "rewrite_cache": None,
            "plan_cache": dict(self.plan_cache),
        }


class SieveServer:
    """A thread-pooled, batching front end over one Sieve pipeline.

    Usage::

        server = SieveServer(sieve, workers=4)
        with server:                        # start()/stop(drain=True)
            future = server.submit(sql, querier="Prof.Smith",
                                   purpose="analytics")
            rows = future.result().rows
            # or blocking:
            result = server.execute(sql, "Prof.Smith", "analytics")
        print(server.stats().latency.p95_ms)

    ``submit`` raises
    :class:`~repro.common.errors.ServiceOverloadedError` when the
    bounded admission queue is full and
    :class:`~repro.common.errors.ServiceStoppedError` when the server
    is not running.  Results and *failures* both travel through the
    returned future: a query that raises inside the pipeline resolves
    its future with that exception, never taking down the worker.
    """

    def __init__(
        self,
        sieve: Sieve,
        workers: int = DEFAULT_WORKERS,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_batch: int = DEFAULT_MAX_BATCH,
        shedder: AdaptiveShedder | None = None,
    ):
        if workers <= 0:
            raise ValueError("worker count must be positive")
        self.sieve = sieve
        # Serving implies repeated traffic: every SELECT is served
        # through the PreparedQuery of its shape from the first
        # sighting, so repeats skip parse → strategy → rewrite → plan
        # entirely (value-keyed, epoch- and plan-version-fenced — see
        # core.cache.PlanCache).  (querier, purpose, template_key) →
        # PreparedQuery; bounded FIFO (dict order).
        self._prepare_lock = threading.Lock()
        self._prepared: dict[tuple, Any] = {}
        self.workers = workers
        self._queue = AdmissionQueue(max_pending=max_pending, max_batch=max_batch)
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._started = False
        self._stopped = False
        self._requests = 0
        self._batches = 0
        self._rejections = 0
        self._failures = 0
        self._sheds = 0
        # Log-bucketed, exactly-mergeable latency populations (see
        # repro.obs.histogram): service time, queue wait, and the
        # end-to-end total the SLO is stated over.
        self._latency_hist = LatencyHistogram()
        self._queue_wait_hist = LatencyHistogram()
        self._total_hist = LatencyHistogram()
        #: SLO-aware admission clamp (None = never sheds); usually
        #: installed by :meth:`enable_slo` rather than passed directly.
        self.shedder = shedder
        #: Burn-rate monitor driving the shedder (:meth:`enable_slo`).
        self.slo_monitor: BurnRateMonitor | None = None
        #: Fault injection: per-request service-time padding (seconds).
        #: The cluster's ``slow_shard`` sets this to simulate one shard
        #: answering slowly without touching the engine.
        self.inject_delay_s: float = 0.0
        #: Fault injection: the :class:`~repro.faults.FaultInjector`
        #: workers consult per request (None outside chaos runs) — the
        #: cluster installs the shared injector on every shard server.
        self.fault_injector: Any = None
        #: Fault injection: offset added to this server's monotonic
        #: clock when judging request deadlines, modelling a shard
        #: whose clock runs ahead (positive — deadlines trip early) or
        #: behind (negative — expired work is still attempted, and the
        #: caller's own deadline wait catches it) the coordinator's.
        self.clock_skew_s: float = 0.0
        self._killed = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "SieveServer":
        with self._lock:
            if self._stopped:
                raise ServiceStoppedError("a stopped server cannot be restarted")
            if self._started:
                return self
            self._started = True
            for i in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"sieve-worker-{i}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        return self

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work; with ``drain`` (default) workers finish
        every queued request first, otherwise queued requests fail with
        :class:`~repro.common.errors.ServiceStoppedError`."""
        with self._lock:
            self._stopped = True
        abandoned = self._queue.close(drain=drain)
        for request in abandoned:
            request.future.set_exception(
                ServiceStoppedError("server stopped before the request ran")
            )
        for thread in self._threads:
            thread.join(timeout=timeout)

    def kill(self) -> None:
        """Simulated process death (fault injection and crash tests).

        Unlike :meth:`stop`, nothing drains and nothing joins: queued
        requests fail immediately with
        :class:`~repro.common.errors.ShardUnavailableError` and worker
        threads exit after the batch they are currently serving.
        In-flight requests still resolve — their answers were computed
        from pre-crash state and are correct, matching a real process
        whose last replies race its death.  Idempotent.
        """
        with self._lock:
            if self._killed:
                return
            self._killed = True
            self._stopped = True
        abandoned = self._queue.close(drain=False)
        for request in abandoned:
            request.future.set_exception(
                ShardUnavailableError("server killed before the request ran")
            )

    @property
    def killed(self) -> bool:
        with self._lock:
            return self._killed

    @property
    def lost_workers(self) -> int:
        """Worker threads that died while the server was running — a
        crashed worker (see the :meth:`_worker_loop` crash barrier)
        stays lost for the server's lifetime, shrinking its pool.  The
        cluster supervisor treats any loss as grounds for a rebuild.
        Always 0 once the server is stopped (an exited worker is then
        normal shutdown, not a crash)."""
        with self._lock:
            if not self._started or self._stopped:
                return 0
            return sum(1 for t in self._threads if not t.is_alive())

    def __enter__(self) -> "SieveServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop(drain=True)

    @property
    def running(self) -> bool:
        with self._lock:
            return self._started and not self._stopped

    # ------------------------------------------------------------ admission

    def submit(
        self, sql: Any, querier: Any, purpose: str, deadline_s: float | None = None
    ) -> "Future[Any]":
        """Enqueue one query; the future resolves to its
        :class:`~repro.engine.executor.QueryResult`.

        With ``deadline_s`` the request carries an absolute deadline
        that many seconds out: a worker picking it up after expiry
        resolves the future with
        :class:`~repro.common.errors.DeadlineExceededError` instead of
        executing it.  Pair it with ``.result(timeout=...)`` so the
        *wait* is bounded too — a future alone blocks forever if the
        serving worker dies (see :meth:`kill` and the cluster's
        resilient path, which bounds both sides)."""
        return self.admit(sql, querier, purpose, deadline=self._deadline(deadline_s))

    def submit_with_info(
        self, sql: Any, querier: Any, purpose: str, deadline_s: float | None = None
    ) -> "Future[Any]":
        """Like :meth:`submit` but resolving to the full
        :class:`~repro.core.middleware.SieveExecution` bookkeeping."""
        return self.admit(
            sql, querier, purpose, with_info=True, deadline=self._deadline(deadline_s)
        )

    @staticmethod
    def _deadline(deadline_s: float | None) -> float | None:
        """Relative budget → absolute perf_counter deadline."""
        return None if deadline_s is None else time.perf_counter() + deadline_s

    def admit(
        self,
        sql: Any,
        querier: Any,
        purpose: str,
        *,
        with_info: bool = False,
        deadline: float | None = None,
        fault_tag: int | None = None,
    ) -> "Future[Any]":
        """The cluster tier's admission entry: like :meth:`submit` but
        taking an *absolute* monotonic deadline (already stamped by the
        coordinator, so retries and hedges share one budget) and the
        coordinator-assigned fault ordinal (chaos runs only)."""
        if not self.running:
            raise ServiceStoppedError("server is not running (call start())")
        # Keep the burn-rate monitor ticking from the submission side
        # too: under full overload no request completes quickly, and
        # recovery (hysteresis release) must not wait on completions.
        self._tick_slo()
        if self.shedder is not None and self.shedder.should_shed(
            self._queue.pending(), self._queue.max_pending
        ):
            with self._lock:
                self._sheds += 1
                self._rejections += 1
                self.sieve.db.counters.service_rejections += 1
            raise ServiceOverloadedError(
                "admission clamped: the latency SLO is burning fast "
                f"(effective capacity {self.shedder.capacity(self._queue.max_pending)} "
                f"of {self._queue.max_pending})"
            )
        request = ServiceRequest(
            sql=sql,
            querier=querier,
            purpose=purpose,
            submitted_at=time.perf_counter(),
            with_info=with_info,
            # If the admitting thread runs inside a span (the cluster's
            # routing root), its trace id rides the request so the
            # worker's sieve.query root joins the same trace.
            trace_id=current_trace_id() or "",
            deadline=deadline,
            fault_tag=fault_tag,
        )
        try:
            self._queue.submit(request)
        except ServiceOverloadedError:
            # Only genuine backpressure counts as a rejection; a
            # stop()/submit race surfaces as ServiceStoppedError and
            # propagates uncounted.
            with self._lock:
                self._rejections += 1
                self.sieve.db.counters.service_rejections += 1
            raise
        return request.future

    def execute(
        self,
        sql: Any,
        querier: Any,
        purpose: str,
        timeout: float | None = None,
        deadline_s: float | None = None,
    ) -> Any:
        """Blocking convenience: submit and wait for the result.

        ``timeout`` bounds the wait (raising
        :class:`concurrent.futures.TimeoutError`); ``deadline_s``
        additionally rides the request so an expired queued request is
        refused by the worker rather than executed late."""
        return self.submit(sql, querier, purpose, deadline_s=deadline_s).result(
            timeout=timeout
        )

    def execute_many(
        self,
        sqls: Iterable[Any],
        querier: Any,
        purpose: str,
        timeout: float | None = None,
    ) -> list[Any]:
        """Submit a batch for one (querier, purpose) and wait for all.

        All requests share the scheduling key, so the pool serves them
        as admission-queue batches, one worker at a time.

        **Ordering guarantee** (pinned by
        ``tests/test_cluster.py::test_execute_many_preserves_submission_order``):
        ``result[i]`` is the result of ``sqls[i]``, always — results
        are collected from the submission-ordered futures, not in
        completion order.  Execution order matches too: same-key
        requests are FIFO within the admission queue (batches take
        from the head, in arrival order) and the queue never hands one
        key to two workers, so batching can split the sequence across
        batches but never reorder or interleave it.
        """
        futures = [self.submit(sql, querier, purpose) for sql in sqls]
        return [future.result(timeout=timeout) for future in futures]

    def wait_quiesced(
        self, match: "Any" = None, timeout: float | None = None
    ) -> bool:
        """Block until no queued or in-flight scheduling key satisfies
        ``match(key)`` (``None`` = any key, i.e. fully idle).  The
        cluster tier's rebalance barrier — see
        :meth:`~repro.service.admission.AdmissionQueue.wait_quiesced`.
        Returns False on timeout."""
        return self._queue.wait_quiesced(match or (lambda key: True), timeout=timeout)

    # --------------------------------------------------------------- workers

    def _worker_loop(self) -> None:
        # Audit integration: each worker owns a thread-local record
        # buffer — the middleware's hot path does one lock-free list
        # append per request, and the same worker chains the buffer
        # after every batch (so flushing costs one lock hold per batch,
        # not per request, and per-worker order is preserved).  Read
        # once at entry: attaching audit to a running server's sieve
        # still records (AuditLog.record chains directly for threads
        # without a buffer), it just skips the batching optimization.
        audit = self.sieve.audit
        if audit is not None:
            audit.register_worker()
        # The tracer batches finished traces the same way: one
        # thread-confined buffer per worker, one lock hold per batch.
        tracer = self.sieve.tracer
        if tracer is not None:
            tracer.register_worker()
        try:
            while True:
                batch = self._queue.take()
                if batch is None:
                    return
                crashed = False
                try:
                    self._serve_batch(batch)
                except BaseException:
                    # Crash barrier: a worker dying mid-batch — the
                    # injected WorkerCrashedError, or a genuine bug
                    # escaping the per-request handler — must not leave
                    # callers blocked forever on unresolved futures.
                    # Fail them typed, then let the thread die (the
                    # health tier's worker-liveness check sees the
                    # shrunk pool).
                    crashed = True
                    self._fail_unresolved(batch)
                finally:
                    # Flush BEFORE marking the batch complete so that
                    # anything gating on queue completion (drain,
                    # stop()) observes a fully chained log.  Individual
                    # callers may resolve mid-batch; completeness reads
                    # of a *live* log must quiesce the server first.
                    if audit is not None:
                        audit.flush_local()
                    if tracer is not None:
                        tracer.flush_local()
                    self._queue.complete(batch.key)
                if crashed:
                    return
        finally:
            if audit is not None:
                audit.unregister_worker()
            if tracer is not None:
                tracer.unregister_worker()

    def _serve_batch(self, batch: Batch) -> None:
        querier, purpose = batch.key
        served_any = False
        for request in batch.requests:
            request.started_at = time.perf_counter()
            if not request.future.set_running_or_notify_cancel():
                # Cancelled while queued: not served, so it joins
                # neither the request counters nor the latency samples
                # (``stats().requests`` counts *served* work).
                continue
            served_any = True
            failed = False
            # Deadline check at pickup, on this server's (possibly
            # skewed) clock: queue time already ate the budget, so
            # executing now would burn a worker on an answer nobody is
            # waiting for.  Refused typed, before any engine work.
            if request.expired(time.perf_counter(), self.clock_skew_s):
                request.finished_at = time.perf_counter()
                request.future.set_exception(
                    DeadlineExceededError(
                        "deadline passed while the request was queued"
                    )
                )
                self.sieve.db.counters.service_deadline_timeouts += 1
                self._record(request, failed=True)
                continue
            # Fault-injection hooks run OUTSIDE the per-request
            # try/except below: an injected worker crash must escape to
            # the worker loop's crash barrier, not resolve this one
            # future and keep the thread alive.
            if self.fault_injector is not None:
                action = self.fault_injector.serve_action(request.fault_tag)
                if action is not None:
                    if action.kind == "crash_worker":
                        raise WorkerCrashedError(
                            "injected worker crash while serving"
                        )
                    if action.kind == "drop":
                        # Lost reply: the future never resolves.  The
                        # caller's bounded wait (deadline / timeout) is
                        # the only recovery — exactly the hang this
                        # tier's deadlines exist to catch.
                        continue
                    if action.kind in ("delay", "hang") and action.delay_s > 0.0:
                        time.sleep(action.delay_s)
                    elif action.kind == "backend_error":
                        backend = self.sieve.backend
                        if backend is not None and hasattr(backend, "inject_failures"):
                            backend.inject_failures(1)
                        else:
                            # No backend under the pipeline: surface the
                            # same typed failure the backend would.
                            request.finished_at = time.perf_counter()
                            request.future.set_exception(
                                ExecutionError("injected backend fault")
                            )
                            self._record(request, failed=True)
                            continue
                    elif action.kind == "duplicate":
                        # Duplicated delivery: the query runs twice
                        # (double engine work, double counters); only
                        # the second answer is delivered.  Safe —
                        # queries are read-only.
                        try:
                            self.sieve.execute(request.sql, querier, purpose)
                        except Exception:
                            pass  # the delivered attempt decides the outcome
            if request.trace_id:
                set_inherited_trace_id(request.trace_id)
            if self.inject_delay_s > 0.0:
                time.sleep(self.inject_delay_s)
            try:
                auto = self._auto_prepare(request.sql, querier, purpose)
                if auto is not None:
                    prepared, values = auto
                    info = prepared.execute_with_info(values)
                else:
                    info = self.sieve.execute_with_info(request.sql, querier, purpose)
                result: Any = info if request.with_info else info.result
            except BaseException as exc:  # resolve, never kill the worker
                failed = True
                request.finished_at = time.perf_counter()
                request.future.set_exception(exc)
            else:
                request.finished_at = time.perf_counter()
                request.future.set_result(result)
            finally:
                if request.trace_id:
                    clear_inherited_trace_id()
            self._record(request, failed=failed)
        if not served_any:
            return  # an all-cancelled batch must not skew batch stats
        counters = self.sieve.db.counters
        with self._lock:
            self._batches += 1
            counters.service_batches += 1

    def _auto_prepare(self, sql: Any, querier: Any, purpose: str) -> Any:
        """``(PreparedQuery, binding values)`` for a parameter-free
        SELECT, or ``None`` to take the plain ``Sieve.execute`` path.

        The server parses the request, auto-parameterizes its literals
        (:func:`repro.expr.params.parameterize_query`) and prepares the
        resulting template once per (querier, purpose), at first sight;
        every request of the shape — same SQL or different literals —
        executes through the plan cache.  Row- and enforcement-counter
        identical to the plain path by construction (the cache is
        value-keyed), so callers cannot observe it except in latency
        and the zero-weight ``plan_cache_*`` counters.

        Never raises: non-SELECT statements, unparseable SQL and
        already-parameterized queries fall through so the plain path
        surfaces its usual errors.
        """
        try:
            query = parse_query(sql) if isinstance(sql, str) else sql
            if not isinstance(query, Query) or collect_params(query):
                return None
            template, values = parameterize_query(query)
            key = (querier, purpose, to_sql(template))
        except Exception:
            return None
        with self._prepare_lock:
            prepared = self._prepared.get(key)
            if prepared is None:
                # A handle holds the template and nothing else, so
                # building one under the lock costs a print of it.
                prepared = self._prepared[key] = self.sieve.prepare(template, querier, purpose)
                while len(self._prepared) > AUTO_PREPARE_MAX_SHAPES:
                    self._prepared.pop(next(iter(self._prepared)))
        return prepared, values

    def _fail_unresolved(self, batch: Batch) -> None:
        """The crash barrier's cleanup: every request of the batch the
        dying worker had not resolved fails with
        :class:`~repro.common.errors.ShardUnavailableError` — callers
        get a typed error immediately instead of a future that never
        resolves."""
        for request in batch.requests:
            if request.future.done():
                continue
            request.finished_at = time.perf_counter()
            # A request still PENDING (the crash hit before its
            # set_running call) accepts set_exception directly; one
            # already RUNNING does too.
            request.future.set_exception(
                ShardUnavailableError("worker crashed while serving this batch")
            )
            if request.started_at:
                self._record(request, failed=True)

    def _record(self, request: ServiceRequest, failed: bool) -> None:
        counters = self.sieve.db.counters
        with self._lock:
            self._requests += 1
            if failed:
                self._failures += 1
                counters.service_failures += 1
            self._latency_hist.record_seconds(request.service_s)
            self._queue_wait_hist.record_seconds(request.queue_wait_s)
            self._total_hist.record_seconds(
                max(0.0, request.finished_at - request.submitted_at)
            )
            counters.service_requests += 1
            counters.service_queue_wait_us += int(request.queue_wait_s * 1_000_000)
            counters.service_exec_us += int(request.service_s * 1_000_000)
        # Outside the lock: the tick's sample source re-takes it.
        self._tick_slo()

    def _tick_slo(self) -> None:
        monitor = self.slo_monitor
        if monitor is not None:
            monitor.maybe_tick(SLO_TICK_INTERVAL_S)

    # ----------------------------------------------------------- accounting

    def pending(self) -> int:
        """Requests queued, not yet picked up by a worker."""
        return self._queue.pending()

    @property
    def max_pending(self) -> int:
        """The admission queue's static bound."""
        return self._queue.max_pending

    def alive_workers(self) -> int:
        """Worker threads currently alive (health-check source)."""
        return sum(thread.is_alive() for thread in self._threads)

    def stats(self) -> ServiceStats:
        # Snapshot under the lock (histogram copies are O(buckets)),
        # summarize outside it — workers must never stall in _record()
        # behind a monitoring poll.
        with self._lock:
            latency_hist = self._latency_hist.copy()
            queue_wait_hist = self._queue_wait_hist.copy()
            total_hist = self._total_hist.copy()
            requests = self._requests
            batches = self._batches
            rejections = self._rejections
            failures = self._failures
            sheds = self._sheds
        return ServiceStats(
            workers=self.workers,
            pending=self._queue.pending(),
            requests=requests,
            batches=batches,
            rejections=rejections,
            failures=failures,
            sheds=sheds,
            latency_hist=latency_hist,
            queue_wait_hist=queue_wait_hist,
            total_latency_hist=total_hist,
            guard_cache=self.sieve.guard_cache.stats.snapshot(),
            plan_cache=self.sieve.plan_cache.stats.snapshot(),
        )

    # ------------------------------------------------------------ health/SLO

    def slo_sample(
        self, threshold_ms: float | None, now: float | None = None
    ) -> SLOSample:
        """One cumulative reading for a
        :class:`~repro.obs.slo.BurnRateMonitor`: served requests,
        failures, and — against ``threshold_ms`` — how many *total*
        (queue wait + service) latencies exceeded the SLO threshold.
        ``now`` stamps the reading on the monitor's own clock (the
        cluster's health loop runs on an injectable one)."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            return SLOSample(
                now=now,
                requests=self._requests,
                failures=self._failures,
                over_latency=(
                    self._total_hist.count_over(threshold_ms)
                    if threshold_ms is not None
                    else 0
                ),
            )

    def enable_slo(
        self,
        slo: SLO,
        shed: bool = True,
        shed_cooldown_s: float | None = None,
        clock: Any = time.monotonic,
    ) -> BurnRateMonitor:
        """Attach a burn-rate monitor for ``slo`` (idempotent), and —
        with ``shed`` (default) — the adaptive admission clamp.

        The monitor ticks piggybacked on admissions/completions (no
        background thread).  When its fast-burn alert fires, the
        shedder clamps the effective queue to a quarter of the depth
        the latency budget could absorb — ``0.25 * latency_ms / mean
        service time * workers`` requests, derived live from the
        latency histogram — and releases only after the burn has
        stayed clear for the cool-down (default: the SLO's short
        window).  The quarter (not half) targets a steady-state queue
        wait well under the budget so the p99 — queue wait plus the
        service-time and scheduler tail — still lands inside it.
        """
        if self.slo_monitor is not None:
            return self.slo_monitor
        monitor = BurnRateMonitor(
            slo, source=lambda: self.slo_sample(slo.latency_ms), clock=clock
        )
        if shed:
            def budget_capacity() -> int:
                if slo.latency_ms is None:
                    return int(self._queue.max_pending * 0.125)
                with self._lock:
                    mean_ms = self._latency_hist.mean_ms
                if mean_ms <= 0.0:
                    return int(self._queue.max_pending * 0.125)
                return max(1, int(0.25 * slo.latency_ms / mean_ms * self.workers))

            self.shedder = AdaptiveShedder(
                cooldown_s=(
                    shed_cooldown_s if shed_cooldown_s is not None else slo.short_window_s
                ),
                capacity_fn=budget_capacity,
                clock=clock,
            )
            monitor.add_listener(
                lambda state: self.shedder.signal(state.fast_firing, now=state.now)
            )
        self.slo_monitor = monitor
        return monitor

    def health_registry(self) -> Any:
        """The server's :class:`~repro.obs.health.HealthRegistry`
        (built lazily, once)."""
        registry = getattr(self, "_health_registry", None)
        if registry is None:
            from repro.obs.health import server_health

            registry = self._health_registry = server_health(self)
        return registry

    def health(self) -> Any:
        """The rolled-up :class:`~repro.obs.health.HealthReport`:
        worker-pool liveness, admission depth/shedding, policy
        snapshot consistency, cache hit-rate floors, SLO burn state."""
        return self.health_registry().report()

    def health_json(self) -> dict[str, Any]:
        """JSON-ready :meth:`health` (the ``/health`` endpoint body)."""
        return self.health().to_dict()

    # -------------------------------------------------------------- metrics

    def metrics_registry(self) -> Any:
        """The server's :class:`~repro.obs.metrics.MetricsRegistry`
        (built lazily, once): every engine counter plus the serving
        gauges/summaries.  Imported lazily so a server that never
        scrapes pays nothing."""
        registry = getattr(self, "_metrics_registry", None)
        if registry is None:
            from repro.obs.export import server_registry

            registry = self._metrics_registry = server_registry(self)
        return registry

    def metrics_prometheus(self) -> str:
        """The Prometheus text exposition of :meth:`metrics_registry`."""
        from repro.obs.export import to_prometheus

        return to_prometheus(self.metrics_registry())

    def metrics_json(self) -> dict[str, Any]:
        """The JSON snapshot of :meth:`metrics_registry`."""
        from repro.obs.export import to_json

        return to_json(self.metrics_registry())
