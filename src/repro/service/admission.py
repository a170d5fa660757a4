"""Admission control for the serving tier: a bounded, batching queue.

The scheduler's unit of work is not a single request but a **batch**:
all queued requests sharing one ``(querier, purpose)`` — the paper's
QM pair (Section 3.1), which is exactly the granularity the guard
cache amortizes over.  Handing a worker the whole batch means one
:meth:`SieveSession.execute <repro.core.cache.SieveSession>` context
serves N requests, and — just as important for the bundled engine —
**no two workers ever run the same (querier, purpose) at once**: a
key is marked in flight while its batch executes, so per-key state
downstream (Δ partition registration at rewrite time) is naturally
serialized without a global lock.

Three properties, all enforced here:

* **bounded** — at most ``max_pending`` requests may be queued;
  :meth:`AdmissionQueue.submit` raises
  :class:`~repro.common.errors.ServiceOverloadedError` beyond that
  (backpressure, surfaced to clients instead of unbounded memory
  growth and collapsing latency).
* **batched** — a worker takes up to ``max_batch`` same-key requests
  in arrival order.  The cap bounds how long one key can monopolize a
  worker.
* **fair** — keys are served FIFO by *earliest waiting request*:
  a chatty querier cannot starve a quiet one, because after its batch
  completes the key re-queues at the back.

Requests may also carry an absolute **deadline**
(:attr:`ServiceRequest.deadline`, monotonic-clock seconds): a worker
that picks up an expired request resolves it with
:class:`~repro.common.errors.DeadlineExceededError` instead of
executing it — queue time already ate the budget, so running the query
would burn a worker on an answer nobody is waiting for.

On top of the static bound sits **SLO-aware adaptive shedding**
(:class:`AdaptiveShedder`): when the serving tier's burn-rate monitor
(:class:`~repro.obs.slo.BurnRateMonitor`) reports a *fast burn* —
the latency budget being consumed at a multiple of its sustainable
rate, which under overload shows up seconds before the queue is
actually full — the shedder clamps the *effective* queue bound far
below ``max_pending``, so rejections start while the served requests'
latency is still inside budget ("reject earliest").  Recovery is
hysteretic: shedding stays on until the burn signal has been clear
for a cool-down window, so a marginal burn cannot flap admission
open/closed (``tests/test_health.py`` drives the clamp and its
release on a manual clock); the naive bounded queue serves everything
it admits but blows through the latency budget doing so.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ServiceOverloadedError, ServiceStoppedError

#: A scheduling key: one (querier, purpose) metadata context.
SessionKey = tuple[Any, str]

#: While shedding, the effective queue bound is this fraction of
#: ``max_pending`` (never below one batch's worth of requests).
DEFAULT_SHED_CAPACITY_FACTOR = 0.125
#: How long the burn signal must stay clear before shedding releases.
DEFAULT_SHED_COOLDOWN_S = 1.0


class AdaptiveShedder:
    """SLO-aware admission clamp with hysteretic recovery.

    Driven by :meth:`signal` (wired to a
    :class:`~repro.obs.slo.BurnRateMonitor` listener's ``fast_firing``
    flag); consulted by :meth:`SieveServer.admit
    <repro.service.server.SieveServer.admit>` via :meth:`should_shed`
    before every enqueue.  State machine:

    * ``signal(True)`` → shedding immediately (reject earliest — the
      queue is clamped the moment the fast burn fires);
    * ``signal(False)`` → shedding *stays on* until the signal has
      been continuously clear for ``cooldown_s`` (no flapping inside
      the cool-down window — pinned by ``tests/test_health.py``);
    * every clamped rejection (:meth:`should_shed`) also refreshes the
      hold: the clamp keeps served latency inside budget, which clears
      the burn — but excess arrivals still hitting the clamp mean the
      overload persists, so release waits for *both* to go quiet.

    The clamp itself is ``capacity_fn()`` requests when provided
    (e.g. derived from the SLO budget and the measured service time,
    see :meth:`SieveServer.enable_slo
    <repro.service.server.SieveServer.enable_slo>`), else
    ``shed_capacity_factor * max_pending``.  Thread-safe; the clock is
    injectable for deterministic tests.
    """

    def __init__(
        self,
        shed_capacity_factor: float = DEFAULT_SHED_CAPACITY_FACTOR,
        cooldown_s: float = DEFAULT_SHED_COOLDOWN_S,
        capacity_fn: Callable[[], int] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not (0.0 < shed_capacity_factor <= 1.0):
            raise ValueError("shed_capacity_factor must be in (0, 1]")
        if cooldown_s < 0.0:
            raise ValueError("cooldown_s must be non-negative")
        self.shed_capacity_factor = shed_capacity_factor
        self.cooldown_s = cooldown_s
        self._capacity_fn = capacity_fn
        self._clock = clock
        self._lock = threading.Lock()
        self._shedding = False
        self._last_fire = -float("inf")
        self._sheds = 0
        self._activations = 0

    @property
    def shedding(self) -> bool:
        with self._lock:
            return self._shedding

    @property
    def sheds(self) -> int:
        """Requests rejected by the clamp (a subset of the server's
        total rejections)."""
        with self._lock:
            return self._sheds

    @property
    def activations(self) -> int:
        """How many times shedding engaged (rising edges)."""
        with self._lock:
            return self._activations

    def signal(self, firing: bool, now: float | None = None) -> None:
        """Feed one fast-burn observation (monitor listener hook)."""
        if now is None:
            now = self._clock()
        with self._lock:
            if firing:
                if not self._shedding:
                    self._activations += 1
                self._shedding = True
                self._last_fire = now
            elif self._shedding and now - self._last_fire >= self.cooldown_s:
                self._shedding = False

    def capacity(self, max_pending: int) -> int:
        """The clamped queue bound while shedding."""
        if self._capacity_fn is not None:
            derived = self._capacity_fn()
        else:
            derived = int(max_pending * self.shed_capacity_factor)
        return max(1, min(derived, max_pending))

    def should_shed(self, pending: int, max_pending: int) -> bool:
        """True when this submission must be rejected (clamp active
        and the queue already holds the clamped capacity).

        Every clamped rejection refreshes the hold timer: while the
        clamp keeps the queue short, served latency sits back inside
        budget and the burn signal *clears* — releasing on that alone
        would reopen admission under sustained overload and limit-cycle
        the latency through the budget.  The still-arriving excess load
        is the evidence overload persists; the clamp releases only
        after both the burn and the clamp itself have been quiet for
        the cool-down."""
        with self._lock:
            if not self._shedding:
                return False
        if pending < self.capacity(max_pending):
            return False
        with self._lock:
            self._sheds += 1
            self._last_fire = self._clock()
        return True


@dataclass
class ServiceRequest:
    """One admitted query plus its completion future and timestamps."""

    sql: Any  # str | Query
    querier: Any
    purpose: str
    future: "Future[Any]" = field(default_factory=Future)
    #: perf_counter() at admission; the worker stamps pickup/finish so
    #: the server can split latency into queue-wait and service time.
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: True when the caller asked for the full SieveExecution rather
    #: than the bare QueryResult.
    with_info: bool = False
    #: The admitting thread's active trace id ("" when it had none) —
    #: the worker adopts it so cross-thread spans share one trace.
    trace_id: str = ""
    #: Absolute deadline on the admitting tier's monotonic clock
    #: (``time.perf_counter()``), or None for no deadline.  Stamped at
    #: admission and carried with the request so *every* downstream
    #: tier — scheduler, shard worker — can refuse work that can no
    #: longer be answered in time instead of executing it uselessly.
    deadline: float | None = None
    #: Request ordinal assigned by an upstream
    #: :class:`~repro.faults.FaultInjector` (None outside chaos runs).
    #: Workers look up injected per-request faults by this tag, which
    #: keeps fault placement deterministic under worker interleaving.
    fault_tag: int | None = None

    @property
    def key(self) -> SessionKey:
        return (self.querier, self.purpose)

    def expired(self, now: float, skew_s: float = 0.0) -> bool:
        """True when ``now`` (plus the judging tier's clock skew) is
        past the deadline.  ``skew_s`` models a shard whose clock runs
        ahead/behind the coordinator's — injected in chaos runs."""
        return self.deadline is not None and (now + skew_s) >= self.deadline

    @property
    def queue_wait_s(self) -> float:
        return max(0.0, self.started_at - self.submitted_at)

    @property
    def service_s(self) -> float:
        return max(0.0, self.finished_at - self.started_at)


@dataclass
class Batch:
    """Same-key requests handed to one worker as a unit."""

    key: SessionKey
    requests: list[ServiceRequest]

    def __len__(self) -> int:
        return len(self.requests)


class AdmissionQueue:
    """Bounded, per-key-batching, fair FIFO request queue.

    Thread-safe; one condition variable guards all state.  Producers
    call :meth:`submit`, workers loop :meth:`take` →
    :meth:`complete`.  :meth:`close` wakes every waiting worker; with
    ``drain=True`` workers keep taking until the queue is empty, with
    ``drain=False`` the remaining requests fail with
    :class:`~repro.common.errors.ServiceStoppedError`.
    """

    def __init__(self, max_pending: int = 1024, max_batch: int = 16):
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if max_batch <= 0:
            raise ValueError("max_batch must be positive")
        self.max_pending = max_pending
        self.max_batch = max_batch
        self._cond = threading.Condition()
        self._by_key: "OrderedDict[SessionKey, deque[ServiceRequest]]" = OrderedDict()
        self._in_flight: set[SessionKey] = set()
        self._pending = 0
        self._closed = False
        self._draining = False

    # ------------------------------------------------------------ producers

    def submit(self, request: ServiceRequest) -> None:
        """Admit one request or raise (overloaded / stopped)."""
        with self._cond:
            if self._closed:
                raise ServiceStoppedError("server is not accepting requests")
            if self._pending >= self.max_pending:
                raise ServiceOverloadedError(
                    f"admission queue full ({self.max_pending} pending requests)"
                )
            bucket = self._by_key.get(request.key)
            if bucket is None:
                bucket = self._by_key[request.key] = deque()
            bucket.append(request)
            self._pending += 1
            self._cond.notify()

    # -------------------------------------------------------------- workers

    def take(self) -> Batch | None:
        """Block until a batch is available; ``None`` means shut down.

        Returns up to ``max_batch`` requests of the oldest *ready* key
        — one whose earliest request has waited longest and which no
        other worker is currently serving — and marks the key in
        flight until :meth:`complete`.
        """
        with self._cond:
            while True:
                key = self._next_ready_key()
                if key is not None:
                    bucket = self._by_key[key]
                    take_n = min(len(bucket), self.max_batch)
                    requests = [bucket.popleft() for _ in range(take_n)]
                    if not bucket:
                        del self._by_key[key]
                    self._pending -= take_n
                    self._in_flight.add(key)
                    return Batch(key=key, requests=requests)
                if self._closed and (not self._draining or self._pending == 0):
                    return None
                self._cond.wait()

    def _next_ready_key(self) -> SessionKey | None:
        # OrderedDict preserves first-request arrival order per key;
        # complete() re-inserting a still-pending key at the end is
        # what makes scheduling round-robin fair across keys.
        for key in self._by_key:
            if key not in self._in_flight:
                return key
        return None

    def complete(self, key: SessionKey) -> None:
        """Mark a batch done; re-arms the key if more requests queued."""
        with self._cond:
            self._in_flight.discard(key)
            bucket = self._by_key.get(key)
            if bucket is not None:
                # Move to the back: freshly re-armed keys queue behind
                # everyone already waiting.
                self._by_key.move_to_end(key)
            self._cond.notify_all()

    # ------------------------------------------------------------- shutdown

    def close(self, drain: bool = True) -> list[ServiceRequest]:
        """Stop admitting; returns the requests that will *not* run
        (empty when draining)."""
        with self._cond:
            self._closed = True
            self._draining = drain
            abandoned: list[ServiceRequest] = []
            if not drain:
                for bucket in self._by_key.values():
                    abandoned.extend(bucket)
                self._by_key.clear()
                self._pending = 0
            self._cond.notify_all()
            return abandoned

    # ---------------------------------------------------------- introspection

    def pending(self) -> int:
        with self._cond:
            return self._pending

    def depth_by_key(self) -> dict[SessionKey, int]:
        with self._cond:
            return {key: len(bucket) for key, bucket in self._by_key.items()}

    def in_flight_keys(self) -> set[SessionKey]:
        with self._cond:
            return set(self._in_flight)

    def wait_quiesced(
        self, match: Callable[[SessionKey], bool], timeout: float | None = None
    ) -> bool:
        """Block until no queued *or in-flight* key satisfies ``match``.

        The cluster tier's rebalance barrier: after a hash-ring swap,
        requests for migrated queriers stop *arriving* at the old
        shard, so waiting for the matching keys already admitted there
        to drain terminates even under continuous load — unlike
        waiting for the whole queue to empty.  Returns False on
        timeout (matching work still pending).  ``match`` is called
        under the queue lock; keep it cheap and non-reentrant.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                busy = any(match(key) for key in self._by_key) or any(
                    match(key) for key in self._in_flight
                )
                if not busy:
                    return True
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()
