"""Admission control for the serving tier: a bounded, batching queue.

The scheduler's unit of work is not a single request but a **batch**:
all queued requests sharing one ``(querier, purpose)`` — the paper's
QM pair (Section 3.1), which is exactly the granularity the guard
tier amortizes over.  Handing a worker the whole batch means one
(querier, purpose) serves N requests, and — just as important for the
bundled engine —
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
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.errors import ServiceError, ServiceOverloadedError, ServiceStoppedError

#: A scheduling key: one (querier, purpose) metadata context.
SessionKey = tuple[Any, str]


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
            raise ServiceError("max_pending must be positive")
        if max_batch <= 0:
            raise ServiceError("max_batch must be positive")
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
