"""Lightweight per-request span tracing for the middleware pipeline.

Design constraints, in order:

1. **Disabled cost ~ zero.**  Every instrumentation site calls
   :func:`span`, which returns a shared no-op scope when no trace is
   active on the thread — one function call and one thread-local read,
   no allocation.  A bare :class:`~repro.core.middleware.Sieve` never
   starts a trace, so the sites are inert until
   :meth:`Sieve.enable_tracing <repro.core.middleware.Sieve.enable_tracing>`.
2. **No cross-thread locking on the hot path.**  Finished root spans
   are delivered to per-worker thread-confined buffers exactly like
   :class:`~repro.audit.AuditLog`'s payload buffers
   (``register_worker`` / ``flush_local`` / ``unregister_worker``);
   unregistered threads append to the shared ring under a lock (the
   bare-Sieve case, where there is no concurrency to protect against).
3. **Monotonic clocks only.**  Spans carry ``time.perf_counter()``
   start/end; wall-clock timestamps never enter a span, so durations
   are immune to clock steps.

A *trace* is one tree rooted at a :meth:`Tracer.trace` span (named
``sieve.query`` by the middleware); every descendant created via
:func:`span` shares the root's ``trace_id``.  Trace ids are globally
unique (a process-wide counter plus the creating thread's id) and are
stamped into :class:`~repro.core.middleware.SieveExecution` and each
audit :class:`~repro.audit.DecisionRecord` so traces and audit records
correlate.  Cross-thread propagation — the serving tier admitting on
one thread and executing on a worker — goes through
:func:`set_inherited_trace_id`: the admitting thread's trace id rides
the :class:`~repro.service.admission.ServiceRequest` and the worker
adopts it for the request's root span.

The :class:`SlowQueryLog` subscribes to a tracer via
:meth:`Tracer.on_finish` and retains the full span tree (as plain
dicts) for every root slower than its threshold.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "SlowQueryLog",
    "span",
    "current_span",
    "current_trace_id",
    "set_inherited_trace_id",
    "clear_inherited_trace_id",
    "attributed_fraction",
    "new_trace_id",
]

_SEQ = itertools.count(1)
_TLS = threading.local()  # .span: active Span | None; .inherit: str | None


def new_trace_id() -> str:
    """A process-unique trace id: global sequence + creating thread.

    The sequence alone guarantees uniqueness (``itertools.count`` is
    atomic under the GIL); the thread suffix is a debugging aid.
    """
    return f"{next(_SEQ):08x}-{threading.get_ident() & 0xFFFF:04x}"


class Span:
    """One named, timed phase of a trace.

    ``start_s`` / ``end_s`` are ``perf_counter`` readings; ``attrs``
    is a mutable dict the instrumented code stamps facts into
    (``table``, ``strategy``, ``engine``, counter deltas, ...).
    """

    __slots__ = ("name", "trace_id", "start_s", "end_s", "attrs", "children")

    def __init__(self, name: str, trace_id: str, attrs: dict[str, Any] | None = None):
        self.name = name
        self.trace_id = trace_id
        self.start_s = 0.0
        self.end_s = 0.0
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self.children: list[Span] = []

    @property
    def duration_ms(self) -> float:
        return max(0.0, (self.end_s - self.start_s) * 1000.0)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; also valid after the span has ended (the
        middleware stamps counter deltas computed just outside the
        timed window)."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """Depth-first: this span then every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First descendant-or-self with the given name, DFS order."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [node for node in self.walk() if node.name == name]

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready copy of the subtree (the slow-query log stores
        these so retained entries never pin live span objects)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "duration_ms": self.duration_ms,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_ms:.3f}ms, children={len(self.children)})"


class _NullScope:
    """The shared do-nothing scope :func:`span` returns when tracing is
    off — also a no-op Span (``set`` discards, timings are zero)."""

    __slots__ = ()
    name = ""
    trace_id = ""
    duration_ms = 0.0

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullScope":
        return self


NULL_SCOPE = _NullScope()


class _SpanScope:
    """Context manager pushing one child span onto the active stack."""

    __slots__ = ("_span", "_parent")

    def __init__(self, child: Span, parent: Span):
        self._span = child
        self._parent = parent

    def __enter__(self) -> Span:
        self._parent.children.append(self._span)
        _TLS.span = self._span
        self._span.start_s = time.perf_counter()
        return self._span

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self._span.end_s = time.perf_counter()
        if exc_type is not None:
            self._span.attrs.setdefault("error", getattr(exc_type, "__name__", str(exc_type)))
        _TLS.span = self._parent
        return None


def span(name: str, **attrs: Any):
    """Open a child span under the thread's active span.

    No active span (tracing disabled, or a code path outside any
    request) returns the shared no-op scope — the call costs one
    thread-local read.
    """
    parent = getattr(_TLS, "span", None)
    if parent is None:
        return NULL_SCOPE
    return _SpanScope(Span(name, parent.trace_id, attrs), parent)


def current_span() -> Span | None:
    """The thread's innermost open span (None when tracing is off)."""
    return getattr(_TLS, "span", None)


def current_trace_id() -> str | None:
    """The active trace id, if any — what the serving tier stamps into
    admitted requests for cross-thread propagation."""
    active = getattr(_TLS, "span", None)
    return active.trace_id if active is not None else None


def set_inherited_trace_id(trace_id: str | None) -> None:
    """Pin the trace id the *next* root span on this thread adopts
    (serving-tier workers set it per request from the admission-side
    id; cleared via :func:`clear_inherited_trace_id` in a finally)."""
    _TLS.inherit = trace_id or None


def clear_inherited_trace_id() -> None:
    _TLS.inherit = None


def attributed_fraction(root: Span) -> float:
    """Fraction of a root span's wall time covered by its direct
    children — the "how much of e2e latency do named phases explain"
    measure ``tests/test_obs_tracing.py`` holds at >= 90% over traced
    Mall queries."""
    total = root.duration_ms
    if total <= 0.0:
        return 1.0
    covered = sum(child.duration_ms for child in root.children)
    return min(1.0, covered / total)


class _RootScope:
    """Context manager for a trace root: delivers to the tracer on
    exit (buffered per worker thread, see :class:`Tracer`)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", root: Span):
        self._tracer = tracer
        self._span = root

    def __enter__(self) -> Span:
        _TLS.span = self._span
        self._span.start_s = time.perf_counter()
        return self._span

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        self._span.end_s = time.perf_counter()
        if exc_type is not None:
            self._span.attrs.setdefault("error", getattr(exc_type, "__name__", str(exc_type)))
        _TLS.span = None
        self._tracer._deliver(self._span)
        return None


DEFAULT_TRACE_CAPACITY = 1024


class Tracer:
    """Collects finished traces into a bounded ring buffer.

    Worker threads mirror the :class:`~repro.audit.AuditLog` buffering
    pattern: :meth:`register_worker` gives the calling thread a
    private (lock-free, thread-confined) list, :meth:`flush_local`
    moves it into the shared ring under one lock hold per batch, and
    :meth:`unregister_worker` flushes the remainder.  Unregistered
    threads deliver straight to the ring.

    ``on_finish`` callbacks (the slow-query log, the selectivity
    profiler) run synchronously at delivery on the finishing thread —
    they see the complete tree with all attributes.  A raising
    callback is disarmed into ``callback_errors`` rather than failing
    the request that happened to trip it.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY):
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._finished: "deque[Span]" = deque(maxlen=capacity)
        self._local = threading.local()
        self._callbacks: list[Callable[[Span], None]] = []
        self.callback_errors = 0
        self.finished_count = 0

    # ------------------------------------------------------------- tracing

    def trace(self, name: str, trace_id: str | None = None, **attrs: Any):
        """Open a root span (a new trace) on this thread.

        Called while another span is already active, it degrades to a
        plain child span — nested ``execute`` calls (the cluster
        coordinator fronting a shard server, a UDF re-entering the
        middleware) extend the enclosing trace instead of splitting it.

        The new root's id is, in priority order: the explicit
        ``trace_id`` argument, the thread's inherited id
        (:func:`set_inherited_trace_id`), or a fresh unique id.
        """
        if getattr(_TLS, "span", None) is not None:
            return span(name, **attrs)
        tid = trace_id or getattr(_TLS, "inherit", None) or new_trace_id()
        return _RootScope(self, Span(name, tid, attrs))

    def _deliver(self, root: Span) -> None:
        for callback in self._callbacks:
            try:
                callback(root)
            except Exception:
                self.callback_errors += 1
        buffer = getattr(self._local, "buffer", None)
        if buffer is not None:
            buffer.append(root)
        else:
            with self._lock:
                self._finished.append(root)
                self.finished_count += 1

    # ------------------------------------------------- worker-buffer protocol

    def register_worker(self) -> None:
        """Give the calling thread a private delivery buffer
        (idempotent); the registering thread must also flush it."""
        if getattr(self._local, "buffer", None) is None:
            self._local.buffer = []

    def flush_local(self) -> int:
        """Move the calling thread's buffered traces into the shared
        ring; returns how many moved (0 for unregistered threads)."""
        buffer = getattr(self._local, "buffer", None)
        if not buffer:
            return 0
        self._local.buffer = []
        with self._lock:
            self._finished.extend(buffer)
            self.finished_count += len(buffer)
        return len(buffer)

    def unregister_worker(self) -> int:
        flushed = self.flush_local()
        self._local.buffer = None
        return flushed

    # --------------------------------------------------------------- reading

    def on_finish(self, callback: Callable[[Span], None]) -> None:
        """Subscribe to finished root spans (called at delivery)."""
        self._callbacks.append(callback)

    def traces(self) -> list[Span]:
        """A copy of the retained finished roots, oldest first."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> int:
        with self._lock:
            count = len(self._finished)
            self._finished.clear()
            return count


DEFAULT_SLOW_QUERY_MS = 100.0
DEFAULT_SLOW_LOG_CAPACITY = 128


class SlowQueryLog:
    """Retains the full span tree of every trace slower than a
    threshold (a bounded ring: old outliers age out FIFO).

    Entries are plain dicts (:meth:`Span.to_dict` trees plus the root
    duration and trace id) so retained evidence is JSON-ready and
    holds no live references into the pipeline.
    """

    def __init__(
        self,
        threshold_ms: float = DEFAULT_SLOW_QUERY_MS,
        capacity: int = DEFAULT_SLOW_LOG_CAPACITY,
    ):
        self.threshold_ms = threshold_ms
        self._lock = threading.Lock()
        self._entries: "deque[dict[str, Any]]" = deque(maxlen=capacity)

    def observe(self, root: Span) -> None:
        """The :meth:`Tracer.on_finish` hook."""
        duration = root.duration_ms
        if duration < self.threshold_ms:
            return
        entry = {
            "trace_id": root.trace_id,
            "name": root.name,
            "duration_ms": duration,
            "tree": root.to_dict(),
        }
        with self._lock:
            self._entries.append(entry)

    def entries(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
