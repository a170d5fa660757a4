"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at the middleware boundary.
"""


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class CatalogError(ReproError):
    """Schema/catalog problems: unknown table, duplicate column, etc."""


class ParseError(ReproError):
    """SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class PlanError(ReproError):
    """The optimizer could not produce a plan (bad hint, unknown index...)."""


class ExecutionError(ReproError):
    """Runtime failure inside the execution engine."""


class PolicyError(ReproError):
    """Malformed access-control policy or policy-store inconsistency."""


class SieveError(ReproError):
    """Failures specific to the Sieve middleware layer."""


class AuditError(SieveError):
    """Failures of the audit tier (:mod:`repro.audit`): malformed
    records, replay against a non-retained policy epoch, etc."""


class ChainVerificationError(AuditError):
    """A hash-chained decision log failed verification.

    Raised by ``verify_chain`` when a record was tampered with,
    reordered, dropped, or the chain head does not match — the log can
    no longer attest to the decisions it claims were made.
    """


class ServiceError(SieveError):
    """Failures of the concurrent serving tier (:mod:`repro.service`)."""


class ServiceOverloadedError(ServiceError):
    """Admission rejected: the server's bounded queue is full.

    Backpressure, not a bug — the caller should retry later or shed
    load.  Rejections are counted in ``SieveServer.stats().rejections``.
    """


class ServiceStoppedError(ServiceError):
    """The request cannot run because the server is not accepting work
    (never started, stopping, or already stopped)."""


class DeadlineExceededError(ServiceError):
    """The request's deadline passed before a result was produced.

    Deadlines are absolute (stamped at admission, carried on the
    :class:`~repro.service.admission.ServiceRequest` and propagated
    coordinator → admission queue → shard worker), so every tier can
    refuse work that can no longer be answered in time: a worker drops
    an expired queued request instead of executing it, and the
    coordinator's resilient wait converts an exhausted wait into this
    error instead of blocking forever.  Always a *typed* failure —
    under faults a caller receives either a correct answer or an error
    of this hierarchy, never a silent partial answer.  Counted in
    ``SieveServer.stats().deadline_timeouts`` (worker-side drops) and
    ``SieveCluster.stats().counters["cluster_deadline_timeouts"]``
    (coordinator-side waits).
    """


class WorkerCrashedError(ServiceError):
    """Internal control signal: a worker thread died mid-batch.

    Raised inside :meth:`SieveServer._serve_batch
    <repro.service.server.SieveServer>` by the fault injector (or by
    genuinely broken worker code) and caught by the worker loop's
    crash barrier, which fails the batch's unresolved futures with
    :class:`ShardUnavailableError` — callers never see this type, only
    the typed unavailability it maps to.
    """


class ClusterError(ServiceError):
    """Failures of the sharded cluster tier (:mod:`repro.cluster`)."""


class ShardUnavailableError(ClusterError):
    """The shard owning this querier is down (failed or removed).

    Explicit backpressure, like
    :class:`ServiceOverloadedError`: the coordinator refuses the
    request immediately instead of queueing it against a dead shard —
    callers should retry after the cluster is rebalanced or the shard
    restored.  Counted in
    ``SieveCluster.stats().counters["cluster_unavailable"]``.
    """


class PolicyScatterError(ClusterError):
    """A two-phase policy scatter aborted before its commit point.

    Raised by the coordinator when the *prepare* phase finds an owning
    shard that cannot apply the write (crashed, stopped, relay
    detached) or when a fault fires during prepare.  The base store is
    untouched — aborting is atomic: **no** shard observed the write,
    so partitions can never be left on mixed policy epochs.  Callers
    should repair the cluster (``supervise()``) and retry the write.
    Counted in ``SieveCluster.stats().counters["cluster_scatter_aborts"]``.
    """
