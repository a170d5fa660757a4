"""The concurrent serving tier: many sessions, one Sieve pipeline.

``repro/service`` is the layer that turns the single-call middleware
into a server: :class:`SieveServer` owns one
:class:`~repro.core.middleware.Sieve` and serves concurrent client
sessions through a worker pool fed by a bounded, batching
:class:`AdmissionQueue`.  Requests are admitted (or rejected with
:class:`~repro.common.errors.ServiceOverloadedError` under
backpressure), grouped by (querier, purpose), executed against a
consistent policy snapshot through the process-wide guard cache, and
resolved via futures with per-request latency + queue-wait
accounting.  See ``docs/ARCHITECTURE.md`` ("Service tier") for the
request lifecycle; ``bench/load.py`` is the closed-loop client that
drives it for the canonical benchmark.
"""

from repro.common.errors import (
    ClusterError,
    ServiceError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ShardUnavailableError,
)
from repro.service.admission import (
    AdmissionQueue,
    Batch,
    ServiceRequest,
)
from repro.service.server import (
    LatencySummary,
    ServiceStats,
    SieveServer,
)

__all__ = [
    "AdmissionQueue",
    "Batch",
    "ClusterError",
    "LatencySummary",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceRequest",
    "ServiceStats",
    "ServiceStoppedError",
    "ShardUnavailableError",
    "SieveServer",
]
