"""The sharded cluster tier: querier-partitioned scatter-gather serving.

``repro/cluster`` scales the serving tier horizontally: a
:class:`SieveCluster` coordinator consistent-hash routes each request
to one of N :class:`ClusterShard`\\ s, each owning a
querier-partitioned view of the policy corpus
(:meth:`PolicyStore.partition
<repro.policy.store.PolicyStore.partition>`), shard-local guard and
plan caches, and a private execution engine (replicated bundled
database or shipped backend) under its own
:class:`~repro.service.SieveServer`.  Policy writes route through the
coordinator to the owning shard — group policies scatter to every
shard holding a member — and online shard add/remove rebalances with
hash-ring stability: only migrated queriers' cached guards are
invalidated.  ``tests/test_cluster_differential.py`` proves the whole
tier is semantically invisible versus one server over the full
corpus; see ``docs/ARCHITECTURE.md`` ("Cluster tier").

The tier is also *crash-tolerant* (see ``docs/ARCHITECTURE.md`` §13):
request deadlines propagate coordinator → admission → shard worker;
an opt-in :class:`RetryPolicy` adds jittered-backoff retries and
hedged reads; policy writes go through an epoch-fenced two-phase
scatter (abort is atomic, a mid-scatter crash fences the stale shard
out of routing); and :meth:`SieveCluster.supervise` rebuilds crashed
shards from the authoritative store.
``tests/test_chaos_differential.py`` drives randomized
:mod:`repro.faults` plans against all of it.
"""

from repro.common.errors import (
    ClusterError,
    DeadlineExceededError,
    PolicyScatterError,
    ShardUnavailableError,
)
from repro.cluster.coordinator import (
    ClusterShard,
    ClusterStats,
    RebalanceReport,
    RetryPolicy,
    ShardRebuild,
    ShardSpec,
    SieveCluster,
)
from repro.cluster.replicate import SIEVE_INTERNAL_TABLES, replicate_database
from repro.cluster.ring import DEFAULT_VNODES, HashRing, stable_hash

__all__ = [
    "ClusterError",
    "ClusterShard",
    "ClusterStats",
    "DEFAULT_VNODES",
    "DeadlineExceededError",
    "HashRing",
    "PolicyScatterError",
    "RebalanceReport",
    "RetryPolicy",
    "SIEVE_INTERNAL_TABLES",
    "ShardRebuild",
    "ShardSpec",
    "ShardUnavailableError",
    "SieveCluster",
    "replicate_database",
    "stable_hash",
]
