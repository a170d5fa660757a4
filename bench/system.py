"""The program under test, built and driven through its public API only.

One ``System`` is one world: the Fig. 6 Mall data, the workload's policy
corpus, and either a ``SieveServer(workers=2)`` or, for ``cluster_warm``,
a 2-shard replicated ``SieveCluster`` with one worker per shard (the
same worker-thread count).  All caches keep their defaults (rewrite 256,
plan 256, guard 512); tracing and audit stay off.
"""

from __future__ import annotations

from repro.cluster import SieveCluster
from repro.core import Sieve
from repro.datasets.mall import MallConfig, generate_mall
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore
from repro.service import SieveServer

from bench.workloads import MALL, N_CLIENTS, PURPOSE, TABLE, Inputs, PolicySpec, Request


def to_policy(spec: PolicySpec) -> Policy:
    conditions = [ObjectCondition("owner", "=", spec.owner)]
    conditions += [ObjectCondition(attr, ">=", lo, "<=", hi) for attr, lo, hi in spec.ranges]
    return Policy(
        owner=spec.owner,
        querier=spec.querier,
        purpose=PURPOSE,
        table=TABLE,
        object_conditions=tuple(conditions),
        id=spec.id,
    )


class System:
    def __init__(self, inputs: Inputs):
        mall = generate_mall(MallConfig(**MALL))
        self.db = mall.db
        self.store = PolicyStore(mall.db, mall.groups)
        self.store.insert_many(to_policy(spec) for spec in inputs.policies)
        self.cluster = self.server = None
        if inputs.workload == "cluster_warm":
            self.cluster = SieveCluster.replicated(
                self.db, self.store, N_CLIENTS, workers_per_shard=1
            ).start()
            self._front = self.cluster
        else:
            self.server = SieveServer(Sieve(self.db, self.store), workers=N_CLIENTS).start()
            self._front = self.server

    def tables(self) -> dict[str, tuple[list[str], list[tuple]]]:
        """The data relations as plain (columns, rows), for the oracle."""
        out = {}
        for name in (TABLE, "Shop"):
            heap = self.db.catalog.table(name)
            out[name] = (list(heap.schema.names), [tuple(row) for _rowid, row in heap.scan()])
        return out

    def submit(self, sql: str, querier: str):
        """Future of the ``QueryResult``, as a client sees it."""
        return self._front.submit(sql, querier, PURPOSE)

    def submit_with_info(self, sql: str, querier: str):
        """Future of the full ``SieveExecution`` (traced run only)."""
        return self._front.submit_with_info(sql, querier, PURPOSE)

    def write(self, request: Request) -> None:
        """A policy write straight on the ``PolicyStore``; synchronous
        listeners (cache invalidation) run inside the call."""
        if request.kind == "insert":
            self.store.insert(to_policy(request.policy))
        else:
            self.store.delete(request.policy.id)

    def sieve_for(self, querier: str) -> Sieve:
        """The ``Sieve`` (and through ``.db`` the engine) serving ``querier``."""
        if self.cluster is None:
            return self.server.sieve
        return self.cluster.shard(self.cluster.route(querier)).sieve

    def sieves(self) -> list[Sieve]:
        if self.cluster is None:
            return [self.server.sieve]
        return [self.cluster.shard(name).sieve for name in self.cluster.shard_names]

    def service_stats(self) -> list:
        """One ``ServiceStats`` per server (per shard on a cluster)."""
        if self.cluster is None:
            return [self.server.stats()]
        return list(self.cluster.stats().per_shard.values())

    def close(self) -> None:
        self._front.stop()
