"""Differential harness: the sharded cluster vs one server.

The cluster tier's acceptance gate: for every (querier, purpose,
query), a :class:`~repro.cluster.SieveCluster` must be semantically
invisible versus a single :class:`~repro.service.SieveServer` over the
whole corpus — identical row sets *and* identical per-request
enforcement counters (``policy_evals``, ``predicate_evals``, page and
tuple counters, Δ UDF traffic), across Mall + TIPPERS × {bundled
engine, SQLite backend} × Δ on/off.

Counter identity is the sharp half of the claim: it proves the
partition-scoped policy view feeds each shard's guard generation and
rewrite *exactly* the policy set the full corpus would (no policy
lost to partition filtering, none double-delivered by group fan-out),
and that the replicated data tier plans and executes identically.
The cluster side measures each request on its owning shard's own
counters — enforcement work lands on shards, which is the point.

Δ on/off is driven through the cost model (the knob strategy choice
actually consults): ``udf_invocation=inf`` makes Δ never win,
``udf_invocation=0`` makes it always win; the Δ-on configurations
assert Δ UDF traffic actually occurred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.backend import SqliteBackend
from repro.cluster import SieveCluster
from repro.core import Sieve
from repro.core.cost_model import SieveCostModel
from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
from repro.datasets.policies import PolicyGenConfig, generate_campus_policies
from repro.datasets.tippers import TippersConfig, WIFI_TABLE, generate_tippers
from repro.policy.store import PolicyStore
from repro.service import SieveServer

N_SHARDS = 3

#: Counters that measure enforcement + execution work.  The serving
#: tier's cache/service/cluster bookkeeping counters are excluded —
#: they are accounted per tier, not per engine, and carry zero cost
#: weight by design.
ENFORCEMENT_COUNTERS = (
    "pages_sequential",
    "pages_random",
    "pages_bitmap",
    "tuples_scanned",
    "tuples_output",
    "predicate_evals",
    "policy_evals",
    "index_node_visits",
    "udf_invocations",
    "udf_policy_evals",
    "backend_queries",
    "backend_rows",
)

DELTA_MODES = {
    # Δ never wins the per-tuple cost comparison.
    "delta-off": SieveCostModel(udf_invocation=1e18),
    # Δ always wins; every constant-only partition goes through the UDF.
    "delta-on": SieveCostModel(udf_invocation=0.0, udf_per_policy=0.0),
}

ENGINES = {
    "bundled": None,
    "sqlite": lambda db: SqliteBackend().ship(db),
}


@dataclass
class ClusterWorld:
    """One workload's base corpus, shared by every configuration."""

    name: str
    db: object
    store: PolicyStore
    table: str
    queriers: list = field(default_factory=list)
    queries: list[str] = field(default_factory=list)
    purpose: str = "analytics"
    denied_querier: object = "nobody-without-policies"


@pytest.fixture(scope="module")
def tippers_world() -> ClusterWorld:
    dataset = generate_tippers(
        TippersConfig(seed=7, n_devices=150, days=12, personality="mysql")
    )
    campus = generate_campus_policies(dataset, PolicyGenConfig(seed=8))
    store = PolicyStore(dataset.db, dataset.groups)
    store.insert_many(campus.policies)
    return ClusterWorld(
        name="tippers",
        db=dataset.db,
        store=store,
        table=WIFI_TABLE,
        queriers=[
            campus.designated_queriers["faculty"][0],
            campus.designated_queriers["staff"][0],
            campus.designated_queriers["grad"][0],
        ],
        queries=[
            f"SELECT * FROM {WIFI_TABLE}",
            f"SELECT * FROM {WIFI_TABLE} WHERE ts_date BETWEEN 2 AND 8",
            f"SELECT * FROM {WIFI_TABLE} WHERE ts_time BETWEEN 540 AND 780 AND wifiAP < 32",
            f"SELECT wifiAP, count(*) AS n FROM {WIFI_TABLE} "
            f"WHERE ts_date >= 3 GROUP BY wifiAP",
        ],
    )


@pytest.fixture(scope="module")
def mall_world() -> ClusterWorld:
    mall = generate_mall(
        MallConfig(seed=13, n_customers=120, days=10, personality="postgres")
    )
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall.policies)
    return ClusterWorld(
        name="mall",
        db=mall.db,
        store=store,
        table=CONNECTIVITY_TABLE,
        queriers=[mall.shop_querier(s) for s in mall.shops[:3]],
        queries=[
            f"SELECT * FROM {CONNECTIVITY_TABLE}",
            f"SELECT * FROM {CONNECTIVITY_TABLE} WHERE ts_date BETWEEN 1 AND 6",
            f"SELECT * FROM {CONNECTIVITY_TABLE} WHERE ts_time BETWEEN 660 AND 900",
            f"SELECT shop_id, count(*) AS n FROM {CONNECTIVITY_TABLE} "
            f"WHERE ts_date >= 2 GROUP BY shop_id",
        ],
        purpose="any",
    )


WORKLOADS = ["tippers", "mall"]


def _world(request, name: str) -> ClusterWorld:
    return request.getfixturevalue(f"{name}_world")


def _enforcement(diff: dict[str, int]) -> dict[str, int]:
    return {name: diff[name] for name in ENFORCEMENT_COUNTERS}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("engine", list(ENGINES), ids=list(ENGINES))
@pytest.mark.parametrize("delta_mode", list(DELTA_MODES), ids=list(DELTA_MODES))
def test_cluster_equals_single_server(request, workload, engine, delta_mode):
    """Rows and per-request enforcement counters are identical."""
    world = _world(request, workload)
    cost_model = DELTA_MODES[delta_mode]
    backend_factory = ENGINES[engine]
    single_sieve = Sieve(
        world.db,
        world.store,
        cost_model=cost_model,
        backend=SqliteBackend().ship(world.db) if backend_factory else None,
    )
    cluster = SieveCluster.replicated(
        world.db,
        world.store,
        n_shards=N_SHARDS,
        backend_factory=backend_factory,
        workers_per_shard=1,
        cost_model=cost_model,
    )
    compared = 0
    delta_udf_calls = 0
    with SieveServer(single_sieve, workers=1) as server, cluster:
        for querier in [*world.queriers, world.denied_querier]:
            for sql in world.queries:
                shard = cluster.shard(cluster.route(querier))
                single_before = world.db.counters.snapshot()
                single_rows = server.execute(sql, querier, world.purpose, timeout=120).rows
                single_diff = _enforcement(world.db.counters.diff(single_before))
                shard_before = shard.db.counters.snapshot()
                cluster_rows = cluster.execute(sql, querier, world.purpose, timeout=120).rows
                shard_diff = _enforcement(shard.db.counters.diff(shard_before))
                assert sorted(cluster_rows) == sorted(single_rows), (
                    f"{workload}/{engine}/{delta_mode}: rows diverged for "
                    f"querier={querier!r} sql={sql!r}"
                )
                assert shard_diff == single_diff, (
                    f"{workload}/{engine}/{delta_mode}: enforcement counters "
                    f"diverged for querier={querier!r} sql={sql!r}"
                )
                delta_udf_calls += shard_diff["udf_invocations"]
                compared += 1
    assert compared == (len(world.queriers) + 1) * len(world.queries)
    if delta_mode == "delta-on":
        assert delta_udf_calls > 0, "Δ-on configuration never exercised the UDF"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cluster_equals_single_server_across_routed_mutations(request, workload):
    """Policy writes routed through the coordinator (including group
    scatter) keep the cluster oracle-identical before and after."""
    world = _world(request, workload)
    cluster = SieveCluster.replicated(
        world.db, world.store, n_shards=N_SHARDS, workers_per_shard=1
    )
    single = Sieve(world.db, world.store)
    sql = world.queries[1]
    with cluster:
        for querier in world.queriers:
            assert sorted(cluster.execute(sql, querier, world.purpose, timeout=120).rows) == sorted(
                single.execute(sql, querier, world.purpose).rows
            )
        # Move one existing policy querier → another querier and back,
        # through the coordinator's routed update path.
        victim = world.store.policies_for(world.queriers[0], world.purpose, world.table)[0]
        from repro.policy.model import Policy

        moved = Policy(
            owner=victim.owner,
            querier=world.queriers[1],
            purpose=victim.purpose,
            table=victim.table,
            object_conditions=victim.object_conditions,
            action=victim.action,
            id=victim.id,
        )
        cluster.update_policy(moved)
        for querier in world.queriers[:2]:
            assert sorted(cluster.execute(sql, querier, world.purpose, timeout=120).rows) == sorted(
                single.execute(sql, querier, world.purpose).rows
            )
        cluster.update_policy(victim)  # restore
        for querier in world.queriers[:2]:
            assert sorted(cluster.execute(sql, querier, world.purpose, timeout=120).rows) == sorted(
                single.execute(sql, querier, world.purpose).rows
            )
    assert world.db.counters.cluster_policy_writes >= 2


@pytest.mark.parametrize("n_shards", [3, 4])
def test_policy_less_querier_is_denied_on_every_shard(n_shards):
    """Whether a relation is protected is a property of the corpus, not
    of a shard's share of it: a querier with no policy, routed to a
    shard none of whose queriers holds one on the relation, gets what
    one server gives it — no rows — not the unrewritten query."""
    from repro.db.database import connect
    from repro.policy.model import ObjectCondition, Policy
    from repro.storage.schema import ColumnType, Schema

    db = connect("mysql")
    db.create_table("t", Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT)))
    db.insert("t", [(i, i % 5) for i in range(50)])
    db.create_index("t", "owner")
    db.analyze()
    store = PolicyStore(db)
    store.insert(
        Policy(
            owner=1, querier="alice", purpose="analytics", table="t",
            object_conditions=(ObjectCondition("owner", "=", 1),),
        )
    )
    single = Sieve(db, store)
    strangers = [f"stranger-{i}" for i in range(8)]
    with SieveCluster.replicated(db, store, n_shards=n_shards, workers_per_shard=1) as cluster:
        assert {cluster.route(q) for q in strangers} - {cluster.route("alice")}
        for querier in ["alice", *strangers]:
            one = single.execute_with_info("SELECT * FROM t", querier, "analytics")
            many = cluster.execute_with_info("SELECT * FROM t", querier, "analytics", timeout=60)
            assert sorted(many.result.rows) == sorted(one.result.rows), querier
            assert many.policies_considered == one.policies_considered, querier
            if querier != "alice":
                assert many.result.rows == [] and many.policies_considered == 0


@pytest.mark.parametrize("change", ["first-policy", "protect"])
@pytest.mark.parametrize("n_shards", [3, 4])
def test_a_relation_becoming_protected_reaches_every_shard(n_shards, change):
    """The mirror image: while ``t`` is unprotected every shard caches
    its policy-less queriers the unrewritten plan.  The relation's first
    policy (or an explicit ``protect``) is corpus-wide, so it must strand
    those plans on *every* shard — not only on the one owning the
    written policy's querier."""
    from conftest import make_owner_world

    db, store, policy = make_owner_world(with_policy=False)
    strangers = [f"stranger-{i}" for i in range(8)]
    with SieveCluster.replicated(db, store, n_shards=n_shards, workers_per_shard=1) as cluster:
        assert {cluster.route(q) for q in strangers} - {cluster.route("alice")}
        for _ in range(2):  # cached, and served from the cache
            for querier in strangers:
                assert len(cluster.execute("SELECT * FROM t", querier, "analytics", timeout=60).rows) == 50
        if change == "protect":
            cluster.protect("t")
        else:
            cluster.insert_policy(policy)
        assert db.counters.cluster_policy_fanout == n_shards
        for querier in strangers:
            assert cluster.execute("SELECT * FROM t", querier, "analytics", timeout=60).rows == []
        expected = 10 if change == "first-policy" else 0
        assert len(cluster.execute("SELECT * FROM t", "alice", "analytics", timeout=60).rows) == expected


@pytest.mark.audit_oracle
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("engine", list(ENGINES), ids=list(ENGINES))
@pytest.mark.parametrize("delta_mode", list(DELTA_MODES), ids=list(DELTA_MODES))
def test_cluster_differential_replay_verified(
    request, workload, engine, delta_mode, audit_oracle
):
    """The differential run with the audit tier switched on: every
    request hash-chains a decision record on both sides, the per-shard
    chains merge verifiably, and at fixture teardown the oracle replays
    every chain against its pinned policy epoch asserting bit-identical
    decisions and counters.  Opt-in (``-m audit_oracle``) so tier-1
    runtime stays flat."""
    world = _world(request, workload)
    cost_model = DELTA_MODES[delta_mode]
    backend_factory = ENGINES[engine]
    single_sieve = Sieve(
        world.db,
        world.store,
        cost_model=cost_model,
        backend=SqliteBackend().ship(world.db) if backend_factory else None,
    )
    single_log = audit_oracle.attach(single_sieve, backend_factory=backend_factory)
    cluster = SieveCluster.replicated(
        world.db,
        world.store,
        n_shards=N_SHARDS,
        backend_factory=backend_factory,
        workers_per_shard=1,
        cost_model=cost_model,
        audit=True,
    )
    n_requests = (len(world.queriers) + 1) * len(world.queries)
    with SieveServer(single_sieve, workers=1) as server, cluster:
        audit_oracle.attach_cluster(cluster, backend_factory=backend_factory)
        for querier in [*world.queriers, world.denied_querier]:
            for sql in world.queries:
                single_rows = server.execute(sql, querier, world.purpose, timeout=120).rows
                cluster_rows = cluster.execute(sql, querier, world.purpose, timeout=120).rows
                assert sorted(cluster_rows) == sorted(single_rows)
    # Merge after shutdown: stopping the servers flushes every worker
    # buffer, so the merged view is complete and deterministic.
    merged = cluster.merged_audit_records()
    from repro.audit import verify_merged

    assert verify_merged(merged) == n_requests
    assert len(single_log) == n_requests
    # Both sides saw the same workload: the merged cluster log holds
    # exactly the single server's (querier, sql) multiset.
    assert sorted((str(r.querier), r.sql) for r in merged) == sorted(
        (str(r.querier), r.sql) for r in single_log.records()
    )
