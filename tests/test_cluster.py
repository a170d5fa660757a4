"""The cluster tier: hash ring properties, partitioned policy views,
routing, scatter policy writes, fault injection, online rebalancing,
and the serving-tier stats/ordering satellites.

The hash-ring properties are the load-bearing ones: *stability*
(adding a shard moves keys only onto the new shard; removing one
moves only its keys) is what makes a rebalance invalidate only ~1/N
of the cluster's warm guard state, and *balance* (max/mean shard load
bounded) is what makes the 1/N corpus-share argument hold per shard.
Both are pinned as hypothesis properties, plus a deterministic
fault-injection test for explicit ``ShardUnavailableError``
backpressure.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import (
    ClusterError,
    HashRing,
    ShardSpec,
    ShardUnavailableError,
    SieveCluster,
    replicate_database,
)
from repro.core import Sieve
from repro.db.database import connect
from repro.policy import GroupDirectory, ObjectCondition, Policy, PolicyStore
from repro.service import SieveServer
from repro.storage.schema import ColumnType, Schema

TABLE = "WiFi_Dataset"
N_OWNERS = 8
QUERIERS = [f"Prof.{c}" for c in "ABCDEFGH"]
GROUP = "faculty-board"
GROUP_MEMBERS = QUERIERS[:3]
PURPOSE = "analytics"


def build_world(n_rows: int = 1200):
    """A compact direct-querier world plus one group identity."""
    groups = GroupDirectory()
    groups.add_group(GROUP)
    for member in GROUP_MEMBERS:
        groups.add_member(GROUP, member)
    db = connect("mysql")
    db.create_table(
        TABLE,
        Schema.of(
            ("id", ColumnType.INT),
            ("wifiAP", ColumnType.INT),
            ("owner", ColumnType.INT),
            ("ts_time", ColumnType.TIME),
            ("ts_date", ColumnType.DATE),
        ),
    )
    db.insert(
        TABLE,
        [
            (i, 1200 + i % 5, i % N_OWNERS, 7 * 60 + (i * 11) % 720, i % 12)
            for i in range(n_rows)
        ],
    )
    for column in ("owner", "ts_date"):
        db.create_index(TABLE, column)
    # An unprotected relation: queries against it rewrite pass-through
    # (no policies anywhere), populating only the rewrite cache.
    db.create_table(
        "Rooms", Schema.of(("id", ColumnType.INT), ("name", ColumnType.VARCHAR))
    )
    db.insert("Rooms", [(i, f"room-{i}") for i in range(10)])
    db.analyze()
    store = PolicyStore(db, groups)
    next_id = [0]

    def grant(querier, owner, lo=8 * 60, hi=16 * 60):
        next_id[0] += 1
        return Policy(
            owner=owner,
            querier=querier,
            purpose=PURPOSE,
            table=TABLE,
            object_conditions=(
                ObjectCondition("owner", "=", owner),
                ObjectCondition("ts_time", ">=", lo, "<=", hi),
            ),
            id=next_id[0],
        )

    for i, querier in enumerate(QUERIERS):
        for owner in range(N_OWNERS):
            if (owner + i) % 2 == 0:
                store.insert(grant(querier, owner))
    return db, store, grant, next_id


def make_cluster(db, store, n_shards=4, **kwargs):
    kwargs.setdefault("workers_per_shard", 1)
    return SieveCluster.replicated(db, store, n_shards=n_shards, **kwargs)


# ------------------------------------------------------------------ ring


def test_ring_routes_deterministically_and_only_to_members():
    ring = HashRing(["a", "b", "c"], vnodes=32)
    for key in ["q1", "q2", 42, ("t", 1)]:
        assert ring.route(key) == ring.route(key)
        assert ring.route(key) in {"a", "b", "c"}


def test_ring_rejects_bad_operations():
    ring = HashRing(["a"], vnodes=8)
    with pytest.raises(ClusterError):
        ring.with_node("a")
    with pytest.raises(ClusterError):
        ring.without_node("zz")
    with pytest.raises(ClusterError):
        HashRing(vnodes=8).route("q")
    with pytest.raises(ClusterError):
        HashRing(vnodes=0)


def test_ring_values_are_immutable():
    ring = HashRing(["a", "b"], vnodes=16)
    grown = ring.with_node("c")
    shrunk = ring.without_node("b")
    assert ring.nodes == frozenset({"a", "b"})
    assert grown.nodes == frozenset({"a", "b", "c"})
    assert shrunk.nodes == frozenset({"a"})


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_shards=st.integers(min_value=2, max_value=8),
    n_keys=st.integers(min_value=50, max_value=400),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_ring_stability_add_moves_only_onto_new_shard(n_shards, n_keys, seed):
    """Consistent hashing's defining property, exactly: growing the
    ring never moves a key between two surviving shards, and the moved
    fraction stays near 1/(N+1)."""
    ring = HashRing([f"s{i}" for i in range(n_shards)], vnodes=64)
    keys = [f"querier-{seed}-{i}" for i in range(n_keys)]
    before = {k: ring.route(k) for k in keys}
    grown = ring.with_node("joiner")
    moved = 0
    for k in keys:
        after = grown.route(k)
        if after != before[k]:
            assert after == "joiner", "a key moved between surviving shards"
            moved += 1
    # Expected movement is n_keys/(n_shards+1); allow generous noise
    # but forbid wholesale reshuffles (the mod-N failure mode).
    assert moved <= 3.0 * n_keys / (n_shards + 1) + 10


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_shards=st.integers(min_value=3, max_value=8),
    n_keys=st.integers(min_value=50, max_value=400),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_ring_stability_remove_moves_only_departed_keys(n_shards, n_keys, seed):
    ring = HashRing([f"s{i}" for i in range(n_shards)], vnodes=64)
    keys = [f"querier-{seed}-{i}" for i in range(n_keys)]
    doomed = ring.route(keys[0])  # remove a shard that owns something
    shrunk = ring.without_node(doomed)
    for k in keys:
        if ring.route(k) != doomed:
            assert shrunk.route(k) == ring.route(k), (
                "removing one shard moved a key between survivors"
            )
        else:
            assert shrunk.route(k) != doomed


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_shards=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_ring_balance_bounded(n_shards, seed):
    """Max/mean shard load stays bounded (vnodes smooth the arcs)."""
    ring = HashRing([f"s{i}" for i in range(n_shards)], vnodes=128)
    keys = [f"querier-{seed}-{i}" for i in range(200 * n_shards)]
    load = ring.load(keys)
    mean = len(keys) / n_shards
    assert max(load.values()) <= 2.0 * mean
    assert min(load.values()) >= 0.25 * mean


# ------------------------------------------------------- partition views


def test_partition_scopes_corpus_and_epochs():
    db, store, grant, _ = build_world(n_rows=200)
    part_a = store.partition(lambda q: q == QUERIERS[0], name="A")
    part_b = store.partition(lambda q: q == QUERIERS[1], name="B")

    assert {p.querier for p in part_a.all_policies()} == {QUERIERS[0]}
    assert part_a.policies_for(QUERIERS[0], PURPOSE, TABLE) == store.policies_for(
        QUERIERS[0], PURPOSE, TABLE
    )
    assert part_a.policies_for(QUERIERS[1], PURPOSE, TABLE) == []
    assert part_a.snapshot().protected == frozenset({TABLE.lower()})

    epochs = (part_a.epoch, part_b.epoch)
    events = []
    part_b.add_mutation_listener(
        lambda kind, policy, epoch: events.append((kind, policy.querier, epoch))
    )
    inserted = store.insert(grant(QUERIERS[1], 0))
    # Only B owns the mutation: B's epoch advanced and its listener
    # heard a *partition* epoch; A saw nothing at all.
    assert part_a.epoch == epochs[0]
    assert part_b.epoch == epochs[1] + 1
    assert events == [("insert", QUERIERS[1], part_b.epoch)]
    store.delete(inserted.id)
    assert part_a.epoch == epochs[0]
    assert events[-1][0] == "delete"


def test_partition_group_policy_fans_out_to_member_partitions():
    db, store, _grant, next_id = build_world(n_rows=200)
    member = GROUP_MEMBERS[0]
    outsider = QUERIERS[-1]
    part_member = store.partition(lambda q: q == member, name="M")
    part_outsider = store.partition(lambda q: q == outsider, name="O")
    next_id[0] += 1
    group_policy = Policy(
        owner=0,
        querier=GROUP,
        purpose=PURPOSE,
        table=TABLE,
        object_conditions=(ObjectCondition("owner", "=", 0),),
        id=next_id[0],
    )
    before = (part_member.epoch, part_outsider.epoch)
    store.insert(group_policy)
    # The member's partition owns the group policy (its PQM filter
    # needs it); a partition owning no member never hears about it.
    assert part_member.epoch == before[0] + 1
    assert part_outsider.epoch == before[1]
    assert group_policy.id in {
        p.id for p in part_member.policies_for(member, PURPOSE, TABLE)
    }
    assert part_member.policies_for(member, PURPOSE, TABLE) == store.policies_for(
        member, PURPOSE, TABLE
    )


def test_partition_set_ownership_keeps_epoch_and_detach_stops_events():
    db, store, grant, _ = build_world(n_rows=200)
    part = store.partition(lambda q: q == QUERIERS[0], name="P")
    assert part.owns_querier(QUERIERS[0])
    epoch = part.epoch
    part.set_ownership(lambda q: q == QUERIERS[1])
    assert part.epoch == epoch  # membership changes preserve warm epochs
    assert not part.owns_querier(QUERIERS[0])
    assert {p.querier for p in part.all_policies()} == {QUERIERS[1]}
    part.detach()
    store.insert(grant(QUERIERS[1], 1))
    assert part.epoch == epoch  # detached: no more event relay


# ------------------------------------------------------- cluster serving


@pytest.fixture(scope="module")
def cluster_world():
    db, store, grant, next_id = build_world()
    sieve = Sieve(db, store)
    oracle_queries = [
        f"SELECT * FROM {TABLE}",
        f"SELECT COUNT(*) FROM {TABLE} WHERE ts_date BETWEEN 1 AND 8",
    ]
    oracle = {
        (q, sql): sorted(sieve.execute(sql, q, PURPOSE).rows)
        for q in QUERIERS
        for sql in oracle_queries
    }
    return db, store, grant, next_id, oracle, oracle_queries


def test_cluster_serves_every_querier_identically(cluster_world):
    db, store, _grant, _next_id, oracle, queries = cluster_world
    single = Sieve(db, store)
    with make_cluster(db, store) as cluster:
        assert len(cluster.shard_names) == 4
        for querier in QUERIERS:
            for sql in queries:
                info = cluster.execute_with_info(sql, querier, PURPOSE, timeout=60)
                assert sorted(info.result.rows) == oracle[(querier, sql)]
                # the shard's partition hands the request exactly the
                # policies the whole corpus would
                assert info.policies_considered == single.execute_with_info(
                    sql, querier, PURPOSE
                ).policies_considered > 0
        # default-deny crosses the cluster boundary too
        assert cluster.execute(queries[0], "nobody", PURPOSE, timeout=60).rows == []
        stats = cluster.stats()
        assert stats.shards == 4
        assert stats.requests == len(QUERIERS) * len(queries) + 1
        assert stats.failures == 0
        assert stats.counters["cluster_requests"] == stats.requests
        # partition sizes reflect the querier split, not the full
        # corpus: no shard filters more than half of it (>= 2x less
        # policy-filter work per shard at N=4)
        assert sum(stats.partition_policies.values()) >= len(store)
        assert max(stats.partition_policies.values()) <= len(store) // 2


def test_cluster_routes_by_ring_and_only_owner_serves(cluster_world):
    db, store, _grant, _next_id, _oracle, queries = cluster_world
    with make_cluster(db, store) as cluster:
        for querier in QUERIERS:
            owner = cluster.route(querier)
            cluster.execute(queries[0], querier, PURPOSE, timeout=60)
            per_shard = {
                name: stats.requests
                for name, stats in cluster.stats().per_shard.items()
            }
            # the owning shard's request counter moved; re-check by
            # issuing a second query and diffing
            cluster.execute(queries[0], querier, PURPOSE, timeout=60)
            after = {
                name: stats.requests
                for name, stats in cluster.stats().per_shard.items()
            }
            moved = {name for name in after if after[name] != per_shard[name]}
            assert moved == {owner}


def test_cluster_policy_writes_route_and_scatter(cluster_world):
    db, store, grant, next_id, _oracle, _queries = cluster_world
    with make_cluster(db, store) as cluster:
        target = QUERIERS[2]
        owner_shard = cluster.route(target)
        epochs = {
            name: cluster.shard(name).partition.epoch for name in cluster.shard_names
        }
        assert cluster.owning_shards(target) == [owner_shard]
        inserted = cluster.insert_policy(grant(target, 1))
        # direct policy: delivered to exactly the owning shard
        for name in cluster.shard_names:
            expected = epochs[name] + (1 if name == owner_shard else 0)
            assert cluster.shard(name).partition.epoch == expected
        assert cluster.stats().counters["cluster_policy_writes"] == 1
        assert cluster.stats().counters["cluster_policy_fanout"] == 1

        # group policy: scatters to every shard holding a member, plus
        # the ring owner of the group identity itself (which would
        # serve a request issued under the group's own name)
        member_shards = sorted(
            {cluster.route(m) for m in GROUP_MEMBERS} | {cluster.route(GROUP)}
        )
        assert cluster.owning_shards(GROUP) == member_shards
        next_id[0] += 1
        group_policy = Policy(
            owner=0,
            querier=GROUP,
            purpose=PURPOSE,
            table=TABLE,
            object_conditions=(ObjectCondition("owner", "=", 1),),
            id=next_id[0],
        )
        epochs = {
            name: cluster.shard(name).partition.epoch for name in cluster.shard_names
        }
        cluster.insert_policy(group_policy)
        for name in cluster.shard_names:
            expected = epochs[name] + (1 if name in member_shards else 0)
            assert cluster.shard(name).partition.epoch == expected
        assert cluster.stats().counters["cluster_policy_fanout"] == 1 + len(member_shards)

        # routed delete restores the corpus for the other tests
        cluster.delete_policy(inserted.id)
        cluster.delete_policy(group_policy.id)
        assert cluster.stats().counters["cluster_policy_writes"] == 4


def test_cluster_update_policy_fans_to_both_queriers(cluster_world):
    db, store, grant, _next_id, _oracle, _queries = cluster_world
    with make_cluster(db, store) as cluster:
        inserted = cluster.insert_policy(grant(QUERIERS[3], 2))
        moved = Policy(
            owner=inserted.owner,
            querier=QUERIERS[4],
            purpose=inserted.purpose,
            table=inserted.table,
            object_conditions=inserted.object_conditions,
            id=inserted.id,
        )
        fanout0 = cluster.stats().counters["cluster_policy_fanout"]
        cluster.update_policy(moved)
        expected = len({cluster.route(QUERIERS[3]), cluster.route(QUERIERS[4])})
        assert cluster.stats().counters["cluster_policy_fanout"] == fanout0 + expected
        cluster.delete_policy(inserted.id)


def test_cluster_shard_failure_is_explicit_backpressure(cluster_world):
    db, store, _grant, _next_id, oracle, queries = cluster_world
    with make_cluster(db, store) as cluster:
        victim_querier = QUERIERS[0]
        victim = cluster.route(victim_querier)
        cluster.fail_shard(victim)
        with pytest.raises(ShardUnavailableError):
            cluster.execute(queries[0], victim_querier, PURPOSE, timeout=60)
        assert cluster.stats().counters["cluster_unavailable"] == 1
        # other shards keep serving
        survivor = next(q for q in QUERIERS if cluster.route(q) != victim)
        rows = sorted(cluster.execute(queries[0], survivor, PURPOSE, timeout=60).rows)
        assert rows == oracle[(survivor, queries[0])]
        # restore: the failed shard serves again (its state was intact)
        cluster.restore_shard(victim)
        rows = sorted(
            cluster.execute(queries[0], victim_querier, PURPOSE, timeout=60).rows
        )
        assert rows == oracle[(victim_querier, queries[0])]


# ----------------------------------------------------------- rebalancing


def test_add_shard_migrates_few_and_preserves_warm_guards(cluster_world):
    db, store, _grant, _next_id, oracle, queries = cluster_world
    with make_cluster(db, store) as cluster:
        for querier in QUERIERS:  # warm every querier's guard state
            cluster.execute(queries[0], querier, PURPOSE, timeout=60)
        warm_before = {
            name: set(cluster.shard(name).sieve.guard_store.keys())
            for name in cluster.shard_names
        }
        report = cluster.add_shard(cluster.replica_spec())
        assert report.added is not None and report.drained
        assert len(cluster.shard_names) == 5
        # ring stability: strictly fewer than half the queriers moved
        assert report.moved_fraction < 0.5
        moved = report.moved_queriers
        for name, keys in warm_before.items():
            surviving = set(cluster.shard(name).sieve.guard_store.keys())
            for key in keys:
                if key[0] in moved:
                    assert key not in surviving, (
                        f"migrated querier {key[0]!r} kept stale guards on {name}"
                    )
                else:
                    assert key in surviving, (
                        f"rebalance evicted unmigrated querier {key[0]!r} on {name}"
                    )
        assert cluster.stats().counters["cluster_rebalance_moves"] == len(moved)
        # every querier still gets oracle-identical answers
        for querier in QUERIERS:
            rows = sorted(cluster.execute(queries[0], querier, PURPOSE, timeout=60).rows)
            assert rows == oracle[(querier, queries[0])]


def test_remove_shard_migrates_its_queriers_to_survivors(cluster_world):
    db, store, _grant, _next_id, oracle, queries = cluster_world
    with make_cluster(db, store) as cluster:
        for querier in QUERIERS:
            cluster.execute(queries[1], querier, PURPOSE, timeout=60)
        doomed = cluster.shard_names[0]
        owners_before = {q: cluster.route(q) for q in QUERIERS}
        report = cluster.remove_shard(doomed)
        assert report.removed == doomed and report.drained
        assert doomed not in cluster.shard_names
        for querier in QUERIERS:
            owner = cluster.route(querier)
            assert owner != doomed
            if owners_before[querier] != doomed:
                assert owner == owners_before[querier], (
                    "removal moved a querier between surviving shards"
                )
            rows = sorted(cluster.execute(queries[1], querier, PURPOSE, timeout=60).rows)
            assert rows == oracle[(querier, queries[1])]
        with pytest.raises(ClusterError):
            cluster.shard(doomed)


def test_rebalance_under_concurrent_traffic():
    """The online-rebalance acceptance gate: client threads hammer the
    cluster while a shard joins and another leaves; every observed
    result must equal the quiesced oracle (the grow → swap → drain →
    shrink protocol never exposes a half-migrated partition)."""
    import threading
    import time

    db, store, _grant, _next_id = build_world(n_rows=800)
    sieve = Sieve(db, store)
    queries = [
        f"SELECT COUNT(*) FROM {TABLE}",
        f"SELECT COUNT(*) FROM {TABLE} WHERE ts_date BETWEEN 1 AND 8",
    ]
    oracle = {
        (q, sql): sorted(sieve.execute(sql, q, PURPOSE).rows)
        for q in QUERIERS
        for sql in queries
    }
    stop = threading.Event()
    errors: list[Exception] = []
    mismatches: list[tuple] = []
    served = [0]
    lock = threading.Lock()

    def client_loop(idx: int) -> None:
        i = 0
        while not stop.is_set():
            querier = QUERIERS[(idx + i) % len(QUERIERS)]
            sql = queries[i % len(queries)]
            i += 1
            try:
                rows = sorted(cluster.execute(sql, querier, PURPOSE, timeout=120).rows)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)
                return
            with lock:
                served[0] += 1
                if rows != oracle[(querier, sql)]:
                    mismatches.append((querier, sql))

    with make_cluster(db, store, n_shards=3, workers_per_shard=2) as cluster:
        clients = [
            threading.Thread(target=client_loop, args=(i,)) for i in range(6)
        ]
        for thread in clients:
            thread.start()
        time.sleep(0.3)
        report_add = cluster.add_shard(cluster.replica_spec())
        time.sleep(0.3)
        report_remove = cluster.remove_shard(cluster.shard_names[0])
        time.sleep(0.3)
        stop.set()
        for thread in clients:
            thread.join(timeout=60)
    assert not errors, errors[:3]
    assert served[0] > 0
    assert not mismatches, f"{len(mismatches)} wrong results of {served[0]}"
    assert report_add.drained and report_remove.drained
    assert len(cluster.shard_names) == 3


def test_remove_last_shard_refused():
    db, store, _grant, _next_id = build_world(n_rows=100)
    with make_cluster(db, store, n_shards=1) as cluster:
        with pytest.raises(ClusterError):
            cluster.remove_shard(cluster.shard_names[0])


def test_rebalance_under_live_policy_writes(cluster_world):
    """A rebalance interleaved with routed policy writes stays
    row-identical with a fresh single-Sieve oracle afterwards."""
    db, store, grant, _next_id, _oracle, queries = cluster_world
    with make_cluster(db, store) as cluster:
        inserted = [cluster.insert_policy(grant(q, 3)) for q in QUERIERS[:4]]
        report = cluster.add_shard(cluster.replica_spec())
        assert report.drained
        inserted += [cluster.insert_policy(grant(q, 5)) for q in QUERIERS[4:]]
        oracle_sieve = Sieve(db, store)
        for querier in QUERIERS:
            expected = sorted(oracle_sieve.execute(queries[0], querier, PURPOSE).rows)
            got = sorted(cluster.execute(queries[0], querier, PURPOSE, timeout=60).rows)
            assert got == expected
        for policy in inserted:
            cluster.delete_policy(policy.id)


# ------------------------------------------- serving-tier satellites


def test_service_stats_expose_cache_hit_rates_and_rejections():
    db, store, _grant, _next_id = build_world(n_rows=300)
    sieve = Sieve(db, store)
    with SieveServer(sieve, workers=2) as server:
        sql_a = f"SELECT COUNT(*) FROM {TABLE}"
        sql_b = f"SELECT COUNT(*) FROM {TABLE} WHERE ts_date < 6"
        server.execute(sql_a, QUERIERS[0], PURPOSE, timeout=60)  # guard miss
        server.execute(sql_b, QUERIERS[0], PURPOSE, timeout=60)  # guard hit
        server.execute(sql_a, QUERIERS[0], PURPOSE, timeout=60)  # auto-prepared
        server.execute(sql_a, QUERIERS[0], PURPOSE, timeout=60)  # plan-cache hit
    stats = server.stats()
    assert stats.guard_cache["hits"] >= 1
    assert stats.guard_cache["misses"] >= 1
    assert 0.0 < stats.guard_cache_hit_rate < 1.0
    # The field survives only for the canonical benchmark's reader.
    assert stats.rewrite_cache is None and stats.to_dict()["rewrite_cache"] is None
    assert stats.plan_cache["misses"] >= 1
    assert stats.plan_cache["hits"] >= 1
    assert stats.plan_cache_hit_rate > 0.0
    assert stats.to_dict()["plan_cache"]["hits"] == stats.plan_cache["hits"]
    assert stats.rejections == 0


def test_cluster_stats_aggregate_caches_and_latency(cluster_world):
    db, store, _grant, _next_id, _oracle, queries = cluster_world
    with make_cluster(db, store) as cluster:
        # round 1: queries[0] is a guard miss, queries[1] a guard hit;
        # round 2: both trip auto-prepare (plan-cache misses).
        for _ in range(2):
            for querier in QUERIERS:
                for sql in queries:
                    cluster.execute(sql, querier, PURPOSE, timeout=60)
        stats = cluster.stats()
    per_shard = stats.per_shard.values()
    assert stats.requests == sum(s.requests for s in per_shard)
    assert stats.latency.count == sum(s.latency.count for s in per_shard)
    assert stats.latency.mean_ms > 0.0
    assert stats.guard_cache["hits"] == sum(
        s.guard_cache["hits"] for s in per_shard
    )
    assert stats.guard_cache["hit_rate"] > 0.0
    assert stats.plan_cache["misses"] == sum(
        s.plan_cache["misses"] for s in per_shard
    ) >= 1
    assert all(s.rewrite_cache is None for s in per_shard)
    assert "rewrite_cache" not in stats.to_dict()
    assert set(stats.partition_policies) == set(stats.per_shard)


def test_execute_many_preserves_submission_order():
    """Satellite audit: ``execute_many`` returns ``result[i]`` for
    ``sqls[i]`` even when batched admission splits the sequence across
    many small batches — the futures are collected in submission
    order, and same-key scheduling is FIFO."""
    db, store, _grant, _next_id = build_world(n_rows=600)
    sieve = Sieve(db, store)
    querier = QUERIERS[0]
    thresholds = [(i * 37) % 600 for i in range(40)]
    sqls = [f"SELECT COUNT(*) FROM {TABLE} WHERE id < {t}" for t in thresholds]
    expected = [sieve.execute(sql, querier, PURPOSE).rows for sql in sqls]
    assert len({tuple(map(tuple, rows)) for rows in expected}) > 10  # distinguishable
    with SieveServer(sieve, workers=4, max_batch=3) as server:
        results = server.execute_many(sqls, querier, PURPOSE, timeout=60)
    assert [r.rows for r in results] == expected
    # and through the cluster's single-shard batch path
    with make_cluster(db, store, n_shards=2) as cluster:
        results = cluster.execute_many(sqls, querier, PURPOSE, timeout=60)
    assert [r.rows for r in results] == expected


def test_replicate_database_clones_data_not_sieve_state():
    db, store, _grant, _next_id = build_world(n_rows=150)
    replica = replicate_database(db)
    assert replica.catalog.has_table(TABLE)
    assert not replica.catalog.has_table("sieve_policies")
    assert not replica.catalog.has_table("sieve_guarded_expressions")
    source_heap = db.catalog.table(TABLE)
    replica_heap = replica.catalog.table(TABLE)
    assert [r for _, r in source_heap.scan()] == [r for _, r in replica_heap.scan()]
    assert db.catalog.indexed_columns(TABLE) == replica.catalog.indexed_columns(TABLE)
    # replicas are isolated: writes do not leak back
    replica.insert_row(TABLE, (99999, 1200, 0, 600, 1))
    assert len(replica_heap) == len(source_heap) + 1


def test_partition_hears_base_store_reload():
    """``reload_from_database`` fires no per-policy events; partitions
    must still advance their epochs (reset listener) or shard caches
    would keep hitting against a rebuilt corpus."""
    db, store, _grant, _next_id = build_world(n_rows=100)
    part = store.partition(lambda q: q == QUERIERS[0], name="P")
    before_policies = {p.id for p in part.all_policies()}
    epoch = part.epoch
    store.reload_from_database()
    assert part.epoch == epoch + 1
    assert {p.id for p in part.all_policies()} == before_policies
    assert part.snapshot().epoch == part.epoch
    # detached partitions stay silent
    part.detach()
    store.reload_from_database()
    assert part.epoch == epoch + 1


def test_rebalance_sweeps_plan_only_queriers():
    """A querier can hold plan-cache entries with no guard-cache entry
    (it queried only unprotected relations); the rebalance sweep must
    still see it so a migration drops those entries too."""
    db, store, _grant, _next_id = build_world(n_rows=100)
    with make_cluster(db, store, n_shards=2) as cluster:
        joined = HashRing(cluster.shard_names).with_node("joiner")
        visitor = next(
            v for v in (f"visitor-without-policies-{i}" for i in range(1000))
            if joined.route(v) == "joiner"
        )
        shard = cluster.shard(cluster.route(visitor))
        for _ in range(2):  # the repeat trips auto-prepare: one plan entry
            assert cluster.execute("SELECT * FROM Rooms", visitor, PURPOSE, timeout=60).rows
        assert visitor not in shard.sieve.guard_store.queriers()
        assert visitor in shard.sieve.plan_cache.queriers()
        assert visitor in shard.cached_queriers()
        report = cluster.add_shard(ShardSpec(db=replicate_database(db), name="joiner"))
        assert cluster.route(visitor) == "joiner"
        assert report.invalidated_entries >= 1
        assert visitor not in shard.cached_queriers()


def test_mixed_named_and_auto_shard_names():
    db, store, _grant, _next_id = build_world(n_rows=100)
    specs = [
        ShardSpec(db=replicate_database(db), name="shard-0"),
        ShardSpec(db=replicate_database(db)),  # auto name must skip shard-0
        ShardSpec(db=replicate_database(db), name="edge-eu"),
    ]
    cluster = SieveCluster(store, specs, workers_per_shard=1)
    assert cluster.shard_names == ["edge-eu", "shard-0", "shard-1"]
    with pytest.raises(ClusterError):
        SieveCluster(
            store,
            [ShardSpec(db=replicate_database(db), name="dup"),
             ShardSpec(db=replicate_database(db), name="dup")],
        )


def test_cluster_requires_shards_and_stays_stopped():
    db, store, _grant, _next_id = build_world(n_rows=100)
    with pytest.raises(ClusterError):
        SieveCluster(store, [])
    with pytest.raises(ClusterError):
        SieveCluster.replicated(db, store, 2, workers_per_shard=0)
    cluster = make_cluster(db, store, n_shards=2)
    cluster.start()
    cluster.stop()
    with pytest.raises(ClusterError):
        cluster.start()
    with pytest.raises(ClusterError):
        cluster.add_shard(ShardSpec(db=replicate_database(db)))

def test_coordinator_reaches_a_shard_only_through_its_own_surface():
    """The shard contract is process-boundary sized: ``SieveCluster``
    calls ``ClusterShard`` methods and never reaches through to the
    server, partition or sieve behind them; partition coverage is set
    in one place; and the chaos suite's deliberately naive cluster
    still differs from the real one by exactly the two hooks it
    overrides."""
    import inspect
    import pathlib

    import repro.cluster
    from repro.faults.chaos import NaiveScatterCluster

    source = inspect.getsource(SieveCluster)
    for reach_through in (".server.", ".partition.", ".sieve."):
        assert reach_through not in source
    package = pathlib.Path(repro.cluster.__file__).parent
    assert sum(f.read_text().count("set_ownership(") for f in package.glob("*.py")) == 1
    hooks = {n for n, v in vars(NaiveScatterCluster).items() if inspect.isfunction(v)}
    assert hooks == {"_check_fence", "_prepare_scatter"}
    assert all(inspect.isfunction(vars(SieveCluster)[hook]) for hook in hooks)


# ----------------------------------------------------------------- audit


def test_audited_cluster_stress_per_shard_chains_and_lossless_merge():
    """8 client threads across all queriers against an audited cluster
    (2 workers per shard): every per-shard chain must verify against
    its live head, and the merged log must contain exactly one record
    per successfully served request — none lost in worker buffers, none
    duplicated by backpressure retries."""
    import threading
    import time as _time

    from repro.audit import verify_merged
    from repro.service import ServiceOverloadedError

    db, store, _grant, _next_id = build_world(n_rows=800)
    stop = threading.Event()
    errors: list[Exception] = []
    served: list[tuple] = []
    lock = threading.Lock()
    queries = [
        f"SELECT * FROM {TABLE} WHERE ts_date BETWEEN 1 AND 8",
        f"SELECT COUNT(*) FROM {TABLE}",
    ]

    def client_loop(querier):
        i = 0
        while not stop.is_set():
            sql = queries[i % len(queries)]
            i += 1
            try:
                cluster.execute(sql, querier, PURPOSE, timeout=120)
            except ServiceOverloadedError:
                continue  # rejected before any middleware: no record
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)
                return
            with lock:
                served.append((querier, sql))

    with make_cluster(
        db, store, n_shards=3, workers_per_shard=2, audit=True
    ) as cluster:
        assert set(cluster.audit_logs()) == set(cluster.shard_names)
        clients = [
            threading.Thread(target=client_loop, args=(QUERIERS[i],))
            for i in range(8)
        ]
        for thread in clients:
            thread.start()
        _time.sleep(1.5)
        stop.set()
        for thread in clients:
            thread.join(timeout=60)

    assert not errors, errors[:3]
    assert served, "stress run served nothing"
    # Every per-shard chain verifies; the shutdown flushed all buffers.
    logs = cluster.audit_logs()
    assert sum(log.verify() for log in logs.values()) == len(served)
    merged = cluster.merged_audit_records()
    assert verify_merged(merged) == len(served)
    assert sorted((str(r.querier), r.sql) for r in merged) == sorted(
        (str(q), s) for q, s in served
    )
    # Each record chained on the shard that owns its querier.
    owner = {q: cluster.route(q) for q in QUERIERS}
    assert all(r.chain == owner[r.querier] for r in merged)
