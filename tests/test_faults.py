"""The fault tier: seeded plans, injector bookkeeping, deadlines,
retries/hedges, two-phase policy scatter, and shard supervision.

Each mechanism gets a deterministic unit here — the randomized
composition of all of them lives in ``tests/test_chaos_differential.py``.
The load-bearing regressions:

* a killed worker/server must surface a *typed*
  ``ShardUnavailableError`` on a bounded wait, never a hang;
* a scatter abort must be atomic (base store untouched);
* the fence gate must refuse a shard behind the committed epoch;
* ``supervise()`` must rebuild a crashed shard into answers identical
  to the fault-free ones.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import pytest

from repro.backend import SqliteBackend
from repro.cluster import (
    DeadlineExceededError,
    HashRing,
    PolicyScatterError,
    RetryPolicy,
    ShardUnavailableError,
    SieveCluster,
)
from repro.common.errors import ExecutionError
from repro.core import Sieve
from repro.db.database import connect
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RequestFault,
    ScatterFault,
    ShardFault,
)
from repro.faults.chaos import NaiveScatterCluster
from repro.policy import GroupDirectory, ObjectCondition, Policy, PolicyStore
from repro.service import ServiceStoppedError, SieveServer
from repro.storage.schema import ColumnType, Schema

TABLE = "WiFi_Dataset"
N_OWNERS = 6
QUERIERS = [f"Prof.{c}" for c in "ABCDEF"]
PURPOSE = "analytics"
QUERY = f"SELECT * FROM {TABLE}"


def build_world(n_rows: int = 400):
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
    db.analyze()
    store = PolicyStore(db, GroupDirectory())
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


def make_cluster(db, store, n_shards=3, cluster_cls=SieveCluster, **kwargs):
    kwargs.setdefault("workers_per_shard", 1)
    return cluster_cls.replicated(db, store, n_shards=n_shards, **kwargs)


def oracle_rows(db, store, querier, sql=QUERY):
    return Sieve(db, store).execute(sql, querier, PURPOSE).rows


# ------------------------------------------------------------------ plans


def test_fault_plan_is_pure_function_of_seed():
    kwargs = dict(n_requests=50, n_shards=4, n_writes=8)
    assert FaultPlan.random(7, **kwargs) == FaultPlan.random(7, **kwargs)
    plans = [FaultPlan.random(seed, **kwargs) for seed in range(20)]
    assert len(set(plans)) > 1, "seeds should produce distinct plans"


def test_fault_plan_respects_kind_vocabularies():
    plan = FaultPlan.random(
        3,
        n_requests=200,
        n_shards=3,
        n_writes=20,
        request_fault_rate=0.9,
        shard_fault_rate=0.9,
        scatter_fault_rate=0.9,
    )
    assert plan.total_faults > 0
    from repro.faults.plan import (
        REQUEST_FAULT_KINDS,
        SCATTER_PHASES,
        SHARD_FAULT_KINDS,
    )

    assert {f.kind for f in plan.request_faults} <= set(REQUEST_FAULT_KINDS)
    assert {f.kind for f in plan.shard_faults} <= set(SHARD_FAULT_KINDS)
    assert {f.phase for f in plan.scatter_faults} <= set(SCATTER_PHASES)
    assert all(0 <= f.shard < 3 for f in plan.shard_faults)
    assert "seed=3" in plan.describe()


def test_fault_plan_zero_rates_is_empty():
    plan = FaultPlan.random(
        1,
        n_requests=100,
        n_shards=4,
        n_writes=10,
        request_fault_rate=0.0,
        shard_fault_rate=0.0,
        scatter_fault_rate=0.0,
        skew_rate=0.0,
    )
    assert plan.total_faults == 0 and not plan.clock_skew_s


def test_injector_clocks_and_accounting():
    plan = FaultPlan(
        seed=0,
        request_faults=(RequestFault(1, "drop"),),
        shard_faults=(ShardFault(2, 0, "slow", 0.001),),
        scatter_faults=(ScatterFault(0, "prepare", 0),),
    )
    injector = FaultInjector(plan)
    assert injector.next_request() == (0, [])
    ordinal, due = injector.next_request()
    assert ordinal == 1 and due == []
    _, due = injector.next_request()
    assert [f.kind for f in due] == ["slow"]
    assert injector.serve_action(0) is None
    assert injector.serve_action(None) is None
    assert injector.serve_action(1).kind == "drop"
    assert injector.scatter_fault(injector.next_write(), "prepare") is not None
    assert injector.scatter_fault(1, "commit") is None
    assert injector.summary() == {"drop": 1, "scatter_prepare": 1}
    assert injector.fired_total == 2


# --------------------------------------------------------------- deadlines


def test_server_deadline_refuses_expired_queued_work():
    db, store, _, _ = build_world()
    sieve = Sieve(db, store)
    server = SieveServer(sieve, workers=1).start()
    try:
        # Wedge the single worker so the deadline expires in-queue.
        server.inject_delay_s = 0.1
        blocker = server.submit(QUERY, QUERIERS[0], PURPOSE)
        victim = server.submit(QUERY, QUERIERS[1], PURPOSE, deadline_s=0.01)
        with pytest.raises(DeadlineExceededError):
            victim.result(timeout=5.0)
        blocker.result(timeout=5.0)
        assert db.counters.service_deadline_timeouts == 1
    finally:
        server.inject_delay_s = 0.0
        server.stop()


def test_cluster_deadline_is_typed_not_a_hang():
    db, store, _, _ = build_world()
    with make_cluster(db, store, default_deadline_s=0.05) as cluster:
        name = cluster.route(QUERIERS[0])
        cluster.slow_shard(name, 0.5)
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            cluster.execute(QUERY, QUERIERS[0], PURPOSE)
        assert time.perf_counter() - started < 2.0
        assert db.counters.cluster_deadline_timeouts >= 1


def test_cluster_execute_many_honours_the_default_deadline():
    """A batch rides the cluster's default deadline like a single
    request: a shard that cannot answer in time is a typed refusal,
    not rows a second late (or a hang, were the worker dead)."""
    db, store, _, _ = build_world()
    with make_cluster(db, store, default_deadline_s=0.1) as cluster:
        cluster.slow_shard(cluster.route(QUERIERS[0]), 1.0)
        timeouts0 = db.counters.cluster_deadline_timeouts
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            cluster.execute_many([QUERY, QUERY], QUERIERS[0], PURPOSE)
        assert time.perf_counter() - started < 0.9
        assert db.counters.cluster_deadline_timeouts == timeouts0 + 1


def test_killed_server_fails_waiters_instead_of_hanging():
    """Satellite regression: a dead worker process must surface a
    typed ShardUnavailableError on every queued future — a bounded
    ``result(timeout=...)`` must never time out silently."""
    db, store, _, _ = build_world()
    sieve = Sieve(db, store)
    server = SieveServer(sieve, workers=1).start()
    server.inject_delay_s = 0.1  # keep the worker busy while we queue
    in_flight = server.submit(QUERY, QUERIERS[0], PURPOSE)
    queued = [server.submit(QUERY, q, PURPOSE) for q in QUERIERS[1:4]]
    while not (in_flight.running() or in_flight.done()):
        time.sleep(0.001)  # wait until the worker has picked it up
    server.kill()
    for future in queued:
        with pytest.raises(ShardUnavailableError):
            future.result(timeout=5.0)
    # The in-flight request still resolves (the worker finishes its
    # current batch before noticing the kill).
    in_flight.result(timeout=5.0)
    assert server.killed
    server.kill()  # idempotent
    # A dead server refuses new work up-front, typed.
    with pytest.raises(ServiceStoppedError):
        server.submit(QUERY, QUERIERS[0], PURPOSE)


def test_crashed_shard_is_explicit_and_bounded():
    db, store, _, _ = build_world()
    with make_cluster(db, store) as cluster:
        querier = QUERIERS[0]
        cluster.crash_shard(cluster.route(querier))
        started = time.perf_counter()
        with pytest.raises(ShardUnavailableError):
            cluster.execute(QUERY, querier, PURPOSE, timeout=5.0)
        assert time.perf_counter() - started < 2.0


# ----------------------------------------------------------- retries/hedges


def test_retry_budget_is_spent_then_typed_error():
    db, store, _, _ = build_world()
    policy = RetryPolicy(max_attempts=3, base_backoff_s=0.001, max_backoff_s=0.002)
    with make_cluster(db, store, retry_policy=policy) as cluster:
        querier = QUERIERS[0]
        cluster.fail_shard(cluster.route(querier))
        with pytest.raises(ShardUnavailableError):
            cluster.execute(QUERY, querier, PURPOSE)
        assert db.counters.cluster_retries == 2  # attempts 2 and 3
        # A transient outage mid-budget is absorbed: fail, then heal
        # before the retry lands.
        cluster.restore_shard(cluster.route(querier))
        assert cluster.execute(QUERY, querier, PURPOSE).rows == oracle_rows(
            db, store, querier
        )


def test_retry_recovers_after_supervisor_rebuild():
    db, store, _, _ = build_world()
    policy = RetryPolicy(max_attempts=2, base_backoff_s=0.001, max_backoff_s=0.002)
    with make_cluster(db, store, retry_policy=policy) as cluster:
        querier = QUERIERS[0]
        before = cluster.execute(QUERY, querier, PURPOSE).rows
        cluster.crash_shard(cluster.route(querier))
        rebuilds = cluster.supervise()
        assert [r.name for r in rebuilds] == [cluster.route(querier)]
        assert cluster.supervise() == []  # idempotent: nothing left to fix
        assert cluster.execute(QUERY, querier, PURPOSE).rows == before
        assert db.counters.cluster_shard_rebuilds == 1


def test_hedged_read_wins_past_a_dropped_reply():
    db, store, _, _ = build_world()
    # The worker silently discards ordinal 0 (a lost reply: its future
    # never resolves); ordinal 1 — the hedge, fired after
    # ``hedge_delay_s`` — answers.  Deterministic because the
    # coordinator assigns the ordinals.  A *hang* would not do here:
    # same-(querier, purpose) requests are key-serialized into one
    # batch, so a slow primary always resolves before its hedge.
    plan = FaultPlan(seed=0, request_faults=(RequestFault(0, "drop"),))
    policy = RetryPolicy(max_attempts=1, hedge_delay_s=0.02)
    with make_cluster(
        db,
        store,
        retry_policy=policy,
        fault_injector=FaultInjector(plan),
    ) as cluster:
        querier = QUERIERS[0]
        rows = cluster.execute(QUERY, querier, PURPOSE, deadline_s=5.0).rows
        assert rows == oracle_rows(db, store, querier)
        assert db.counters.cluster_hedges == 1
        assert db.counters.cluster_hedge_wins == 1
        assert db.counters.faults_injected >= 1


def test_dropped_reply_without_hedge_hits_the_deadline():
    db, store, _, _ = build_world()
    # Without a hedge the only recovery from a lost reply is the
    # deadline: the wait must end in a *typed* error, bounded in time.
    plan = FaultPlan(seed=0, request_faults=(RequestFault(0, "drop"),))
    with make_cluster(db, store, fault_injector=FaultInjector(plan)) as cluster:
        querier = QUERIERS[0]
        started = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            cluster.execute(QUERY, querier, PURPOSE, deadline_s=0.2)
        assert time.perf_counter() - started < 2.0
        assert db.counters.cluster_deadline_timeouts >= 1


# ------------------------------------------------------------ policy scatter


def test_scatter_abort_is_atomic():
    db, store, grant, next_id = build_world()
    with make_cluster(db, store) as cluster:
        querier = QUERIERS[0]
        cluster.drop_relay(cluster.route(querier))
        epoch_before = store.epoch
        count_before = len(store.policies_for(querier, PURPOSE))
        with pytest.raises(PolicyScatterError):
            cluster.insert_policy(grant(querier, 1))
        # Atomic: the base store never saw the write.
        assert store.epoch == epoch_before
        assert len(store.policies_for(querier, PURPOSE)) == count_before
        assert db.counters.cluster_scatter_aborts == 1
        # The supervisor rebuilds the detached-relay shard; the same
        # write then commits and is served.
        assert len(cluster.supervise()) == 1
        cluster.insert_policy(grant(querier, 1))
        assert store.epoch > epoch_before
        assert cluster.execute(QUERY, querier, PURPOSE).rows == oracle_rows(
            db, store, querier
        )


def test_injected_prepare_fault_aborts_before_commit():
    db, store, grant, _ = build_world()
    plan = FaultPlan(seed=0, scatter_faults=(ScatterFault(0, "prepare", 0),))
    with make_cluster(db, store, fault_injector=FaultInjector(plan)) as cluster:
        epoch_before = store.epoch
        with pytest.raises(PolicyScatterError):
            cluster.insert_policy(grant(QUERIERS[0], 1))
        assert store.epoch == epoch_before
        # The next write draws ordinal 1 — no fault — and commits.
        cluster.insert_policy(grant(QUERIERS[0], 1))
        assert store.epoch > epoch_before


def test_fence_gate_refuses_stale_shard_and_supervisor_heals():
    db, store, grant, _ = build_world()
    # A commit-phase fault crashes a shard after prepare but before
    # the base write: that shard misses the event and must be fenced.
    # Shard names and routing are deterministic, so the victim index
    # (the querier's owner) is known before the cluster exists.
    querier = QUERIERS[0]
    names = sorted(f"shard-{i}" for i in range(3))
    owner_name = HashRing(names).route(querier)
    victim_index = names.index(owner_name)
    plan = FaultPlan(
        seed=0, scatter_faults=(ScatterFault(0, "commit", victim_index),)
    )
    with make_cluster(db, store, fault_injector=FaultInjector(plan)) as cluster:
        assert cluster.route(querier) == owner_name
        cluster.insert_policy(grant(QUERIERS[1], 1))  # any write will do
        shard = cluster.shard(owner_name)
        assert shard.crashed and shard.expected_fence > shard.policy_fence
        with pytest.raises(ShardUnavailableError):
            cluster.execute(QUERY, querier, PURPOSE, timeout=5.0)
        cluster.supervise()
        rebuilt = cluster.shard(owner_name)
        assert rebuilt.policy_fence == rebuilt.expected_fence
        assert cluster.execute(QUERY, querier, PURPOSE).rows == oracle_rows(
            db, store, querier
        )


def test_fence_gate_blocks_routing_when_behind():
    db, store, _, _ = build_world()
    with make_cluster(db, store) as cluster:
        querier = QUERIERS[0]
        shard = cluster.shard(cluster.route(querier))
        shard.expected_fence = shard.policy_fence + 1  # stale by one epoch
        with pytest.raises(ShardUnavailableError):
            cluster.execute(QUERY, querier, PURPOSE, timeout=5.0)
    # The deliberately naive subclass: the stale shard keeps serving
    # (the bug the chaos teeth test must catch).
    db2, store2, _, _ = build_world()
    with make_cluster(db2, store2, cluster_cls=NaiveScatterCluster) as cluster:
        shard = cluster.shard(cluster.route(querier))
        shard.expected_fence = shard.policy_fence + 1
        cluster.execute(QUERY, querier, PURPOSE, timeout=5.0)


# ------------------------------------------------------------ backend faults


def test_sqlite_backend_injected_failure_budget():
    backend = SqliteBackend()
    backend.create_table("t", Schema.of(("id", ColumnType.INT)))
    backend.bulk_load("t", [(1,), (2,)])
    backend.inject_failures(1)
    with pytest.raises(ExecutionError, match="injected fault"):
        backend.execute("SELECT * FROM t")
    # Budget consumed: the next statement succeeds.
    assert len(backend.execute("SELECT * FROM t").rows) == 2
    with pytest.raises(Exception):
        backend.inject_failures(-1)


def test_backend_error_fault_is_typed_and_transient():
    db, store, _, _ = build_world()
    plan = FaultPlan(seed=0, request_faults=(RequestFault(0, "backend_error"),))
    policy = RetryPolicy(max_attempts=2, base_backoff_s=0.001)
    with make_cluster(
        db,
        store,
        backend_factory=lambda d: SqliteBackend().ship(d),
        retry_policy=policy,
        fault_injector=FaultInjector(plan),
    ) as cluster:
        querier = QUERIERS[0]
        # ExecutionError is NOT transient: it must propagate, not be
        # retried into a silently different answer.
        with pytest.raises(ExecutionError):
            cluster.execute(QUERY, querier, PURPOSE, deadline_s=5.0)
        assert sorted(cluster.execute(QUERY, querier, PURPOSE).rows) == sorted(
            oracle_rows(db, store, querier)
        )


def test_worker_crash_fault_fails_batch_typed():
    db, store, _, _ = build_world()
    plan = FaultPlan(seed=0, request_faults=(RequestFault(0, "crash_worker"),))
    injector = FaultInjector(plan)
    with make_cluster(
        db, store, workers_per_shard=2, fault_injector=injector
    ) as cluster:
        querier = QUERIERS[0]
        with pytest.raises(ShardUnavailableError):
            cluster.submit(QUERY, querier, PURPOSE).result(timeout=5.0)
        assert injector.summary().get("crash_worker") == 1
        # The shard's surviving worker keeps serving.
        assert cluster.execute(QUERY, querier, PURPOSE).rows == oracle_rows(
            db, store, querier
        )
