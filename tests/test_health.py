"""Health tier: health registries/endpoints and the cluster's
liveness control loop (fail_shard + health endpoint agreement, routing
around a down shard, recovery hysteresis that does not flap, detours
under faults and rebalances).

Everything time-dependent runs on an injected clock — no sleeps in the
hysteresis assertions."""

from __future__ import annotations

import pytest

from repro.cluster import RECOVERY_HOLD_S, ShardUnavailableError, SieveCluster
from repro.core import Sieve
from repro.db.database import connect
from repro.obs.health import (
    ComponentHealth,
    HealthRegistry,
    HealthStatus,
    rollup_cluster,
    server_health,
)
from repro.policy import ObjectCondition, Policy, PolicyStore
from repro.service import SieveServer
from repro.storage.schema import ColumnType, Schema

TABLE = "WiFi_Dataset"
QUERIERS = [f"Prof.{c}" for c in "ABCDEF"]
PURPOSE = "analytics"


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now


# ----------------------------------------------------- health registry


def test_registry_names_components_and_rolls_up_worst():
    registry = HealthRegistry()
    registry.register("a", lambda: ComponentHealth("a", HealthStatus.HEALTHY))
    registry.register(
        "b", lambda: ComponentHealth("b", HealthStatus.DEGRADED, "queue deep")
    )
    registry.register(
        "c",
        lambda: ComponentHealth("ignored-name", HealthStatus.HEALTHY, "ok", {"x": 1}),
    )
    report = registry.report()
    assert report.status is HealthStatus.DEGRADED
    assert not report.healthy
    assert report.component("b").detail == "queue deep"
    assert report.component("c").name == "c"  # registered name wins
    assert report.component("c").data == {"x": 1}
    assert registry.names() == ["a", "b", "c"]
    with pytest.raises(KeyError):
        report.component("missing")


def test_registry_rejects_duplicates_and_contains_raising_checks():
    registry = HealthRegistry()
    registry.register("dup", lambda: HealthStatus.HEALTHY)
    with pytest.raises(ValueError):
        registry.register("dup", lambda: HealthStatus.HEALTHY)

    def boom():
        raise RuntimeError("sensor exploded")

    registry.register("broken", boom)
    report = registry.report()  # the endpoint must not throw
    assert report.status is HealthStatus.UNHEALTHY
    assert "sensor exploded" in report.component("broken").detail


def test_registry_contains_a_check_of_the_wrong_shape():
    """Only :class:`ComponentHealth` is a check result: a bare status,
    a ``(status, detail)`` pair or ``None`` is contained like a raising
    check — the component reads unhealthy, the endpoint does not throw."""
    registry = HealthRegistry()
    registry.register("bare", lambda: HealthStatus.HEALTHY)
    registry.register("pair", lambda: (HealthStatus.HEALTHY, "fine"))
    registry.register("none", lambda: None)
    registry.register("ok", lambda: ComponentHealth("ok", HealthStatus.HEALTHY))
    report = registry.report()
    for name in ("bare", "pair", "none"):
        component = report.component(name)
        assert component.status is HealthStatus.UNHEALTHY
        assert component.detail.startswith("check raised: ")
    assert report.component("ok").status is HealthStatus.HEALTHY
    assert report.status is HealthStatus.UNHEALTHY


def test_worst_of_empty_is_healthy():
    assert HealthStatus.worst([]) is HealthStatus.HEALTHY
    assert rollup_cluster(()) is HealthStatus.HEALTHY


def test_rollup_caps_dead_shards_at_degraded_while_any_serves():
    shard = lambda name, status: ComponentHealth(f"shard:{name}", status)
    # One dead shard, one alive: degraded, not unhealthy.
    assert (
        rollup_cluster(
            (shard("a", HealthStatus.UNHEALTHY), shard("b", HealthStatus.HEALTHY))
        )
        is HealthStatus.DEGRADED
    )
    # Every shard dead: the cluster really is down.
    assert (
        rollup_cluster(
            (shard("a", HealthStatus.UNHEALTHY), shard("b", HealthStatus.UNHEALTHY))
        )
        is HealthStatus.UNHEALTHY
    )


# ------------------------------------------------------- server health


def _world(n_rows: int = 400):
    db = connect("mysql")
    db.create_table(
        TABLE,
        Schema.of(
            ("id", ColumnType.INT),
            ("owner", ColumnType.INT),
            ("ts_time", ColumnType.TIME),
        ),
    )
    db.insert(
        TABLE,
        [(i, i % len(QUERIERS), 7 * 60 + (i * 11) % 720) for i in range(n_rows)],
    )
    db.create_index(TABLE, "owner")
    db.analyze()
    store = PolicyStore(db)
    policies = [
        Policy(
            owner=owner,
            querier=querier,
            purpose=PURPOSE,
            table=TABLE,
            object_conditions=(ObjectCondition("owner", "=", owner),),
        )
        for owner, querier in enumerate(QUERIERS)
    ]
    store.insert_many(policies)
    return db, store


def test_server_health_endpoint_shapes_and_degrades_on_queue_depth():
    db, store = _world()
    with SieveServer(Sieve(db, store), workers=2) as server:
        server.execute(f"SELECT COUNT(*) FROM {TABLE}", QUERIERS[0], PURPOSE)
        report = server.health()
        assert report.status is HealthStatus.HEALTHY
        names = {c.name for c in report.components}
        assert {"workers", "admission_queue", "policy_store"} <= names
        body = server.health_json()
        assert body["status"] == "healthy"
        assert {c["name"] for c in body["components"]} == names

        # A queue past its floor flips the admission component (and the
        # roll-up) to degraded — the endpoint shows *why* requests wait.
        report = server_health(server, queue_floor=0.0).report()
        assert report.component("admission_queue").status is HealthStatus.DEGRADED
        assert report.status is HealthStatus.DEGRADED

    # A stopped server is unhealthy: its worker pool is gone.
    report = server_health(server).report()
    assert report.component("workers").status is HealthStatus.UNHEALTHY


# ------------------------------------------------------ cluster health


def _cluster_world():
    db, store = _world()
    return db, store


def _victim_and_fallback(cluster: SieveCluster):
    victim_querier = QUERIERS[0]
    victim = cluster.route(victim_querier)
    return victim_querier, victim


def test_fail_shard_agrees_with_health_endpoint():
    db, store = _cluster_world()
    clock = FakeClock()
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        assert set(cluster.health_tick(now=clock.now).values()) == {"healthy"}
        assert cluster.health().status is HealthStatus.HEALTHY

        victim_querier, victim = _victim_and_fallback(cluster)
        baseline = cluster.execute(
            f"SELECT COUNT(*) FROM {TABLE}", victim_querier, PURPOSE, timeout=60
        ).rows
        cluster.fail_shard(victim)
        statuses = cluster.health_tick(now=clock.advance(1.0))
        assert statuses[victim] == "unhealthy"
        assert cluster.shard_health()[victim] == "unhealthy"

        # Endpoint agreement: the per-shard component mirrors the
        # tracked verdict and the roll-up caps at degraded while the
        # other shards still serve.
        report = cluster.health()
        assert report.component(f"shard:{victim}").status is HealthStatus.UNHEALTHY
        assert report.status is HealthStatus.DEGRADED
        body = cluster.health_json()
        assert body["status"] == "degraded"
        by_name = {c["name"]: c["status"] for c in body["components"]}
        assert by_name[f"shard:{victim}"] == "unhealthy"

        # The detour serves the victim's queriers (no explicit
        # backpressure despite the dead home shard).
        assert victim in cluster.reroutes()
        rows = cluster.execute(
            f"SELECT COUNT(*) FROM {TABLE}", victim_querier, PURPOSE, timeout=60
        ).rows
        assert rows == baseline

        cluster.restore_shard(victim)


def test_health_tick_needs_no_configuration():
    """A fresh cluster ticks on its own monotonic clock: every serving
    shard is healthy, a failed one is unhealthy and detoured at once,
    and a restored one stays detoured for the hold."""
    db, store = _cluster_world()
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        assert set(cluster.health_tick().values()) == {"healthy"}
        assert cluster.reroutes() == {}
        _querier, victim = _victim_and_fallback(cluster)
        cluster.fail_shard(victim)
        assert cluster.health_tick()[victim] == "unhealthy"
        assert victim in cluster.reroutes()
        cluster.restore_shard(victim)
        assert cluster.health_tick()[victim] == "healthy"
        assert victim in cluster.reroutes()  # far less than RECOVERY_HOLD_S served


def test_a_slow_shard_is_healthy():
    """Health is liveness: a shard that answers slowly still serves,
    so it is neither unhealthy nor detoured (a hedged read is what
    answers past it)."""
    db, store = _cluster_world()
    clock = FakeClock()
    sql = f"SELECT COUNT(*) FROM {TABLE}"
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        querier, victim = _victim_and_fallback(cluster)
        baseline = cluster.execute(sql, querier, PURPOSE, timeout=60).rows
        cluster.slow_shard(victim, 0.05)
        assert cluster.execute(sql, querier, PURPOSE, timeout=60).rows == baseline
        assert cluster.health_tick(now=clock.advance(1.0))[victim] == "healthy"
        assert cluster.reroutes() == {}
        assert cluster.health().component(f"shard:{victim}").status is HealthStatus.HEALTHY
        cluster.slow_shard(victim, 0.0)


def test_a_crashed_shard_is_detoured_until_its_rebuild_holds():
    """A crash (the process dies) reads unhealthy like a failed shard;
    the supervisor's rebuild serves again at once, yet keeps the detour
    for the full RECOVERY_HOLD_S — rebuilds get no shortcut."""
    db, store = _cluster_world()
    clock = FakeClock()
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        querier, victim = _victim_and_fallback(cluster)
        baseline = sorted(cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60).rows)
        cluster.crash_shard(victim)
        assert cluster.health_tick(now=clock.advance(1.0))[victim] == "unhealthy"
        fallback = cluster.reroutes()[victim]
        assert sorted(cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60).rows) == baseline

        assert [r.name for r in cluster.supervise()] == [victim]
        assert cluster.health_tick(now=clock.advance(1.0))[victim] == "healthy"
        cluster.health_tick(now=clock.advance(RECOVERY_HOLD_S - 1.0))
        assert cluster.reroutes() == {victim: fallback}
        cluster.health_tick(now=clock.advance(1.0))
        assert cluster.reroutes() == {}
        before = cluster.shard(victim).server.stats().requests
        assert sorted(cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60).rows) == baseline
        assert cluster.shard(victim).server.stats().requests == before + 1


def test_unrouted_failure_is_still_explicit_backpressure():
    """Without a healthy fallback there is nothing to detour onto —
    the ShardUnavailableError contract from the fault-injection tier
    still holds."""
    db, store = _cluster_world()
    with SieveCluster.replicated(db, store, n_shards=2, workers_per_shard=1) as cluster:
        for name in cluster.shard_names:
            cluster.fail_shard(name)
        cluster.health_tick()
        assert cluster.reroutes() == {}  # no healthy stand-in exists
        assert cluster.health().status is HealthStatus.UNHEALTHY
        with pytest.raises(ShardUnavailableError):
            cluster.execute(
                f"SELECT COUNT(*) FROM {TABLE}", QUERIERS[0], PURPOSE, timeout=60
            )


def test_the_first_shard_back_covers_every_shard_still_down():
    """With every shard down there is no stand-in; the first tick after
    one is restored detours each shard still down onto it, and their
    queriers get their answers back."""
    db, store = _cluster_world()
    clock = FakeClock()
    sql = f"SELECT COUNT(*) FROM {TABLE}"
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        baseline = {q: cluster.execute(sql, q, PURPOSE, timeout=60).rows for q in QUERIERS}
        for name in cluster.shard_names:
            cluster.fail_shard(name)
        cluster.health_tick(now=clock.advance(1.0))
        assert cluster.reroutes() == {}
        survivor, *down = cluster.shard_names
        cluster.restore_shard(survivor)
        statuses = cluster.health_tick(now=clock.advance(1.0))
        assert statuses == {survivor: "healthy", **{name: "unhealthy" for name in down}}
        assert cluster.reroutes() == {name: survivor for name in down}
        for querier, rows in baseline.items():
            assert cluster.execute(sql, querier, PURPOSE, timeout=60).rows == rows
        for name in down:
            cluster.restore_shard(name)


def test_failed_shard_is_detoured_and_recovery_holds():
    """The full control loop on an injected clock: a failed shard →
    unhealthy → rerouted (row-identical answers via the fallback);
    after restore, the detour lifts only once the shard has stayed
    healthy for the full RECOVERY_HOLD_S — and a mid-recovery relapse
    resets the streak (no flapping)."""
    db, store = _cluster_world()
    clock = FakeClock()
    sql = f"SELECT COUNT(*) FROM {TABLE}"
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        victim_querier, victim = _victim_and_fallback(cluster)
        baseline = sorted(
            cluster.execute(sql, victim_querier, PURPOSE, timeout=60).rows
        )
        assert cluster.health_tick(now=0.0)[victim] == "healthy"

        cluster.fail_shard(victim)
        statuses = cluster.health_tick(now=clock.advance(1.0))
        assert statuses[victim] == "unhealthy"
        fallback = cluster.reroutes()[victim]
        assert fallback != victim
        assert cluster.shard_health()[victim] == "unhealthy"
        assert cluster.stats().reroutes == {victim: fallback}

        # Deprioritized: the victim's traffic lands on the fallback
        # (its served-request counter moves, the victim's does not)
        # and the answers are row-identical.
        victim_before = cluster.shard(victim).server.stats().requests
        fallback_before = cluster.shard(fallback).server.stats().requests
        rows = sorted(cluster.execute(sql, victim_querier, PURPOSE, timeout=60).rows)
        assert rows == baseline
        assert cluster.shard(victim).server.stats().requests == victim_before
        assert cluster.shard(fallback).server.stats().requests == fallback_before + 1

        # Restore.  The next tick sees it healthy — but the detour must
        # hold until the streak reaches the full hold.
        cluster.restore_shard(victim)
        assert cluster.health_tick(now=clock.advance(1.0))[victim] == "healthy"
        assert victim in cluster.reroutes()  # streak began at t=2
        cluster.health_tick(now=clock.advance(RECOVERY_HOLD_S - 1.0))
        assert victim in cluster.reroutes()  # 1 s short of the hold

        # A relapse mid-hold resets the streak.
        cluster.fail_shard(victim)
        assert cluster.health_tick(now=clock.advance(1.0))[victim] == "unhealthy"
        cluster.restore_shard(victim)
        assert cluster.health_tick(now=clock.advance(1.0))[victim] == "healthy"
        # The streak restarted here: one hold minus a second later the
        # *original* healthy tick (t=2) is older than the hold, but the
        # streak is not — still held.
        restarted = clock.now
        cluster.health_tick(now=clock.advance(RECOVERY_HOLD_S - 1.0))
        assert clock.now - 2.0 > RECOVERY_HOLD_S
        assert victim in cluster.reroutes()

        # Streak complete: the detour lifts and traffic goes home.
        cluster.health_tick(now=clock.advance(1.0))
        assert clock.now - restarted == RECOVERY_HOLD_S
        assert victim not in cluster.reroutes()
        victim_before = cluster.shard(victim).server.stats().requests
        rows = sorted(cluster.execute(sql, victim_querier, PURPOSE, timeout=60).rows)
        assert rows == baseline
        assert cluster.shard(victim).server.stats().requests == victim_before + 1

        # Stable thereafter: further healthy ticks change nothing.
        assert cluster.health_tick(now=clock.advance(1.0))[victim] == "healthy"
        assert cluster.reroutes() == {}


# ------------------------------------------- detour × fault / rebalance
#
# One assignment answers "who holds querier q" for routing, partition
# coverage, the policy scatter set and the supervisor's rebuild, so a
# detour cannot be forgotten by any of them.

ROWS_SQL = f"SELECT * FROM {TABLE}"


def _detour(cluster: SieveCluster, clock: FakeClock):
    """Fail ``QUERIERS[0]``'s home shard and tick once; returns
    ``(querier, home, fallback, the querier's baseline rows)``."""
    querier, home = _victim_and_fallback(cluster)
    baseline = sorted(cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60).rows)
    assert len(baseline) == 67
    cluster.fail_shard(home)
    cluster.health_tick(now=clock.advance(1.0))
    fallback = cluster.reroutes()[home]
    assert sorted(cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60).rows) == baseline
    return querier, home, fallback, baseline


@pytest.mark.parametrize("relay", ["dropped", "intact"])
def test_policy_write_under_a_detour_reaches_the_fallback_or_aborts(relay):
    """The fallback serves the detoured querier, so revoking that
    querier's policy is a write the fallback must hear: with its relay
    dead the write aborts in prepare (it used to commit, and the
    fallback went on returning the 67 revoked rows)."""
    from repro.cluster import PolicyScatterError

    db, store = _cluster_world()
    clock = FakeClock()
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        querier, home, fallback, baseline = _detour(cluster, clock)
        (policy,) = store.policies_for(querier, PURPOSE)
        if relay == "dropped":
            cluster.drop_relay(fallback)
            with pytest.raises(PolicyScatterError):
                cluster.delete_policy(policy.id)
            assert store.get(policy.id) == policy
            rows = cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60).rows
            assert sorted(rows) == baseline
        else:
            assert cluster.owning_shards(querier) == sorted([home, fallback])
            cluster.delete_policy(policy.id)
            shard = cluster.shard(fallback)
            assert shard.policy_fence == shard.expected_fence == store.epoch
            assert cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60).rows == []


def test_rebuilt_fallback_still_covers_its_detour():
    """The supervisor rebuilds a shard's partition from the assignment,
    detours included (from the ring alone, the detoured querier read 0
    of its 67 permitted rows off the rebuilt fallback)."""
    db, store = _cluster_world()
    clock = FakeClock()
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        querier, home, fallback, baseline = _detour(cluster, clock)
        cluster.crash_shard(fallback)
        with pytest.raises(ShardUnavailableError):
            cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60)
        assert [r.name for r in cluster.supervise()] == [fallback]
        assert cluster.reroutes() == {home: fallback}
        rows = cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60).rows
        assert sorted(rows) == baseline


def test_a_detour_survives_an_uninvolved_rebalance_and_lapses_with_its_target():
    db, store = _cluster_world()
    clock = FakeClock()
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        baselines = {
            q: sorted(cluster.execute(ROWS_SQL, q, PURPOSE, timeout=60).rows)
            for q in QUERIERS
        }
        querier, home, fallback, _ = _detour(cluster, clock)
        (bystander,) = set(cluster.shard_names) - {home, fallback}

        def answers_hold():
            assert cluster.reroutes() == {home: fallback}
            for q, expected in baselines.items():
                rows = cluster.execute(ROWS_SQL, q, PURPOSE, timeout=60).rows
                assert sorted(rows) == expected, q

        # The home shard stays failed throughout: any querier still
        # homed there is answered only because the detour held.
        assert cluster.add_shard(cluster.replica_spec()).drained
        answers_hold()
        assert cluster.remove_shard(bystander).drained
        answers_hold()
        # Losing the detour's target sends its queriers home — typed
        # backpressure while home is down, never an empty answer.
        assert cluster.remove_shard(fallback).drained
        assert cluster.reroutes() == {}
        assert cluster.route(querier) == home
        with pytest.raises(ShardUnavailableError):
            cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60)
        cluster.restore_shard(home)
        rows = cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60).rows
        assert sorted(rows) == baselines[querier]


def test_a_lift_that_cannot_drain_never_shrinks_under_the_straggler(monkeypatch):
    """One timeout rule for every handover: the detour is lifted, and
    the fallback keeps its widened coverage for the request it is
    still serving (it used to re-install the detour instead)."""
    monkeypatch.setattr("repro.cluster.coordinator.REBALANCE_TIMEOUT_S", 0.05)
    db, store = _cluster_world()
    clock = FakeClock()
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        querier, home, fallback, baseline = _detour(cluster, clock)
        cluster.slow_shard(fallback, 0.5)
        straggler = cluster.submit(ROWS_SQL, querier, PURPOSE)
        cluster.restore_shard(home)
        cluster.health_tick(now=clock.advance(1.0))  # the healthy streak begins
        cluster.health_tick(now=clock.advance(RECOVERY_HOLD_S))  # the hold has passed
        assert cluster.reroutes() == {}
        assert not straggler.done()
        assert cluster.shard(fallback).partition.owns_querier(querier)
        assert sorted(straggler.result(timeout=60).rows) == baseline
        rows = cluster.execute(ROWS_SQL, querier, PURPOSE, timeout=60).rows
        assert sorted(rows) == baseline


def test_slow_shard_rejects_a_negative_delay():
    db, store = _cluster_world()
    from repro.cluster import ClusterError

    with SieveCluster.replicated(db, store, n_shards=2, workers_per_shard=1) as cluster:
        with pytest.raises(ClusterError):
            cluster.slow_shard(cluster.shard_names[0], -0.5)
