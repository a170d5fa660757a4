"""Default deny ranges over a *declared* set of protected relations
(``PolicySnapshot.protected``), not over the relations that happen to
carry a policy: revoking the last policy on a relation must leave it
closed on every serving path, only ``unprotect`` reopens it, the set
survives a reload, and on a cluster a change to it is an all-shard
write — atomic in prepare, fenced after a commit-phase crash."""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

import pytest
from conftest import make_owner_world

from repro.backend import SqliteBackend
from repro.cluster import SieveCluster
from repro.common.errors import PolicyError, PolicyScatterError, ShardUnavailableError
from repro.core import Sieve
from repro.core.baselines import BaselineI, BaselineP, BaselineU
from repro.faults import FaultInjector, FaultPlan, ScatterFault
from repro.policy.store import PROTECTED_TABLE, PolicyStore
from repro.service import SieveServer

SQL = "SELECT * FROM t"
PURPOSE = "analytics"
ENGINES = {
    "sieve": Sieve,
    "server": Sieve,
    "sqlite": lambda db, store: Sieve(db, store, backend=SqliteBackend().ship(db)),
    "baseline-p": BaselineP,
    "baseline-i": BaselineI,
    "baseline-u": BaselineU,
}


@contextmanager
def serving(path: str, db, store):
    """``(rows_read(querier), delete(policy_id), unprotect(table))``
    through one serving path and whatever takes its policy writes."""
    with ExitStack() as stack:
        if path.startswith("cluster-"):
            engine = stack.enter_context(
                SieveCluster.replicated(db, store, n_shards=int(path[-1]), workers_per_shard=1)
            )
            delete, unprotect = engine.delete_policy, engine.unprotect
        else:
            engine = ENGINES[path](db, store)
            if path == "server":
                engine = stack.enter_context(SieveServer(engine, workers=1))
            delete, unprotect = store.delete, store.unprotect
        yield lambda q: len(engine.execute(SQL, q, PURPOSE).rows), delete, unprotect


@pytest.mark.parametrize(
    "path", [*ENGINES, "cluster-2", "cluster-3", "cluster-4"]
)
def test_revoking_the_last_policy_leaves_the_relation_closed(path):
    db, store, policy = make_owner_world()
    with serving(path, db, store) as (read, delete, unprotect):
        assert (read("bob"), read("alice")) == (0, 10)
        with pytest.raises(PolicyError):
            unprotect("t")  # a policy still names it
        delete(policy.id)
        assert (read("bob"), read("alice")) == (0, 0)  # a revocation never grants
        unprotect("T")
        assert (read("bob"), read("alice")) == (50, 50)


def test_explicit_protect_denies_everyone_without_any_policy():
    db, store, _ = make_owner_world(with_policy=False)
    sieve = Sieve(db, store)
    assert len(sieve.execute(SQL, "bob", PURPOSE).rows) == 50
    store.protect("t")
    epoch = store.epoch
    store.protect("T")  # idempotent, case-insensitive: nothing moves
    assert store.epoch == epoch and store.snapshot().protected == {"t"}
    assert sieve.execute(SQL, "bob", PURPOSE).rows == []
    assert not sieve.explain_decision("bob", "t", (1, 1), PURPOSE).admitted


def test_reload_restores_the_declared_set():
    db, store, policy = make_owner_world()
    store.delete(policy.id)
    reloaded = PolicyStore(db)
    assert reloaded.reload_from_database() == 0
    assert reloaded.snapshot().protected == {"t"}
    assert Sieve(db, reloaded).execute(SQL, "bob", PURPOSE).rows == []


def test_a_database_without_the_persisted_set_reloads_fail_closed():
    db, store, _ = make_owner_world()
    for rowid, _row in list(db.catalog.table(PROTECTED_TABLE).scan()):
        db.delete_row(PROTECTED_TABLE, rowid)  # as written before the set was persisted
    reloaded = PolicyStore(db)
    assert reloaded.reload_from_database() == 1
    assert reloaded.snapshot().protected == {"t"}
    assert [row for _rowid, row in db.catalog.table(PROTECTED_TABLE).scan()] == [("t",)]
    assert Sieve(db, reloaded).execute(SQL, "bob", PURPOSE).rows == []


# ---------------------------------------------- cluster: an all-shard write


def _shard_not_owning(cluster, querier) -> str:
    return next(n for n in cluster.shard_names if n != cluster.route(querier))


def test_first_policy_on_a_relation_aborts_when_any_shard_cannot_hear_it():
    db, store, policy = make_owner_world(with_policy=False)
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        deaf = _shard_not_owning(cluster, "alice")
        bob = next(f"bob-{i}" for i in range(64) if cluster.route(f"bob-{i}") == deaf)
        assert len(cluster.execute(SQL, bob, PURPOSE, timeout=60).rows) == 50
        cluster.drop_relay(deaf)
        epochs = {n: cluster.shard(n).partition.epoch for n in cluster.shard_names}
        base_epoch = store.epoch
        for write in (lambda: cluster.insert_policy(policy), lambda: cluster.protect("t")):
            with pytest.raises(PolicyScatterError):
                write()
        # Atomic: no shard, partition or base store observed anything.
        assert store.epoch == base_epoch and store.snapshot().protected == frozenset()
        assert epochs == {n: cluster.shard(n).partition.epoch for n in cluster.shard_names}
        assert len(cluster.execute(SQL, bob, PURPOSE, timeout=60).rows) == 50
        # Healed, the same write commits at full width and reaches the once-deaf shard.
        assert len(cluster.supervise()) == 1
        fanout = db.counters.cluster_policy_fanout
        cluster.insert_policy(policy)
        assert db.counters.cluster_policy_fanout - fanout == 3
        assert cluster.execute(SQL, bob, PURPOSE, timeout=60).rows == []
        fanout = db.counters.cluster_policy_fanout
        cluster.delete_policy(policy.id)  # the set does not move: owners only
        assert db.counters.cluster_policy_fanout - fanout == 1


def test_a_shard_crashing_mid_protection_change_is_fenced_until_rebuilt():
    db, store, policy = make_owner_world(with_policy=False)
    plan = FaultPlan(seed=0, scatter_faults=(ScatterFault(0, "commit", 0),))
    with SieveCluster.replicated(
        db, store, n_shards=3, workers_per_shard=1, fault_injector=FaultInjector(plan)
    ) as cluster:
        victim = cluster.shard_names[0]
        bob = next(f"bob-{i}" for i in range(64) if cluster.route(f"bob-{i}") == victim)
        assert len(cluster.execute(SQL, bob, PURPOSE, timeout=60).rows) == 50
        cluster.protect("t")  # commits; the victim dies between prepare and commit
        husk = cluster.shard(victim)
        assert husk.crashed and husk.expected_fence > husk.policy_fence
        with pytest.raises(ShardUnavailableError):
            cluster.execute(SQL, bob, PURPOSE, timeout=5.0)
        cluster.supervise()
        assert cluster.execute(SQL, bob, PURPOSE, timeout=60).rows == []
