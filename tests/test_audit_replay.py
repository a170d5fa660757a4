"""The replay oracle as a differential suite of its own.

Record Mall + TIPPERS workloads across engine mode {vectorized,
tuple, SQLite backend} × Δ {on, off}, then replay every window
against its pinned policy epochs and require bit-identical decisions
*including* the per-request enforcement-counter deltas — replay is
only evidence if it reproduces the numbers, not just the rows.

The mid-window-mutation case is the sharp half: policies are deleted
and re-inserted while the window records, so the log spans ≥ 3 policy
epochs; the corpus is churned *again* after recording, and the replay
must still match — proving :meth:`PolicyStore.snapshot_at` pins each
record to the corpus version that actually decided it, isolated from
any later churn.
"""

from __future__ import annotations

import pytest

from repro.backend import SqliteBackend
from repro.common.errors import PolicyError
from repro.core import Sieve
from repro.core.cost_model import SieveCostModel
from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
from repro.datasets.policies import PolicyGenConfig, generate_campus_policies
from repro.datasets.tippers import TippersConfig, WIFI_TABLE, generate_tippers
from repro.policy.store import PolicyStore

from tests.conftest import load_tool_module, make_owner_world

DELTA_MODES = {
    "delta-off": SieveCostModel(udf_invocation=1e18),
    "delta-on": SieveCostModel(udf_invocation=0.0, udf_per_policy=0.0),
}

#: engine mode -> (db.vectorized flag, backend factory, recorded engine tag)
ENGINE_MODES = {
    "vectorized": (True, None, "vectorized"),
    "tuple": (False, None, "tuple"),
    "sqlite": (True, lambda db: SqliteBackend().ship(db), "backend"),
}

WORKLOADS = ["mall", "tippers"]


@pytest.fixture(scope="module")
def mall_world():
    mall = generate_mall(
        MallConfig(seed=41, n_customers=60, days=6, personality="postgres")
    )
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall.policies)
    return {
        "db": mall.db,
        "store": store,
        "table": CONNECTIVITY_TABLE,
        "queriers": [mall.shop_querier(s) for s in mall.shops[:2]]
        + ["nobody-without-policies"],
        "purpose": "any",
        "queries": [
            f"SELECT * FROM {CONNECTIVITY_TABLE} WHERE ts_date BETWEEN 1 AND 4",
            f"SELECT * FROM {CONNECTIVITY_TABLE} WHERE ts_time BETWEEN 660 AND 900",
            f"SELECT shop_id, count(*) AS n FROM {CONNECTIVITY_TABLE} "
            f"WHERE ts_date >= 2 GROUP BY shop_id",
        ],
    }


@pytest.fixture(scope="module")
def tippers_world():
    dataset = generate_tippers(
        TippersConfig(seed=43, n_devices=90, days=8, personality="mysql")
    )
    campus = generate_campus_policies(dataset, PolicyGenConfig(seed=44))
    store = PolicyStore(dataset.db, dataset.groups)
    store.insert_many(campus.policies)
    return {
        "db": dataset.db,
        "store": store,
        "table": WIFI_TABLE,
        "queriers": [
            campus.designated_queriers["faculty"][0],
            campus.designated_queriers["staff"][0],
            "nobody-without-policies",
        ],
        "purpose": "analytics",
        "queries": [
            f"SELECT * FROM {WIFI_TABLE} WHERE ts_date BETWEEN 2 AND 6",
            f"SELECT * FROM {WIFI_TABLE} WHERE ts_time BETWEEN 540 AND 780",
            f"SELECT wifiAP, count(*) AS n FROM {WIFI_TABLE} "
            f"WHERE ts_date >= 3 GROUP BY wifiAP",
        ],
    }


def _world(request, name):
    return request.getfixturevalue(f"{name}_world")


def _churn(world):
    """Mutate the live corpus (delete + reinsert one policy): replay
    of any already-recorded window must not notice."""
    store = world["store"]
    victim = store.policies_for(
        world["queriers"][0], world["purpose"], world["table"]
    )[0]
    store.delete(victim.id)
    store.insert(victim)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("engine", list(ENGINE_MODES), ids=list(ENGINE_MODES))
@pytest.mark.parametrize("delta_mode", list(DELTA_MODES), ids=list(DELTA_MODES))
def test_replay_reproduces_recorded_window(request, workload, engine, delta_mode):
    world = _world(request, workload)
    vectorized, backend_factory, engine_tag = ENGINE_MODES[engine]
    world["db"].vectorized = vectorized
    sieve = Sieve(
        world["db"],
        world["store"],
        cost_model=DELTA_MODES[delta_mode],
        backend=backend_factory(world["db"]) if backend_factory else None,
    )
    log = sieve.enable_audit()
    for querier in world["queriers"]:
        for sql in world["queries"]:
            sieve.execute(sql, querier, world["purpose"])
    n = len(world["queriers"]) * len(world["queries"])
    assert log.verify() == n
    assert {r.engine for r in log.records()} == {engine_tag}

    _churn(world)  # post-window churn: pinning must isolate the replay

    replay = load_tool_module("replay")
    report = replay.replay_records(
        log.records(),
        world["store"],
        cost_model=DELTA_MODES[delta_mode],
        backend_factory=backend_factory,
    )
    assert report.ok, report.describe()
    assert report.replayed == n and report.counters_compared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_mid_window_mutations_pin_distinct_epochs(request, workload):
    """Policy churn *inside* the window: records straddle ≥ 3 epochs,
    and each replays against exactly the corpus version it named."""
    world = _world(request, workload)
    world["db"].vectorized = True
    store = world["store"]
    sieve = Sieve(world["db"], store)
    log = sieve.enable_audit()
    victim = store.policies_for(
        world["queriers"][0], world["purpose"], world["table"]
    )[0]
    plan = []
    for i in range(12):
        plan.append((world["queriers"][i % len(world["queriers"])],
                     world["queries"][i % len(world["queries"])]))
    for i, (querier, sql) in enumerate(plan):
        if i == 4:
            store.delete(victim.id)
        if i == 8:
            store.insert(victim)
        sieve.execute(sql, querier, world["purpose"])

    epochs = {r.policy_epoch for r in log.records()}
    assert len(epochs) >= 3, "mid-window churn did not advance the pinned epoch"
    assert sorted(epochs) == sorted(store.retained_epochs())[-len(epochs):]

    _churn(world)  # later churn again — invisible to the pinned replay

    replay = load_tool_module("replay")
    report = replay.replay_records(log.records(), store)
    assert report.ok, report.describe()
    assert sorted(report.epochs) == sorted(epochs)


def test_replay_reads_the_protected_set_its_record_saw():
    """A window crossing a relation's first policy, the revocation of
    its last and an ``unprotect``: each record replays under the
    protected set archived with its own epoch — the live store's (by
    then unprotected again) would replay the middle of the window open."""
    db, store, policy = make_owner_world(with_policy=False)
    sieve = Sieve(db, store)
    log = sieve.enable_audit()
    for write in (None, lambda: store.insert(policy), lambda: store.delete(policy.id),
                  lambda: store.unprotect("t")):
        if write is not None:
            write()
        for querier in ("bob", "alice"):
            sieve.execute("SELECT * FROM t", querier, "analytics")
    assert [r.rows_admitted for r in log.records()] == [50, 50, 0, 10, 0, 0, 50, 50]
    protected = [store.snapshot_at(r.policy_epoch).protected for r in log.records()]
    assert protected == [frozenset()] * 2 + [frozenset({"t"})] * 4 + [frozenset()] * 2

    report = load_tool_module("replay").replay_records(log.records(), store)
    assert report.ok, report.describe()
    assert report.replayed == 8 and len(report.epochs) == 4


def test_snapshot_at_requires_retention():
    """Without an audited middleware (or an explicit retain_snapshots),
    historical epochs are not kept around."""
    mall = generate_mall(MallConfig(seed=47, n_customers=20, days=3))
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall.policies)
    epoch = store.epoch
    with pytest.raises(PolicyError, match="not retained"):
        store.snapshot_at(epoch)
    store.retain_snapshots()
    assert store.snapshot_at(epoch).epoch == epoch
    assert store.retained_epochs() == [epoch]


def test_replay_refuses_backend_records_without_factory(request):
    world = _world(request, "mall")
    world["db"].vectorized = True
    sieve = Sieve(world["db"], world["store"], backend=SqliteBackend().ship(world["db"]))
    log = sieve.enable_audit()
    sieve.execute(world["queries"][0], world["queriers"][0], world["purpose"])
    replay = load_tool_module("replay")
    from repro.common.errors import AuditError

    with pytest.raises(AuditError, match="backend_factory"):
        replay.replay_records(log.records(), world["store"])
