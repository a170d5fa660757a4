"""The serving tier: admission, batching, backpressure, and the
multi-threaded stress differential against a single-threaded oracle.

The stress tests are the acceptance gate of the subsystem: >= 8
client threads hammering a SieveServer while a churn thread mutates
the policy store concurrently must produce *exactly* the rows a
single-threaded Sieve produces — on the bundled engine and on the
SQLite backend.  Two churn designs probe different hazards:

* **disjoint churn** — mutations name queriers nobody queries, so any
  interleaving must leave every observed result identical to the
  oracle (exercises snapshot/cache invalidation plumbing under fire);
* **identity-update churn** — a *queried* policy is update()d to an
  identical replacement in a loop; a reader that ever saw the update
  half-applied (the delete visible, the re-insert not) would return
  fewer rows than the oracle.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import connect
from repro.backend import SqliteBackend
from repro.core import Sieve
from repro.policy import GroupDirectory, ObjectCondition, Policy, PolicyStore
from repro.service import (
    AdmissionQueue,
    ServiceError,
    ServiceOverloadedError,
    ServiceRequest,
    ServiceStoppedError,
    SieveServer,
)
from repro.storage.schema import ColumnType, Schema

TABLE = "WiFi_Dataset"
PROBED_QUERIERS = ["Prof.A", "Prof.B", "Prof.C", "Prof.D"]
CHURN_QUERIERS = ["Aud.X", "Aud.Y"]
N_OWNERS = 10
QUERIES = [
    f"SELECT * FROM {TABLE}",
    f"SELECT * FROM {TABLE} WHERE ts_date BETWEEN 1 AND 8",
    f"SELECT COUNT(*) FROM {TABLE}",
]


def build_world(n_rows: int = 3000):
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
            purpose="analytics",
            table=TABLE,
            object_conditions=(
                ObjectCondition("owner", "=", owner),
                ObjectCondition("ts_time", ">=", lo, "<=", hi),
            ),
            id=next_id[0],
        )

    for i, querier in enumerate(PROBED_QUERIERS):
        for owner in range(N_OWNERS):
            if (owner + i) % 2 == 0:  # distinct visible subsets per querier
                store.insert(grant(querier, owner))
    return db, store, grant, next_id


# ----------------------------------------------------------------- admission


def _request(i: int, key=("q", "p")) -> ServiceRequest:
    return ServiceRequest(sql=f"SELECT {i}", querier=key[0], purpose=key[1])


def test_admission_queue_batches_same_key_fifo():
    queue = AdmissionQueue(max_pending=100, max_batch=3)
    for i in range(5):
        queue.submit(_request(i))
    queue.submit(_request(99, key=("other", "p")))
    first = queue.take()
    assert first.key == ("q", "p")
    assert [r.sql for r in first.requests] == ["SELECT 0", "SELECT 1", "SELECT 2"]
    # Same key is in flight: the other key is served next, not the rest
    # of the first key's backlog.
    second = queue.take()
    assert second.key == ("other", "p")
    queue.complete(first.key)
    third = queue.take()
    assert [r.sql for r in third.requests] == ["SELECT 3", "SELECT 4"]


def test_admission_queue_bounded():
    queue = AdmissionQueue(max_pending=2, max_batch=8)
    queue.submit(_request(0))
    queue.submit(_request(1))
    with pytest.raises(ServiceOverloadedError):
        queue.submit(_request(2))
    batch = queue.take()
    assert len(batch) == 2
    queue.submit(_request(3))  # capacity freed by the take


def test_serving_constructors_refuse_bad_sizes_typed():
    with pytest.raises(ServiceError):
        AdmissionQueue(max_pending=0)
    with pytest.raises(ServiceError):
        AdmissionQueue(max_batch=0)
    db, store, _grant, _ = build_world(n_rows=100)
    with pytest.raises(ServiceError):
        SieveServer(Sieve(db, store), workers=0)


def test_admission_queue_close_without_drain_abandons():
    queue = AdmissionQueue()
    queue.submit(_request(0))
    abandoned = queue.close(drain=False)
    assert [r.sql for r in abandoned] == ["SELECT 0"]
    assert queue.take() is None
    with pytest.raises(ServiceStoppedError):
        queue.submit(_request(1))


# -------------------------------------------------------------------- server


def test_server_results_match_direct_execution():
    db, store, _grant, _ = build_world(n_rows=800)
    sieve = Sieve(db, store)
    oracle = {
        (q, sql): sorted(sieve.execute(sql, q, "analytics").rows)
        for q in PROBED_QUERIERS
        for sql in QUERIES
    }
    with SieveServer(sieve, workers=4) as server:
        futures = {
            (q, sql): server.submit(sql, q, "analytics")
            for q in PROBED_QUERIERS
            for sql in QUERIES
        }
        for key, future in futures.items():
            assert sorted(future.result(timeout=60).rows) == oracle[key]
    stats = server.stats()
    assert stats.requests == len(futures)
    assert stats.failures == 0
    assert stats.latency.count == stats.queue_wait.count == len(futures)


def test_server_execute_many_batches_one_key():
    db, store, _grant, _ = build_world(n_rows=400)
    sieve = Sieve(db, store)
    server = SieveServer(sieve, workers=1, max_batch=8)
    with server:
        results = server.execute_many(
            [QUERIES[0]] * 12, PROBED_QUERIERS[0], "analytics", timeout=60
        )
    assert len(results) == 12
    stats = server.stats()
    # One worker picks the first request up solo, then the closed
    # queue drains in max_batch groups.
    assert stats.batches < 12
    assert stats.mean_batch_size > 1.0
    assert stats.requests == 12 and stats.mean_batch_size == 12 / stats.batches


def test_server_backpressure_counted_and_recoverable():
    db, store, _grant, _ = build_world(n_rows=400)
    sieve = Sieve(db, store)
    with SieveServer(sieve, workers=1, max_pending=1) as server:
        rejected = 0
        futures = []
        for _ in range(30):
            try:
                futures.append(server.submit(QUERIES[0], PROBED_QUERIERS[0], "analytics"))
            except ServiceOverloadedError:
                rejected += 1
        assert rejected > 0
        for future in futures:
            future.result(timeout=60)  # admitted work still completes
        # The queue drained: admission works again.
        assert server.execute(QUERIES[2], PROBED_QUERIERS[0], "analytics", timeout=60)
    assert server.stats().rejections == rejected
    assert server.stats().to_dict()["rejections"] == rejected


def test_server_request_failure_resolves_future_not_worker():
    db, store, _grant, _ = build_world(n_rows=400)
    sieve = Sieve(db, store)
    with SieveServer(sieve, workers=2) as server:
        bad = server.submit("SELECT * FROM no_such_table", PROBED_QUERIERS[0], "analytics")
        with pytest.raises(Exception):
            bad.result(timeout=60)
        good = server.execute(QUERIES[2], PROBED_QUERIERS[0], "analytics", timeout=60)
        assert good.rows
    stats = server.stats()
    assert stats.failures == 1 and stats.deadline_timeouts == 0


def test_server_stop_without_drain_fails_pending_futures():
    db, store, _grant, _ = build_world(n_rows=400)
    sieve = Sieve(db, store)
    server = SieveServer(sieve, workers=1).start()
    futures = [
        server.submit(QUERIES[0], PROBED_QUERIERS[i % 4], "analytics")
        for i in range(20)
    ]
    server.stop(drain=False)
    outcomes = {"done": 0, "stopped": 0}
    for future in futures:
        try:
            future.result(timeout=60)
            outcomes["done"] += 1
        except ServiceStoppedError:
            outcomes["stopped"] += 1
    assert outcomes["stopped"] > 0
    with pytest.raises(ServiceStoppedError):
        server.submit(QUERIES[0], PROBED_QUERIERS[0], "analytics")
    with pytest.raises(ServiceStoppedError):
        server.start()


def test_server_submit_with_info_carries_bookkeeping():
    db, store, _grant, _ = build_world(n_rows=400)
    sieve = Sieve(db, store)
    with SieveServer(sieve, workers=2) as server:
        execution = server.submit_with_info(
            QUERIES[1], PROBED_QUERIERS[0], "analytics"
        ).result(timeout=60)
    assert execution.metadata.querier == PROBED_QUERIERS[0]
    assert execution.result.rows is not None


# ----------------------------------------------------------- stress (oracle)


def _stress(sieve_factory, churn):
    """8 client threads × live server vs a quiesced single-threaded
    oracle; returns (mismatches, errors, served)."""
    db, store, grant, next_id = build_world(n_rows=2000)
    sieve = sieve_factory(db, store)
    stop = threading.Event()
    errors: list[Exception] = []
    observed: list[tuple] = []  # (querier, sql, sorted rows)
    lock = threading.Lock()

    def client_loop(querier):
        i = 0
        while not stop.is_set():
            sql = QUERIES[i % len(QUERIES)]
            i += 1
            try:
                rows = sorted(server.execute(sql, querier, "analytics", timeout=120).rows)
            except ServiceOverloadedError:
                continue
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)
                return
            with lock:
                observed.append((querier, sql, rows))

    with SieveServer(sieve, workers=4, max_pending=256) as server:
        clients = [
            threading.Thread(target=client_loop, args=(PROBED_QUERIERS[i % 4],))
            for i in range(8)
        ]
        churner = threading.Thread(target=churn, args=(store, grant, next_id, stop))
        for thread in [*clients, churner]:
            thread.start()
        time.sleep(2.0)
        stop.set()
        for thread in [*clients, churner]:
            thread.join(timeout=60)

    # Oracle: a fresh single-threaded middleware over the final corpus.
    # Probed queriers' grants were never semantically changed by either
    # churn design, so every concurrent observation must match.
    oracle_sieve = sieve_factory(db, store)
    oracle = {
        (q, sql): sorted(oracle_sieve.execute(sql, q, "analytics").rows)
        for q in PROBED_QUERIERS
        for sql in QUERIES
    }
    mismatches = [
        (q, sql) for q, sql, rows in observed if rows != oracle[(q, sql)]
    ]
    return mismatches, errors, len(observed)


def _disjoint_churn(store, grant, next_id, stop):
    """Insert/delete policies for queriers nobody queries."""
    inserted = []
    while not stop.is_set():
        for querier in CHURN_QUERIERS:
            inserted.append(store.insert(grant(querier, len(inserted) % N_OWNERS)))
        if len(inserted) > 20:
            store.delete(inserted.pop(0).id)
        time.sleep(0.001)


def _identity_update_churn(store, grant, next_id, stop):
    """update() a *queried* policy to an identical replacement; a
    half-applied view (deleted but not yet re-inserted) would shrink
    the querier's visible rows."""
    target = store.policies_for(PROBED_QUERIERS[0], "analytics", TABLE)[0]
    while not stop.is_set():
        store.update(target)
        time.sleep(0.0005)


@pytest.mark.parametrize("churn", [_disjoint_churn, _identity_update_churn],
                         ids=["disjoint-churn", "identity-update-churn"])
def test_stress_bundled_engine_matches_oracle(churn):
    mismatches, errors, served = _stress(lambda db, store: Sieve(db, store), churn)
    assert not errors, errors[:3]
    assert served > 0
    assert not mismatches, f"{len(mismatches)} wrong-row results of {served}"


@pytest.mark.parametrize("churn", [_disjoint_churn, _identity_update_churn],
                         ids=["disjoint-churn", "identity-update-churn"])
def test_stress_sqlite_backend_matches_oracle(churn):
    def factory(db, store):
        return Sieve(db, store, backend=SqliteBackend().ship(db))

    mismatches, errors, served = _stress(factory, churn)
    assert not errors, errors[:3]
    assert served > 0
    assert not mismatches, f"{len(mismatches)} wrong-row results of {served}"


# ------------------------------------------------------- audited stress


def test_audited_stress_one_record_per_served_request():
    """8 client threads against an audited server with a tiny admission
    queue, so backpressure rejections and client retries are constant:
    the decision chain must still verify, and it must hold *exactly*
    one record per served request — a rejected submission never reached
    the middleware (no record), a retried one records once per serve
    (no loss, no duplicates)."""
    db, store, _grant, _ = build_world(n_rows=800)
    sieve = Sieve(db, store)
    log = sieve.enable_audit()
    stop = threading.Event()
    errors: list[Exception] = []
    served: list[tuple] = []  # (querier, sql) per successful execute
    rejected = [0]
    lock = threading.Lock()

    def client_loop(querier):
        i = 0
        while not stop.is_set():
            sql = QUERIES[i % len(QUERIES)]
            i += 1
            try:
                server.execute(sql, querier, "analytics", timeout=120)
            except ServiceOverloadedError:
                with lock:
                    rejected[0] += 1
                continue
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)
                return
            with lock:
                served.append((querier, sql))

    with SieveServer(sieve, workers=4, max_pending=4) as server:
        clients = [
            threading.Thread(target=client_loop, args=(PROBED_QUERIERS[i % 4],))
            for i in range(8)
        ]
        for thread in clients:
            thread.start()
        time.sleep(1.5)
        stop.set()
        for thread in clients:
            thread.join(timeout=60)

    assert not errors, errors[:3]
    assert served, "stress run served nothing"
    assert rejected[0] > 0, "tiny queue never backpressured: not a stress run"
    # Stopping the server flushed every worker's buffer; the chain
    # must verify and account for each served request exactly once.
    assert log.verify() == len(served)
    assert sorted((str(r.querier), r.sql) for r in log.records()) == sorted(
        (str(q), s) for q, s in served
    )
    assert 0 < log.flushes <= len(served)  # every flush chained at least one record
