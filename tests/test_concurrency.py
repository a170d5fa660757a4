"""Thread-safety regressions for the primitives under the serving tier.

The seed's guard cache, SqliteBackend, and DeltaOperator were all
single-thread-only (bare OrderedDict mutation, one sqlite3 connection
pinned to its creating thread, unregister-then-register windows);
each test here is the hammer that caught or would have caught the
corresponding corruption.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import connect
from repro.backend import SqliteBackend
from repro.common.concurrency import RWLock, SingleFlight
from repro.core import Sieve
from repro.core.cache import CachedPlan, PlanCache
from repro.policy import GroupDirectory, ObjectCondition, Policy, PolicyStore
from repro.storage.schema import ColumnType, Schema

N_THREADS = 8


def _run_threads(target, n=N_THREADS, args_for=None):
    errors: list[BaseException] = []

    def wrapped(i):
        try:
            target(*(args_for(i) if args_for else (i,)))
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


# ------------------------------------------------------------------- RWLock


def test_rwlock_writers_exclusive_readers_shared():
    lock = RWLock()
    state = {"value": 0, "concurrent_readers": 0, "max_readers": 0}
    guard = threading.Lock()

    def writer(_i):
        for _ in range(200):
            with lock.write_locked():
                before = state["value"]
                state["value"] = before + 1  # lost update iff not exclusive

    def reader(_i):
        for _ in range(200):
            with lock.read_locked():
                with guard:
                    state["concurrent_readers"] += 1
                    state["max_readers"] = max(
                        state["max_readers"], state["concurrent_readers"]
                    )
                with guard:
                    state["concurrent_readers"] -= 1

    errors = _run_threads(
        lambda i: (writer if i % 2 else reader)(i), n=N_THREADS
    )
    assert not errors
    assert state["value"] == 200 * (N_THREADS // 2)


def test_rwlock_write_reentrant_and_read_under_write():
    lock = RWLock()
    with lock.write_locked():
        with lock.write_locked():  # update() nests insert()
            with lock.read_locked():  # listener reads under own write
                assert lock.write_depth() >= 1
    assert lock.write_depth() == 0


def _acquirable_within(acquire, release, timeout_s=2.0):
    """True iff ``acquire()`` (then ``release()``) completes within the
    budget on a helper thread — probes for a leaked hold without ever
    deadlocking the test suite."""
    done = threading.Event()

    def probe():
        acquire()
        release()
        done.set()

    threading.Thread(target=probe, daemon=True).start()
    return done.wait(timeout_s)


def test_rwlock_released_when_read_body_raises():
    lock = RWLock()
    with pytest.raises(ValueError):
        with lock.read_locked():
            raise ValueError("reader body failed")
    # A leaked read hold would block this writer forever.
    assert _acquirable_within(lock.acquire_write, lock.release_write)


def test_rwlock_released_when_write_body_raises():
    lock = RWLock()
    with pytest.raises(ValueError):
        with lock.write_locked():
            raise ValueError("writer body failed")
    assert lock.write_depth() == 0
    assert _acquirable_within(lock.acquire_write, lock.release_write)
    assert _acquirable_within(lock.acquire_read, lock.release_read)


# -------------------------------------------------------------- SingleFlight


def test_single_flight_runs_builder_once():
    flight = SingleFlight()
    calls = []
    gate = threading.Event()
    results = []

    def build():
        calls.append(1)
        gate.wait(timeout=5)
        return "built"

    def worker(_i):
        value, _leader = flight.do("key", build)
        results.append(value)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
    for t in threads:
        t.start()
    time.sleep(0.05)  # let every follower reach the wait
    gate.set()
    for t in threads:
        t.join()
    assert len(calls) == 1
    assert results == ["built"] * N_THREADS
    assert flight.in_flight() == 0


def test_single_flight_propagates_exception_then_retries():
    flight = SingleFlight()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        flight.do("k", boom)
    value, leader = flight.do("k", lambda: 42)  # key was cleared
    assert value == 42 and leader


def test_single_flight_leader_crash_reaches_every_waiter_once():
    """A crashing leader must fail each concurrent waiter with the
    *same* exception, exactly once per waiter, while running the
    builder exactly once — and must leave the key clear for a retry."""
    flight = SingleFlight()
    calls = []
    gate = threading.Event()  # set once the leader is inside build()
    release = threading.Event()
    boom = RuntimeError("leader crashed")

    def build():
        calls.append(1)
        gate.set()
        release.wait(timeout=5)
        raise boom

    seen: list[BaseException] = []
    seen_lock = threading.Lock()

    def worker(i):
        if i > 0:
            gate.wait(timeout=5)  # guarantee thread 0 leads
        try:
            flight.do("k", build)
        except RuntimeError as exc:
            with seen_lock:
                seen.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
    threads[0].start()
    gate.wait(timeout=5)
    for t in threads[1:]:
        t.start()
    time.sleep(0.1)  # let every follower reach the flight's wait
    release.set()
    for t in threads:
        t.join()
    assert len(calls) == 1  # the builder ran once, in the leader
    assert len(seen) == N_THREADS  # each waiter failed exactly once
    assert all(exc is boom for exc in seen)  # ...with the leader's exception
    assert flight.in_flight() == 0
    value, leader = flight.do("k", lambda: "rebuilt")  # key was cleared
    assert value == "rebuilt" and leader


# -------------------------------------------------------- the plan cache


def _policy(querier, table="T", pid=1):
    return Policy(
        owner=1,
        querier=querier,
        purpose="p",
        table=table,
        object_conditions=(ObjectCondition("owner", "=", 1),),
        id=pid,
    )


def test_fenced_cache_hammer_8_threads():
    """The satellite regression: concurrent lookup/admit/invalidate/
    mutation over a tiny LRU (constant eviction churn), driven the way
    the middleware drives the plan cache.  The seed's unlocked
    OrderedDict died here with RuntimeError/KeyError."""
    cache = PlanCache(capacity=8)
    groups = GroupDirectory()
    queriers = [f"q{i}" for i in range(4)]
    tables = ["t1", "t2", "t3"]

    def worker(i):
        querier = queriers[i % len(queriers)]
        for n in range(400):
            table = tables[n % len(tables)]
            epoch = n % 5
            key = (querier, "p", table, ())
            if cache.lookup(key, epoch, ("v",)) is None:
                cache.admit(
                    key, CachedPlan(querier, frozenset({table}), epoch, ("v",), None, None, None, 0)
                )
            if n % 17 == 0:
                cache.invalidate(querier=querier)
            if n % 29 == 0:
                cache.on_policy_mutation(
                    "insert", _policy(querier, table=table), epoch + 1, groups
                )
            if n % 43 == 0:
                cache.keys()
                cache.queriers()
                len(cache)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside the critical sections
    try:
        errors = _run_threads(worker)
    finally:
        sys.setswitchinterval(old_interval)
    assert not errors, errors[:3]
    assert len(cache) <= 8
    stats = cache.stats
    assert stats.hits + stats.misses == N_THREADS * 400  # no lost update under the lock


# ---------------------------------------------------------- the guard tier


def _tier_world(queriers):
    """A small WiFi table and one owner policy per (querier, owner)."""
    db = connect("mysql")
    db.create_table("wifi", Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT)))
    db.insert("wifi", [(i, i % 6) for i in range(120)])
    db.create_index("wifi", "owner")
    db.analyze()
    store = PolicyStore(db, GroupDirectory())
    store.insert_many(
        Policy(owner=owner, querier=querier, purpose="p", table="wifi",
               object_conditions=(ObjectCondition("owner", "=", owner),))
        for querier in queriers
        for owner in range(3)
    )
    return db, store, Sieve(db, store)


def test_guard_tier_hammer_8_threads():
    """Eight threads resolve through the guard tier while they write
    and revoke policies and drop entries: no lookup is counted twice or
    lost, and every answer holds exactly the policies of the epoch the
    request was pinned to — a stale stamp would show here."""
    queriers = [f"q{i}" for i in range(4)]
    _db, store, sieve = _tier_world(queriers)
    tier = sieve.guard_store
    rounds = 60

    def worker(i):
        querier = queriers[i % len(queriers)]
        written = None
        for n in range(rounds):
            snapshot = store.snapshot()
            entry, _rebuilt = tier.resolve(querier, "p", "wifi", snapshot, sieve._generation)
            want = {p.id for p in snapshot.policies_for(querier, "p", "wifi")}
            assert {p.id for p in entry.policies} == want, (querier, snapshot.epoch)
            assert (entry.expression is None) == (not want)
            if n % 7 == 3:
                if written is None:
                    written = store.insert(
                        Policy(owner=3 + i % 3, querier=querier, purpose="p", table="wifi",
                               object_conditions=(ObjectCondition("owner", "=", 3 + i % 3),))
                    )
                else:
                    store.delete(written.id)
                    written = None
            if n % 23 == 11:
                tier.invalidate(querier=querier)
            if n % 19 == 0:
                tier.keys()
                tier.queriers()
                len(tier)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside the critical sections
    try:
        errors = _run_threads(worker)
    finally:
        sys.setswitchinterval(old_interval)
    assert not errors, errors[:3]
    stats = tier.stats
    assert stats.hits + stats.misses == N_THREADS * rounds  # no lost update
    assert stats.hits > 0 and stats.invalidations > 0


def test_a_held_build_blocks_no_warm_read():
    """While querier A's guard build is held on an Event (holding the
    tier's build lock), querier B's warm requests — a fresh literal, so
    the plan misses and B's guards are resolved — return."""
    _db, store, sieve = _tier_world(["a", "b"])
    sql = "SELECT id FROM wifi WHERE id < {}"
    sieve.serve(sql.format(100), "b", "p")  # b is warm
    inside, release = threading.Event(), threading.Event()
    generation = sieve._generation

    def held(querier, purpose, table, policies):
        builder, maintain = generation(querier, purpose, table, policies)

        def held_builder():
            inside.set()
            assert release.wait(timeout=10)
            return builder()

        return held_builder, maintain

    sieve._generation = held
    cold = threading.Thread(target=sieve.serve, args=(sql.format(100), "a", "p"))
    cold.start()
    try:
        assert inside.wait(timeout=10)
        assert not sieve.guard_store.lock.acquire(blocking=False)  # a holds it
        hits = sieve.guard_store.stats.hits
        done = []
        warm = threading.Thread(
            target=lambda: done.extend(
                sieve.serve(sql.format(n), "b", "p").result.rows for n in (50, 60)
            )
        )
        warm.start()
        warm.join(timeout=10)
        assert not warm.is_alive() and len(done) == 2
        assert sieve.guard_store.stats.hits == hits + 2
    finally:
        release.set()
        cold.join(timeout=10)
    assert not cold.is_alive()


def test_compiled_expr_cache_counts_every_lookup_8_threads():
    """The compiled-expression cache counts its own traffic under its
    lock: eight threads hammering one Database's cache — identity and
    structural lookups, stores, a tiny key space — lose no count."""
    from repro.expr.nodes import ColumnRef, CompareOp, Comparison, Literal

    cache = connect("mysql").expr_cache
    exprs = [Comparison(CompareOp.EQ, ColumnRef("a"), Literal(i)) for i in range(6)]
    rounds = 500

    def worker(i):
        for n in range(rounds):
            expr, extra = exprs[(i + n) % len(exprs)], ((), "row")
            by_identity = n % 3 != 0
            if cache.lookup(expr, extra, by_identity) is None:
                cache.store(expr, extra, len, by_identity)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleavings inside the critical sections
    try:
        errors = _run_threads(worker)
    finally:
        sys.setswitchinterval(old_interval)
    assert not errors, errors[:3]
    assert cache.hits + cache.misses == N_THREADS * rounds
    assert cache.misses >= len(exprs)


# ------------------------------------------------------------ SqliteBackend


def _shipped_backend(path=":memory:"):
    db = connect("mysql")
    db.create_table(
        "t", Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT))
    )
    db.insert("t", [(i, i % 3) for i in range(250)])
    db.create_index("t", "owner")
    return db, SqliteBackend(path).ship(db)


def test_sqlite_backend_usable_from_other_threads():
    """Satellite regression: the seed raised sqlite3.ProgrammingError
    ('objects created in a thread can only be used in that same
    thread') on the first cross-thread execute."""
    _db, backend = _shipped_backend()

    def worker(_i):
        for _ in range(40):
            result = backend.execute('SELECT COUNT(*) FROM "t"')
            assert result.rows[0][0] == 250

    errors = _run_threads(worker)
    assert not errors, errors[:3]
    backend.close()


def test_sqlite_backend_memory_is_shared_across_threads():
    """Per-thread connections to ':memory:' must see one dataset, not
    eight empty private databases."""
    _db, backend = _shipped_backend(":memory:")
    counts = []

    def worker(_i):
        counts.append(backend.execute('SELECT COUNT(*) FROM "t"').rows[0][0])

    errors = _run_threads(worker)
    assert not errors, errors[:3]
    assert counts == [250] * N_THREADS
    backend.close()


def test_sqlite_backend_udf_replayed_on_late_threads():
    db, backend = _shipped_backend()
    backend.register_udf("plus_one", lambda x: x + 1)
    seen = []

    def worker(_i):
        seen.append(backend.execute("SELECT plus_one(41)").rows[0][0])

    errors = _run_threads(worker)
    assert not errors, errors[:3]
    assert seen == [42] * N_THREADS
    # Re-registration replaces the function on every thread's
    # connection at its next use (version bump).
    backend.register_udf("plus_one", lambda x: x + 2)
    assert backend.execute("SELECT plus_one(41)").rows[0][0] == 43
    errors = _run_threads(worker)
    assert not errors
    assert seen[-N_THREADS:] == [43] * N_THREADS
    backend.close()


# ------------------------------------------------------------ DeltaOperator


def test_delta_sync_prefix_never_exposes_missing_keys():
    """Re-syncing an unchanged expression must keep its keys callable
    throughout — the seed's unregister-then-register opened a window
    where a concurrent Δ call raised 'unregistered guard key'."""
    from repro.core.delta import DeltaOperator
    from repro.core.guards import Guard

    db = connect("mysql")
    db.create_table(
        "W",
        Schema.of(
            ("id", ColumnType.INT),
            ("owner", ColumnType.INT),
            ("ts_time", ColumnType.TIME),
        ),
    )
    delta = DeltaOperator.for_database(db)
    policy = Policy(
        owner=7,
        querier="q",
        purpose="p",
        table="W",
        object_conditions=(
            ObjectCondition("owner", "=", 7),
            ObjectCondition("ts_time", ">=", 0, "<=", 600),
        ),
        id=1,
    )
    guard = Guard(
        condition=ObjectCondition("owner", "=", 7),
        policies=[policy],
        cardinality=1.0,
    )
    registrations = {"q|p|W|0": (guard, "W")}
    delta.sync_prefix("q|p|W|", registrations)
    stop = threading.Event()
    errors: list[BaseException] = []

    def caller():
        fn = db.function("sieve_delta")
        while not stop.is_set():
            try:
                assert fn("q|p|W|0", 1, 7, 100) is True
                assert fn("q|p|W|0", 1, 8, 100) is False
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
                return

    def syncer():
        while not stop.is_set():
            delta.sync_prefix("q|p|W|", registrations)

    threads = [threading.Thread(target=caller) for _ in range(4)] + [
        threading.Thread(target=syncer) for _ in range(2)
    ]
    for t in threads:
        t.start()
    time.sleep(0.5)
    stop.set()
    for t in threads:
        t.join()
    assert not errors, errors[:3]
    assert delta.registered_keys == ["q|p|W|0"]
