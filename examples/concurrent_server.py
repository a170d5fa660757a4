"""Serve concurrent querier sessions through a SieveServer.

One Sieve pipeline, a pool of worker threads, many clients: requests
are admitted into a bounded queue, batched by (querier, purpose),
executed against a consistent policy snapshot through the shared
guard cache, and resolved as futures.  The demo also shows the two
service-tier failure modes being *explicit*: backpressure
(ServiceOverloadedError from a full queue) and per-request errors
travelling through the future instead of killing a worker.

Run:  python examples/concurrent_server.py
"""

from concurrent.futures import wait

from repro import connect
from repro.core import Sieve
from repro.policy import GroupDirectory, ObjectCondition, Policy, PolicyStore
from repro.service import ServiceOverloadedError, SieveServer
from repro.storage.schema import ColumnType, Schema


def build_world():
    """A small campus: WiFi events owned by 12 students, with three
    professors granted overlapping views for distinct purposes."""
    db = connect("mysql")
    db.create_table(
        "WiFi_Dataset",
        Schema.of(
            ("id", ColumnType.INT),
            ("wifiAP", ColumnType.INT),
            ("owner", ColumnType.INT),
            ("ts_time", ColumnType.TIME),
            ("ts_date", ColumnType.DATE),
        ),
    )
    db.insert(
        "WiFi_Dataset",
        [
            (i, 1200 + i % 4, i % 12, 8 * 60 + (i * 13) % 660, i % 14)
            for i in range(4000)
        ],
    )
    for column in ("owner", "wifiAP", "ts_date"):
        db.create_index("WiFi_Dataset", column)
    db.analyze()

    store = PolicyStore(db, GroupDirectory())
    pid = 0
    for querier in ("Prof.Smith", "Prof.Jones", "Prof.Lee"):
        for owner in range(12):
            pid += 1
            store.insert(
                Policy(
                    owner=owner,
                    querier=querier,
                    purpose="analytics",
                    table="WiFi_Dataset",
                    object_conditions=(
                        ObjectCondition("owner", "=", owner),
                        ObjectCondition("ts_time", ">=", 9 * 60, "<=", 15 * 60),
                    ),
                    id=pid,
                )
            )
    return db, store


def main() -> None:
    db, store = build_world()
    sieve = Sieve(db, store)

    queries = [
        "SELECT COUNT(*) FROM WiFi_Dataset",
        "SELECT owner, COUNT(*) FROM WiFi_Dataset GROUP BY owner",
        "SELECT * FROM WiFi_Dataset WHERE ts_date BETWEEN 2 AND 5",
    ]
    queriers = ["Prof.Smith", "Prof.Jones", "Prof.Lee"]

    # 1. Fan 60 requests from three queriers through a 4-worker pool.
    with SieveServer(sieve, workers=4) as server:
        futures = [
            server.submit(queries[i % len(queries)], queriers[i % 3], "analytics")
            for i in range(60)
        ]
        wait(futures)
        results = [f.result() for f in futures]
        stats = server.stats()

    print(f"served {stats.requests} requests in {stats.batches} batches "
          f"(mean batch {stats.mean_batch_size:.1f}) on {stats.workers} workers")
    print(f"latency p50/p95: {stats.latency.p50_ms:.2f} / "
          f"{stats.latency.p95_ms:.2f} ms   "
          f"queue wait p95: {stats.queue_wait.p95_ms:.2f} ms")
    print(f"guard cache: {sieve.guard_cache.stats.hits} hits, "
          f"{sieve.guard_cache.stats.misses} misses; "
          f"plan cache: {sieve.plan_cache.stats.hits} hits")
    count_row = results[0].rows[0][0]
    print(f"Prof.Smith sees {count_row} of {db.catalog.table('WiFi_Dataset').row_count} events")

    # 2. Backpressure: a one-slot queue sheds load explicitly instead
    #    of queueing without bound.
    tiny = SieveServer(sieve, workers=1, max_pending=1)
    rejected = 0
    with tiny:
        futures = []
        for _ in range(50):
            try:
                futures.append(tiny.submit(queries[0], "Prof.Smith", "analytics"))
            except ServiceOverloadedError:
                rejected += 1
        wait(futures)
    print(f"one-slot queue: {len(futures)} admitted, {rejected} shed "
          f"(ServiceOverloadedError = backpressure, not failure)")

    # 3. Failures resolve the future, never the worker pool.
    with SieveServer(sieve, workers=2) as server:
        bad = server.submit("SELECT nonsense FROM missing_table", "Prof.Smith", "analytics")
        good = server.submit(queries[0], "Prof.Smith", "analytics")
        try:
            bad.result()
        except Exception as exc:
            print(f"bad query failed its own future: {type(exc).__name__}")
        print(f"...while the pool kept serving: {good.result().rows[0][0]} rows counted")


if __name__ == "__main__":
    main()
