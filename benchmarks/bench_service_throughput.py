"""Serving-tier throughput: queries/sec vs worker count and querier count.

Not a paper figure: this measures the concurrent serving tier
(``repro/service``) added on top of the reproduction.  Workload
mirrors Experiment 5 (Figure 6): the Mall dataset with shops as
queriers, each holding a few hundred policies over
``WiFi_Connectivity``; a closed-loop load generator
(:mod:`repro.bench.loadgen`) drives a :class:`~repro.service.SieveServer`
and reports aggregate queries/sec plus client-observed p50/p95/p99
latency.

Two engines, same middleware:

* **sqlite backend** — rewrites execute on real SQLite over
  per-thread connections.  SQLite releases the GIL while stepping, so
  with the plan cache keeping warm-path Python under ~3% of request
  time, throughput scales with workers as far as the *cores* allow.
* **bundled engine** — the pure-Python engine holds the GIL for the
  whole execution; workers buy concurrency (latency overlap), never
  parallelism.  Expected shape: flat.  This is the control that shows
  the scaling above comes from the engine, not the scheduler.

The scaling assertion is therefore machine-aware: on hosts with >= 4
CPUs (e.g. CI runners) SQLite must reach >= 2x aggregate queries/sec
from 1 -> 4 workers; on smaller hosts the assertion degrades to a
no-collapse bound (>= 0.5x), because thread parallelism cannot beat
the core count.  Failure counts must be zero everywhere, always.

``SIEVE_BENCH_SERVICE_DURATION`` (seconds, default 2.0) stretches the
measured window, e.g. for quieter percentiles on a loaded machine.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from functools import lru_cache

from repro.backend import SqliteBackend
from repro.bench.loadgen import ClientScript, run_closed_loop
from repro.bench.results import format_table, write_result
from repro.bench.scenarios import mall_policies_for_shop
from repro.core import Sieve
from repro.datasets.mall import MallConfig, generate_mall
from repro.policy.store import PolicyStore
from repro.service import SieveServer

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

WORKER_SWEEP = [1, 2, 4]
CLIENT_SWEEP = [2, 6, 12]
N_SHOPS = 6
DURATION_S = float(os.environ.get("SIEVE_BENCH_SERVICE_DURATION", "2.0"))
#: Queries cycled by every client: COUNT-style aggregates so the work
#: is enforcement + scan, not Python-side row marshalling.
SQLS = [
    "SELECT COUNT(*) FROM WiFi_Connectivity",
    "SELECT owner, COUNT(*) FROM WiFi_Connectivity GROUP BY owner",
    "SELECT COUNT(*) FROM WiFi_Connectivity WHERE ts_time BETWEEN 600 AND 1200",
]


def _warm(sieve: Sieve, mall, shops) -> None:
    """Pay guard generation + first rewrite offline, as the paper's
    warm-performance methodology does (the bench measures serving, not
    the one-time cold path the session-cache bench already covers)."""
    for shop in shops:
        querier = mall.shop_querier(shop)
        for sql in SQLS:
            sieve.execute(sql, querier, "any")


@lru_cache(maxsize=1)
def sqlite_world():
    """Big Mall (≈150k events) + 400 policies/shop on a file-backed
    SQLite backend — sized so warm per-request time is dominated by
    engine execution (the parallelizable part)."""
    mall = generate_mall(
        MallConfig(seed=13, n_customers=1500, days=60, personality="postgres")
    )
    store = PolicyStore(mall.db, mall.groups)
    shops = mall.shops[:N_SHOPS]
    for shop in shops:
        store.insert_many(mall_policies_for_shop(mall, shop, 400))
    path = os.path.join(tempfile.mkdtemp(prefix="sieve-bench-"), "mall.db")
    backend = SqliteBackend(path).ship(mall.db)
    sieve = Sieve(mall.db, store, backend=backend)
    _warm(sieve, mall, shops)
    return mall, sieve, shops


@lru_cache(maxsize=1)
def bundled_world():
    """Fig. 6-scale Mall (≈37k events) + 150 policies/shop on the
    bundled engine — the GIL control."""
    mall = generate_mall(
        MallConfig(seed=13, n_customers=900, days=25, personality="postgres")
    )
    store = PolicyStore(mall.db, mall.groups)
    shops = mall.shops[:N_SHOPS]
    for shop in shops:
        store.insert_many(mall_policies_for_shop(mall, shop, 150))
    sieve = Sieve(mall.db, store)
    _warm(sieve, mall, shops)
    return mall, sieve, shops


def _scripts(mall, shops, n_clients: int) -> list[ClientScript]:
    return [
        ClientScript(
            querier=mall.shop_querier(shops[i % len(shops)]),
            purpose="any",
            sqls=SQLS,
        )
        for i in range(n_clients)
    ]


def _run_config(sieve: Sieve, scripts, workers: int):
    server = SieveServer(sieve, workers=workers, max_pending=4096)
    with server:
        report = run_closed_loop(server, scripts, duration_s=DURATION_S)
    return report, server.stats()


def test_service_throughput_scaling(benchmark):
    results: list[dict] = []

    def run():
        results.clear()
        for engine, world in (("sqlite", sqlite_world), ("bundled", bundled_world)):
            mall, sieve, shops = world()
            scripts = _scripts(mall, shops, N_SHOPS)
            for workers in WORKER_SWEEP:
                report, stats = _run_config(sieve, scripts, workers)
                results.append(
                    {
                        "engine": engine,
                        "workers": workers,
                        "clients": report.clients,
                        "qps": report.throughput_qps,
                        "p50_ms": report.latency.p50_ms,
                        "p95_ms": report.latency.p95_ms,
                        "p99_ms": report.latency.p99_ms,
                        "rejected": report.rejected,
                        "failed": report.failed,
                        "completed": report.completed,
                        "batches": stats.batches,
                    }
                )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [
            r["engine"], r["workers"], r["clients"], f"{r['qps']:,.0f}",
            f"{r['p50_ms']:,.2f}", f"{r['p95_ms']:,.2f}", f"{r['p99_ms']:,.2f}",
            r["rejected"], r["failed"],
        ]
        for r in results
    ]
    table = format_table(
        ["engine", "workers", "clients", "qps", "p50 ms", "p95 ms", "p99 ms",
         "rejected", "failed"],
        rows,
    )
    cpus = os.cpu_count() or 1
    write_result(
        "service_throughput",
        "Serving tier — aggregate throughput vs worker count (Fig. 6 workload)",
        table,
        data=results,
        notes=(
            f"Closed loop, {N_SHOPS} clients (one per shop querier), "
            f"{DURATION_S:.1f}s per configuration, host cpus={cpus}. "
            "Expected shape: on >= 4 cores the sqlite backend scales >= 2x "
            "from 1 -> 4 workers (per-thread connections release the GIL "
            "while stepping); the bundled pure-Python engine stays flat at "
            "any core count — workers overlap latency, the GIL serializes "
            "execution.  Failed requests must be 0 in every row."
        ),
    )

    by = {(r["engine"], r["workers"]): r for r in results}
    sq1, sq4 = by[("sqlite", 1)]["qps"], by[("sqlite", 4)]["qps"]
    b1, b4 = by[("bundled", 1)]["qps"], by[("bundled", 4)]["qps"]
    # Repo-root serving-tier snapshot (same schema family as
    # BENCH_engine.json / BENCH_cluster.json) so the perf trajectory
    # tracks the serving tier at the top level, not just the engine.
    payload = {
        "workload": "fig6-mall-serving",
        "duration_s": DURATION_S,
        "cpus": cpus,
        "configs": results,
        "scaling_1to4_sqlite": round(sq4 / sq1, 2) if sq1 else 0.0,
        "scaling_1to4_bundled": round(b4 / b1, 2) if b1 else 0.0,
        "min_sqlite_scaling_asserted_on_4cpu_hosts": 2.0,
    }
    (REPO_ROOT / "BENCH_service.json").write_text(json.dumps(payload, indent=2) + "\n")

    assert all(r["failed"] == 0 for r in results), f"failed requests: {results}"
    assert all(r["completed"] > 0 for r in results)
    if cpus >= 4:
        assert sq4 >= 2.0 * sq1, (
            f"sqlite backend must scale >= 2x from 1 -> 4 workers on a "
            f"{cpus}-cpu host: {sq1:.0f} -> {sq4:.0f} qps"
        )
    else:
        # Physics bound: threads cannot outrun the cores.  Guard only
        # against the scheduler *collapsing* under more workers.
        assert sq4 >= 0.5 * sq1, (
            f"4-worker sqlite throughput collapsed on a {cpus}-cpu host: "
            f"{sq1:.0f} -> {sq4:.0f} qps"
        )
    assert b4 >= 0.5 * b1, (
        f"bundled-engine throughput collapsed under workers: {b1:.0f} -> {b4:.0f}"
    )


def test_service_latency_vs_queriers(benchmark):
    """Latency under growing client counts at a fixed 4-worker pool.

    Closed-loop queueing: doubling the clients past the service
    capacity must show up as queue-wait (p95 grows), never as failures
    — and when several clients share a querier, the scheduler batches
    them (mean batch size > 1)."""
    results: list[dict] = []

    def run():
        results.clear()
        mall, sieve, shops = sqlite_world()
        for n_clients in CLIENT_SWEEP:
            report, stats = _run_config(sieve, _scripts(mall, shops, n_clients), 4)
            results.append(
                {
                    "clients": n_clients,
                    "qps": report.throughput_qps,
                    "p50_ms": report.latency.p50_ms,
                    "p95_ms": report.latency.p95_ms,
                    "p99_ms": report.latency.p99_ms,
                    "mean_batch": stats.mean_batch_size,
                    "failed": report.failed,
                }
            )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [r["clients"], f"{r['qps']:,.0f}", f"{r['p50_ms']:,.2f}",
         f"{r['p95_ms']:,.2f}", f"{r['p99_ms']:,.2f}", f"{r['mean_batch']:.2f}",
         r["failed"]]
        for r in results
    ]
    write_result(
        "service_latency_queriers",
        "Serving tier — latency vs concurrent queriers (4 workers)",
        format_table(
            ["clients", "qps", "p50 ms", "p95 ms", "p99 ms", "mean batch", "failed"],
            rows,
        ),
        data=results,
        notes=(
            "Closed loop on the sqlite backend.  More clients than service "
            "slots shows up as queue wait (p95 grows with clients) and, for "
            "clients sharing a querier, as admission batching (mean batch "
            "> 1 at 12 clients over 6 queriers); failures stay 0."
        ),
    )

    assert all(r["failed"] == 0 for r in results)
    assert results[-1]["p95_ms"] >= results[0]["p95_ms"], (
        "queueing must surface as latency when clients exceed capacity"
    )
    assert results[-1]["mean_batch"] > 1.0, (
        "same-querier clients must get batched under load"
    )
