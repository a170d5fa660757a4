"""Health & SLO tier: histogram accuracy, instrumentation overhead,
SLO-aware shedding under overload, and health-aware cluster routing.

Four acceptance claims for the PR 8 health tier, all on the Fig. 6
(Experiment 5) Mall workload:

* **histogram accuracy** — the log-bucketed
  :class:`~repro.obs.histogram.LatencyHistogram` reproduces the exact
  p50/p95/p99 of the measured per-request latency population within
  its documented relative error bound (``sqrt(growth) - 1`` ≈ 2.47%
  at the default 5% bucket growth).
* **overhead < 3%** — a server with the full health stack armed
  (burn-rate monitor ticking, adaptive shedder consulted on every
  admission) serves the same closed-loop workload within 3% of one
  without.  As in ``bench_obs.py``, the *reported* overhead is the
  median across attempts and the ceiling assertion gates on the best
  one — wall-clock ratios on a shared host are noisy and the claim is
  about the floor.
* **overload burst** — offered load at 2x measured capacity for a few
  seconds.  The naive bounded queue serves everything it admits and
  blows far through the latency budget; the SLO-aware shedder clamps
  admission when the fast burn fires and keeps the *served* p99
  within budget at a bounded, reported reject rate.  Both servers get
  a 1s reaction window before the measured window opens (steady-state
  overload measurement: the detection transient is inherent — the
  burn signal lags by about one latency budget — and identical for
  both configurations).  Like the overhead ratios, the p99s live in
  the wall-clock noise tail, so a marginal attempt is retried (up to
  ``MAX_ATTEMPTS``).
* **degraded-shard reroute** — a 3-shard cluster with one shard
  artificially slowed flips that shard to ``degraded`` on the next
  :meth:`~repro.cluster.coordinator.SieveCluster.health_tick`, routes
  around it, returns row-identical results for every querier, and
  lifts the detour after the recovery hold once the shard is healed.

Results land in ``benchmarks/results/`` and the repo-root
``BENCH_health.json`` snapshot.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time
from functools import lru_cache

from repro.bench.loadgen import ClientScript, run_closed_loop, run_open_loop
from repro.bench.results import format_table, write_result
from repro.bench.scenarios import mall_policies_for_shop
from repro.cluster import SieveCluster
from repro.core import Sieve
from repro.datasets.mall import MallConfig, generate_mall
from repro.obs.histogram import LatencyHistogram
from repro.obs.slo import SLO
from repro.policy.store import PolicyStore
from repro.service import SieveServer
from repro.service.server import percentile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

N_SHOPS = 6
POLICIES_PER_SHOP = 150
WORKERS = 2
MAX_ATTEMPTS = 3
OVERHEAD_CEILING = 0.03
#: Steady-state overload window (seconds); the 1s reaction window is
#: extra.  Stretch on a loaded machine for quieter percentiles.
BURST_S = float(os.environ.get("SIEVE_BENCH_HEALTH_DURATION", "3.0"))
REACTION_S = 1.0
OVERLOAD_FACTOR = 2.0

SQLS = [
    "SELECT COUNT(*) FROM WiFi_Connectivity",
    "SELECT owner, COUNT(*) FROM WiFi_Connectivity GROUP BY owner",
    "SELECT COUNT(*) FROM WiFi_Connectivity WHERE ts_time BETWEEN 600 AND 1200",
]


@lru_cache(maxsize=1)
def mall_world():
    """Fig. 6-scale Mall on the bundled engine + per-shop policies."""
    mall = generate_mall(
        MallConfig(seed=13, n_customers=500, days=15, personality="postgres")
    )
    store = PolicyStore(mall.db, mall.groups)
    shops = mall.shops[:N_SHOPS]
    for shop in shops:
        store.insert_many(mall_policies_for_shop(mall, shop, POLICIES_PER_SHOP))
    return mall, store, shops


def _fresh_sieve() -> tuple[Sieve, list]:
    mall, store, shops = mall_world()
    sieve = Sieve(mall.db, store)
    workload = [(mall.shop_querier(shop), sql) for shop in shops for sql in SQLS]
    for querier, sql in workload:  # warm guards + plans off the clock
        sieve.execute(sql, querier, "any")
    return sieve, workload


def _scripts() -> list[ClientScript]:
    mall, _, shops = mall_world()
    return [
        ClientScript(querier=mall.shop_querier(shop), purpose="any", sqls=SQLS)
        for shop in shops
    ]


# ------------------------------------------------------------------ checks


def _histogram_accuracy(rounds: int = 40) -> dict:
    """Per-request wall latencies of the warm workload, recorded into
    both an exact sorted list and a LatencyHistogram; the histogram's
    quantiles must stay within its own error bound."""
    sieve, workload = _fresh_sieve()
    exact: list[float] = []
    hist = LatencyHistogram()
    for _ in range(rounds):
        for querier, sql in workload:
            start = time.perf_counter()
            sieve.execute(sql, querier, "any")
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            exact.append(elapsed_ms)
            hist.record_ms(elapsed_ms)
    exact.sort()
    out = {"samples": len(exact), "bound": hist.relative_error, "quantiles": {}}
    for q in (50, 95, 99):
        truth = percentile(exact, q)
        estimate = hist.percentile(q)
        rel = abs(estimate - truth) / truth if truth else 0.0
        out["quantiles"][f"p{q}"] = {
            "exact_ms": truth,
            "hist_ms": estimate,
            "rel_err": rel,
        }
    return out


def _measure_health_overhead(requests_per_client: int = 120) -> dict:
    """One attempt: same closed-loop workload on a bare server vs one
    with the burn-rate monitor + shedder armed (never actually
    shedding — the load is sustainable, so this prices the
    instrumentation, not the clamp)."""
    sieve, _ = _fresh_sieve()
    scripts = _scripts()

    def timed(arm_slo: bool) -> float:
        server = SieveServer(sieve, workers=WORKERS, max_pending=4096)
        if arm_slo:
            server.enable_slo(
                SLO(latency_ms=10_000.0, latency_target=0.99, short_window_s=1.0)
            )
        with server:
            report = run_closed_loop(
                server, scripts, requests_per_client=requests_per_client
            )
        assert report.failed == 0
        return report.duration_s

    # Alternate the configurations so host warm-up drift hits both
    # equally instead of flattering whichever runs second.
    plain_times, slo_times = [], []
    for _ in range(3):
        plain_times.append(timed(arm_slo=False))
        slo_times.append(timed(arm_slo=True))
    plain_s, slo_s = min(plain_times), min(slo_times)
    return {
        "plain_s": plain_s,
        "slo_s": slo_s,
        "overhead": slo_s / plain_s - 1.0,
    }


def _overload_burst() -> dict:
    """2x overload: naive bounded queue vs SLO-aware shedding."""
    sieve, _ = _fresh_sieve()
    scripts = _scripts()

    # Measured capacity: sustainable closed-loop qps at this worker
    # count — the denominator of the 2x.
    capacity_server = SieveServer(sieve, workers=WORKERS, max_pending=4096)
    with capacity_server:
        cap = run_closed_loop(capacity_server, scripts, duration_s=1.5)
    capacity_qps = cap.throughput_qps
    # Budget = 6x the sustainable p99: the shedder clamps the queue to
    # a quarter of the depth the budget could absorb, so the served p99
    # (queue wait plus service/scheduler tail) lands around half the
    # budget — the 6x keeps that comfortably clear of the boundary on a
    # loaded 1-2 cpu host while staying far below where the naive
    # queue ends up (tens of budgets).
    budget_ms = max(50.0, 6.0 * cap.latency.p99_ms)
    rate = OVERLOAD_FACTOR * capacity_qps

    def burst(shed: bool) -> dict:
        server = SieveServer(sieve, workers=WORKERS, max_pending=100_000)
        if shed:
            server.enable_slo(
                SLO(
                    latency_ms=budget_ms,
                    latency_target=0.95,
                    short_window_s=0.5,
                    long_window_s=10.0,
                    fast_burn=2.0,
                )
            )
        with server:
            reaction = run_open_loop(server, scripts, rate_qps=rate,
                                     duration_s=REACTION_S)
            measured = run_open_loop(server, scripts, rate_qps=rate,
                                     duration_s=BURST_S)
            stats = server.stats()
        return {
            "p50_ms": measured.latency.p50_ms,
            "p99_ms": measured.latency.p99_ms,
            "served": measured.completed,
            "rejected": measured.rejected,
            "reject_rate": measured.reject_rate,
            "reaction_rejected": reaction.rejected,
            "failed": measured.failed + reaction.failed,
            "sheds": stats.sheds,
        }

    naive = burst(shed=False)
    shed = burst(shed=True)
    return {
        "capacity_qps": capacity_qps,
        "offered_qps": rate,
        "budget_ms": budget_ms,
        "reaction_s": REACTION_S,
        "measured_s": BURST_S,
        "naive": naive,
        "shed": shed,
    }


def _burst_ok(burst: dict) -> bool:
    """The burst attempt's own acceptance shape (retry filter — the
    p99s sit in the wall-clock noise tail, so a marginal miss on a
    shared host warrants a fresh attempt, as with the overhead
    ratios)."""
    return (
        burst["naive"]["failed"] == 0
        and burst["shed"]["failed"] == 0
        and burst["naive"]["p99_ms"] > burst["budget_ms"]
        and burst["shed"]["p99_ms"] <= burst["budget_ms"]
        and burst["shed"]["sheds"] > 0
        and 0.0 < burst["shed"]["reject_rate"] < 0.8
    )


def _cluster_reroute() -> dict:
    """Slow one shard until its burn rate flags it; the coordinator
    must reroute around it with row-identical answers, then lift the
    detour after the recovery hold once healed."""
    mall, _, shops = mall_world()
    # A private store: the cluster detaches its partitions on stop.
    store = PolicyStore(mall.db, mall.groups)
    for shop in shops:
        store.insert_many(mall_policies_for_shop(mall, shop, POLICIES_PER_SHOP))
    queriers = [mall.shop_querier(shop) for shop in shops]
    cluster = SieveCluster.replicated(
        mall.db, store, n_shards=3, workers_per_shard=2
    )
    slo = SLO(
        latency_ms=20.0,
        latency_target=0.9,
        short_window_s=0.3,
        long_window_s=5.0,
        fast_burn=2.0,
    )
    cluster.configure_health(slo, recovery_hold_s=0.5)
    out: dict = {}
    with cluster:
        cluster.health_tick()
        baseline = {
            q: cluster.execute(SQLS[0], q, "any").rows for q in queriers
        }
        victim = cluster.route(queriers[0])
        victim_queriers = [q for q in queriers if cluster.route(q) == victim]
        cluster.slow_shard(victim, 0.06)
        for _ in range(4):
            for q in victim_queriers:
                cluster.execute(SQLS[0], q, "any")
        statuses = cluster.health_tick()
        out["victim"] = victim
        out["victim_status"] = statuses[victim]
        out["reroutes"] = dict(cluster.reroutes())
        out["cluster_status"] = cluster.health().status.value
        rerouted_rows_identical = all(
            cluster.execute(SQLS[0], q, "any").rows == baseline[q]
            for q in queriers
        )
        out["rerouted_rows_identical"] = rerouted_rows_identical
        # Heal; the detour lifts once the burn windows drain and the
        # shard holds healthy for the recovery window.
        cluster.slow_shard(victim, 0.0)
        deadline = time.monotonic() + 15.0
        while victim in cluster.reroutes() and time.monotonic() < deadline:
            time.sleep(0.2)
            cluster.health_tick()
        out["recovered"] = victim not in cluster.reroutes()
        out["post_recovery_rows_identical"] = all(
            cluster.execute(SQLS[0], q, "any").rows == baseline[q]
            for q in queriers
        )
    return out


# -------------------------------------------------------------------- bench


def test_health_slo_tier(benchmark):
    results: dict = {}

    def run():
        results.clear()
        results["histogram"] = _histogram_accuracy()

        attempts = []
        for _ in range(MAX_ATTEMPTS):
            attempt = _measure_health_overhead()
            attempts.append(attempt)
            if attempt["overhead"] < OVERHEAD_CEILING:
                break
        results["overhead_attempts"] = attempts
        results["overhead"] = statistics.median(a["overhead"] for a in attempts)
        results["overhead_best"] = min(a["overhead"] for a in attempts)

        for attempt_n in range(MAX_ATTEMPTS):
            results["burst"] = _overload_burst()
            results["burst_attempts"] = attempt_n + 1
            if _burst_ok(results["burst"]):
                break
        results["cluster"] = _cluster_reroute()
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    hist = results["histogram"]
    burst = results["burst"]
    clu = results["cluster"]
    rows = [
        *[
            [f"histogram {q}",
             f"{v['rel_err'] * 100:.2f}% err",
             f"exact {v['exact_ms']:.2f} ms vs hist {v['hist_ms']:.2f} ms "
             f"(bound {hist['bound'] * 100:.2f}%)"]
            for q, v in hist["quantiles"].items()
        ],
        ["overhead (median)", f"{results['overhead'] * 100:.2f}%",
         f"best {results['overhead_best'] * 100:.2f}% across "
         f"{len(results['overhead_attempts'])} attempt(s)"],
        ["burst: naive p99", f"{burst['naive']['p99_ms']:,.0f} ms",
         f"budget {burst['budget_ms']:.0f} ms at "
         f"{burst['offered_qps']:,.0f} qps offered "
         f"({OVERLOAD_FACTOR:.0f}x capacity {burst['capacity_qps']:,.0f})"],
        ["burst: shed p99", f"{burst['shed']['p99_ms']:,.0f} ms",
         f"reject rate {burst['shed']['reject_rate']:.0%}, "
         f"{burst['shed']['sheds']} shed "
         f"({results['burst_attempts']} attempt(s))"],
        ["cluster reroute", clu["victim_status"],
         f"{clu['victim']} -> {clu['reroutes'].get(clu['victim'], '-')}, "
         f"rows identical: {clu['rerouted_rows_identical']}, "
         f"recovered: {clu['recovered']}"],
    ]
    write_result(
        "health_slo_tier",
        "Health & SLO tier — histograms, shedding under overload, reroute",
        format_table(["check", "result", "detail"], rows),
        data=results,
        notes=(
            f"Fig. 6 Mall workload, bundled engine, {WORKERS} workers.  "
            f"Histogram quantiles must stay within the documented "
            f"{hist['bound']:.2%} relative error bound.  The health stack "
            f"(monitor + shedder) must cost < {OVERHEAD_CEILING:.0%} on a "
            "sustainable closed loop (median reported, best gated).  Under "
            f"{OVERLOAD_FACTOR:.0f}x open-loop overload the naive queue "
            "blows through the latency budget while SLO-aware shedding "
            "keeps the served p99 inside it (both measured after a 1s "
            "reaction window; the detection transient is inherent and "
            "shared).  A slowed shard must flip to degraded, be routed "
            "around with row-identical answers, and recover after the "
            "hold."
        ),
    )
    payload = {
        "workload": "fig6-mall-health",
        "histogram": {
            "bound": round(hist["bound"], 4),
            "samples": hist["samples"],
            **{
                q: {k: round(v, 4) for k, v in vals.items()}
                for q, vals in hist["quantiles"].items()
            },
        },
        "overhead": round(results["overhead"], 4),
        "overhead_best": round(results["overhead_best"], 4),
        "overhead_ceiling": OVERHEAD_CEILING,
        "burst": {
            "capacity_qps": round(burst["capacity_qps"], 1),
            "offered_qps": round(burst["offered_qps"], 1),
            "budget_ms": round(burst["budget_ms"], 1),
            "naive_p99_ms": round(burst["naive"]["p99_ms"], 1),
            "shed_p99_ms": round(burst["shed"]["p99_ms"], 1),
            "shed_reject_rate": round(burst["shed"]["reject_rate"], 3),
            "shed_count": burst["shed"]["sheds"],
            "naive_served": burst["naive"]["served"],
            "shed_served": burst["shed"]["served"],
        },
        "cluster": clu,
    }
    (REPO_ROOT / "BENCH_health.json").write_text(json.dumps(payload, indent=2) + "\n")

    # -- histogram error bound (+ float slack) --------------------------
    for q, vals in hist["quantiles"].items():
        assert vals["rel_err"] <= hist["bound"] + 1e-9, (
            f"histogram {q} off by {vals['rel_err']:.2%}, "
            f"bound {hist['bound']:.2%}"
        )
    # -- instrumentation overhead ---------------------------------------
    assert results["overhead_best"] < OVERHEAD_CEILING, (
        f"health-stack overhead {results['overhead_best']:.1%} exceeds the "
        f"{OVERHEAD_CEILING:.0%} ceiling in every attempt"
    )
    # -- overload burst --------------------------------------------------
    assert burst["naive"]["failed"] == 0 and burst["shed"]["failed"] == 0
    assert burst["naive"]["p99_ms"] > burst["budget_ms"], (
        f"naive queue was expected to blow the {burst['budget_ms']:.0f} ms "
        f"budget at {OVERLOAD_FACTOR:.0f}x overload, served p99 "
        f"{burst['naive']['p99_ms']:.0f} ms"
    )
    assert burst["shed"]["p99_ms"] <= burst["budget_ms"], (
        f"SLO-aware shedding must keep served p99 within the "
        f"{burst['budget_ms']:.0f} ms budget, got {burst['shed']['p99_ms']:.0f} ms"
    )
    assert burst["shed"]["sheds"] > 0, "the adaptive shedder never engaged"
    assert 0.0 < burst["shed"]["reject_rate"] < 0.8, (
        f"shed reject rate {burst['shed']['reject_rate']:.0%} out of the "
        "expected (0%, 80%) band for 2x overload"
    )
    # -- cluster degraded-shard reroute ---------------------------------
    assert clu["victim_status"] == "degraded", clu
    assert clu["victim"] in clu["reroutes"], clu
    assert clu["cluster_status"] == "degraded", clu
    assert clu["rerouted_rows_identical"], "reroute changed query answers"
    assert clu["recovered"], "reroute never lifted after the shard healed"
    assert clu["post_recovery_rows_identical"]
