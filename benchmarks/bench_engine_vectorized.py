"""Engine bench — tuple-at-a-time vs vectorized batch execution.

The Fig. 6 guarded workload (Mall, PostgreSQL personality, one shop
querier with a cumulative policy set) is the paper's DBMS-side stress
case: the rewritten query's CTE checks hundreds of policy disjuncts
per tuple.  This bench runs that exact rewrite through the bundled
engine under each execution mode and reports per-phase milliseconds
(plan / execute) plus end-to-end queries/sec:

* ``tuple`` — the original closure-tree tuple-at-a-time interpreter
  (the differential oracle; ``vectorized=False, codegen=False``),
* ``tuple-codegen`` — tuple-at-a-time over codegen'd expressions,
* ``vectorized`` — the batch executor with codegen kernels (the
  default engine mode),
* ``prepared-vectorized`` — the same workload through
  ``Sieve.prepare()`` with a warm plan cache: the full middleware
  pipeline, minus the parse → strategy → rewrite → plan work the
  cache memoizes.  ``plan_ms`` is 0 by construction (planning is
  skipped, not merely fast); ``e2e_ms`` is the whole warm pipeline.

``plan_ms`` is measured per mode, inside each mode's measurement
window (planning is engine-mode independent here, but each row
reports what was actually measured for it, never a number copied
from another row).

Asserts (a) the vectorized path executes the guarded scan >= 3x
faster than the tuple-at-a-time oracle, and (b) the warm prepared
end-to-end time lands within ``PREPARED_MAX_RATIO`` (1.2x) of
exec-only time — i.e. the planning tax is actually gone.  Writes the
numbers both to ``benchmarks/results/engine_vectorized.*`` and to a
repo-root ``BENCH_engine.json`` so the performance trajectory is
tracked at the top level (``make bench-engine`` / CI's engine-smoke
job).
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.bench.results import format_table, write_result
from repro.bench.scenarios import mall_policies_for_shop
from repro.core import Sieve
from repro.policy.store import PolicyStore

POLICIES = 600
SQL = "SELECT * FROM WiFi_Connectivity"
EXEC_REPEATS = 5
E2E_REPEATS = 3
MIN_SPEEDUP = 3.0
#: Warm prepared end-to-end must land within this factor of pure
#: execution time — the prepared-query tier's acceptance bound.
PREPARED_MAX_RATIO = 1.2

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

MODES = [
    ("tuple", False, False),
    ("tuple-codegen", False, True),
    ("vectorized", True, True),
]


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_engine_vectorized_speedup(benchmark, mall_postgres):
    mall = mall_postgres
    db = mall.db
    store = PolicyStore(db, mall.groups)
    shop = mall.shops[0]
    querier = mall.shop_querier(shop)
    inserted = [
        store.insert(p)
        for p in mall_policies_for_shop(mall, shop, POLICIES, seed=900 + shop)
    ]
    results: list[dict] = []
    extra: dict = {}
    try:
        sieve = Sieve(db, store)
        rewritten = sieve.rewrite(SQL, querier, "any")
        planned = db.plan(rewritten)
        prepared = sieve.prepare(SQL, querier, "any")

        def run():
            results.clear()
            for mode, vectorized, codegen in MODES:
                # Warm once: compiles land in the expression cache, so
                # the measured window is steady-state execution (the
                # paper's warm-performance convention).
                out = db.run_plan(planned, vectorized=vectorized, codegen=codegen)
                # Planning is measured inside each mode's window: every
                # row reports its own measurement, never a number
                # copied from another mode's.
                plan_ms = _best(lambda: db.plan(rewritten), EXEC_REPEATS) * 1000.0
                before = db.counters.snapshot()
                exec_s = _best(
                    lambda v=vectorized, c=codegen: db.run_plan(
                        planned, vectorized=v, codegen=c
                    ),
                    EXEC_REPEATS,
                )
                diff = db.counters.diff(before)
                saved = (db.vectorized, db.codegen)
                db.vectorized, db.codegen = vectorized, codegen
                try:
                    e2e_s = _best(lambda: db.execute(rewritten), E2E_REPEATS)
                finally:
                    db.vectorized, db.codegen = saved
                results.append(
                    {
                        "mode": mode,
                        "plan_ms": plan_ms,
                        "exec_ms": exec_s * 1000.0,
                        "e2e_ms": e2e_s * 1000.0,
                        "qps": 1.0 / e2e_s,
                        "rows": len(out.rows),
                        "policy_evals": diff["policy_evals"] // EXEC_REPEATS,
                        "tuples_scanned": diff["tuples_scanned"] // EXEC_REPEATS,
                    }
                )
            # Unprepared full-pipeline reference: every call pays
            # strategy + rewrite + plan again (guard cache warm — this
            # isolates the per-call planning tax the cache removes).
            extra["unprepared_pipeline_ms"] = (
                _best(lambda: sieve.execute(SQL, querier, "any"), E2E_REPEATS)
                * 1000.0
            )
            # Prepared mode: the full middleware pipeline with a warm
            # plan cache — parse, strategy, rewrite and plan are all
            # memoized, so e2e is admission + cache hit + execution.
            out = prepared.execute()  # warm: populates the plan cache
            before = db.counters.snapshot()
            prep_s = _best(lambda: prepared.execute(), EXEC_REPEATS)
            diff = db.counters.diff(before)
            assert diff["plan_cache_hits"] == EXEC_REPEATS, diff["plan_cache_hits"]
            results.append(
                {
                    "mode": "prepared-vectorized",
                    # Planning is skipped on a warm hit, not re-run fast.
                    "plan_ms": 0.0,
                    "exec_ms": prep_s * 1000.0,
                    "e2e_ms": prep_s * 1000.0,
                    "qps": 1.0 / prep_s,
                    "rows": len(out.rows),
                    "policy_evals": diff["policy_evals"] // EXEC_REPEATS,
                    "tuples_scanned": diff["tuples_scanned"] // EXEC_REPEATS,
                }
            )
            return results

        benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        for p in inserted:
            store.delete(p.id)

    by_mode = {r["mode"]: r for r in results}
    speedup_exec = by_mode["tuple"]["exec_ms"] / by_mode["vectorized"]["exec_ms"]
    speedup_e2e = by_mode["tuple"]["e2e_ms"] / by_mode["vectorized"]["e2e_ms"]
    exec_only_ms = by_mode["vectorized"]["exec_ms"]
    warm_prepared_ms = by_mode["prepared-vectorized"]["e2e_ms"]
    prepared_ratio = warm_prepared_ms / exec_only_ms
    unprepared_pipeline_ms = extra["unprepared_pipeline_ms"]

    table = format_table(
        ["mode", "plan ms", "exec ms", "e2e ms", "queries/s", "rows", "policy evals"],
        [
            [
                r["mode"],
                f"{r['plan_ms']:.1f}",
                f"{r['exec_ms']:.1f}",
                f"{r['e2e_ms']:.1f}",
                f"{r['qps']:.1f}",
                r["rows"],
                f"{r['policy_evals']:,}",
            ]
            for r in results
        ],
    )
    write_result(
        "engine_vectorized",
        "Engine — tuple vs vectorized on the Fig. 6 guarded workload",
        table,
        data=results,
        notes=(
            f"Vectorized guarded-scan execution must be >= {MIN_SPEEDUP}x the "
            "tuple-at-a-time oracle (asserted).  policy_evals/tuples_scanned "
            "are identical across modes by construction — the differential "
            "suite proves it; here they document the workload size.  "
            f"Warm prepared e2e must be <= {PREPARED_MAX_RATIO}x exec-only "
            f"(asserted; unprepared pipeline: {unprepared_pipeline_ms:.1f} ms)."
        ),
    )

    payload = {
        "workload": "fig6-mall-guarded-scan",
        "sql": SQL,
        "policies": POLICIES,
        "modes": results,
        "speedup_exec_vectorized_vs_tuple": round(speedup_exec, 2),
        "speedup_e2e_vectorized_vs_tuple": round(speedup_e2e, 2),
        "min_speedup_asserted": MIN_SPEEDUP,
        "prepared": {
            "unprepared_pipeline_ms": round(unprepared_pipeline_ms, 3),
            "warm_e2e_ms": round(warm_prepared_ms, 3),
            "exec_only_ms": round(exec_only_ms, 3),
            "ratio_warm_vs_exec": round(prepared_ratio, 3),
            "speedup_vs_unprepared_pipeline": round(
                unprepared_pipeline_ms / warm_prepared_ms, 2
            ),
            "max_ratio_asserted": PREPARED_MAX_RATIO,
        },
    }
    (REPO_ROOT / "BENCH_engine.json").write_text(json.dumps(payload, indent=2) + "\n")

    same = {"rows", "policy_evals", "tuples_scanned"}
    for r in results[1:]:
        for key in same:
            assert r[key] == results[0][key], f"{key} diverged in {r['mode']}"
    assert speedup_exec >= MIN_SPEEDUP, (
        f"vectorized guarded-scan execution is only {speedup_exec:.2f}x the "
        f"tuple-at-a-time path (need >= {MIN_SPEEDUP}x)"
    )
    assert prepared_ratio <= PREPARED_MAX_RATIO, (
        f"warm prepared e2e is {warm_prepared_ms:.1f} ms, "
        f"{prepared_ratio:.2f}x exec-only ({exec_only_ms:.1f} ms) — the "
        f"plan cache must hold it within {PREPARED_MAX_RATIO}x"
    )
