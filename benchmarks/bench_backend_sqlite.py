"""Backend bench — Sieve vs the no-guard baseline, both on real SQLite.

Mirrors the paper's Experiments 4-5 methodology on the bundled
reference backend: the campus world is shipped into SQLite once, then
policy-heavy queries (SELECT-ALL and a date range, as in Experiment 4)
run end-to-end two ways —

* **SIEVE(L)** — the middleware rewrite (guards, ``INDEXED BY`` hints,
  Δ where chosen) executed on SQLite via ``Sieve(db, store,
  backend=...)``;
* **BaselineP(L)** — the traditional no-guard rewrite (the querier's
  full policy DNF appended to WHERE) printed in the SQLite dialect and
  executed on the same database.

Both sides are timed end-to-end (rewrite + print + execute): each is
a complete enforcement middleware, and the paper's Experiment 3
comparison includes Sieve's middleware time too.

SQLite is a real engine, so (unlike the bundled-engine benches) wall
time is the honest metric here; the assertion is the paper's shape:
Sieve at least matches the baseline on policy-heavy queries, with the
win coming from indexable guards versus one giant residual DNF.
"""

from __future__ import annotations

import time

from repro.backend import SqliteBackend
from repro.bench.results import format_table, write_result
from repro.bench.scenarios import designated_querier
from repro.core import BaselineP, Sieve
from repro.datasets.tippers import WIFI_TABLE
from repro.sql.printer import to_sql

QUERIES = {
    "select_all": f"SELECT * FROM {WIFI_TABLE}",
    "date_range": f"SELECT * FROM {WIFI_TABLE} WHERE ts_date BETWEEN 5 AND 20",
}
N_QUERIERS = 3
REPEATS = 3
#: Sieve may cost at most this multiple of the baseline's wall time.
#: Deliberately loose: these are wall-clock numbers on a real engine
#: (unlike the bundled benches' deterministic counters), so the margin
#: absorbs shared-CI scheduling noise on millisecond-scale queries
#: while still catching structural regressions, which are several-fold
#: (the mis-shaped NOT INDEXED rewrite this bench was built against
#: measured 4-8x slower).  Locally Sieve wins ~1.15x+.
MARGIN = 1.5


def _wall_ms(fn) -> float:
    """Best-of-REPEATS wall time (the repeatable cost, minus jitter)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


def test_backend_sqlite_vs_baseline(benchmark, campus_mysql):
    world = campus_mysql
    backend = SqliteBackend().ship(world.db)
    sieve = Sieve(world.db, world.store, backend=backend)
    baseline = BaselineP(world.db, world.store)
    queriers = [
        designated_querier(world, profile, 0) for profile in ("faculty", "staff", "grad")
    ][:N_QUERIERS]

    results: dict[str, dict[str, list[float]]] = {
        name: {"sieve_ms": [], "baseline_ms": [], "rows": []} for name in QUERIES
    }

    def run():
        for metrics in results.values():
            for series in metrics.values():
                series.clear()
        for qname, sql in QUERIES.items():
            for querier in queriers:

                def run_baseline():
                    rewritten = baseline.rewrite(sql, querier, "analytics")
                    return backend.execute(to_sql(rewritten, dialect=backend.dialect))

                # Warm the guard cache / policy filter once so both
                # sides measure steady-state execution, not one-time
                # guard generation.
                shipped = sieve.execute(sql, querier, "analytics")
                checked = run_baseline()
                assert sorted(shipped.rows) == sorted(checked.rows), (
                    f"enforcement semantics diverged for {querier!r} on {qname}"
                )
                results[qname]["sieve_ms"].append(
                    _wall_ms(lambda: sieve.execute(sql, querier, "analytics"))
                )
                results[qname]["baseline_ms"].append(_wall_ms(run_baseline))
                results[qname]["rows"].append(float(len(shipped.rows)))
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    data = []
    for qname, metrics in results.items():
        sieve_ms = sum(metrics["sieve_ms"]) / len(metrics["sieve_ms"])
        baseline_ms = sum(metrics["baseline_ms"]) / len(metrics["baseline_ms"])
        speedup = baseline_ms / max(1e-9, sieve_ms)
        rows.append([qname, sieve_ms, baseline_ms, speedup, sum(metrics["rows"])])
        data.append(
            {
                "query": qname,
                "sieve_ms": metrics["sieve_ms"],
                "baseline_ms": metrics["baseline_ms"],
                "mean_sieve_ms": sieve_ms,
                "mean_baseline_ms": baseline_ms,
                "speedup": speedup,
                "rows_returned": metrics["rows"],
            }
        )
    table = format_table(
        ["query", "SIEVE(L) ms", "BaselineP(L) ms", "speedup", "rows"], rows
    )
    write_result(
        "backend_sqlite",
        "Backend — SIEVE vs no-guard baseline on real SQLite (wall ms)",
        table,
        data=data,
        notes=(
            "Both engines run on the same shipped SQLite database; rows are "
            "verified identical before timing. Paper shape (Experiments 4-5): "
            "Sieve's indexable guards at least match the baseline's full "
            "policy DNF on policy-heavy queries, and the margin grows with "
            "the policy count."
        ),
    )

    # Parity-or-better on the policy-heavy queries.
    for entry in data:
        assert entry["mean_sieve_ms"] <= entry["mean_baseline_ms"] * MARGIN, (
            f"Sieve lost to the no-guard baseline on {entry['query']}: "
            f"{entry['mean_sieve_ms']:.1f}ms vs {entry['mean_baseline_ms']:.1f}ms"
        )
