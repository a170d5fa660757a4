"""Render a text health dashboard for a Sieve cluster (smoke CLI).

The health tier's human surface: everything a pager-holder wants on
one screen —

* the rolled-up health report (per-component verdicts + evidence),
* a per-shard table: status, active detour, served requests, and
  histogram-backed p50/p95/p99,
* the cluster-merged latency histogram as a bar chart (buckets merged
  exactly across shards — the :class:`~repro.obs.histogram.
  LatencyHistogram` property the roll-up is built on).

Library use: :func:`render_health`, :func:`render_shards`, and
:func:`render_histogram` each take live objects and return lines, so
any server/cluster embedding can print the same dashboard.

As a script it is self-verifying (the CI smoke shape shared with
``tools/trace_dump.py``): build a small world, run traffic through a
3-shard cluster, then fail one shard so the control loop flags it
**unhealthy** and detours its queriers — and exit non-zero if the
dashboard fails to show exactly that.  Then the detour meets a fault:
the fallback is crashed and rebuilt by the supervisor, and the detoured
querier's policy is revoked; a non-identical answer after the rebuild,
or any row after the revocation, also exits non-zero.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Sequence

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster import SieveCluster  # noqa: E402
from repro.db.database import connect  # noqa: E402
from repro.obs.histogram import LatencyHistogram  # noqa: E402
from repro.policy import ObjectCondition, Policy, PolicyStore  # noqa: E402
from repro.storage.schema import ColumnType, Schema  # noqa: E402

_ICON = {"healthy": "+", "degraded": "!", "unhealthy": "x"}


def render_health(report) -> list[str]:
    """The component table of a :class:`~repro.obs.health.HealthReport`."""
    lines = [f"health: {report.status.value.upper()}"]
    for comp in report.components:
        icon = _ICON.get(comp.status.value, "?")
        detail = f"  {comp.detail}" if comp.detail else ""
        lines.append(f"  [{icon}] {comp.name:<24} {comp.status.value:<10}{detail}")
    return lines


def render_shards(stats) -> list[str]:
    """Per-shard serving/health table from a
    :class:`~repro.cluster.ClusterStats`."""
    header = (
        f"  {'shard':<10} {'status':<10} {'detour':<12} {'requests':>9} "
        f"{'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9}"
    )
    lines = ["shards:", header, "  " + "-" * (len(header) - 2)]
    for name in sorted(stats.per_shard):
        shard = stats.per_shard[name]
        status = stats.health.get(name, "healthy")
        detour = f"-> {stats.reroutes[name]}" if name in stats.reroutes else ""
        lines.append(
            f"  {name:<10} {status:<10} {detour:<12} {shard.requests:>9} "
            f"{shard.latency.p50_ms:>9.2f} "
            f"{shard.latency.p95_ms:>9.2f} {shard.latency.p99_ms:>9.2f}"
        )
    return lines


def render_histogram(hist: LatencyHistogram, width: int = 40, max_rows: int = 12) -> list[str]:
    """A latency histogram as an ASCII bar chart (coarsened to at most
    ``max_rows`` rows by merging adjacent buckets)."""
    buckets = hist.buckets()
    if not buckets:
        return ["latency histogram: (empty)"]
    # Coalesce adjacent buckets until the chart fits the row budget.
    while len(buckets) > max_rows:
        merged = []
        for i in range(0, len(buckets), 2):
            chunk = buckets[i : i + 2]
            merged.append((chunk[0][0], chunk[-1][1], sum(c[2] for c in chunk)))
        buckets = merged
    top = max(count for _, _, count in buckets)
    lines = [
        f"latency histogram: {hist.count} samples, mean {hist.mean_ms:.2f} ms, "
        f"p99 {hist.percentile(99):.2f} ms (+/-{hist.relative_error:.1%})"
    ]
    for lower, upper, count in buckets:
        bar = "#" * max(1, round(width * count / top))
        lines.append(f"  {lower:>9.3f}-{upper:>9.3f} ms |{bar:<{width}}| {count}")
    return lines


def render_dashboard(cluster: SieveCluster) -> list[str]:
    """The full dashboard for one cluster, ready to print."""
    stats = cluster.stats()
    hists = [
        s.latency_hist for s in stats.per_shard.values() if s.latency_hist is not None
    ]
    lines = render_health(cluster.health())
    lines.append("")
    lines.extend(render_shards(stats))
    lines.append("")
    lines.extend(render_histogram(LatencyHistogram.merge(hists)))
    return lines


# ----------------------------------------------------------- demo world

TABLE = "WiFi_Dataset"
QUERIERS = [f"Prof.{c}" for c in "ABCDEF"]
PURPOSE = "analytics"


def _world(n_rows: int):
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
    store.insert_many(
        [
            Policy(
                owner=owner,
                querier=querier,
                purpose=PURPOSE,
                table=TABLE,
                object_conditions=(ObjectCondition("owner", "=", owner),),
            )
            for owner, querier in enumerate(QUERIERS)
        ]
    )
    return db, store


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--rows", type=int, default=600, help="demo table size (default 600)"
    )
    args = parser.parse_args(argv)

    db, store = _world(args.rows)
    sql = f"SELECT COUNT(*) FROM {TABLE}"
    with SieveCluster.replicated(db, store, n_shards=3, workers_per_shard=1) as cluster:
        for querier in QUERIERS:
            cluster.execute(sql, querier, PURPOSE, timeout=60)
        cluster.health_tick()

        print("== all healthy " + "=" * 49)
        print("\n".join(render_dashboard(cluster)))

        victim = cluster.route(QUERIERS[0])
        cluster.fail_shard(victim)
        cluster.health_tick()
        if victim not in cluster.reroutes():
            print(f"FAIL: {victim} failed but not detoured")
            return 1
        # Traffic keeps flowing through the detour while it is up.
        cluster.execute(sql, QUERIERS[0], PURPOSE, timeout=60)

        print(f"\n== {victim} failed " + "=" * 45)
        lines = render_dashboard(cluster)
        print("\n".join(lines))

        statuses = cluster.shard_health()
        if statuses.get(victim) != "unhealthy":
            print(f"FAIL: expected {victim} unhealthy, got {statuses}")
            return 1
        if not any(victim in line and "->" in line for line in lines):
            print("FAIL: dashboard does not show the detour")
            return 1
        fallback = cluster.reroutes()[victim]
        print(f"\nOK: {victim} unhealthy and detoured to {fallback}; dashboard rendered")

        # Detour x fault: the fallback answers for the victim's
        # queriers now, so a rebuilt fallback must still cover them and
        # a revocation naming them must reach it.
        rows_sql = f"SELECT * FROM {TABLE}"
        permitted = sorted(cluster.execute(rows_sql, QUERIERS[0], PURPOSE, timeout=60).rows)
        cluster.crash_shard(fallback)
        rebuilt = [rebuild.name for rebuild in cluster.supervise()]
        rows = sorted(cluster.execute(rows_sql, QUERIERS[0], PURPOSE, timeout=60).rows)
        if rebuilt != [fallback] or cluster.reroutes().get(victim) != fallback:
            print(f"FAIL: expected {fallback} rebuilt under the detour, got {rebuilt}")
            return 1
        if not permitted or rows != permitted:
            print(
                f"FAIL: rebuilt fallback answered {len(rows)} rows, "
                f"{len(permitted)} are permitted"
            )
            return 1
        (policy,) = store.policies_for(QUERIERS[0], PURPOSE)
        cluster.delete_policy(policy.id)
        rows = cluster.execute(rows_sql, QUERIERS[0], PURPOSE, timeout=60).rows
        if rows:
            print(f"FAIL: {len(rows)} rows of a revoked policy served through the detour")
            return 1
        print(
            f"OK: {fallback} crashed and rebuilt under the detour "
            f"({len(permitted)} rows identical); revocation reached it (0 rows)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
