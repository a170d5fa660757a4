"""Figure 3 — inlining vs. the Δ operator (paper Section 5.4).

Paper: as the partition of a single guard grows, inlined evaluation
cost grows linearly (α·|P_G|·ce per tuple) while Δ pays a constant UDF
invocation plus a near-constant owner-filtered evaluation; the curves
cross at |P_G| ≈ 120.

We build single-guard expressions of increasing partition size over
one heavily-observed owner and compare per-tuple evaluation cost both
ways, in deterministic cost units (wall-clock shown too); then check
the measured crossover against ``SieveCostModel.delta_crossover``.
"""

from __future__ import annotations

from collections import Counter

from repro.bench.results import format_table, write_result
from repro.bench.runner import measure_engine
from repro.core.cost_model import SieveCostModel
from repro.core.middleware import Sieve
from repro.core.strategy import Strategy, StrategyDecision
from repro.datasets.tippers import WIFI_TABLE
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore

PARTITION_SIZES = [5, 20, 60, 120, 240, 480]


def _partition_policies(
    shared_ap: int, owners: list[int], size: int, querier: str
) -> list[Policy]:
    """`size` policies sharing one wifiAP condition (the guard) across
    ~size/3 owners — the paper's classroom scenario: one guard, a large
    partition, few policies per owner.  Inlining checks the whole
    disjunction per tuple; Δ retrieves only the tuple owner's few."""
    pool = owners[: max(1, size // 3)]
    out = []
    for i in range(size):
        start = (i * 9) % 1380
        out.append(
            Policy(
                owner=pool[i % len(pool)], querier=querier, purpose="any",
                table=WIFI_TABLE,
                object_conditions=(
                    ObjectCondition("owner", "=", pool[i % len(pool)]),
                    ObjectCondition("wifiAP", "=", shared_ap),
                    ObjectCondition("ts_time", ">=", start, "<=", start + 4),
                ),
            )
        )
    return out


def _forced_linear(delta_on: bool):
    """A strategy stub holding the plan fixed (LinearScan) so the sweep
    isolates inline-vs-Δ evaluation, as the paper's Figure 3 does."""

    def fake(db, table_name, expression, query_conjuncts, cost_model,
             personality=None):
        guards = (
            frozenset(range(len(expression.guards))) if delta_on else frozenset()
        )
        return StrategyDecision(strategy=Strategy.LINEAR_SCAN, delta_guards=guards)

    return fake


def test_fig3_inline_vs_delta(benchmark, campus_mysql, monkeypatch):
    import repro.core.middleware as middleware_module
    from repro.core.candidate_gen import condition_cardinality
    from repro.core.guards import Guard, GuardedExpression

    world = campus_mysql
    ap_counts = Counter(row[1] for _, row in world.db.catalog.table(WIFI_TABLE).scan())
    shared_ap = ap_counts.most_common(1)[0][0]
    owner_counts = Counter(row[2] for _, row in world.db.catalog.table(WIFI_TABLE).scan())
    owners = [o for o, _ in owner_counts.most_common()]
    stats = world.db.table_stats(WIFI_TABLE)
    sql = f"SELECT * FROM {WIFI_TABLE}"
    results: list[tuple[int, float, float, float, float]] = []

    def run():
        results.clear()
        for size in PARTITION_SIZES:
            querier = f"f3-{size}"
            store = PolicyStore(world.db, world.dataset.groups)
            policies = [
                store.insert(p)
                for p in _partition_policies(shared_ap, owners, size, querier)
            ]
            sieve = Sieve(world.db, store)
            # One hand-built guard holding the whole partition, so the
            # sweep varies |P_G| only (the paper's single-guard setup).
            guard_condition = policies[0].object_conditions[1]  # wifiAP = shared
            guard = Guard(
                guard_condition, list(policies),
                condition_cardinality(guard_condition, stats),
            )
            expression = GuardedExpression(
                querier=querier, purpose="x", table=WIFI_TABLE,
                guards=[guard], policy_count=len(policies),
            )
            sieve.guard_store.get_or_build(
                querier, "x", WIFI_TABLE, lambda: expression, lambda held: held
            )
            inserted = policies

            monkeypatch.setattr(
                middleware_module, "choose_strategy", _forced_linear(delta_on=False)
            )
            inline = measure_engine(
                "inline", world.db, lambda: sieve.execute(sql, querier, "x"), repeats=2
            )
            monkeypatch.setattr(
                middleware_module, "choose_strategy", _forced_linear(delta_on=True)
            )
            delta = measure_engine(
                "delta", world.db, lambda: sieve.execute(sql, querier, "x"), repeats=2
            )
            results.append(
                (size, inline.wall_ms, inline.cost_units, delta.wall_ms, delta.cost_units)
            )
            for p in inserted:
                store.delete(p.id)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = format_table(
        ["|P_G|", "inline ms", "inline cost", "Δ ms", "Δ cost"],
        results,
    )
    model_crossover = SieveCostModel().delta_crossover(relevant_policies=2.0)
    write_result(
        "fig3_inline_vs_delta",
        "Figure 3 — inlining vs Δ operator by partition size",
        table,
        data=results,
        notes=(
            f"Paper crossover: |P_G| ≈ 120. Calibrated cost-model crossover "
            f"here: {model_crossover}. Inline cost must grow with partition "
            f"size while Δ stays near-flat."
        ),
    )

    # Shape assertions on deterministic units:
    inline_costs = [r[2] for r in results]
    delta_costs = [r[4] for r in results]
    assert inline_costs[-1] > inline_costs[0] * 2, "inline cost should grow with |P_G|"
    assert max(delta_costs) < min(delta_costs) * 1.3, "Δ cost should stay near-flat"
    assert delta_costs[-1] < inline_costs[-1], "Δ must win at the largest partition"
    assert 40 <= model_crossover <= 320, "calibrated crossover wildly off the paper's 120"
