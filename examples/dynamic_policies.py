"""Dynamic policy churn and lazy guard regeneration (paper Section 6).

Users keep adding policies while a querier keeps querying.  Each new
policy is edited into the querier's guarded expression at once (it
stays exact); the *choice* of guards drifts, and the regeneration
controller applies the Eq. 19 interval k̃ — select the guards afresh
only after k̃ new policies, immediately at the k̃-th (Theorem 2).

Run:  python examples/dynamic_policies.py
"""

import time

from repro.core import Sieve
from repro.core.cost_model import SieveCostModel
from repro.core.regeneration import (
    RegenerationController,
    optimal_regeneration_interval,
    simulate_total_cost,
)
from repro.datasets import TippersConfig, generate_tippers
from repro.bench.scenarios import policies_for_querier
from repro.policy import PolicyStore


def main() -> None:
    dataset = generate_tippers(TippersConfig(n_devices=300, days=20, seed=21))
    store = PolicyStore(dataset.db, dataset.groups)
    querier = "Prof.Smith"
    store.insert_many(policies_for_querier(dataset, querier, 120, seed=1))

    cost_model = SieveCostModel(cg=50.0)
    controller = RegenerationController(cost_model, queries_per_insert=1.0)
    sieve = Sieve(dataset.db, store, cost_model=cost_model, regeneration=controller)

    sql = "SELECT count(*) AS visible FROM WiFi_Dataset"
    first = sieve.execute_with_info(sql, querier, "analytics")
    expression = sieve.guard_store.peek(querier, "analytics", "WiFi_Dataset")
    avg_rho = expression.total_cardinality / max(1, len(expression.guards))
    k_tilde = controller.interval_for(avg_rho)
    print(f"initial guards: {len(expression.guards)} over "
          f"{expression.policy_count} policies; k̃ = {k_tilde}")
    print(f"visible rows: {first.result.rows[0][0]}")

    print("\ninserting policies one by one, querying after each:")
    extra = policies_for_querier(dataset, querier, 3 * k_tilde + 2, seed=2)
    regenerations = []
    for i, policy in enumerate(extra, start=1):
        store.insert(policy)
        info = sieve.execute_with_info(sql, querier, "analytics")
        if info.regenerated_tables:
            regenerations.append(i)
            print(f"  insert #{i:>3}: REGENERATED "
                  f"({info.middleware_ms:.1f} ms middleware)")
    print(f"\nregenerated after inserts: {regenerations}")
    print(f"expected roughly every k̃ = {k_tilde} inserts")

    print("\nEq. 19 sanity check via simulation (total cost, arbitrary units):")
    for k in sorted({1, max(2, k_tilde // 2), k_tilde, k_tilde * 4, 200}):
        cost = simulate_total_cost(
            cost_model, avg_rho, total_inserts=200, queries_per_insert=1.0, interval=k
        )
        marker = "   <-- k̃" if k == k_tilde else ""
        print(f"  regenerate every {k:>4} inserts: {cost:14,.0f}{marker}")


if __name__ == "__main__":
    main()
