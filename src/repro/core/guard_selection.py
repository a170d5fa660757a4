"""Guard selection — Algorithm 1 (paper Section 4.2).

Selecting the minimum-cost subset of candidate guards that covers every
policy exactly once is NP-hard (weighted set cover reduces to it), so
the paper uses a greedy heuristic ranking guards by

    utility(G_i) = benefit(G_i) / read_cost(G_i)
    benefit(G_i) = ce · |P_Gi| · (|r_i| − ρ(oc_g))
    read_cost(G_i) = ρ(oc_g) · cr

A max-priority queue is polled; the winner's policies are removed from
every remaining candidate's partition, whose utilities are then
recomputed and the candidates re-inserted.  Implemented with a lazy
heap: stale entries (whose partition shrank since insertion) are
re-scored and pushed back on pop instead of being rewritten in place.

The result covers every input policy exactly once — partitions are
disjoint by construction.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

from repro.common.errors import SieveError
from repro.core.candidate_gen import CandidateGuard
from repro.core.cost_model import SieveCostModel
from repro.core.guards import Guard
from repro.policy.model import Policy


def select_guards(
    candidates: Sequence[CandidateGuard],
    policies: Sequence[Policy],
    cost_model: SieveCostModel,
    table_rows: float,
) -> list[Guard]:
    """Greedy utility-ordered cover of ``policies`` by ``candidates``."""
    by_id = {p.id: p for p in policies}
    all_ids = set(by_id)

    def utility(candidate: CandidateGuard, live_ids: set[int]) -> float:
        size = len(live_ids)
        if size == 0:
            return -1.0
        benefit = cost_model.guard_benefit(table_rows, candidate.cardinality, size)
        return benefit / cost_model.guard_read_cost(candidate.cardinality)

    # Lazy max-heap: (negated utility, tiebreak, partition size at push, candidate idx).
    # A partition is replaced, never edited, so it starts as the candidate's own set.
    live: list[set[int]] = [c.policy_ids for c in candidates]
    counter = itertools.count()
    heap: list[tuple[float, int, int, int]] = []
    for idx, candidate in enumerate(candidates):
        score = utility(candidate, live[idx])
        heapq.heappush(heap, (-score, next(counter), len(live[idx]), idx))

    covered: set[int] = set()
    selected: list[Guard] = []
    while heap and covered != all_ids:
        neg_score, _, size_at_push, idx = heapq.heappop(heap)
        current = live[idx] - covered
        if not current:
            continue
        if len(current) != size_at_push:
            # Stale entry: partition shrank since it was scored. Re-score.
            live[idx] = current
            score = utility(candidates[idx], current)
            heapq.heappush(heap, (-score, next(counter), len(current), idx))
            continue
        live[idx] = current
        guard_policies = [by_id[pid] for pid in sorted(current)]
        size = len(guard_policies)
        guard = Guard(
            condition=candidates[idx].condition,
            policies=guard_policies,
            cardinality=candidates[idx].cardinality,
            cost=cost_model.guard_cost(candidates[idx].cardinality, size),
            benefit=cost_model.guard_benefit(table_rows, candidates[idx].cardinality, size),
            utility=-neg_score,
        )
        selected.append(guard)
        covered |= current

    if covered != all_ids:
        # Every policy some candidate holds is covered by now.
        raise SieveError(
            f"policies {sorted(all_ids - covered)} have no candidate guard; every policy "
            "must contribute at least its owner condition (Section 4.1)"
        )
    return selected


def total_cost(guards: Sequence[Guard]) -> float:
    """cost(G(P), G) = Σ cost(G_i)   (Eq. 1)."""
    return sum(g.cost for g in guards)
