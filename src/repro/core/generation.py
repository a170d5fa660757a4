"""End-to-end guarded-expression generation (Section 4 pipeline).

Candidate generation + Algorithm-1 selection, timed, with the
partition invariants checked before the result is returned — and its
incremental counterpart, which brings an expression already selected to
a changed policy set by editing partitions instead of selecting again.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.common.errors import SieveError
from repro.core.candidate_gen import generate_candidate_guards
from repro.core.cost_model import SieveCostModel
from repro.core.guard_selection import select_guards
from repro.core.guards import GuardedExpression
from repro.optimizer.stats import TableStats
from repro.policy.model import Policy


def build_guarded_expression(
    policies: Sequence[Policy],
    stats: TableStats,
    indexed_columns: frozenset[str],
    cost_model: SieveCostModel | None = None,
    querier: Any = None,
    purpose: str = "",
    table: str = "",
) -> GuardedExpression:
    """Generate G(P) for one (querier, purpose, relation) policy set."""
    cost_model = cost_model or SieveCostModel()
    start = time.perf_counter()
    candidates = generate_candidate_guards(policies, indexed_columns, stats, cost_model)
    guards = select_guards(candidates, policies, cost_model, stats.row_count)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    expression = GuardedExpression(
        querier=querier,
        purpose=purpose,
        table=table or (policies[0].table if policies else ""),
        guards=guards,
        policy_count=len(policies),
        generation_ms=elapsed_ms,
    )
    expression.check_partition_invariants()
    return expression


def maintain_guarded_expression(
    expression: GuardedExpression,
    policies: Sequence[Policy],
    stats: TableStats,
    indexed_columns: frozenset[str],
    cost_model: SieveCostModel | None = None,
) -> GuardedExpression | None:
    """``expression`` brought to ``policies`` by the two exact edits
    (:meth:`GuardedExpression.with_deleted` / ``with_inserted``):
    ``expression`` itself when it already covers them, ``None`` when the
    edits cannot get there (the caller regenerates).

    The edits come from comparing the two policy sets by ``(id,
    inserted_at)`` — an update re-stamps the policy, so it is a deletion
    and an insertion — not from a log of writes: whatever happened in
    between, in whatever order, the result covers exactly ``policies``.
    """
    held = {(p.id, p.inserted_at) for g in expression.guards for p in g.policies}
    wanted = {(p.id, p.inserted_at): p for p in policies}
    if held == wanted.keys():
        return expression
    cost_model = cost_model or SieveCostModel()
    try:
        maintained = expression.with_deleted({pid for pid, _at in held - wanted.keys()})
        for key in sorted(wanted.keys() - held):
            maintained = maintained.with_inserted(wanted[key], indexed_columns, stats, cost_model)
        maintained.check_partition_invariants()
    except SieveError:
        return None
    if maintained.covered_policy_ids() != {p.id for p in policies}:
        return None
    return maintained
