"""Execution-strategy selection (paper Section 5.5).

Sieve considers three ways to evaluate a query over a policy-guarded
relation:

* **LinearScan** — sequential scan + guarded expression as a filter;
* **IndexQuery** — index scan on the query's own (selective) predicate,
  then the guarded expression as a filter;
* **IndexGuards** — one index scan per guard, OR-ed/UNION-ed.

Costs (upper bounds, read-dominated, as in the paper):

    cost(IndexGuards) = Σ_i ρ(G_i) · cr_random
    cost(IndexQuery)  = ρ(p) · cr_random      (∞ if no usable index)
    cost(LinearScan)  = |r| · cr_sequential

Per-guard Δ-vs-inline decisions (Section 5.4) ride along in the
decision object: a partition uses Δ when the calibrated cost model
says the UDF overhead is amortised (paper crossover ≈ 120 policies)
and the partition has no derived-value conditions.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import Any

from repro.core.cost_model import SieveCostModel
from repro.core.guards import GuardedExpression
from repro.expr.analysis import contains_subquery
from repro.expr.nodes import Expr
from repro.optimizer.cardinality import estimate_conjunction, expected_pages
from repro.optimizer.planner import Planner


class Strategy(enum.Enum):
    LINEAR_SCAN = "LinearScan"
    INDEX_QUERY = "IndexQuery"
    INDEX_GUARDS = "IndexGuards"


@dataclass
class StrategyDecision:
    """The chosen strategy for one relation plus its cost workings."""

    strategy: Strategy
    query_index_column: str | None = None
    delta_guards: frozenset[int] = frozenset()
    costs: dict[str, float] = field(default_factory=dict)
    #: Per-guard row counts the decision costed with, in guard order —
    #: measured (profile) values where available, statistics estimates
    #: otherwise.  The observability tier stamps these into the trace
    #: so the selectivity profiler can correct them from execution.
    guard_est_rows: tuple[float, ...] = ()
    #: How many query conjuncts the decision saw (the span feed only
    #: trusts admitted-row counts when the query adds no filters).
    query_conjuncts: int = 0
    #: How many of the costed guard rows came from measured
    #: observations rather than statistics.
    measured_guards: int = 0

    def describe(self) -> str:
        parts = [self.strategy.value]
        if self.query_index_column:
            parts.append(f"via index on {self.query_index_column}")
        if self.delta_guards:
            parts.append(f"Δ on guards {sorted(self.delta_guards)}")
        return " ".join(parts)


def choose_strategy(
    db,
    table_name: str,
    expression: GuardedExpression,
    query_conjuncts: list[Expr],
    cost_model: SieveCostModel,
    personality=None,
) -> StrategyDecision:
    """Pick LinearScan / IndexQuery / IndexGuards for one relation.

    Costs follow the paper's read-dominated upper bounds, expressed in
    the engine personality's page weights so the decision matches what
    the substrate actually charges:

    * IndexGuards pays a random page per guard-selected row plus the
      partition checks on those rows;
    * IndexQuery pays a random page per query-predicate row plus the
      full guard disjunction on those rows;
    * LinearScan pays sequential pages plus the guard disjunction on
      every row.

    ``personality`` overrides the bundled engine's when the query will
    execute elsewhere (a :mod:`repro.backend` adapter): the decision
    must model the engine that actually runs the rewrite.
    """
    table = db.catalog.table(table_name)
    stats = db.stats.get(table)
    personality = personality or db.personality
    n_guards = max(1, len(expression.guards))
    avg_partition = expression.policy_count / n_guards
    alpha = cost_model.alpha
    cpu_pred = personality.cpu_predicate_cost
    cpu_tuple = personality.cpu_tuple_cost

    # Cheap query conjuncts run before the guard disjunction (AND
    # short-circuits), so only the query-predicate-surviving rows pay
    # for guard checks — and those short-circuit too.
    n_conjuncts = max(1, len(query_conjuncts))
    conjunct_sels, full_query_sel = estimate_conjunction(list(query_conjuncts), stats)
    rows_after_query = full_query_sel * stats.row_count
    guard_or_row_cost = alpha * (n_guards + avg_partition) * cpu_pred

    guard_rows, measured_guards, sum_guard_rows, guard_pages, delta_guards = _guard_side(
        expression, table_name, stats, cost_model
    )
    cost_index_guards = guard_pages * personality.random_page_cost + sum_guard_rows * (
        cpu_tuple + n_conjuncts * cpu_pred + alpha * avg_partition * cpu_pred
    )

    # EXPLAIN-equivalent: would the optimizer index the query predicate?
    # Candidates are ranked by estimated *cost* (pages via heap
    # correlation), matching what the engine's own planner would pick —
    # a clustered date range often beats a lower-cardinality but
    # scattered IN-list.
    cost_index_query = float("inf")
    best_column: str | None = None
    for conj, conj_sel in zip(query_conjuncts, conjunct_sels):
        if contains_subquery(conj):
            continue
        spec = Planner._sargable(conj)
        if spec is None:
            continue
        if db.catalog.index_on_column(table_name, spec.column) is None:
            continue
        rows = conj_sel * stats.row_count
        cost = (
            expected_pages(
                rows, stats.page_count, _correlation(stats, spec.column), stats.row_count
            )
            * personality.random_page_cost
            + rows * (cpu_tuple + (n_conjuncts - 1) * cpu_pred)
            + rows_after_query * guard_or_row_cost
        )
        if cost < cost_index_query:
            cost_index_query = cost
            best_column = spec.column

    cost_linear = (
        stats.page_count * personality.seq_page_cost
        + stats.row_count * (cpu_tuple + n_conjuncts * cpu_pred)
        + rows_after_query * guard_or_row_cost
    )

    costs = {
        "IndexGuards": cost_index_guards,
        "IndexQuery": cost_index_query,
        "LinearScan": cost_linear,
    }
    if cost_index_query <= cost_index_guards:
        best, best_cost = Strategy.INDEX_QUERY, cost_index_query
    else:
        best, best_cost = Strategy.INDEX_GUARDS, cost_index_guards
    if cost_linear < best_cost:
        best = Strategy.LINEAR_SCAN

    return StrategyDecision(
        strategy=best,
        query_index_column=best_column if best is Strategy.INDEX_QUERY else None,
        delta_guards=delta_guards,
        costs=costs,
        guard_est_rows=guard_rows,
        query_conjuncts=len(query_conjuncts),
        measured_guards=measured_guards,
    )


def _correlation(stats, attr: str) -> float:
    cstats = stats.column(attr)
    return cstats.correlation if cstats is not None else 0.0


def _guard_side(
    expression: GuardedExpression, table_name: str, stats, cost_model: SieveCostModel
) -> tuple[tuple[float, ...], int, float, float, frozenset[int]]:
    """What the costs read of the guards alone — each guard's rows
    (measured over estimated), how many were measured, their sum, the
    pages fetching them touches, and the Δ set — none of it the query's.

    The expression remembers the answer with what it was computed from:
    the ``TableStats`` (weakly — ANALYZE builds a new one) and the cost
    model (by identity — calibration builds a new one).  Nothing here
    reads the personality.  A model with a profile attached is never
    remembered for: an ``observe()`` changes the rows and leaves no
    trace the expression could check.
    """
    known = expression._strategy_memo
    if (
        known is not None
        and known[0]() is stats
        and known[1] is cost_model
        and cost_model.profile is None
    ):
        return known[2]
    # Measured-over-estimated: a guard the profiler has observed costs
    # with its live row count (clamped to the table — an EWMA can
    # briefly overshoot under churn); unobserved guards keep their
    # statistics-derived cardinality.
    guard_rows: list[float] = []
    measured_guards = 0
    for i, g in enumerate(expression.guards):
        observed = cost_model.observed_guard_rows(table_name, expression.guard_key(i))
        if observed is None:
            guard_rows.append(g.cardinality)
        else:
            guard_rows.append(min(float(stats.row_count), observed))
            measured_guards += 1
    guard_pages = sum(
        expected_pages(
            rows, stats.page_count, _correlation(stats, g.condition.attr), stats.row_count
        )
        for rows, g in zip(guard_rows, expression.guards)
    )
    side = (
        tuple(guard_rows),
        measured_guards,
        sum(guard_rows),
        guard_pages,
        decide_delta_guards(expression, cost_model),
    )
    expression._strategy_memo = (weakref.ref(stats), cost_model, side)
    return side


def decide_delta_guards(
    expression: GuardedExpression, cost_model: SieveCostModel
) -> frozenset[int]:
    """Guards whose partitions evaluate through Δ (Section 5.4)."""
    chosen: set[int] = set()
    for i, guard in enumerate(expression.guards):
        if guard.has_derived_conditions:
            continue  # derived values need the engine's subquery machinery
        per_owner = guard.partition_size / max(1, guard.distinct_owners)
        if cost_model.use_delta(guard.partition_size, per_owner):
            chosen.add(i)
    return frozenset(chosen)
