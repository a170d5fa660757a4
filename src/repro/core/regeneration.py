"""Dynamic policy churn and guard regeneration (paper Section 6).

When policies arrive continuously, *selecting* the guards of G(P) again
on every insert wastes work if no query runs in between, while never
selecting again leaves queries evaluating a guard set chosen for a
corpus that has since grown by k policies.  The paper derives the
optimal number of policy insertions between regenerations:

    k̃ = sqrt( 4 · C_G / (ρ(oc_G) · α · ce · r_pq) )        (Eq. 19)

where ``C_G`` is the (constant-dominated) guard-generation cost,
``ρ(oc_G)`` the guard cardinality, ``α``/``ce`` the evaluation
constants, and ``r_pq`` the number of queries posed per policy insert.
Theorem 2 adds that regeneration should happen *immediately* at the
k-th insertion.

What is deferred here is the *selection*, never the policies.  Between
regenerations the middleware serves the expression **maintained** to
the current corpus (:func:`repro.core.generation.maintain_guarded_expression`):
an inserted policy joins the partition of a guard that covers one of
its conditions, or becomes a guard of its own; a deleted one leaves its
partition.  That expression is exact — it admits precisely the rows the
current policies permit — and only its cost drifts from what Algorithm 1
would now pick, which is the term the paper's model charges the k
policies arrived since (there: evaluated un-guarded beside the guards;
here: riding in a partition or as a singleton guard chosen without
weighing the rest).  :class:`RegenerationController` implements the
schedule on the count of maintained inserts the expression carries
(:attr:`~repro.core.guards.GuardedExpression.maintained_inserts`), and
it is the middleware's default — ``Sieve(regeneration=...)`` overrides
its constants.  :func:`simulate_total_cost` replays an insert/query
trace under any interval choice so the Section-6 bench can show the k̃
minimum.

The session guard cache (:mod:`repro.core.cache`) composes with this
schedule rather than overriding it: a policy mutation evicts the
affected cache entries, and the next resolve admits the maintained (or,
at the k-th insertion, regenerated) expression at the current epoch —
one cache miss per mutation, not one per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.core.cost_model import SieveCostModel


def optimal_regeneration_interval(
    cost_model: SieveCostModel,
    guard_cardinality: float,
    queries_per_insert: float,
) -> int:
    """k̃ from Eq. 19 (at least 1)."""
    rho = max(1e-9, guard_cardinality)
    rpq = max(1e-9, queries_per_insert)
    k = math.sqrt(4.0 * cost_model.cg / (rho * cost_model.alpha * cost_model.ce * rpq))
    return max(1, round(k))


@dataclass
class RegenerationController:
    """Decides, per (querier, purpose, table), when to regenerate.

    ``decide(inserts_since_generation)`` returns True when the guards
    should be selected afresh now — i.e. the count of inserts maintained
    into the expression reached k̃ (Theorem 2: regenerate immediately at
    the k-th insertion).
    """

    cost_model: SieveCostModel
    queries_per_insert: float = 1.0

    def interval_for(self, guard_cardinality: float) -> int:
        return optimal_regeneration_interval(
            self.cost_model, guard_cardinality, self.queries_per_insert
        )

    def decide(self, inserts_since_generation: int, guard_cardinality: float) -> bool:
        if inserts_since_generation <= 0:
            return False
        return inserts_since_generation >= self.interval_for(guard_cardinality)


def query_cost_with_stale_guards(
    cost_model: SieveCostModel,
    guard_cardinality: float,
    base_policies: int,
    stale_policies: int,
    query_predicates: int = 1,
) -> float:
    """cost(G, Q, P_k): evaluating a query when ``stale_policies`` have
    arrived since the last regeneration (Eq. 14/17 flavour).

    Stale policies cannot use guards, so each guard-selected tuple is
    additionally checked against them (their conditions ride along
    inlined, un-indexed).
    """
    per_tuple = cost_model.cr + cost_model.alpha * cost_model.ce * (
        base_policies + stale_policies + query_predicates
    )
    return guard_cardinality * per_tuple


def simulate_total_cost(
    cost_model: SieveCostModel,
    guard_cardinality: float,
    total_inserts: int,
    queries_per_insert: float,
    interval: int,
    base_policies: int = 0,
) -> float:
    """Total (query + regeneration) cost of processing ``total_inserts``
    policy arrivals while regenerating every ``interval`` inserts.

    Matches the Eq. 18 model: queries spread uniformly between inserts
    (r_pq per insert); each query pays for the *stale* (not yet
    guard-indexed) policies on top of the fixed base term ``|Pn|``;
    regeneration costs ``C_G`` and resets the stale term.  This is
    where the trade-off lives — small intervals buy cheap queries at
    high regeneration cost, large intervals the reverse.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    total = 0.0
    stale = 0
    for _ in range(total_inserts):
        stale += 1
        total += queries_per_insert * query_cost_with_stale_guards(
            cost_model, guard_cardinality, base_policies, stale
        )
        if stale >= interval:
            total += cost_model.cg
            stale = 0
    return total
