"""Candidate guard generation (paper Section 4.1).

Every guard-eligible object condition becomes a candidate; overlapping
range conditions on the same indexed attribute are merged when Theorem
1's benefit condition holds::

    ρ(oc_x ∩ oc_y) / ρ(oc_x ∪ oc_y)  >  ce / (cr + ce)      (Eq. 8)

Disjoint ranges are never merged (Theorem 1), and the sorted sweep
stops extending a candidate at the first disjoint neighbour
(Corollaries 1.1 and 1.2), keeping generation near-linear after the
sort.  Merged candidates are *added* to the pool — the originals stay,
and the selection stage (Section 4.2) picks the cover.

Eligibility: the attribute is indexed and the value is a constant.
Equality conditions are degenerate ranges ``[v, v]`` so the same sweep
handles them (two equalities merge only when equal, as disjointness
forbids anything else).  IN-lists are eligible (they map to index
probes) but never merged.  Derived values are never eligible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.common.intervals import Interval
from repro.core.cost_model import SieveCostModel
from repro.optimizer.stats import TableStats
from repro.policy.model import ObjectCondition, Policy


@dataclass
class CandidateGuard:
    """A potential guard: one indexable condition and the policies it
    could cover."""

    condition: ObjectCondition
    policy_ids: set[int] = field(default_factory=set)
    cardinality: float = 0.0  # ρ(condition), in rows

    @property
    def interval(self) -> Interval | None:
        return self.condition.interval()

    def __str__(self) -> str:
        return f"CG<{self.condition} ~{self.cardinality:.0f} rows, {len(self.policy_ids)} policies>"


def condition_cardinality(oc: ObjectCondition, stats: TableStats) -> float:
    """ρ(oc): estimated matching rows from the table's histogram."""
    cstats = stats.column(oc.attr)
    if cstats is None:
        return stats.row_count / 3.0
    if oc.op == "IN":
        return cstats.selectivity_in(list(oc.value)) * stats.row_count
    if oc.is_range:
        sel = cstats.selectivity_range(
            oc.value, oc.value2, oc.op == ">=", oc.op2 == "<="
        )
        return sel * stats.row_count
    if oc.op == "=":
        return cstats.selectivity_eq(oc.value) * stats.row_count
    if oc.op in (">", ">="):
        return (
            cstats.selectivity_range(oc.value, None, lo_inclusive=oc.op == ">=")
            * stats.row_count
        )
    if oc.op in ("<", "<="):
        return (
            cstats.selectivity_range(None, oc.value, hi_inclusive=oc.op == "<=")
            * stats.row_count
        )
    return stats.row_count / 3.0


def _interval_cardinalities(
    intervals: Sequence[Interval], stats: TableStats, attr: str
) -> Callable[[Interval], float]:
    """ρ of closed ranges over ``attr`` whose ends are ends of
    ``intervals`` — every hull and intersection of them is one — from
    one histogram look-up per distinct end, not per range."""
    cstats = stats.column(attr)
    if cstats is None or cstats.histogram is None:
        rows = stats.row_count / 3.0 if cstats is None else 0.0
        return lambda interval: rows
    selectivity = cstats.histogram.closed_range_estimator(
        end for interval in intervals for end in (interval.lo, interval.hi)
    )
    return lambda interval: selectivity(interval.lo, interval.hi) * stats.row_count


def _eligible_conditions(
    policy: Policy, indexed_columns: frozenset[str]
) -> list[ObjectCondition]:
    out: list[ObjectCondition] = []
    for oc in policy.object_conditions:
        if not oc.is_constant:
            continue
        if oc.attr.lower() not in indexed_columns:
            continue
        if oc.op in ("!=", "NOT IN"):
            continue  # negations cannot serve as index filters
        out.append(oc)
    return out


def _normalize_to_interval(
    oc: ObjectCondition, stats: TableStats
) -> Interval | None:
    """Closed-interval view, widening open-ended comparisons with the
    column's observed min/max so they participate in the merge sweep."""
    direct = oc.interval()
    if direct is not None:
        return direct
    cstats = stats.column(oc.attr)
    if cstats is None or cstats.min_value is None:
        return None
    if oc.op in (">", ">="):
        if oc.value > cstats.max_value:
            return None
        return Interval(oc.value, cstats.max_value)
    if oc.op in ("<", "<="):
        if oc.value < cstats.min_value:
            return None
        return Interval(cstats.min_value, oc.value)
    return None


def generate_candidate_guards(
    policies: Sequence[Policy],
    indexed_columns: frozenset[str],
    stats: TableStats,
    cost_model: SieveCostModel | None = None,
) -> list[CandidateGuard]:
    """CG: all candidate guards for a policy set (Section 4.1)."""
    cost_model = cost_model or SieveCostModel()
    indexed_columns = frozenset(c.lower() for c in indexed_columns)

    # 1) Collect eligible conditions, deduplicating identical conditions
    #    into one candidate that covers all their policies.
    by_condition: dict[ObjectCondition, CandidateGuard] = {}
    by_attr: dict[str, list[CandidateGuard]] = {}
    for policy in policies:
        for oc in _eligible_conditions(policy, indexed_columns):
            candidate = by_condition.get(oc)
            if candidate is None:
                candidate = CandidateGuard(
                    condition=oc,
                    cardinality=condition_cardinality(oc, stats),
                )
                by_condition[oc] = candidate
                by_attr.setdefault(oc.attr.lower(), []).append(candidate)
            candidate.policy_ids.add(policy.id)

    out: list[CandidateGuard] = list(by_condition.values())

    # 2) Per attribute: sorted sweep producing beneficial merged ranges.
    for attr, candidates in by_attr.items():
        rangeable: list[tuple[Interval, CandidateGuard]] = []
        for candidate in candidates:
            interval = _normalize_to_interval(candidate.condition, stats)
            if interval is None:
                continue
            if not isinstance(interval.lo, (int, float)) or isinstance(interval.lo, bool):
                continue  # only numeric ranges merge
            rangeable.append((interval, candidate))
        if len(rangeable) < 2:
            continue
        rangeable.sort(key=lambda pair: (pair[0].lo, pair[0].hi))
        merged = _sweep_merge(rangeable, attr, stats, cost_model)
        out.extend(merged)
    return out


def _sweep_merge(
    rangeable: list[tuple[Interval, CandidateGuard]],
    attr: str,
    stats: TableStats,
    cost_model: SieveCostModel,
) -> list[CandidateGuard]:
    """The sorted merge sweep with the Corollary 1.1/1.2 cut-off.

    Per anchor we emit only the *final* accumulated hull, not every
    intermediate merge: intermediates are dominated (same policies or
    fewer, similar cardinality) and keeping them makes |CG| quadratic
    in dense corpora.  The selection stage still sees all originals
    plus one best transitive merge per anchor.
    """
    produced: list[CandidateGuard] = []
    seen_spans: set[tuple] = {(iv.lo, iv.hi) for iv, _ in rangeable}
    threshold = cost_model.merge_threshold()
    # ρ of every candidate's own span, once: a neighbour lying inside the
    # accumulated hull intersects it in exactly that span.
    rho = _interval_cardinalities([iv for iv, _ in rangeable], stats, attr)
    own_rho = [rho(iv) for iv, _ in rangeable]
    n = len(rangeable)
    for i in range(n):
        acc_interval, acc_candidate = rangeable[i]
        acc_rho = own_rho[i]  # ρ(acc_interval), carried with the hull
        acc_ids = set(acc_candidate.policy_ids)
        merged_any = False
        for j in range(i + 1, n):
            nxt_interval, nxt_candidate = rangeable[j]
            if not acc_interval.overlaps(nxt_interval):
                break  # Corollary 1.2: later candidates start even further right
            # θ(oc_x, oc_y) ≠ φ — the Eq. 8 check.  Overlap is established
            # (Theorem 1: disjoint merges are never beneficial) and the
            # sort puts nxt.lo at or right of acc.lo, so a neighbour that
            # ends inside the hull leaves it unchanged: ρ(∪) is the carried
            # value and ρ(∩) the neighbour's own, no estimate needed.
            if nxt_interval.hi <= acc_interval.hi:
                union, rho_union, rho_intersection = acc_interval, acc_rho, own_rho[j]
            else:
                union = acc_interval.hull(nxt_interval)
                rho_union = rho(union)
                rho_intersection = rho(acc_interval.intersection(nxt_interval))
            if rho_union <= 0 or rho_intersection / rho_union <= threshold:
                continue
            acc_interval, acc_rho = union, rho_union
            acc_ids |= nxt_candidate.policy_ids
            merged_any = True
        if not merged_any:
            continue
        span = (acc_interval.lo, acc_interval.hi)
        if span in seen_spans:
            continue
        seen_spans.add(span)
        condition = ObjectCondition(
            attr=attr,
            op=">=",
            value=acc_interval.lo,
            op2="<=",
            value2=acc_interval.hi,
        )
        produced.append(
            CandidateGuard(
                condition=condition,
                policy_ids=set(acc_ids),
                cardinality=acc_rho,
            )
        )
    return produced
