"""Candidate guard generation (paper Section 4.1).

Every guard-eligible object condition becomes a candidate; overlapping
range conditions on the same indexed attribute are merged when Theorem
1's benefit condition holds::

    ρ(oc_x ∩ oc_y) / ρ(oc_x ∪ oc_y)  >  ce / (cr + ce)      (Eq. 8)

Disjoint ranges are never merged (Theorem 1), and the sorted sweep
stops extending a candidate at the first disjoint neighbour
(Corollaries 1.1 and 1.2).  That bounds a walk by its overlapping
neighbours, not by the corpus — in a dense corpus still a quadratic
number of pairs, so the walk steps only between the neighbours that
grow the hull and reads the rest in bulk (see :func:`_sweep_merge`).
Merged candidates are *added* to the pool — the originals stay, and the
selection stage (Section 4.2) picks the cover.

Eligibility: the attribute is indexed and the value is a constant.
Equality conditions are degenerate ranges ``[v, v]`` so the same sweep
handles them (two equalities merge only when equal, as disjointness
forbids anything else).  IN-lists are eligible (they map to index
probes) but never merged.  Derived values are never eligible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.cost_model import SieveCostModel
from repro.optimizer.cardinality import point_key, range_key
from repro.optimizer.stats import ClosedEnds, TableStats
from repro.policy.model import ObjectCondition, Policy


@dataclass
class CandidateGuard:
    """A potential guard: one indexable condition and the policies it
    could cover."""

    condition: ObjectCondition
    policy_ids: set[int] = field(default_factory=set)
    cardinality: float = 0.0  # ρ(condition), in rows

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
        if _is_closed(oc) and cstats.histogram is not None:
            return cstats.histogram.closed_ranges([(oc.value, oc.value2)])[0] * stats.row_count
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


def _is_closed(oc: ObjectCondition) -> bool:
    return oc.op == ">=" and oc.op2 == "<="


def _closed_numeric(oc: ObjectCondition) -> bool:
    return _is_closed(oc) and _numeric(oc.value) and _numeric(oc.value2)


def _estimate_candidates(
    candidates: Sequence[CandidateGuard], attr: str, stats: TableStats, ends: ClosedEnds | None = None
) -> None:
    """Set ρ of each of one attribute's candidates, as
    :func:`condition_cardinality` gives it, and keep in ``stats.figures``
    the planner's figure for the condition's expression where the two
    agree to the bit (a closed numeric range, an ``=``), so planning the
    guard OR reads it (:func:`repro.optimizer.cardinality.figure_key`).
    The closed ranges are estimated together: one histogram look-up per
    distinct end, not four per range — none where ``ends`` (the
    attribute's table, shared with the merge sweep) holds them."""
    cstats = stats.column(attr)
    hist = cstats.histogram if cstats is not None else None
    closed: list[CandidateGuard] = []
    for candidate in candidates:
        oc = candidate.condition
        if hist is not None and _closed_numeric(oc):
            closed.append(candidate)
        elif hist is not None and oc.op == "=":
            sel = stats.figures[point_key(attr, oc.value)] = hist.selectivity_eq(oc.value)
            candidate.cardinality = sel * stats.row_count
        else:
            candidate.cardinality = condition_cardinality(oc, stats)
    if closed:
        spans = [(c.condition.value, c.condition.value2) for c in closed]
        for (lo, hi), candidate, sel in zip(spans, closed, hist.closed_ranges(spans, ends)):  # type: ignore[union-attr]
            candidate.cardinality = sel * stats.row_count
            stats.figures[range_key(attr, lo, hi)] = sel


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _closed_range_rows(
    los: Sequence[Any], his: Sequence[Any], stats: TableStats, attr: str, ends: ClosedEnds | None = None
) -> Callable[[Any, Any], float]:
    """ρ([lo, hi]) over ``attr`` for closed ranges starting at one of
    ``los`` and ending at one of ``his`` — every hull and intersection
    the sweep weighs is one — from one histogram look-up per distinct
    end, not per range (none where ``ends`` holds them)."""
    cstats = stats.column(attr)
    if cstats is None or cstats.histogram is None:
        rows = stats.row_count / 3.0 if cstats is None else 0.0
        return lambda lo, hi: rows
    return cstats.histogram.closed_range_estimator(los, his, stats.row_count, ends)


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


def _closed_span(oc: ObjectCondition, stats: TableStats) -> tuple[Any, Any] | None:
    """``oc`` as a closed range ``(lo, hi)``, widening open-ended
    comparisons with the column's observed min/max so they participate
    in the merge sweep."""
    if oc.op2 is not None:
        return oc.value, oc.value2
    if oc.op == "=":
        return oc.value, oc.value
    cstats = stats.column(oc.attr)
    if cstats is None or cstats.min_value is None:
        return None
    if oc.op in (">", ">="):
        if oc.value > cstats.max_value:
            return None
        return oc.value, cstats.max_value
    if oc.op in ("<", "<="):
        if oc.value < cstats.min_value:
            return None
        return cstats.min_value, oc.value
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
                candidate = CandidateGuard(condition=oc)
                by_condition[oc] = candidate
                by_attr.setdefault(oc.attr.lower(), []).append(candidate)
            candidate.policy_ids.add(policy.id)
    out: list[CandidateGuard] = list(by_condition.values())

    # 2) Per attribute: ρ of each candidate, then the sorted sweep
    #    producing beneficial merged ranges.
    for attr, candidates in by_attr.items():
        rangeable: list[tuple[Any, Any, CandidateGuard]] = []
        for candidate in candidates:
            span = _closed_span(candidate.condition, stats)
            if span is None:
                continue
            if not _numeric(span[0]):
                continue  # only numeric ranges merge
            rangeable.append((*span, candidate))
        rangeable.sort(key=lambda entry: (entry[0], entry[1]))
        los, his, ordered = (list(column) for column in zip(*rangeable)) if rangeable else ([], [], [])
        ends = _range_ends(candidates, attr, stats, los, his)
        _estimate_candidates(candidates, attr, stats, ends)
        if len(rangeable) >= 2:
            out.extend(_sweep_merge(los, his, ordered, attr, stats, cost_model, ends))
    return out


def _range_ends(
    candidates: Sequence[CandidateGuard], attr: str, stats: TableStats, los: list, his: list
) -> ClosedEnds | None:
    """One attribute's histogram look-ups, once per distinct range end:
    the ends of its closed numeric conditions (their ρ) and of the
    sweep's ranges (every hull and intersection it weighs).  ``None``
    without a histogram, or where the ends do not compare (each estimate
    then builds its own table, as apart they would)."""
    cstats = stats.column(attr)
    if cstats is None or cstats.histogram is None:
        return None
    closed = [c.condition for c in candidates if _closed_numeric(c.condition)]
    ends = cstats.histogram.closed_range_ends(
        [oc.value for oc in closed] + los, [oc.value2 for oc in closed] + his
    )
    return ends if ends.low_at is not None else None


def _next_higher(his: Sequence[Any]) -> list[int]:
    """For each position, the first later position whose range ends
    strictly right of it (``len(his)`` when none): every position in
    between ends at or left of it."""
    n = len(his)
    higher = [n] * n
    waiting: list[int] = []
    for j in range(n):
        hi = his[j]
        while waiting and his[waiting[-1]] < hi:
            higher[waiting.pop()] = j
        waiting.append(j)
    return higher


def _sweep_merge(
    los: Sequence[Any],
    his: Sequence[Any],
    candidates: Sequence[CandidateGuard],
    attr: str,
    stats: TableStats,
    cost_model: SieveCostModel,
    ends: ClosedEnds | None = None,
) -> list[CandidateGuard]:
    """The sorted merge sweep with the Corollary 1.1/1.2 cut-off, over
    one attribute's ranges ``[los[j], his[j]]`` sorted by ``(lo, hi)``;
    ``ends`` is the attribute's table of histogram look-ups, when built
    (:func:`_range_ends`).

    An anchor's hull starts as its own range and absorbs, left to right,
    every overlapping neighbour that passes the Eq. 8 check against the
    hull as it stands; the first neighbour starting right of the hull
    ends the walk (Corollary 1.2: later ones start further right).  Per
    anchor only the *final* hull is emitted, not every intermediate
    merge: intermediates are dominated (same policies or fewer, similar
    cardinality) and keeping them makes |CG| quadratic in dense corpora.
    The selection stage still sees all originals plus one best
    transitive merge per anchor.

    Most neighbours end inside the hull.  Such a neighbour leaves the
    hull and ρ(hull) as they are (hull ∪ it = hull, hull ∩ it = it), so
    it changes only the anchor's policy ids — and an anchor whose hull
    never grows ends on its own span, which is already a candidate.  So
    the walk steps only between neighbours that reach past the hull
    (:func:`_next_higher`), one ρ estimate per step, with the Eq. 8
    cut-off ending it once no later one can pass; the neighbours inside
    are read once, in bulk, for the anchors whose hull grew to a span
    not emitted before.  Walks run right to left so that one reaching a
    range with the anchor's own start reuses that range's walk.
    """
    n = len(los)
    higher = _next_higher(his)
    # A hull ending where range k ends next meets the first later range
    # reaching past it — if that one starts inside — whatever the anchor:
    # so that step, and ρ of its intersection [start, his[k]], are shared.
    step = [h if h < n and los[h] <= his[k] else n for k, h in enumerate(higher)]
    if all(h == n for h in step):
        return []  # no hull can grow (distinct points, say): nothing to weigh
    threshold = cost_model.merge_threshold()
    rho = _closed_range_rows(los, his, stats, attr, ends)
    own = [rho(lo, hi) for lo, hi in zip(los, his)]
    ids = [candidate.policy_ids for candidate in candidates]
    step_rho = [rho(los[h], his[k]) if h < n else 0.0 for k, h in enumerate(step)]
    seen_spans = set(zip(los, his))
    point_ceiling: float | None = None  # max ρ([lo, lo]) over the starts, once needed
    # Each anchor's hull after every growth: (position that grew it, its
    # end, its ρ).  Right to left, so that a walk reaching a range with
    # the anchor's own start finishes as that range's walk did.
    walks: list[list[tuple[int, Any, float]]] = [[]] * n
    for i in reversed(range(n)):
        lo, hull_hi, hull_rho = los[i], his[i], own[i]
        grown = walks[i] = [(i, hull_hi, hull_rho)]
        at, k = i, step[i]  # the last to grow the hull; the next to reach past it
        while k < n:
            # The Eq. 8 check, θ(oc_x, oc_y) ≠ φ: hull ∪ k = [lo, his[k]] and
            # hull ∩ k = [los[k], hull_hi], both closed ranges over the ends.
            rho_union = rho(lo, his[k])
            rho_intersection = step_rho[at] if k == step[at] else rho(los[k], hull_hi)
            if rho_union > 0 and rho_intersection / rho_union > threshold:
                if los[k] == lo:  # the hull is range k's own: so is the rest
                    grown += walks[k]
                    break
                hull_hi, hull_rho = his[k], rho_union
                grown.append((k, hull_hi, hull_rho))
                at, k = k, step[k]
                continue
            # The Eq. 8 cut-off.  A later neighbour reaching past the hull
            # starts at or right of this one, so its ρ(∩) = ρ([start,
            # hull_hi]) is at most this ρ(∩) or its start's equality mass
            # (the interpolated part only shrinks as the start moves
            # right): at most `ceiling`.  Its ρ(∪) is at least ρ(hull) —
            # unless hull_hi's equality mass set ρ(hull), but every such
            # ρ(∩) counts that mass too, so then ceiling ≥ ρ(hull) and, θ
            # being < 1 for any cr > 0, the cut cannot fire.  IEEE division
            # is monotone, so the bound decides every later check to the bit.
            if point_ceiling is None:
                point_ceiling = max(rho(start, start) for start in los)
            ceiling = max(rho_intersection, point_ceiling)
            if threshold < 1 and hull_rho > 0 and ceiling / hull_rho <= threshold:
                break
            # Off the shared steps: the next range reaching past the hull,
            # if it starts inside.
            end = bisect_right(los, hull_hi, k + 1)
            k += 1
            while k < end and his[k] <= hull_hi:
                k = higher[k]
            if k >= end:
                break

    produced: list[CandidateGuard] = []
    for i, grown in enumerate(walks):
        if len(grown) == 1:
            continue
        lo, (at, hull_hi, hull_rho) = los[i], grown[-1]
        span = (lo, hull_hi)
        if span in seen_spans:
            continue
        seen_spans.add(span)
        # Policy ids, read once along the walk: the anchor's and each
        # grower's, plus every neighbour ending inside the hull of its time
        # (ρ(∩) its own ρ, ρ(∪) the hull's) whose Eq. 8 check passes.
        joined = [ids[i]]
        _, inside_hi, inside_rho = grown[0]
        t = 1
        next_grower = grown[1][0]
        end = bisect_right(los, hull_hi, at + 1)  # where the walk stopped
        for j, hi, rho_j, held in zip(range(i + 1, end), his[i + 1 : end], own[i + 1 : end], ids[i + 1 : end]):
            if j == next_grower:
                _, inside_hi, inside_rho = grown[t]
                t += 1
                next_grower = grown[t][0] if t < len(grown) else end
                joined.append(held)
            elif hi <= inside_hi and inside_rho > 0 and rho_j / inside_rho > threshold:
                joined.append(held)
        policy_ids: set[int] = set().union(*joined)
        condition = ObjectCondition(attr=attr, op=">=", value=lo, op2="<=", value2=hull_hi)
        produced.append(CandidateGuard(condition=condition, policy_ids=policy_ids, cardinality=hull_rho))
    return produced

