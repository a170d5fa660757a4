"""Selectivity estimation for single-table predicates.

Implements the classic System-R defaults on top of the histogram
statistics: equality and ranges come from the histogram, conjunctions
multiply (independence assumption), disjunctions use
inclusion-exclusion, unknown predicates get the 1/3 default.

``estimate_selectivity`` is the ``ρ(pred)`` of the paper: both the
optimizer's access-path choice and Sieve's guard cost model call it.
"""

from __future__ import annotations

import weakref
from typing import Any

from repro.expr.nodes import (
    And,
    Between,
    ColumnRef,
    CompareOp,
    Comparison,
    Expr,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
)
from repro.optimizer.stats import TableStats

DEFAULT_SELECTIVITY = 1.0 / 3.0
DEFAULT_EQ_SELECTIVITY = 0.005


def expected_pages(
    rows: float,
    pages: float,
    correlation: float = 0.0,
    table_rows: float | None = None,
) -> float:
    """Expected distinct pages touched fetching ``rows`` tuples.

    Cardenas' formula for uniformly-spread tuples, interpolated toward
    the minimal (perfectly clustered) page count by the squared
    value/heap ``correlation`` — the same blend PostgreSQL's
    ``cost_index`` applies with ``pg_stats.correlation``.  The executor
    caches pages within a scan, so costing random access per *page*
    keeps the optimizer honest.
    """
    if pages <= 0 or rows <= 0:
        return 0.0
    uniform = pages * (1.0 - (1.0 - 1.0 / pages) ** rows)
    c2 = max(0.0, min(1.0, correlation)) ** 2
    if c2 <= 0.0 or not table_rows:
        return uniform
    rows_per_page = max(1.0, table_rows / pages)
    clustered = max(1.0, rows / rows_per_page)
    return c2 * min(uniform, clustered) + (1.0 - c2) * uniform


def estimate_selectivity(expr: Expr | None, stats: TableStats) -> float:
    """Estimated fraction of the table's rows satisfying ``expr``."""
    if expr is None:
        return 1.0
    return _clamp(_estimate(expr, stats))


def estimate_conjunction(
    parts: list[Expr], stats: TableStats
) -> tuple[list[float], float]:
    """Selectivity of every conjunct and of their AND, each conjunct
    estimated once — the same figures as :func:`estimate_selectivity`
    of each part and of ``make_and(parts)``."""
    raw = [_estimate(part, stats) for part in parts]
    combined = 1.0
    for sel in raw:
        combined *= sel
    return [_clamp(sel) for sel in raw], _clamp(combined)


def _clamp(sel: float) -> float:
    return min(1.0, max(0.0, sel))


def estimate_rows(expr: Expr | None, stats: TableStats) -> float:
    """ρ(pred) as a row count."""
    return estimate_selectivity(expr, stats) * stats.row_count


def _estimate(expr: Expr, stats: TableStats) -> float:
    if isinstance(expr, (And, Or)):
        # A policy-wide guard OR reaches every plan of its epoch as the
        # same (immutable) node — and each of its branches, an AND,
        # every plan of every epoch until a write touches that guard —
        # and their selectivity depends on nothing but the statistics:
        # the node remembers the figure with the TableStats it came
        # from.  ANALYZE builds a new TableStats, so a remembered figure
        # never outlives the statistics behind it; an OR one branch away
        # from the last one estimates that branch and folds the rest.
        known = expr.__dict__.get("_selectivity")
        if known is not None and known[0]() is stats:
            return known[1]
        if isinstance(expr, And):
            sel = 1.0
            for child in expr.children:
                sel *= _estimate(child, stats)
        else:
            # Inclusion-exclusion under independence, folded pairwise.
            sel = 0.0
            for child in expr.children:
                child_sel = _estimate(child, stats)
                sel = sel + child_sel - sel * child_sel
        object.__setattr__(expr, "_selectivity", (weakref.ref(stats), sel))
        return sel
    if isinstance(expr, Not):
        return 1.0 - _estimate(expr.child, stats)
    if isinstance(expr, Comparison):
        return _estimate_comparison(expr, stats)
    if isinstance(expr, Between):
        col = _column_of(expr.expr)
        lo = _literal_of(expr.low)
        hi = _literal_of(expr.high)
        if col is None or lo is _MISSING or hi is _MISSING:
            return DEFAULT_SELECTIVITY
        cstats = stats.column(col)
        if cstats is None:
            return DEFAULT_SELECTIVITY
        sel = cstats.selectivity_range(lo, hi)
        return 1.0 - sel if expr.negated else sel
    if isinstance(expr, InList):
        col = _column_of(expr.expr)
        values = [_literal_of(i) for i in expr.items]
        if col is None or any(v is _MISSING for v in values):
            return DEFAULT_SELECTIVITY
        cstats = stats.column(col)
        if cstats is None:
            return DEFAULT_SELECTIVITY
        sel = cstats.selectivity_in(values)
        return 1.0 - sel if expr.negated else sel
    if isinstance(expr, IsNull):
        col = _column_of(expr.child)
        if col is None:
            return DEFAULT_SELECTIVITY
        cstats = stats.column(col)
        if cstats is None or cstats.row_count == 0:
            return DEFAULT_SELECTIVITY
        return cstats.null_count / cstats.row_count
    if isinstance(expr, Literal):
        return 1.0 if expr.value else 0.0
    return DEFAULT_SELECTIVITY


def _estimate_comparison(expr: Comparison, stats: TableStats) -> float:
    col = _column_of(expr.left)
    value = _literal_of(expr.right)
    op = expr.op
    if col is None:
        # try the flipped orientation (literal op column)
        col = _column_of(expr.right)
        value = _literal_of(expr.left)
        op = expr.op.flip()
    if col is None or value is _MISSING:
        return DEFAULT_EQ_SELECTIVITY if expr.op is CompareOp.EQ else DEFAULT_SELECTIVITY
    cstats = stats.column(col)
    if cstats is None:
        return DEFAULT_EQ_SELECTIVITY if op is CompareOp.EQ else DEFAULT_SELECTIVITY
    if op is CompareOp.EQ:
        return cstats.selectivity_eq(value)
    if op is CompareOp.NE:
        return 1.0 - cstats.selectivity_eq(value)
    if op is CompareOp.LT:
        return cstats.selectivity_range(None, value, hi_inclusive=False)
    if op is CompareOp.LE:
        return cstats.selectivity_range(None, value)
    if op is CompareOp.GT:
        return cstats.selectivity_range(value, None, lo_inclusive=False)
    return cstats.selectivity_range(value, None)


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()


def _column_of(expr: Expr) -> str | None:
    if isinstance(expr, ColumnRef):
        return expr.name
    return None


def _literal_of(expr: Expr) -> Any:
    if isinstance(expr, Literal):
        return expr.value
    return _MISSING
