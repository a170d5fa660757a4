"""Selectivity estimation for single-table predicates.

Implements the classic System-R defaults on top of the histogram
statistics: equality and ranges come from the histogram, conjunctions
multiply (independence assumption), disjunctions use
inclusion-exclusion, unknown predicates get the 1/3 default.

``estimate_selectivity`` is the ``ρ(pred)`` of the paper: both the
optimizer's access-path choice and Sieve's guard cost model call it.
``filter_evals`` turns those figures into what a filter costs the
engine, in the evaluation ticks its counters charge.
"""

from __future__ import annotations

import weakref
from typing import Any

from repro.expr.codegen import METERED_OR_WIDTH
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
    return combine_conjunction([conjunct_estimate(part, stats) for part in parts])


def conjunct_estimate(part: Expr, stats: TableStats) -> float:
    """One conjunct's unclamped figure, as :func:`combine_conjunction`
    takes it: a planner that estimated some conjuncts earlier supplies
    the rest through this and gets :func:`estimate_conjunction`'s
    floats bit for bit.  The node remembers it with the ``TableStats``
    it came from (as ``_estimate`` does an And's or Or's): strategy
    choice and the planner estimate a binding's conjuncts, the same
    bound nodes, once between them."""
    known = part.__dict__.get("_selectivity")
    if known is not None and known[0]() is stats:
        return known[1]
    sel = _estimate(part, stats)
    object.__setattr__(part, "_selectivity", (weakref.ref(stats), sel))
    return sel


def combine_conjunction(raw: list[float]) -> tuple[list[float], float]:
    """:func:`estimate_conjunction` from each conjunct's unclamped
    figure (:func:`conjunct_estimate`), multiplied in conjunct order."""
    combined = 1.0
    for sel in raw:
        combined *= sel
    return [_clamp(sel) for sel in raw], _clamp(combined)


def filter_evals(parts: list[Expr], sels: list[float], rows: float) -> float:
    """Expected evaluation ticks of a filter ANDing ``parts`` over
    ``rows`` input rows — ``predicate_evals`` plus ``policy_evals`` as
    the batch executor charges them.

    ``sels[k]`` is the fraction of the rows reaching ``parts[k]`` that
    it passes; conjuncts run in order and stop at the first false one.
    The filter ticks once per input row, however many conjuncts it has.
    A metered OR (at least ``METERED_OR_WIDTH`` children: a guard
    disjunction, an inlined policy set) also ticks once per disjunct it
    tries on each row that reaches it: all ``width`` of them on a row no
    branch admits, the first hit's ordinal — ``(width + 1) / 2`` on
    average — on a row one admits.  So a guard OR costs its width,
    not one predicate.  No filter costs nothing.
    """
    if not parts:
        return 0.0
    evals = rows
    reaching = rows
    for part, sel in zip(parts, sels):
        if isinstance(part, Or) and len(part.children) >= METERED_OR_WIDTH:
            width = len(part.children)
            evals += reaching * (sel * (width + 1) / 2 + (1.0 - sel) * width)
        reaching *= sel
    return evals


def figure_key(expr: Expr) -> tuple | None:
    """The key guard generation files a column-against-literals leaf's
    selectivity under (``TableStats.figures``): what the estimate reads
    of it — the column's name, the operator, the values — so equal
    leaves of any branch, maintained OR or template read one figure.
    ``None`` for any other node."""
    kind = expr.__class__
    if kind is Between:
        column, low, high = expr.expr, expr.low, expr.high  # type: ignore[attr-defined]
        if column.__class__ is ColumnRef and low.__class__ is Literal and high.__class__ is Literal:
            return range_key(column.name, low.value, high.value, expr.negated)  # type: ignore[attr-defined]
    elif kind is Comparison:
        column, value = expr.left, expr.right  # type: ignore[attr-defined]
        if column.__class__ is ColumnRef and value.__class__ is Literal:
            return (expr.op, column.name.lower(), value.value)  # type: ignore[attr-defined]
    return None


def range_key(column: str, lo: Any, hi: Any, negated: bool = False) -> tuple:
    """:func:`figure_key` of ``column BETWEEN lo AND hi``."""
    return ("between", column.lower(), lo, hi, negated)


def point_key(column: str, value: Any) -> tuple:
    """:func:`figure_key` of ``column = value``."""
    return (CompareOp.EQ, column.lower(), value)


def _clamp(sel: float) -> float:
    return min(1.0, max(0.0, sel))


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
    # A policy condition's leaf: guard generation kept the figure it
    # computed under these statistics (``TableStats.figures``).  Only
    # generation files figures, so no query literal grows the table.
    if stats.figures:
        key = figure_key(expr)
        if key is not None:
            try:
                sel = stats.figures.get(key)
            except TypeError:  # an unhashable literal
                sel = None
            if sel is not None:
                return sel
    return _estimate_leaf(expr, stats)


def _estimate_leaf(expr: Expr, stats: TableStats) -> float:
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
