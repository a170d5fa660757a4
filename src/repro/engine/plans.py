"""Physical plan nodes.

Plans are trees of dataclasses produced by the planner and interpreted
by the executor.  Every node carries its output :class:`RowBinding`
(column name -> tuple position) plus the optimizer's row/cost estimates
so ``EXPLAIN`` can render the tree without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.expr.eval import RowBinding
from repro.expr.nodes import Expr


@dataclass
class IndexProbe:
    """One index access: a point lookup or a range scan.

    ``eq_value`` set -> point probe; otherwise a (possibly half-open)
    range probe with inclusivity flags.
    """

    eq_value: Any = None
    is_point: bool = False
    lo: Any = None
    hi: Any = None
    lo_inclusive: bool = True
    hi_inclusive: bool = True

    @classmethod
    def point(cls, value: Any) -> "IndexProbe":
        return cls(eq_value=value, is_point=True)

    @classmethod
    def range(cls, lo=None, hi=None, lo_inclusive=True, hi_inclusive=True) -> "IndexProbe":
        return cls(lo=lo, hi=hi, lo_inclusive=lo_inclusive, hi_inclusive=hi_inclusive)

    def describe(self) -> str:
        if self.is_point:
            return f"= {self.eq_value!r}"
        lo_b = "[" if self.lo_inclusive else "("
        hi_b = "]" if self.hi_inclusive else ")"
        lo = "-inf" if self.lo is None else repr(self.lo)
        hi = "+inf" if self.hi is None else repr(self.hi)
        return f"{lo_b}{lo}, {hi}{hi_b}"


@dataclass
class PlanNode:
    """Base plan node; all concrete nodes extend this."""

    binding: RowBinding = field(default_factory=RowBinding)
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def node_name(self) -> str:
        return type(self).__name__.removesuffix("Plan")

    def children(self) -> list["PlanNode"]:
        return []

    def describe(self) -> str:
        return ""


@dataclass
class SeqScanPlan(PlanNode):
    table_name: str = ""
    alias: str = ""
    filter: Optional[Expr] = None

    def describe(self) -> str:
        text = f"{self.table_name} AS {self.alias}"
        if self.filter is not None:
            text += f" filter: {self.filter}"
        return text


@dataclass
class IndexScanPlan(PlanNode):
    table_name: str = ""
    alias: str = ""
    index_name: str = ""
    column: str = ""
    probes: list[IndexProbe] = field(default_factory=list)
    filter: Optional[Expr] = None  # residual predicate applied to fetched rows

    def describe(self) -> str:
        probe_text = " or ".join(p.describe() for p in self.probes)
        text = f"{self.table_name} AS {self.alias} using {self.index_name} ({self.column} {probe_text})"
        if self.filter is not None:
            text += f" filter: {self.filter}"
        return text


@dataclass
class BitmapOrPlan(PlanNode):
    """PostgreSQL-style BitmapOr + bitmap heap scan.

    Each arm probes one index; row ids are OR-ed into a single bitmap
    and the heap is visited in page order, each page once.
    """

    table_name: str = ""
    alias: str = ""
    arms: list[tuple[str, str, list[IndexProbe]]] = field(default_factory=list)
    # arms: (index_name, column, probes)
    filter: Optional[Expr] = None

    def describe(self) -> str:
        arm_text = "; ".join(
            f"{ix}({col} {' or '.join(p.describe() for p in probes)})"
            for ix, col, probes in self.arms
        )
        text = f"{self.table_name} AS {self.alias} bitmap-or [{arm_text}]"
        if self.filter is not None:
            text += f" filter: {self.filter}"
        return text


@dataclass
class CTEScanPlan(PlanNode):
    cte_name: str = ""
    alias: str = ""
    filter: Optional[Expr] = None

    def describe(self) -> str:
        text = f"{self.cte_name} AS {self.alias}"
        if self.filter is not None:
            text += f" filter: {self.filter}"
        return text


@dataclass
class DerivedScanPlan(PlanNode):
    child: Optional[PlanNode] = None
    alias: str = ""
    filter: Optional[Expr] = None

    def children(self) -> list[PlanNode]:
        return [self.child] if self.child else []

    def describe(self) -> str:
        return f"AS {self.alias}" + (f" filter: {self.filter}" if self.filter else "")


@dataclass
class FilterPlan(PlanNode):
    child: Optional[PlanNode] = None
    expr: Optional[Expr] = None

    def children(self) -> list[PlanNode]:
        return [self.child] if self.child else []

    def describe(self) -> str:
        return str(self.expr)


@dataclass
class ProjectPlan(PlanNode):
    child: Optional[PlanNode] = None
    exprs: list[Expr] = field(default_factory=list)
    names: list[str] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.child] if self.child else []

    def describe(self) -> str:
        return ", ".join(f"{e} AS {n}" for e, n in zip(self.exprs, self.names))


@dataclass
class HashJoinPlan(PlanNode):
    left: Optional[PlanNode] = None
    right: Optional[PlanNode] = None
    left_keys: list[Expr] = field(default_factory=list)
    right_keys: list[Expr] = field(default_factory=list)
    residual: Optional[Expr] = None

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        keys = ", ".join(f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys))
        text = f"on {keys}"
        if self.residual is not None:
            text += f" residual: {self.residual}"
        return text


@dataclass
class NLJoinPlan(PlanNode):
    left: Optional[PlanNode] = None
    right: Optional[PlanNode] = None
    condition: Optional[Expr] = None

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return f"on {self.condition}" if self.condition is not None else "cross"


@dataclass
class IndexNLJoinPlan(PlanNode):
    """Index nested-loop join: probe an inner table's index per outer row."""

    left: Optional[PlanNode] = None
    inner_table: str = ""
    inner_alias: str = ""
    inner_index: str = ""
    inner_column: str = ""
    outer_key: Optional[Expr] = None
    inner_filter: Optional[Expr] = None  # pushed single-table predicate on inner
    residual: Optional[Expr] = None  # join-level residual over combined rows

    def children(self) -> list[PlanNode]:
        return [self.left] if self.left else []

    def describe(self) -> str:
        text = (
            f"inner {self.inner_table} AS {self.inner_alias} "
            f"using {self.inner_index} ({self.inner_column} = {self.outer_key})"
        )
        if self.inner_filter is not None:
            text += f" inner-filter: {self.inner_filter}"
        if self.residual is not None:
            text += f" residual: {self.residual}"
        return text


@dataclass
class AggSpec:
    """One aggregate computation: func over an argument expression."""

    func: str  # count/sum/avg/min/max
    arg: Optional[Expr] = None  # None for COUNT(*)
    distinct: bool = False

    def describe(self) -> str:
        inner = "*" if self.arg is None else str(self.arg)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.func}({inner})"


@dataclass
class AggregatePlan(PlanNode):
    """Hash aggregation. Output row = group keys then aggregate values."""

    child: Optional[PlanNode] = None
    group_exprs: list[Expr] = field(default_factory=list)
    aggregates: list[AggSpec] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.child] if self.child else []

    def describe(self) -> str:
        keys = ", ".join(str(e) for e in self.group_exprs) or "<all>"
        aggs = ", ".join(a.describe() for a in self.aggregates)
        return f"by {keys} computing [{aggs}]"


@dataclass
class SortPlan(PlanNode):
    child: Optional[PlanNode] = None
    sort_exprs: list[Expr] = field(default_factory=list)
    ascending: list[bool] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.child] if self.child else []

    def describe(self) -> str:
        return ", ".join(
            f"{e} {'ASC' if a else 'DESC'}" for e, a in zip(self.sort_exprs, self.ascending)
        )


@dataclass
class LimitPlan(PlanNode):
    child: Optional[PlanNode] = None
    limit: int = 0

    def children(self) -> list[PlanNode]:
        return [self.child] if self.child else []

    def describe(self) -> str:
        return str(self.limit)


@dataclass
class DistinctPlan(PlanNode):
    child: Optional[PlanNode] = None

    def children(self) -> list[PlanNode]:
        return [self.child] if self.child else []


@dataclass
class SetOpPlan(PlanNode):
    op: str = "UNION"  # UNION | EXCEPT | INTERSECT
    all: bool = False
    left: Optional[PlanNode] = None
    right: Optional[PlanNode] = None

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def describe(self) -> str:
        return self.op + (" ALL" if self.all else "")
