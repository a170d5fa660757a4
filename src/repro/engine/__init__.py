"""Execution engine: physical plan nodes and the Volcano-style executor."""

from repro.engine.plans import (
    PlanNode,
    SeqScanPlan,
    IndexScanPlan,
    BitmapOrPlan,
    CTEScanPlan,
    DerivedScanPlan,
    FilterPlan,
    ProjectPlan,
    HashJoinPlan,
    NLJoinPlan,
    IndexNLJoinPlan,
    AggregatePlan,
    SortPlan,
    LimitPlan,
    DistinctPlan,
    SetOpPlan,
    IndexProbe,
)
from repro.engine.executor import Executor, QueryResult
from repro.engine.vector import BatchPredicate, RowBatch, VectorizedExecutor

__all__ = [
    "BatchPredicate",
    "RowBatch",
    "VectorizedExecutor",
    "PlanNode",
    "SeqScanPlan",
    "IndexScanPlan",
    "BitmapOrPlan",
    "CTEScanPlan",
    "DerivedScanPlan",
    "FilterPlan",
    "ProjectPlan",
    "HashJoinPlan",
    "NLJoinPlan",
    "IndexNLJoinPlan",
    "AggregatePlan",
    "SortPlan",
    "LimitPlan",
    "DistinctPlan",
    "SetOpPlan",
    "IndexProbe",
    "Executor",
    "QueryResult",
]
