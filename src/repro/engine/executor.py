"""Plan execution.

A straightforward pull-based interpreter over the plan tree.  All I/O
accounting happens here: sequential page touches in SeqScan, random
page fetches in IndexScan and IndexNLJoin, page-ordered bitmap heap
visits in BitmapOr.  CTEs materialise once per query execution and are
shared by every reference, matching how Sieve's rewritten WITH clause
is meant to amortise the policy check (paper Section 5.3, footnote 8).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from repro.common.errors import ExecutionError, PlanError
from repro.db.counters import CounterSet
from repro.expr.analysis import columns_referenced, contains_subquery
from repro.expr.codegen import CompiledExprCache
from repro.expr.eval import ExprCompiler, RowBinding
from repro.expr.nodes import (
    And,
    Arith,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    ScalarSubquery,
)
from repro.engine.plans import (
    AggregatePlan,
    AggSpec,
    BitmapOrPlan,
    CTEScanPlan,
    DerivedScanPlan,
    DistinctPlan,
    FilterPlan,
    HashJoinPlan,
    IndexNLJoinPlan,
    IndexProbe,
    IndexScanPlan,
    LimitPlan,
    NLJoinPlan,
    PlanNode,
    ProjectPlan,
    SeqScanPlan,
    SetOpPlan,
    SortPlan,
)
from repro.index.bitmap import RowIdBitmap
from repro.storage.catalog import Catalog


@dataclass
class QueryResult:
    """Materialised query output."""

    columns: list[str]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def column(self, name: str) -> list[Any]:
        try:
            pos = [c.lower() for c in self.columns].index(name.lower())
        except ValueError:
            raise ExecutionError(f"no output column {name!r}; have {self.columns}") from None
        return [row[pos] for row in self.rows]

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


class Executor:
    """Executes plan trees against a catalog, charging counters.

    ``plan_subquery`` is a callback (provided by the Database facade)
    that plans a Query AST — used for scalar/IN subqueries discovered
    during expression compilation — next to the running statement's
    CTE plans, which the subquery's FROM may name.
    """

    #: What compiles a row function: closure trees here — this class is
    #: the differential oracle — and generated code in the batch
    #: executor, which keeps only the subquery evaluation below.
    compiler_cls: type = ExprCompiler

    def __init__(
        self,
        catalog: Catalog,
        counters: CounterSet,
        udfs: dict[str, Callable[..., Any]],
        plan_subquery: Callable[[Any, dict[str, PlanNode]], PlanNode] | None = None,
        fn_cache: CompiledExprCache | None = None,
    ):
        self.catalog = catalog
        self.counters = counters
        self.udfs = udfs
        self.plan_subquery = plan_subquery
        # Cross-execution cache of compiled predicate/projection
        # callables (owned by the Database facade); executors come and
        # go per query, compiled expressions should not.
        self.fn_cache = fn_cache
        self._cte_plans: dict[str, PlanNode] = {}
        self._cte_rows: dict[str, list[tuple]] = {}
        self._in_subquery_cache: dict[int, frozenset] = {}
        self._scalar_cache: dict[tuple, Any] = {}

    # -------------------------------------------------------------- entry

    def run(self, root: PlanNode, cte_plans: dict[str, PlanNode]) -> QueryResult:
        self._cte_plans = cte_plans
        self._cte_rows = {}
        for name, plan in cte_plans.items():
            self._cte_rows[name] = list(self._iter(plan))
        rows = list(self._iter(root))
        self.counters.tuples_output += len(rows)
        return QueryResult(columns=root.binding.column_names, rows=rows)

    # ---------------------------------------------------------- dispatching

    def _iter(self, plan: PlanNode) -> Iterator[tuple]:
        method = getattr(self, f"_exec_{type(plan).__name__}", None)
        if method is None:
            raise ExecutionError(f"no executor for {type(plan).__name__}")
        return method(plan)

    def _compiler(self, binding: RowBinding):
        return self.compiler_cls(
            binding,
            udfs=self.udfs,
            subquery_fn=self._make_scalar_subquery_fn(binding),
            in_subquery_fn=self._eval_in_subquery,
            counters=self.counters,
        )

    def _row_fn(self, expr: Expr, binding: RowBinding):
        """Compile one expression to a row callable, reusing the shared
        compiled-function cache across executions.

        Expressions containing subqueries are compiled fresh every
        time: IN memberships are data dependent and scalar subqueries
        capture this executor's plan/caches."""
        cache = self.fn_cache
        if cache is None:
            return self._compiler(binding).compile(expr)
        extra = (binding.cache_key(), "row")
        fn = cache.lookup(expr, extra, self.counters)
        if fn is None:
            fn = self._compiler(binding).compile(expr)
            if not contains_subquery(expr):
                cache.store(expr, extra, fn)
        return fn

    def _compile_filter(self, expr: Expr | None, binding: RowBinding):
        if expr is None:
            return None
        return self._row_fn(expr, binding)

    # ------------------------------------------------------------- scans

    def _exec_SeqScanPlan(self, plan: SeqScanPlan) -> Iterator[tuple]:
        table = self.catalog.table(plan.table_name)
        pred = self._compile_filter(plan.filter, plan.binding)
        counters = self.counters
        page_size = table.page_size
        current_page = -1
        for rowid, row in table.scan():
            page = rowid // page_size
            if page != current_page:
                counters.pages_sequential += 1
                current_page = page
            counters.tuples_scanned += 1
            if pred is not None:
                counters.predicate_evals += 1
                if not pred(row):
                    continue
            yield row

    def _probe_rowids(self, index, probes: list[IndexProbe]) -> list[int]:
        """Every probe's rowids, in probe order; each search charges its
        own node visits to this executor's counters."""
        counters = self.counters
        rowids: list[int] = []
        for probe in probes:
            if probe.is_point:
                rowids += index.search_eq(probe.eq_value, counters)
            else:
                rowids += index.search_range(
                    probe.lo, probe.hi, probe.lo_inclusive, probe.hi_inclusive, counters
                )
        return rowids

    def _exec_IndexScanPlan(self, plan: IndexScanPlan) -> Iterator[tuple]:
        table = self.catalog.table(plan.table_name)
        index = self.catalog.index_by_name(plan.table_name, plan.index_name)
        pred = self._compile_filter(plan.filter, plan.binding)
        counters = self.counters
        page_size = table.page_size
        seen: set[int] = set()
        pages_touched: set[int] = set()  # per-scan buffer-pool model
        for rowid in self._probe_rowids(index, plan.probes):
            if rowid in seen:
                continue
            seen.add(rowid)
            row = table.get(rowid)
            if row is None:
                continue
            page = rowid // page_size
            if page not in pages_touched:
                pages_touched.add(page)
                counters.pages_random += 1
            counters.tuples_scanned += 1
            if pred is not None:
                counters.predicate_evals += 1
                if not pred(row):
                    continue
            yield row

    def _exec_BitmapOrPlan(self, plan: BitmapOrPlan) -> Iterator[tuple]:
        table = self.catalog.table(plan.table_name)
        counters = self.counters
        bitmap = RowIdBitmap()
        for index_name, _column, probes in plan.arms:
            index = self.catalog.index_by_name(plan.table_name, index_name)
            # One bitmap per arm, OR-ed in a single big-int op (per-rowid
            # add would re-allocate the accumulated bitmap every bit).
            bitmap = bitmap | RowIdBitmap.from_rowids(
                self._probe_rowids(index, probes)
            )
        counters.pages_bitmap += len(bitmap.pages(table.page_size))
        pred = self._compile_filter(plan.filter, plan.binding)
        for rowid in bitmap.iter_sorted():
            row = table.get(rowid)
            if row is None:
                continue
            counters.tuples_scanned += 1
            if pred is not None:
                counters.predicate_evals += 1
                if not pred(row):
                    continue
            yield row

    def _exec_CTEScanPlan(self, plan: CTEScanPlan) -> Iterator[tuple]:
        key = plan.cte_name.lower()
        if key not in self._cte_rows:
            raise ExecutionError(f"CTE {plan.cte_name!r} was not materialised")
        pred = self._compile_filter(plan.filter, plan.binding)
        counters = self.counters
        for row in self._cte_rows[key]:
            counters.tuples_scanned += 1
            if pred is not None:
                counters.predicate_evals += 1
                if not pred(row):
                    continue
            yield row

    def _exec_DerivedScanPlan(self, plan: DerivedScanPlan) -> Iterator[tuple]:
        assert plan.child is not None
        pred = self._compile_filter(plan.filter, plan.binding)
        for row in self._iter(plan.child):
            if pred is not None:
                self.counters.predicate_evals += 1
                if not pred(row):
                    continue
            yield row

    # ----------------------------------------------------- filter / project

    def _exec_FilterPlan(self, plan: FilterPlan) -> Iterator[tuple]:
        assert plan.child is not None and plan.expr is not None
        pred = self._row_fn(plan.expr, plan.child.binding)
        counters = self.counters
        for row in self._iter(plan.child):
            counters.predicate_evals += 1
            if pred(row):
                yield row

    def _exec_ProjectPlan(self, plan: ProjectPlan) -> Iterator[tuple]:
        if plan.child is None:
            fns = [self._row_fn(e, RowBinding()) for e in plan.exprs]
            yield tuple(fn(()) for fn in fns)
            return
        fns = [self._row_fn(e, plan.child.binding) for e in plan.exprs]
        for row in self._iter(plan.child):
            yield tuple(fn(row) for fn in fns)

    # ------------------------------------------------------------- joins

    def _exec_HashJoinPlan(self, plan: HashJoinPlan) -> Iterator[tuple]:
        assert plan.left is not None and plan.right is not None
        left_key_fns = [self._row_fn(k, plan.left.binding) for k in plan.left_keys]
        right_key_fns = [self._row_fn(k, plan.right.binding) for k in plan.right_keys]
        residual = self._compile_filter(plan.residual, plan.binding)

        table: dict[tuple, list[tuple]] = {}
        for rrow in self._iter(plan.right):
            key = tuple(fn(rrow) for fn in right_key_fns)
            if any(k is None for k in key):
                continue
            table.setdefault(key, []).append(rrow)

        counters = self.counters
        for lrow in self._iter(plan.left):
            key = tuple(fn(lrow) for fn in left_key_fns)
            bucket = table.get(key)
            if not bucket:
                continue
            for rrow in bucket:
                combined = lrow + rrow
                if residual is not None:
                    counters.predicate_evals += 1
                    if not residual(combined):
                        continue
                yield combined

    def _exec_NLJoinPlan(self, plan: NLJoinPlan) -> Iterator[tuple]:
        assert plan.left is not None and plan.right is not None
        condition = self._compile_filter(plan.condition, plan.binding)
        right_rows = list(self._iter(plan.right))
        counters = self.counters
        for lrow in self._iter(plan.left):
            for rrow in right_rows:
                combined = lrow + rrow
                if condition is not None:
                    counters.predicate_evals += 1
                    if not condition(combined):
                        continue
                yield combined

    def _exec_IndexNLJoinPlan(self, plan: IndexNLJoinPlan) -> Iterator[tuple]:
        assert plan.left is not None and plan.outer_key is not None
        table = self.catalog.table(plan.inner_table)
        index = self.catalog.index_by_name(plan.inner_table, plan.inner_index)
        outer_fn = self._row_fn(plan.outer_key, plan.left.binding)
        inner_binding = RowBinding.for_table(plan.inner_alias, table.schema.names)
        inner_pred = self._compile_filter(plan.inner_filter, inner_binding)
        residual = self._compile_filter(plan.residual, plan.binding)
        counters = self.counters
        page_size = table.page_size
        pages_touched: set[int] = set()  # per-join buffer-pool model
        for lrow in self._iter(plan.left):
            key = outer_fn(lrow)
            if key is None:
                continue
            for rowid in index.search_eq(key, counters):
                rrow = table.get(rowid)
                if rrow is None:
                    continue
                page = rowid // page_size
                if page not in pages_touched:
                    pages_touched.add(page)
                    counters.pages_random += 1
                counters.tuples_scanned += 1
                if inner_pred is not None:
                    counters.predicate_evals += 1
                    if not inner_pred(rrow):
                        continue
                combined = lrow + rrow
                if residual is not None:
                    counters.predicate_evals += 1
                    if not residual(combined):
                        continue
                yield combined

    # ---------------------------------------------------------- aggregation

    def _exec_AggregatePlan(self, plan: AggregatePlan) -> Iterator[tuple]:
        assert plan.child is not None
        binding = plan.child.binding
        group_fns = [self._row_fn(e, binding) for e in plan.group_exprs]
        arg_fns = [
            self._row_fn(spec.arg, binding) if spec.arg is not None else None
            for spec in plan.aggregates
        ]
        groups: dict[tuple, list[_AggState]] = {}
        for row in self._iter(plan.child):
            key = tuple(fn(row) for fn in group_fns)
            states = groups.get(key)
            if states is None:
                states = [_AggState(spec) for spec in plan.aggregates]
                groups[key] = states
            for state, arg_fn in zip(states, arg_fns):
                state.update(row, arg_fn)
        if not groups and not plan.group_exprs:
            # Global aggregate over empty input still emits one row.
            states = [_AggState(spec) for spec in plan.aggregates]
            yield tuple(s.result() for s in states)
            return
        for key, states in groups.items():
            yield key + tuple(s.result() for s in states)

    # ------------------------------------------------- ordering and set ops

    def _exec_SortPlan(self, plan: SortPlan) -> Iterator[tuple]:
        assert plan.child is not None
        fns = [self._row_fn(e, plan.child.binding) for e in plan.sort_exprs]
        rows = list(self._iter(plan.child))
        # Stable multi-key sort: apply keys from least to most significant.
        for fn, asc in reversed(list(zip(fns, plan.ascending))):
            rows.sort(key=lambda r: _sort_key(fn(r)), reverse=not asc)
        yield from rows

    def _exec_LimitPlan(self, plan: LimitPlan) -> Iterator[tuple]:
        assert plan.child is not None
        remaining = plan.limit
        if remaining <= 0:
            return
        child = plan.child
        if isinstance(child, SortPlan) and child.child is not None:
            # Fused top-k: a LIMIT directly above a Sort keeps a heap of
            # the best `limit` rows instead of fully sorting the input.
            # Equivalent to the unfused pair: one stable sort on the
            # composite direction-aware key equals the multi-pass stable
            # sorts, and nsmallest's index tiebreaker keeps stability.
            fns = [self._row_fn(e, child.child.binding) for e in child.sort_exprs]
            ascending = child.ascending

            def key_of(row: tuple) -> tuple:
                return tuple(
                    _sort_key(fn(row)) if asc else _ReverseKey(_sort_key(fn(row)))
                    for fn, asc in zip(fns, ascending)
                )

            best = heapq.nsmallest(
                remaining,
                (
                    (key_of(row), i, row)
                    for i, row in enumerate(self._iter(child.child))
                ),
            )
            for _key, _i, row in best:
                yield row
            return
        for row in self._iter(child):
            yield row
            remaining -= 1
            if remaining == 0:
                return

    def _exec_DistinctPlan(self, plan: DistinctPlan) -> Iterator[tuple]:
        assert plan.child is not None
        seen: set[tuple] = set()
        for row in self._iter(plan.child):
            if row in seen:
                continue
            seen.add(row)
            yield row

    def _exec_SetOpPlan(self, plan: SetOpPlan) -> Iterator[tuple]:
        assert plan.left is not None and plan.right is not None
        if plan.op == "UNION":
            if plan.all:
                yield from self._iter(plan.left)
                yield from self._iter(plan.right)
                return
            seen: set[tuple] = set()
            for side in (plan.left, plan.right):
                for row in self._iter(side):
                    if row not in seen:
                        seen.add(row)
                        yield row
            return
        right_set = set(self._iter(plan.right))
        if plan.op == "EXCEPT":
            emitted: set[tuple] = set()
            for row in self._iter(plan.left):
                if row not in right_set and row not in emitted:
                    emitted.add(row)
                    yield row
            return
        # INTERSECT
        emitted = set()
        for row in self._iter(plan.left):
            if row in right_set and row not in emitted:
                emitted.add(row)
                yield row

    # ------------------------------------------------------------ subqueries

    def _eval_in_subquery(self, query_ast: Any) -> frozenset:
        key = id(query_ast)
        cached = self._in_subquery_cache.get(key)
        if cached is not None:
            return cached
        if self.plan_subquery is None:
            raise ExecutionError("subquery planning is not available here")
        plan = self.plan_subquery(query_ast, self._cte_plans)
        rows = list(self._iter(plan))
        if rows and len(rows[0]) != 1:
            raise ExecutionError("IN subquery must produce exactly one column")
        members = frozenset(row[0] for row in rows)
        self._in_subquery_cache[key] = members
        return members

    def _make_scalar_subquery_fn(self, outer_binding: RowBinding):
        def scalar_fn(query_ast: Any, outer_row: tuple) -> Any:
            return self._eval_scalar_subquery(query_ast, outer_binding, outer_row)

        return scalar_fn

    def _eval_scalar_subquery(
        self, query_ast: Any, outer_binding: RowBinding, outer_row: tuple
    ) -> Any:
        outer_refs = self._correlated_refs(query_ast, outer_binding)
        key_vals = tuple(outer_row[outer_binding.resolve(r)] for r in outer_refs)
        cache_key = (id(query_ast), key_vals)
        if cache_key in self._scalar_cache:
            return self._scalar_cache[cache_key]
        bound_ast = (
            _substitute_refs(
                query_ast,
                {r: Literal(v) for r, v in zip(outer_refs, key_vals)},
            )
            if outer_refs
            else query_ast
        )
        if self.plan_subquery is None:
            raise ExecutionError("subquery planning is not available here")
        plan = self.plan_subquery(bound_ast, self._cte_plans)
        rows = list(self._iter(plan))
        if len(rows) > 1:
            raise ExecutionError("scalar subquery produced more than one row")
        if rows and len(rows[0]) != 1:
            raise ExecutionError("scalar subquery must produce exactly one column")
        value = rows[0][0] if rows else None
        self._scalar_cache[cache_key] = value
        return value

    def _correlated_refs(self, query_ast: Any, outer_binding: RowBinding) -> list[ColumnRef]:
        """Column refs inside the subquery that resolve in the outer row.

        A ref is treated as correlated when it does not resolve against
        the subquery's own FROM tables but does resolve in the outer
        binding.
        """
        from repro.sql.ast import Select, TableRef  # local import to avoid cycle

        body = query_ast.body if hasattr(query_ast, "body") else query_ast
        if not isinstance(body, Select):
            return []
        own: set[tuple[str | None, str]] = set()
        own_aliases: set[str] = set()
        for item in body.from_items:
            if not isinstance(item, TableRef):
                continue
            cte_plan = self._cte_plans.get(item.name.lower())
            if cte_plan is not None:
                names = cte_plan.binding.column_names
            elif self.catalog.has_table(item.name):
                names = self.catalog.table(item.name).schema.names
            else:
                continue
            alias = (item.alias or item.name).lower()
            own_aliases.add(alias)
            for col in names:
                own.add((alias, col.lower()))
                own.add((None, col.lower()))
        refs: list[ColumnRef] = []
        exprs: list[Expr] = []
        if body.where is not None:
            exprs.append(body.where)
        for sel_item in body.items:
            exprs.append(sel_item.expr)
        for expr in exprs:
            for ref in columns_referenced(expr):
                key = (ref.table.lower() if ref.table else None, ref.name.lower())
                if key in own:
                    continue
                if ref.table is not None and ref.table.lower() in own_aliases:
                    continue
                if outer_binding.has(ref) and ref not in refs:
                    refs.append(ref)
        return refs


def _sort_key(value: Any) -> tuple:
    """Total order with None first and mixed types grouped by type name."""
    if value is None:
        return (0, "", 0)
    if isinstance(value, bool):
        return (1, "bool", int(value))
    if isinstance(value, (int, float)):
        return (1, "num", value)
    return (1, type(value).__name__, value)


class _ReverseKey:
    """Inverts ordering of a wrapped sort key (DESC members of the
    composite top-k key, shared by both executors)."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other: "_ReverseKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _ReverseKey) and other.key == self.key


class _AggState:
    """Incremental state for one aggregate computation."""

    __slots__ = ("spec", "count", "total", "min", "max", "distinct")

    def __init__(self, spec: AggSpec):
        self.spec = spec
        self.count = 0
        self.total: Any = None
        self.min: Any = None
        self.max: Any = None
        self.distinct: set | None = set() if spec.distinct else None

    def update(self, row: tuple, arg_fn) -> None:
        if arg_fn is None:  # COUNT(*)
            self.count += 1
            return
        self.update_value(arg_fn(row))

    def update_value(self, value: Any) -> None:
        """Fold one already-computed argument value (batch path)."""
        if value is None:
            return
        if self.distinct is not None:
            if value in self.distinct:
                return
            self.distinct.add(value)
        self.count += 1
        if self.total is None:
            self.total = value
        else:
            self.total = self.total + value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def result(self) -> Any:
        func = self.spec.func
        if func == "count":
            return self.count
        if func == "sum":
            return self.total
        if func == "avg":
            return None if self.count == 0 else self.total / self.count
        if func == "min":
            return self.min
        if func == "max":
            return self.max
        raise ExecutionError(f"unknown aggregate {func!r}")


def _substitute_refs(query_ast: Any, subs: dict[ColumnRef, Literal]) -> Any:
    """Clone a subquery AST replacing correlated refs with literals."""
    from repro.sql.ast import Query, Select, SelectItem

    body = query_ast.body if isinstance(query_ast, Query) else query_ast
    if not isinstance(body, Select):
        raise ExecutionError("correlated set-operation subqueries are not supported")

    def sub_expr(expr: Expr) -> Expr:
        if isinstance(expr, ColumnRef):
            return subs.get(expr, expr)
        if isinstance(expr, And):
            return And(tuple(sub_expr(c) for c in expr.children))
        if isinstance(expr, Or):
            return Or(tuple(sub_expr(c) for c in expr.children))
        if isinstance(expr, Not):
            return Not(sub_expr(expr.child))
        if isinstance(expr, Comparison):
            return Comparison(expr.op, sub_expr(expr.left), sub_expr(expr.right))
        if isinstance(expr, Arith):
            return Arith(expr.op, sub_expr(expr.left), sub_expr(expr.right))
        if isinstance(expr, Between):
            return Between(
                sub_expr(expr.expr), sub_expr(expr.low), sub_expr(expr.high), expr.negated
            )
        if isinstance(expr, InList):
            return InList(
                sub_expr(expr.expr), tuple(sub_expr(i) for i in expr.items), expr.negated
            )
        if isinstance(expr, IsNull):
            return IsNull(sub_expr(expr.child))
        if isinstance(expr, FuncCall):
            return FuncCall(expr.name, tuple(sub_expr(a) for a in expr.args), expr.distinct)
        return expr

    new_select = Select(
        items=[SelectItem(sub_expr(i.expr), i.alias) for i in body.items],
        from_items=list(body.from_items),
        joins=list(body.joins),
        where=sub_expr(body.where) if body.where is not None else None,
        group_by=[sub_expr(e) for e in body.group_by],
        having=sub_expr(body.having) if body.having is not None else None,
        order_by=list(body.order_by),
        limit=body.limit,
        distinct=body.distinct,
    )
    if isinstance(query_ast, Query):
        return Query(body=new_select, ctes=list(query_ast.ctes))
    return new_select
