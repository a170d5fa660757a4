"""Vectorized batch execution (the engine's hot path).

The tuple-at-a-time executor walks every row through a chain of Python
generators and closure trees; at Sieve's scale (guarded scans checking
hundreds of policy disjuncts per tuple) interpreter dispatch dwarfs
the actual work.  This module replaces it with batch execution:

* :class:`RowBatch` — a batch of tuples with per-column arrays and a
  *selection* (surviving row indices).  Operators exchange
  batches, so per-node overhead is paid once per ~thousand rows instead
  of once per row.  A base-table scan's batch is *table-backed*: its
  rows are the heap's slots, its columns the table's own arrays, its
  selection the rowids the scan reached — nothing is fetched, paired
  or transposed before the filter has run, and only the survivors
  materialise.
* :class:`BatchPredicate` — a filter compiled into conjunct *stages*.
  Plain conjuncts become column-mode codegen kernels (one call filters
  the whole selection), compiled once per *shape* — the conjunct with
  its literals lifted out — and handed this conjunct's constants at
  every call; a policy-style wide OR becomes one fused
  **guard** kernel in which a row tries only the branches that can
  hold for it, and ``counters.policy_evals`` is charged what the
  closure compiler's short-circuit metering would charge — tick for
  tick identical to the tuple path (see ``docs/ARCHITECTURE.md``,
  "Vectorized engine").  A conjunct column mode cannot express (a
  scalar subquery) runs per row through the generated row function,
  which preserves metering and correlation semantics exactly.
* :class:`VectorizedExecutor` — one batch operator (``_vexec_<Node>``)
  for every concrete plan node; a product run never enters the tuple
  methods of the :class:`~repro.engine.executor.Executor` it extends
  (the differential oracle), from which it keeps construction, the
  row-function cache and subquery evaluation.

Counter semantics in batch mode: ``tuples_scanned``, page counters,
``predicate_evals`` (one per input row per filter) and
``policy_evals`` are charged in the same per-row amounts as the tuple
path — the differential suite asserts equality on real workloads.
The one stated difference: an operator streaming into a bare ``LIMIT``
finishes the batch it is on, so there each counter lies in
``[oracle, oracle + one batch)`` (``docs/ARCHITECTURE.md``).
``counters.batches`` additionally counts scan batches formed (zero
cost weight).
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

from repro.common.errors import ExecutionError
from repro.expr.analysis import conjuncts, contains_subquery
from repro.expr.codegen import CodegenExprCompiler, CodegenUnsupported, is_metered_or
from repro.expr.eval import RowBinding
from repro.expr.nodes import Expr
from repro.expr.params import lift_constants
from repro.engine.executor import (
    Executor,
    QueryResult,
    _AggState,
    _ReverseKey,
    _sort_key,
)
from repro.engine.plans import (
    AggregatePlan,
    BitmapOrPlan,
    CTEScanPlan,
    DerivedScanPlan,
    DistinctPlan,
    FilterPlan,
    HashJoinPlan,
    IndexNLJoinPlan,
    IndexScanPlan,
    LimitPlan,
    NLJoinPlan,
    PlanNode,
    ProjectPlan,
    SeqScanPlan,
    SetOpPlan,
    SortPlan,
)

#: Sequential scans form one batch per this many heap pages (aligned to
#: page boundaries so page accounting stays exact).
BATCH_PAGES = 8

#: Row-count granularity for batches not tied to the page structure
#: (CTE scans, index and bitmap heap fetches, nested-loop pairs).
BATCH_ROWS = 1024


class RowBatch:
    """A batch of row tuples plus a selection of surviving indices.

    ``sel`` is ``None`` for "all rows" or a list of distinct indices.
    ``columns()`` lazily transposes the *full* batch
    (a single C-level ``zip``); kernels then index columns by selected
    position, so narrowing a selection never copies row data.

    A scan's batch is *table-backed*: ``rows`` is the heap's slot list,
    ``cols`` the table's own column arrays and ``sel`` the rowids the
    scan reached (always a list: a slot may be a tombstone) — nothing
    is fetched or transposed, and only rows that survive the filter
    are ever touched, by :meth:`take`.
    """

    __slots__ = ("rows", "sel", "_cols")

    def __init__(self, rows: list[tuple], sel: list[int] | None = None, cols: list | None = None):
        self.rows = rows
        self.sel = sel
        self._cols = cols

    def columns(self) -> list:
        if self._cols is None:
            self._cols = list(zip(*self.rows)) if self.rows else []
        return self._cols

    def indices(self) -> list[int]:
        return self.sel if self.sel is not None else list(range(len(self.rows)))

    def narrow(self, sel: list[int]) -> "RowBatch":
        """The same rows under a narrower selection — shares the column
        transposition, so pipelined operators never re-run ``zip``."""
        return RowBatch(self.rows, sel, self._cols)

    def take(self) -> list[tuple]:
        """The selected rows, in order."""
        if self.sel is None:
            return self.rows
        rows = self.rows
        return [rows[i] for i in self.sel]


# Stage evaluators all share one shape: fn(batch, sel) -> passing indices.
_StageFn = Callable[[RowBatch, list], list]


class BatchPredicate:
    """A filter expression compiled into ordered conjunct stages.

    Stage order is the flattened conjunct order — the order the
    closure compiler's ``all()`` would evaluate them — so rows reach a
    guard stage exactly when the tuple path would have reached the
    wide OR, keeping ``policy_evals`` identical.  Every stage is a
    ``fn(batch, sel) -> narrowed sel``; guard (metered OR) stages and
    composed disjunct pipelines are closures over sub-stages.
    """

    __slots__ = ("stages", "counters")

    def __init__(self, stages: list[_StageFn], counters: Any):
        self.stages = stages
        self.counters = counters

    def apply(self, batch: RowBatch, sel: list) -> list:
        """Filter ``sel``; charges ``predicate_evals`` once per input
        row (the tuple path's one tick per row per filter)."""
        self.counters.predicate_evals += len(sel)
        for stage in self.stages:
            if not sel:
                break
            sel = stage(batch, sel)
        return sel


def _filtered(batch: RowBatch, pred: BatchPredicate | None) -> RowBatch | None:
    """``batch`` under the selection ``pred`` leaves of it; ``None``
    when it leaves nothing."""
    if pred is None:
        return batch
    sel = pred.apply(batch, batch.indices())
    return batch.narrow(sel) if sel else None


def _chunked(rows: list) -> Iterator[list]:
    """``rows`` in slices of ``BATCH_ROWS``."""
    return (rows[start : start + BATCH_ROWS] for start in range(0, len(rows), BATCH_ROWS))


def top_k_rows(rows: list[tuple], keys: list, limit: int) -> list[tuple]:
    """First ``limit`` rows of the stable composite sort — via a heap,
    never materializing the full ordering.  ``keys[i]`` is row ``i``'s
    composite key (DESC members wrapped in :class:`_ReverseKey`); the
    index tiebreaker reproduces stable-sort semantics exactly."""
    best = heapq.nsmallest(limit, ((keys[i], i) for i in range(len(rows))))
    return [rows[i] for _key, i in best]


def _union_inputs(plan: SetOpPlan) -> list[PlanNode]:
    """The inputs of a UNION, left to right, with those of every UNION
    nested in it whose duplicate handling it subsumes (any under a
    UNION, a UNION ALL under a UNION ALL).  The MySQL IndexGuards
    rewrite is one left-deep chain, a node per guard: run as one
    operator it costs no generator frame per guard."""
    inputs: list[PlanNode] = []
    pending: list[PlanNode | None] = [plan]
    while pending:
        node = pending.pop()
        if isinstance(node, SetOpPlan) and node.op == "UNION" and (node.all or not plan.all):
            pending += [node.right, node.left]
        else:
            assert node is not None
            inputs.append(node)
    return inputs


class VectorizedExecutor(Executor):
    """Batch executor: every plan node runs as a ``_vexec_`` operator."""

    compiler_cls = CodegenExprCompiler

    # ------------------------------------------------------------ plumbing

    def run(self, root: PlanNode, cte_plans: dict[str, PlanNode]) -> QueryResult:
        self._cte_plans = cte_plans
        self._cte_rows = {}
        for name, plan in cte_plans.items():
            self._cte_rows[name] = self._collect_rows(plan)
        rows = self._collect_rows(root)
        self.counters.tuples_output += len(rows)
        return QueryResult(columns=root.binding.column_names, rows=rows)

    def _collect_rows(self, plan: PlanNode) -> list[tuple]:
        out: list[tuple] = []
        for batch in self._batches(plan):
            out.extend(batch.take())
        return out

    def _iter(self, plan: PlanNode) -> Iterator[tuple]:
        """The plan's rows, for the inherited subquery evaluation."""
        for batch in self._batches(plan):
            yield from batch.take()

    def _batches(self, plan: PlanNode) -> Iterator[RowBatch]:
        operator = getattr(self, f"_vexec_{type(plan).__name__}", None)
        if operator is None:
            raise ExecutionError(f"no batch operator for {type(plan).__name__}")
        return operator(plan)

    # --------------------------------------------------- kernel compilation

    def _row_stage(self, expr: Expr, binding: RowBinding) -> _StageFn:
        fn = self._row_fn(expr, binding)

        def stage(batch: RowBatch, sel: list, _fn=fn) -> list:
            rows = batch.rows
            return [i for i in sel if _fn(rows[i])]

        return stage

    def _value_fn(self, expr: Expr, binding: RowBinding) -> Callable[[RowBatch, list], list]:
        """Batch value computation: ``fn(batch, sel) -> values`` — the
        column kernel of the expression's shape over this expression's
        constants, or the row function over the selected rows where
        column mode cannot express the tree (a scalar subquery)."""
        kernel, consts = self._shape_kernel(expr, binding, "colval")
        if kernel is None:
            fn = self._row_fn(expr, binding)
            return lambda batch, sel: [fn(batch.rows[i]) for i in sel]
        return lambda batch, sel: kernel(batch.columns(), sel, consts)

    def _shape_kernel(self, expr: Expr, binding: RowBinding, mode: str):
        """``(kernel, constants)`` for one non-guard expression: the
        kernel is compiled — and cached — per *shape*, the expression
        with its literals lifted out, so a binding never seen before
        costs one structural probe and no ``compile()``.  ``kernel`` is
        ``None`` where column mode cannot express the tree."""
        shape, consts = lift_constants(expr)

        def build():
            codegen = self._compiler(binding)
            try:
                if mode == "colval":
                    return codegen.compile_batch_values(shape)
                return codegen.compile_batch_predicate(shape)
            except (CodegenUnsupported, SyntaxError):
                return None

        return self._cached(shape, binding, mode, build, by_identity=False), consts

    def _cached(
        self, expr: Expr, binding: RowBinding, mode: str, build: Callable, by_identity: bool = True
    ):
        cache = self.fn_cache
        if cache is None:
            return build()
        extra = (binding.cache_key(), mode)
        fn = cache.lookup(expr, extra, self.counters, by_identity)
        if fn is None:
            fn = build()
            if fn is not None and not contains_subquery(expr):
                cache.store(expr, extra, fn, by_identity)
        return fn

    def _conjunct_stage(self, conj: Expr, binding: RowBinding) -> _StageFn:
        """One conjunct as a stage.  A metered (policy-style) OR is a
        guard stage, cached under the node itself: a single fused kernel
        (:meth:`~repro.expr.codegen.CodegenExprCompiler.compile_batch_guard`)
        whose branches are compiled — and cached — one by one, so the
        OR a policy write leaves behind reuses every branch the write
        did not touch.  Everything else runs as the comprehension kernel
        of its shape, or per row (the generated row function meters a
        wide OR itself) when column mode can't express it: scalar
        subqueries."""
        if is_metered_or(conj, self.counters):
            return self._cached(conj, binding, "stage", lambda: self._guard_stage(conj, binding))
        kernel, consts = self._shape_kernel(conj, binding, "stage")
        if kernel is None:
            return self._row_stage(conj, binding)
        return lambda batch, sel: kernel(batch.columns(), sel, consts)

    def _guard_stage(self, conj: Expr, binding: RowBinding) -> _StageFn:
        codegen = self._compiler(binding)

        def branch(node: Expr) -> Callable:
            return self._cached(
                node, binding, "branch", lambda: codegen.compile_guard_branch(node)
            )

        try:
            kernel = codegen.compile_batch_guard(conj, branch)
        except (CodegenUnsupported, SyntaxError):
            return self._row_stage(conj, binding)
        return lambda batch, sel: kernel(batch.columns(), sel, batch.rows)

    def _batch_pred(self, expr: Expr | None, binding: RowBinding) -> BatchPredicate | None:
        """The filter as a stage per conjunct.  Stages are cached one
        conjunct at a time: a policy-wide guard OR arrives as the same
        object with every binding of a query shape, so a request with
        new literals compiles only its own conjuncts, never the guard's
        kernel again."""
        if expr is None:
            return None
        stages = [self._conjunct_stage(c, binding) for c in conjuncts(expr)]
        return BatchPredicate(stages, self.counters)

    # --------------------------------------------------------------- scans

    def _table_batches(
        self, plan, table, chunks: Iterable[list[int]], page_counter: str | None
    ) -> Iterator[RowBatch]:
        """Table-backed batches, one per chunk of rowids (tombstones
        dropped here; an emptied chunk forms no batch).  Per-row counters
        are charged as the tuple path charges them, each page a chunk
        touches once per scan on ``page_counter``, and the filter runs
        over the table's own column arrays."""
        pred = self._batch_pred(plan.filter, plan.binding)
        counters = self.counters
        page_size = table.page_size
        slots, columns = table.slots, table.column_arrays()
        tombstones = table.row_count < table.slot_count
        touched: set[int] = set()  # per-scan buffer-pool model
        for rowids in chunks:
            if tombstones:
                rowids = [rowid for rowid in rowids if slots[rowid] is not None]
            if not rowids:
                continue
            if page_counter is not None:
                pages = {rowid // page_size for rowid in rowids} - touched
                touched |= pages
                setattr(counters, page_counter, getattr(counters, page_counter) + len(pages))
            counters.tuples_scanned += len(rowids)
            counters.batches += 1
            batch = RowBatch(slots, rowids, columns)
            if pred is not None:
                batch.sel = pred.apply(batch, rowids)
                if not batch.sel:
                    continue
            yield batch

    def _vexec_SeqScanPlan(self, plan: SeqScanPlan) -> Iterator[RowBatch]:
        table = self.catalog.table(plan.table_name)
        step = table.page_size * BATCH_PAGES
        chunks = (
            list(range(start, min(start + step, table.slot_count)))
            for start in range(0, table.slot_count, step)
        )
        yield from self._table_batches(plan, table, chunks, "pages_sequential")

    def _vexec_IndexScanPlan(self, plan: IndexScanPlan) -> Iterator[RowBatch]:
        table = self.catalog.table(plan.table_name)
        index = self.catalog.index_by_name(plan.table_name, plan.index_name)
        rowids = list(dict.fromkeys(self._probe_rowids(index, plan.probes)))
        yield from self._table_batches(plan, table, _chunked(rowids), "pages_random")

    def _vexec_BitmapOrPlan(self, plan: BitmapOrPlan) -> Iterator[RowBatch]:
        table = self.catalog.table(plan.table_name)
        found: set[int] = set()
        for index_name, _column, probes in plan.arms:
            index = self.catalog.index_by_name(plan.table_name, index_name)
            found.update(self._probe_rowids(index, probes))
        rowids = sorted(found)  # one heap visit per row, in page order
        page_size = table.page_size
        self.counters.pages_bitmap += len({rowid // page_size for rowid in rowids})
        yield from self._table_batches(plan, table, _chunked(rowids), None)

    def _vexec_CTEScanPlan(self, plan: CTEScanPlan) -> Iterator[RowBatch]:
        key = plan.cte_name.lower()
        if key not in self._cte_rows:
            raise ExecutionError(f"CTE {plan.cte_name!r} was not materialised")
        pred = self._batch_pred(plan.filter, plan.binding)
        counters = self.counters
        source = self._cte_rows[key]
        for rows in _chunked(source):
            counters.tuples_scanned += len(rows)
            counters.batches += 1
            if (batch := _filtered(RowBatch(rows), pred)) is not None:
                yield batch

    def _vexec_DerivedScanPlan(self, plan: DerivedScanPlan) -> Iterator[RowBatch]:
        assert plan.child is not None
        pred = self._batch_pred(plan.filter, plan.binding)
        for batch in self._batches(plan.child):
            if (batch := _filtered(batch, pred)) is not None:
                yield batch

    # ----------------------------------------------------- filter / project

    def _vexec_FilterPlan(self, plan: FilterPlan) -> Iterator[RowBatch]:
        assert plan.child is not None and plan.expr is not None
        pred = self._batch_pred(plan.expr, plan.child.binding)
        for batch in self._batches(plan.child):
            if (batch := _filtered(batch, pred)) is not None:
                yield batch

    def _vexec_ProjectPlan(self, plan: ProjectPlan) -> Iterator[RowBatch]:
        if plan.child is None:  # table-less SELECT: the one constant row
            yield RowBatch([tuple(self._row_fn(e, RowBinding())(()) for e in plan.exprs)])
            return
        fns = [self._value_fn(e, plan.child.binding) for e in plan.exprs]
        for batch in self._batches(plan.child):
            sel = batch.indices()
            if not sel:
                continue
            yield RowBatch(list(zip(*[fn(batch, sel) for fn in fns])))

    # ------------------------------------------------------------- joins

    def _vexec_HashJoinPlan(self, plan: HashJoinPlan) -> Iterator[RowBatch]:
        assert plan.left is not None and plan.right is not None
        left_key_fns = [self._value_fn(k, plan.left.binding) for k in plan.left_keys]
        right_key_fns = [self._value_fn(k, plan.right.binding) for k in plan.right_keys]
        residual = self._batch_pred(plan.residual, plan.binding)

        table: dict[tuple, list[tuple]] = {}
        for batch in self._batches(plan.right):
            sel = batch.indices()
            if not sel:
                continue
            key_cols = [fn(batch, sel) for fn in right_key_fns]
            rows = batch.rows
            for pos, key in zip(sel, zip(*key_cols)):
                if any(k is None for k in key):
                    continue
                table.setdefault(key, []).append(rows[pos])

        for batch in self._batches(plan.left):
            sel = batch.indices()
            if not sel:
                continue
            key_cols = [fn(batch, sel) for fn in left_key_fns]
            rows = batch.rows
            combined: list[tuple] = []
            for pos, key in zip(sel, zip(*key_cols)):
                bucket = table.get(key)
                if not bucket:
                    continue
                lrow = rows[pos]
                for rrow in bucket:
                    combined.append(lrow + rrow)
            if combined and (out := _filtered(RowBatch(combined), residual)) is not None:
                yield out

    def _vexec_NLJoinPlan(self, plan: NLJoinPlan) -> Iterator[RowBatch]:
        assert plan.left is not None and plan.right is not None
        condition = self._batch_pred(plan.condition, plan.binding)
        right_rows = self._collect_rows(plan.right)
        for batch in self._batches(plan.left):
            pairs = (lrow + rrow for lrow in batch.take() for rrow in right_rows)
            while combined := list(islice(pairs, BATCH_ROWS)):
                if (out := _filtered(RowBatch(combined), condition)) is not None:
                    yield out

    def _vexec_IndexNLJoinPlan(self, plan: IndexNLJoinPlan) -> Iterator[RowBatch]:
        assert plan.left is not None and plan.outer_key is not None
        table = self.catalog.table(plan.inner_table)
        index = self.catalog.index_by_name(plan.inner_table, plan.inner_index)
        outer_key = self._value_fn(plan.outer_key, plan.left.binding)
        inner_binding = RowBinding.for_table(plan.inner_alias, table.schema.names)
        inner_pred = self._batch_pred(plan.inner_filter, inner_binding)
        residual = self._batch_pred(plan.residual, plan.binding)
        counters = self.counters
        page_size, slots = table.page_size, table.slots
        touched: set[int] = set()  # per-join buffer-pool model
        for batch in self._batches(plan.left):
            sel, rows = batch.indices(), batch.rows
            outer: list[tuple] = []  # one entry per fetched inner row,
            rowids: list[int] = []  # left-major like the tuple path
            for pos, key in zip(sel, outer_key(batch, sel)):
                if key is None:
                    continue
                for rowid in index.search_eq(key, counters):
                    if slots[rowid] is not None:
                        outer.append(rows[pos])
                        rowids.append(rowid)
            pages = {rowid // page_size for rowid in rowids} - touched
            touched |= pages
            counters.pages_random += len(pages)
            counters.tuples_scanned += len(rowids)
            # A rowid may repeat (several outer rows, one inner row), so
            # the inner rows form their own batch, not a table-backed one.
            inner = _filtered(RowBatch([slots[rowid] for rowid in rowids]), inner_pred)
            if inner is None:
                continue
            combined = [outer[i] + inner.rows[i] for i in inner.indices()]
            if combined and (out := _filtered(RowBatch(combined), residual)) is not None:
                yield out

    # ---------------------------------------------------------- aggregation

    def _vexec_AggregatePlan(self, plan: AggregatePlan) -> Iterator[RowBatch]:
        assert plan.child is not None
        binding = plan.child.binding
        group_fns = [self._value_fn(e, binding) for e in plan.group_exprs]
        arg_fns = [
            self._value_fn(spec.arg, binding) if spec.arg is not None else None
            for spec in plan.aggregates
        ]
        groups: dict[tuple, list[_AggState]] = {}
        for batch in self._batches(plan.child):
            sel = batch.indices()
            if not sel:
                continue
            key_cols = [fn(batch, sel) for fn in group_fns]
            keys = (
                list(zip(*key_cols)) if key_cols else [()] * len(sel)
            )
            arg_cols = [
                fn(batch, sel) if fn is not None else None for fn in arg_fns
            ]
            for k, key in enumerate(keys):
                states = groups.get(key)
                if states is None:
                    states = [_AggState(spec) for spec in plan.aggregates]
                    groups[key] = states
                for state, col in zip(states, arg_cols):
                    if col is None:  # COUNT(*)
                        state.count += 1
                    else:
                        state.update_value(col[k])
        if not groups and not plan.group_exprs:
            yield RowBatch(
                [tuple(s.result() for s in (_AggState(sp) for sp in plan.aggregates))]
            )
            return
        rows = [
            key + tuple(s.result() for s in states) for key, states in groups.items()
        ]
        yield from map(RowBatch, _chunked(rows))

    # ------------------------------------------------- ordering and limits

    def _composite_keys(self, plan: SortPlan, rows: list[tuple]) -> list:
        """Per-row composite sort keys (DESC members reverse-wrapped);
        one stable sort on these equals the tuple path's multi-pass
        stable sorts."""
        assert plan.child is not None
        batch = RowBatch(rows)
        sel = batch.indices()
        cols = []
        for expr, asc in zip(plan.sort_exprs, plan.ascending):
            values = self._value_fn(expr, plan.child.binding)(batch, sel)
            if asc:
                cols.append([_sort_key(v) for v in values])
            else:
                cols.append([_ReverseKey(_sort_key(v)) for v in values])
        return list(zip(*cols))

    def _vexec_SortPlan(self, plan: SortPlan) -> Iterator[RowBatch]:
        assert plan.child is not None
        rows = self._collect_rows(plan.child)
        if not rows:
            return
        keys = self._composite_keys(plan, rows)
        order = sorted(range(len(rows)), key=keys.__getitem__)
        ordered = [rows[i] for i in order]
        yield from map(RowBatch, _chunked(ordered))

    def _vexec_LimitPlan(self, plan: LimitPlan) -> Iterator[RowBatch]:
        child, remaining = plan.child, plan.limit
        assert child is not None
        if remaining <= 0:
            return
        if isinstance(child, SortPlan) and child.child is not None:
            # Fused top-k: never fully sort what a LIMIT will discard.
            rows = self._collect_rows(child.child)
            if rows:
                keys = self._composite_keys(child, rows)
                yield RowBatch(top_k_rows(rows, keys, remaining))
            return
        # A bare LIMIT cuts a streaming child: the batch that crosses the
        # limit is truncated and no further one is pulled — what the
        # child charged for that batch stays charged.
        for batch in self._batches(child):
            rows = batch.take()
            yield RowBatch(rows if len(rows) <= remaining else rows[:remaining])
            remaining -= len(rows)
            if remaining <= 0:
                return

    # ------------------------------------------------- distinct and set ops

    def _first_seen(
        self, plans: Iterable[PlanNode], wanted: Callable[[tuple], bool] | None = None
    ) -> Iterator[RowBatch]:
        """Each distinct ``wanted`` row of the plans' output once, where
        it first appears."""
        seen: set[tuple] = set()
        for plan in plans:
            for batch in self._batches(plan):
                out: list[tuple] = []
                for row in batch.take():
                    if row not in seen and (wanted is None or wanted(row)):
                        seen.add(row)
                        out.append(row)
                if out:
                    yield RowBatch(out)

    def _vexec_DistinctPlan(self, plan: DistinctPlan) -> Iterator[RowBatch]:
        assert plan.child is not None
        return self._first_seen([plan.child])

    def _vexec_SetOpPlan(self, plan: SetOpPlan) -> Iterator[RowBatch]:
        assert plan.left is not None and plan.right is not None
        if plan.op == "UNION":
            inputs = _union_inputs(plan)
            if plan.all:
                for side in inputs:
                    yield from self._batches(side)
            else:
                yield from self._first_seen(inputs)
            return
        right = set(self._iter(plan.right))
        if plan.op == "EXCEPT":
            yield from self._first_seen([plan.left], lambda row: row not in right)
        else:  # INTERSECT
            yield from self._first_seen([plan.left], right.__contains__)
