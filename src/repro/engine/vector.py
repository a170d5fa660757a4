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
  hold for it — the rows sharing candidates in one call per branch,
  and a drained BitmapOr's rows arm by arm, each arm to the branches
  its key names — and ``counters.policy_evals`` is charged what the
  closure compiler's short-circuit metering would charge — tick for
  tick identical to the tuple path (see ``docs/ARCHITECTURE.md``,
  "Vectorized engine").  A conjunct column mode cannot express (a
  scalar subquery) runs per row through the generated row function,
  which preserves metering and correlation semantics exactly.
* :class:`VectorizedExecutor` — one batch operator (``_vexec_<Node>``)
  for every concrete plan node; a product run never enters the tuple
  methods of the :class:`~repro.engine.executor.Executor` it extends
  (the differential oracle), from which it keeps construction, the
  row-function cache and subquery evaluation.  A CTE whose body is a
  table scan (every Sieve rewrite's guarded relation) is held as the
  rowids the scan admitted over the heap, never copied; and what an
  operator resolves for its node — its predicate's stages, its value
  functions, a drained BitmapOr's arm dispatch — is filed in the
  plan's own dict (``PlannedQuery.resolved``) on the plan's first
  execution, so a cached plan's repeat makes no kernel look-up.

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

from collections import Counter, defaultdict
from itertools import islice
from math import isnan
from types import CodeType
from typing import Any, Callable, Iterable, Iterator

from repro.common.errors import ExecutionError
from repro.expr.analysis import conjuncts, contains_subquery, holds_subquery
from repro.expr.codegen import (
    CodegenExprCompiler,
    CodegenUnsupported,
    GuardKernel,
    is_metered_or,
    probe_constant,
)
from repro.expr.eval import RowBinding
from repro.expr.nodes import Expr
from repro.expr.params import lift_constants
from repro.engine.executor import (
    Executor,
    QueryResult,
    _AggState,
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

    def slices(self) -> Iterator["RowBatch"]:
        """This batch in batches of ``BATCH_ROWS`` rows: slices of the
        selection over the same storage, or of an unselected batch's
        rows (each transposed only if a kernel reads its columns)."""
        if self.sel is None:
            return map(RowBatch, _chunked(self.rows))
        return map(self.narrow, _chunked(self.sel))


# Stage evaluators all share one shape: fn(batch, sel) -> passing indices.
_StageFn = Callable[[RowBatch, list], list]


class BatchPredicate:
    """A filter expression compiled into ordered conjunct stages.

    Stage order is the flattened conjunct order — the order the
    closure compiler's ``all()`` would evaluate them — so rows reach a
    guard stage exactly when the tuple path would have reached the
    wide OR, keeping ``policy_evals`` identical.  Every stage is a
    ``fn(batch, sel) -> narrowed sel``: a conjunct's column kernel
    (:class:`_KernelStage`), a guard OR's (:class:`_GuardStage`) or a
    per-row closure.
    """

    __slots__ = ("stages", "counters", "__weakref__")

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


class _KernelStage:
    """A conjunct's stage: the column kernel of its shape over this
    conjunct's constants."""

    __slots__ = ("kernel", "consts")

    def __init__(self, kernel: Callable, consts: list):
        self.kernel = kernel
        self.consts = consts

    def __call__(self, batch: RowBatch, sel: list) -> list:
        return self.kernel(batch.columns(), sel, self.consts)


class _GuardStage:
    """A guard OR's stage: its compiled kernel over the batch's columns
    — kept where the stage is cached, so a BitmapOr drained arm by arm
    finds the branch functions and their look-up through it."""

    __slots__ = ("kernel",)

    def __init__(self, kernel: GuardKernel):
        self.kernel = kernel

    def __call__(self, batch: RowBatch, sel: list) -> list:
        return self.kernel(batch.columns(), sel)


class _Arms:
    """A drained BitmapOr's arm dispatch, resolved once per plan
    (:meth:`VectorizedExecutor._arm_dispatch`): the name of the index
    the arms probe (the index itself is found by name at every read),
    the guard kernel whose branches the arm keys name and the filter's
    stages before and after it."""

    __slots__ = ("index_name", "kernel", "before", "after")

    def __init__(self, index_name: str, kernel: GuardKernel, before: list, after: list):
        self.index_name = index_name
        self.kernel = kernel
        self.before = before
        self.after = after


#: A plan node's entry not yet filed in its resolved dict.
_UNRESOLVED = object()

#: The table scans whose rows a CTE holds as a selection of the heap.
_SCANS = (SeqScanPlan, IndexScanPlan, BitmapOrPlan)


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


def _sort_keys(values: list) -> list:
    """``_sort_key`` of each value — or the values themselves where
    they already sort that way: all of one type, not NULL, and no NaN."""
    kinds = set(map(type, values))
    if len(kinds) == 1 and kinds != {type(None)}:
        if kinds != {float} or not any(map(isnan, values)):
            return values
    return [_sort_key(v) for v in values]


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

    #: The running plan's resolved dict (see :meth:`run`); ``None`` files
    #: nothing — an operator run outside :meth:`run`, or a subquery's plan.
    _resolved: dict | None = None
    _cte_rows: dict[str, RowBatch]  # each CTE's rows (:meth:`_materialise`)

    # ------------------------------------------------------------ plumbing

    def run(
        self, root: PlanNode, cte_plans: dict[str, PlanNode], resolved: dict | None = None
    ) -> QueryResult:
        """Run the plan.  ``resolved`` is the plan's own dict
        (``PlannedQuery.resolved``): an operator files in it, keyed by
        its node, what it resolved on the plan's first execution and
        reads it back on every later one (:meth:`_resolve`)."""
        self._resolved = resolved
        self._cte_plans = cte_plans
        self._cte_rows = {name: self._materialise(plan) for name, plan in cte_plans.items()}
        rows = self._collect_rows(root)
        self.counters.tuples_output += len(rows)
        return QueryResult(columns=root.binding.column_names, rows=rows)

    def _drained(self, plan: PlanNode) -> Iterator[RowBatch]:
        """The plan's batches when all of them will be pulled: a
        BitmapOr here is drained (:meth:`_vexec_BitmapOrPlan`)."""
        if isinstance(plan, BitmapOrPlan):
            return self._vexec_BitmapOrPlan(plan, drained=True)
        return self._batches(plan)

    def _collect_rows(self, plan: PlanNode) -> list[tuple]:
        """The plan's rows, all of them."""
        out: list[tuple] = []
        for batch in self._drained(plan):
            out.extend(batch.take())
        return out

    def _materialise(self, plan: PlanNode) -> RowBatch:
        """A CTE's rows, once per execution, for every reference to it.
        A table scan's stay in the heap: one table-backed batch, the
        rowids the scan admitted (in scan order) over the table's slots
        and column arrays.  Any other body's rows are tuples."""
        if not isinstance(plan, _SCANS):
            return RowBatch(self._collect_rows(plan))
        rowids: list[int] = []
        last = None
        for last in self._drained(plan):
            rowids += last.sel  # type: ignore[arg-type]
        return RowBatch([], rowids) if last is None else last.narrow(rowids)

    def _iter(self, plan: PlanNode) -> Iterator[tuple]:
        """A subquery plan's rows, for the inherited subquery evaluation.
        That plan is planned afresh at every execution, so nothing of it
        is filed: the resolved dict is set aside while it runs."""
        resolved, self._resolved = self._resolved, None
        try:
            return iter(self._collect_rows(plan))
        finally:
            self._resolved = resolved

    def _resolve(self, plan: PlanNode, role: str, build: Callable):
        """What ``build()`` resolves for ``plan`` in ``role`` (a filter,
        its keys, its values, its arm dispatch): filed in the plan's
        resolved dict on its first execution and read back after, so a
        repeat makes no kernel look-up.  Nothing of a node whose own
        expressions hold a subquery is filed: its kernels carry the
        subquery's answer and close over this executor, so the compiled-
        expression cache never keeps them either."""
        memo = self._resolved
        if memo is None or self.fn_cache is None:
            return build()
        key = (id(plan), role)
        found = memo.get(key, _UNRESOLVED)
        if found is _UNRESOLVED:
            found = build()
            if not any(map(holds_subquery, plan.expressions())):
                memo[key] = found
        return found

    def _pred(self, plan: PlanNode, role: str, expr: Expr | None, binding: RowBinding):
        """``plan``'s filter in ``role`` as a :class:`BatchPredicate`,
        resolved once per plan."""
        return self._resolve(plan, role, lambda: self._batch_pred(expr, binding))

    def _values(self, plan: PlanNode, role: str, exprs: list, binding: RowBinding) -> list:
        """``plan``'s value functions in ``role`` (:meth:`_value_fn`; a
        ``None`` stays ``None``), resolved once per plan."""
        return self._resolve(
            plan, role, lambda: [None if e is None else self._value_fn(e, binding) for e in exprs]
        )

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
            fn = self._row_fn(expr, binding, value=True)
            return lambda batch, sel: [fn(batch.rows[i]) for i in sel]
        return lambda batch, sel: kernel(batch.columns(), sel, consts)

    def _shape_kernel(self, expr: Expr, binding: RowBinding, mode: str):
        """``(kernel, constants)`` for one non-guard expression: the
        kernel is compiled — and cached — per *shape*, the expression
        with its literals lifted out, so a binding never seen before
        costs one structural probe and no ``compile()``.  ``kernel`` is
        ``None`` where column mode cannot express the tree."""
        shape, consts = lift_constants(expr, value=mode == "colval")

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
        self,
        expr: Expr | str,
        binding: RowBinding,
        mode: str,
        build: Callable,
        by_identity: bool = True,
    ):
        """What ``build()`` returns, through the compiled-expression
        cache under ``expr`` — an expression, or a guard kernel's
        generated source (mode ``"source"``, its code object: a guard's
        dispatch shell, or a guard branch's shape)."""
        cache = self.fn_cache
        if cache is None:
            return build()
        extra = (binding.cache_key(), mode)
        fn = cache.lookup(expr, extra, by_identity)
        if fn is None:
            fn = build()
            if fn is not None and not (isinstance(expr, Expr) and contains_subquery(expr)):
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
        return _KernelStage(kernel, consts)

    def _guard_stage(self, conj: Expr, binding: RowBinding) -> _StageFn:
        codegen = self._compiler(binding)

        def code(source: str) -> CodeType:
            return self._cached(
                source, binding, "source", lambda: codegen.compile_source(source), by_identity=False
            )

        def shape(key: tuple, build: Callable) -> Callable:
            return self._cached(key, binding, "shape", build, by_identity=False)

        def branch(node: Expr) -> Callable:
            return self._cached(
                node, binding, "branch", lambda: codegen.compile_guard_branch(node, code, shape)
            )

        try:
            return _GuardStage(codegen.compile_batch_guard(conj, branch, code))
        except (CodegenUnsupported, SyntaxError):
            return self._row_stage(conj, binding)

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
        self,
        pred: BatchPredicate | None,
        table,
        chunks: Iterable[list[int]],
        page_counter: str | None,
    ) -> Iterator[RowBatch]:
        """Table-backed batches, one per chunk of rowids (tombstones
        dropped here; an emptied chunk forms no batch).  Per-row counters
        are charged as the tuple path charges them, each page a chunk
        touches once per scan on ``page_counter``, and the filter runs
        over the table's own column arrays."""
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
        pred = self._pred(plan, "filter", plan.filter, plan.binding)
        yield from self._table_batches(pred, table, chunks, "pages_sequential")

    def _vexec_IndexScanPlan(self, plan: IndexScanPlan) -> Iterator[RowBatch]:
        table = self.catalog.table(plan.table_name)
        index = self.catalog.index_by_name(plan.table_name, plan.index_name)
        rowids = list(dict.fromkeys(self._probe_rowids(index, plan.probes)))
        pred = self._pred(plan, "filter", plan.filter, plan.binding)
        yield from self._table_batches(pred, table, _chunked(rowids), "pages_random")

    def _vexec_BitmapOrPlan(self, plan: BitmapOrPlan, drained: bool = False) -> Iterator[RowBatch]:
        """The arms' rowids OR-ed, each live row filtered once.  Where
        the scan is ``drained`` (every row will be pulled, as a CTE's
        materialisation pulls them) and its arms are the look-up of a
        guard stage of the filter (:meth:`_arm_dispatch`), each arm's rows
        go to that arm's own branches (:meth:`_arm_batches`); otherwise
        the union is sorted and filtered in chunks, so a bare ``LIMIT``
        above stops after the batch it needs."""
        table = self.catalog.table(plan.table_name)

        def build():
            pred = self._batch_pred(plan.filter, plan.binding)
            return pred, self._arm_dispatch(plan, table, pred) if drained else None

        pred, arms = self._resolve(plan, "filter", build)
        if arms is not None:
            index = self.catalog.index_by_name(plan.table_name, arms.index_name)
            yield from self._arm_batches(plan, table, index, arms)
            return
        found: set[int] = set()
        for index_name, _column, probes in plan.arms:
            index = self.catalog.index_by_name(plan.table_name, index_name)
            found.update(self._probe_rowids(index, probes))
        rowids = sorted(found)  # one heap visit per row, in page order
        page_size = table.page_size
        self.counters.pages_bitmap += len({rowid // page_size for rowid in rowids})
        yield from self._table_batches(pred, table, _chunked(rowids), None)

    def _arm_dispatch(self, plan: BitmapOrPlan, table, pred: BatchPredicate | None) -> "_Arms | None":
        """The arm dispatch when every arm of ``plan`` is point probes on
        one index, with constants a dict can find, and a guard stage of
        ``pred`` finds each of its branches by that index's column in one
        dict: a row an arm's key found has that key's branches as its
        candidates, so each arm's rows are one group.  ``None`` otherwise."""
        names = {index_name for index_name, _column, _probes in plan.arms}
        if pred is None or len(names) != 1:
            return None
        if not all(p.is_point and probe_constant(p.eq_value) for _n, _c, probes in plan.arms for p in probes):
            return None
        index_name = names.pop()
        pos = table.schema.index_of(self.catalog.index_by_name(plan.table_name, index_name).column)
        for at, stage in enumerate(pred.stages):
            points = stage.kernel.points if isinstance(stage, _GuardStage) else None
            if points is not None and points[0] == pos:
                return _Arms(index_name, stage.kernel, pred.stages[:at], pred.stages[at + 1 :])
        return None

    def _arm_batches(self, plan: BitmapOrPlan, table, index, arms: "_Arms") -> Iterator[RowBatch]:
        """A drained BitmapOr, arm key by arm key: each key's live rows
        (one batch) run the filter's stages before the guard, then only
        the branches the key names — each branch called once, on the rows
        the previous one missed — then the stages after it on the hits.
        Every counter is charged as the sorted union's chunks charge it
        (the keys are distinct and a row has one value, so the arms'
        rowids are disjoint); only the hits are sorted, into page order."""
        counters = self.counters
        groups: dict[Any, list[int]] = {}
        for _name, _column, probes in plan.arms:
            for probe in probes:  # each probe's own node visits, as _probe_rowids charges them
                groups.setdefault(probe.eq_value, index.search_eq(probe.eq_value, counters))
        page_size = table.page_size
        counters.pages_bitmap += len({rowid // page_size for rowids in groups.values() for rowid in rowids})
        slots, columns = table.slots, table.column_arrays()
        tombstones = table.row_count < table.slot_count
        batch = RowBatch(slots, None, columns)
        kernel, before, after = arms.kernel, arms.before, arms.after
        fns, width, ordinals = kernel.branches, kernel.width, kernel.points[1]  # type: ignore[index]
        hits: list[int] = []
        charge = 0
        for key, sel in groups.items():
            if tombstones:
                sel = [rowid for rowid in sel if slots[rowid] is not None]
            if not sel:
                continue
            counters.tuples_scanned += len(sel)
            counters.predicate_evals += len(sel)
            counters.batches += 1
            for stage in before:
                sel = stage(batch, sel)
                if not sel:
                    break
            else:  # rows reached the guard
                for j in ordinals.get(key, ()):
                    found, sel, spent = fns[j](columns, sel)
                    charge += spent + (j + 1) * len(found)
                    for stage in after:
                        if not found:
                            break
                        found = stage(batch, found)
                    hits += found
                    if not sel:
                        break
                else:  # rows no branch of the key admits
                    charge += width * len(sel)
        counters.policy_evals += charge
        hits.sort()
        for chunk in _chunked(hits):
            yield RowBatch(slots, chunk, columns)

    def _vexec_CTEScanPlan(self, plan: CTEScanPlan) -> Iterator[RowBatch]:
        """The CTE's materialised batch (:meth:`_materialise`) in slices
        of ``BATCH_ROWS``, each charged as a scan batch of that many
        rows and filtered."""
        source = self._cte_rows.get(plan.cte_name.lower())
        if source is None:
            raise ExecutionError(f"CTE {plan.cte_name!r} was not materialised")
        pred = self._pred(plan, "filter", plan.filter, plan.binding)
        counters = self.counters
        for batch in source.slices():
            counters.tuples_scanned += len(batch.rows if batch.sel is None else batch.sel)
            counters.batches += 1
            if (batch := _filtered(batch, pred)) is not None:
                yield batch

    def _vexec_DerivedScanPlan(self, plan: DerivedScanPlan) -> Iterator[RowBatch]:
        assert plan.child is not None
        pred = self._pred(plan, "filter", plan.filter, plan.binding)
        for batch in self._batches(plan.child):
            if (batch := _filtered(batch, pred)) is not None:
                yield batch

    # ----------------------------------------------------- filter / project

    def _vexec_FilterPlan(self, plan: FilterPlan) -> Iterator[RowBatch]:
        assert plan.child is not None and plan.expr is not None
        pred = self._pred(plan, "filter", plan.expr, plan.child.binding)
        for batch in self._batches(plan.child):
            if (batch := _filtered(batch, pred)) is not None:
                yield batch

    def _vexec_ProjectPlan(self, plan: ProjectPlan) -> Iterator[RowBatch]:
        if plan.child is None:  # table-less SELECT: the one constant row
            binding = RowBinding()
            fns = self._resolve(plan, "values", lambda: [self._row_fn(e, binding, value=True) for e in plan.exprs])
            yield RowBatch([tuple(fn(()) for fn in fns)])
            return
        fns = self._values(plan, "values", plan.exprs, plan.child.binding)
        for batch in self._batches(plan.child):
            sel = batch.indices()
            if not sel:
                continue
            yield RowBatch(list(zip(*[fn(batch, sel) for fn in fns])))

    # ------------------------------------------------------------- joins

    def _vexec_HashJoinPlan(self, plan: HashJoinPlan) -> Iterator[RowBatch]:
        assert plan.left is not None and plan.right is not None
        left_key_fns = self._values(plan, "left", plan.left_keys, plan.left.binding)
        right_key_fns = self._values(plan, "right", plan.right_keys, plan.right.binding)
        residual = self._pred(plan, "residual", plan.residual, plan.binding)

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
        condition = self._pred(plan, "condition", plan.condition, plan.binding)
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
        (outer_key,) = self._values(plan, "outer", [plan.outer_key], plan.left.binding)
        inner_binding = RowBinding.for_table(plan.inner_alias, table.schema.names)
        inner_pred = self._pred(plan, "inner", plan.inner_filter, inner_binding)
        residual = self._pred(plan, "residual", plan.residual, plan.binding)
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
        """Hash aggregation over the input's columns: the rows are split
        by group key once, and each group's argument values are folded
        in one call (``_AggState.fold``); a COUNT(*) only counts.  Groups
        come out in first-seen order; without GROUP BY there is exactly
        one, also over no rows."""
        assert plan.child is not None
        binding = plan.child.binding
        group_fns = self._values(plan, "groups", plan.group_exprs, binding)
        arg_fns = self._values(plan, "args", [spec.arg for spec in plan.aggregates], binding)
        keys: list[tuple] = []
        args: list[list | None] = [None if fn is None else [] for fn in arg_fns]
        rows_in = 0
        for batch in self._batches(plan.child):
            sel = batch.indices()
            if not sel:
                continue
            rows_in += len(sel)
            if group_fns:
                keys += zip(*[fn(batch, sel) for fn in group_fns])
            for col, fn in zip(args, arg_fns):
                if fn is not None:
                    col += fn(batch, sel)
        parts: list[tuple[tuple, int, list[int] | None]]  # (key, rows, positions)
        if not group_fns:
            parts = [((), rows_in, None)]
        elif all(col is None for col in args):
            parts = [(key, count, None) for key, count in Counter(keys).items()]
        else:
            positions: defaultdict[tuple, list[int]] = defaultdict(list)
            for i, key in enumerate(keys):
                positions[key].append(i)
            parts = [(key, len(picks), picks) for key, picks in positions.items()]
        rows = []
        for key, count, picks in parts:
            states = [_AggState(spec) for spec in plan.aggregates]
            for state, col in zip(states, args):
                if col is None:
                    state.count += count
                else:
                    state.fold(col if picks is None else [col[i] for i in picks])
            rows.append(key + tuple(state.result() for state in states))
        yield from map(RowBatch, _chunked(rows))

    # ------------------------------------------------- ordering and limits

    def _vexec_SortPlan(self, plan: SortPlan) -> Iterator[RowBatch]:
        """The oracle's sort: one stable pass per key column, least
        significant first, over the row positions; the ordered rows are
        formed a batch at a time, so a LIMIT above forms only its own."""
        assert plan.child is not None
        rows = self._collect_rows(plan.child)
        if not rows:
            return
        batch = RowBatch(rows)
        sel, order = batch.indices(), batch.indices()
        fns = self._values(plan, "keys", plan.sort_exprs, plan.child.binding)
        for fn, asc in reversed(list(zip(fns, plan.ascending))):
            keys = _sort_keys(fn(batch, sel))
            order.sort(key=keys.__getitem__, reverse=not asc)
        for chunk in _chunked(order):
            yield RowBatch([rows[i] for i in chunk])

    def _vexec_LimitPlan(self, plan: LimitPlan) -> Iterator[RowBatch]:
        child, remaining = plan.child, plan.limit
        assert child is not None
        if remaining <= 0:
            return
        # Over a Sort this is the sort's first `limit` rows.  A bare
        # LIMIT cuts a streaming child: the batch that crosses the limit
        # is truncated and no further one is pulled — what the child
        # charged for that batch stays charged.
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
        right = set(self._collect_rows(plan.right))
        if plan.op == "EXCEPT":
            yield from self._first_seen([plan.left], lambda row: row not in right)
        else:  # INTERSECT
            yield from self._first_seen([plan.left], right.__contains__)
