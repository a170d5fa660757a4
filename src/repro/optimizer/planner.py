"""Query planner: AST -> physical plan, in two phases.

Planning follows a deliberately transparent recipe (this engine is a
substrate for studying Sieve, not a research optimizer):

1. FROM items become *sources*; WHERE and JOIN ON conjuncts are
   classified by the set of source aliases they reference.
2. Single-source conjuncts are pushed into access-path selection,
   which costs a sequential scan against every applicable index scan
   (and, on the PostgreSQL personality, a BitmapOr over a top-level OR
   whose every disjunct carries an indexable component — the plan shape
   Sieve's guarded expressions are designed to hit).
3. Joins fold left-to-right in FROM order, choosing index-nested-loop
   or hash join by estimated cost.
4. Aggregation, HAVING, DISTINCT, ORDER BY and LIMIT are layered on
   top.

Index-usage hints (FORCE/USE/IGNORE INDEX) are obeyed only when the
active personality honours them, mirroring MySQL vs PostgreSQL.

The recipe runs in two phases, so a query template with ``?``
parameters is planned once and costed per binding.
:meth:`Planner.prepare` (phase 1) does everything no literal changes:
the sources and the conjuncts' classification, each base table's
pushed conjuncts with the selectivities of the Param-free ones, which
conjuncts an index can probe, the BitmapOr arms of a Param-free OR,
the join, aggregation, projection, sort and limit skeleton and every
row binding.  :meth:`PlanTemplate.bind` (phase 2) estimates the
Param-bearing conjuncts, costs every candidate with the same formulas
(the selectivities multiplied in conjunct order, so the floats are
those of planning the bound query outright), takes the same argmin and
builds the plan nodes with bound filters and probes.
:meth:`Planner.plan` is ``prepare(query).bind(())``: there is one
planner.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.common.errors import PlanError
from repro.db.personality import Personality
from repro.expr.analysis import (
    columns_referenced,
    conjuncts,
    disjuncts,
    facts,
    make_and,
    map_children,
    walk,
)
from repro.expr.eval import RowBinding
from repro.expr.params import bind_expr, bind_slots, mentions_param
from repro.obs.tracing import span
from repro.expr.nodes import (
    AGGREGATE_FUNCTIONS,
    And,
    Arith,
    Between,
    ColumnRef,
    CompareOp,
    Comparison,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    Param,
    Star,
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
from repro.optimizer.cardinality import (
    DEFAULT_SELECTIVITY,
    combine_conjunction,
    conjunct_estimate,
    estimate_selectivity,
    expected_pages,
    filter_evals,
)
from repro.optimizer.stats import StatsCatalog, TableStats
from repro.sql.ast import (
    DerivedTable,
    FromItem,
    IndexHint,
    Query,
    Select,
    SelectCore,
    SetOp,
    TableRef,
)
from repro.storage.catalog import Catalog


@dataclass
class PlannedQuery:
    """A plan plus the CTE plans it depends on (materialised at exec).

    ``resolved`` is the plan's own dict, in which the batch executor
    files, per plan node, what its operator resolved on the plan's first
    execution — the node's batch predicates, value functions and a
    drained BitmapOr's arm dispatch (``engine/vector.py``) — so a cached
    plan's repeat makes no kernel look-up.  It lives and dies with this
    object: a plan evicted from the plan cache takes it along."""

    root: PlanNode
    cte_plans: dict[str, PlanNode]
    resolved: dict = field(default_factory=dict, repr=False, compare=False)


class _Bind:
    """What phase 2 is given: the binding's slot values, the memo it
    shares with the binding of the statement itself (``bind_expr``'s:
    a conjunct bound there is not bound again, and the plan's filters
    are the bound statement's nodes) and the CTE plans bound so far."""

    __slots__ = ("values", "memo", "ctes")

    def __init__(self, values: tuple, memo: dict, ctes: dict[str, PlanNode]):
        self.values = values
        self.memo = memo
        self.ctes = ctes


class _Step:
    """One plan subtree after phase 1: its row binding (no literal
    changes it) and ``bind``, phase 2, which builds the subtree's nodes
    for one binding.  ``projected`` is the child of a projection step
    (a sort whose keys the projection dropped goes beneath it)."""

    __slots__ = ("binding", "bind", "projected")

    def __init__(
        self,
        binding: RowBinding,
        bind: Callable[[_Bind], PlanNode],
        projected: "_Step | None" = None,
    ):
        self.binding = binding
        self.bind = bind
        self.projected = projected


def _binds(expr: Expr) -> bool:
    """Whether a binding rewrites ``expr``: it holds a Param, or a
    subquery (whose body may hold one)."""
    found = facts(expr)
    return found.has_param or found.has_subquery


class _Parts:
    """Conjuncts as phase 1 holds them, and which of them a binding
    rewrites (``late``, by position)."""

    __slots__ = ("parts", "late")

    def __init__(self, parts: list[Expr]):
        self.parts = parts
        self.late = [k for k, part in enumerate(parts) if _binds(part)]

    def bound(self, b: _Bind) -> list[Expr]:
        """The conjuncts under ``b`` (the held list itself when nothing
        is bound: read it, never change it)."""
        if not self.late or not b.values:
            return self.parts
        out = list(self.parts)
        for k in self.late:
            out[k] = bind_expr(out[k], b.values, b.memo)
        return out


class _Path(NamedTuple):
    """One costed access path, before its node is built."""

    est_cost: float
    kind: type  # SeqScanPlan | IndexScanPlan | BitmapOrPlan
    index_name: str | None  # an IndexScan's index (what a hint names)
    detail: Any  # IndexScan: (column, probes); BitmapOr: its arms
    filter_parts: list[Expr]


class _AccessPaths:
    """Phase 1 of access-path choice for one base table under its
    pushed conjuncts: the unclamped selectivity of each Param-free
    conjunct, the conjuncts an index can probe (with their probes when
    Param-free) and the BitmapOr arms of each Param-free top-level OR —
    a guard OR's, hundreds of disjuncts, derived here once per template.
    :meth:`paths` is phase 2."""

    def __init__(
        self,
        planner: "Planner",
        table_name: str,
        alias: str,
        pushed: list[Expr],
        stats: TableStats,
        binding: RowBinding,
    ):
        self.planner = planner
        self.table_name = table_name
        self.alias = alias
        self.stats = stats
        self.binding = binding
        self.pushed = _Parts(pushed)
        late = set(self.pushed.late)
        self.raw = [
            None if k in late else conjunct_estimate(conj, stats)
            for k, conj in enumerate(pushed)
        ]
        p = planner.personality
        self.seq_base = stats.page_count * p.seq_page_cost + stats.row_count * p.cpu_tuple_cost
        catalog = planner.catalog
        # (position, index, column, correlation, probes — None until a
        # binding gives a Param-bearing conjunct its values); the index
        # itself, as its height grows with the rows no fence counts
        self.index_scans: list[tuple[int, Any, str, float, list[IndexProbe] | None]] = []
        for k, conj in enumerate(pushed):
            shape = planner._sargable_shape(conj)
            if shape is None:
                continue
            column, points = shape
            index = catalog.index_on_column(table_name, column)
            if index is None:
                continue
            if index.kind == "hash" and not points:
                continue
            probes = None
            if k not in late:
                spec = planner._sargable(conj)
                if spec is None:
                    continue  # a NULL operand: no index finds what it admits
                probes = spec.probes
            cstats = stats.column(column)
            correlation = cstats.correlation if cstats is not None else 0.0
            self.index_scans.append((k, index, column, correlation, probes))
        # (position, arms or None until a binding gives the OR its values)
        self.bitmaps: list[tuple[int, tuple | None]] = []
        if p.supports_bitmap_or:
            version = catalog.version  # read before any arm derived under it
            for k, conj in enumerate(pushed):
                if not isinstance(conj, Or):
                    continue
                if k in late:
                    self.bitmaps.append((k, None))
                    continue
                arms = planner._or_arms(table_name, conj, stats, version)
                if arms is not None:
                    self.bitmaps.append((k, arms))

    def paths(self, b: _Bind) -> tuple[list[_Path], float]:
        """Phase 2: every access path costed under ``b``, SeqScan first,
        and the rows each returns.

        A path's filter is costed by :func:`filter_evals` — the
        evaluation ticks the executor charges for it — so a guard OR
        costs about its width on every row that reaches it."""
        planner, stats = self.planner, self.stats
        p = planner.personality
        pushed = self.pushed.bound(b)
        raw = self.raw
        if self.pushed.late:
            raw = list(raw)
            for k in self.pushed.late:
                raw[k] = conjunct_estimate(pushed[k], stats)
        conj_sels, full_sel = combine_conjunction(raw)
        out_rows = full_sel * stats.row_count

        paths = [
            _Path(
                self.seq_base
                + filter_evals(pushed, conj_sels, stats.row_count) * p.cpu_predicate_cost,
                SeqScanPlan,
                None,
                None,
                pushed,
            )
        ]
        for k, index, column, correlation, probes in self.index_scans:
            conj = pushed[k]
            if probes is None:
                spec = planner._sargable(conj)
                if spec is None:
                    continue  # bound to NULL (or left unbound)
                probes = spec.probes
            match_rows = conj_sels[k] * stats.row_count
            residual_parts = [c for c in pushed if c is not conj]
            residual_sels = [s for c, s in zip(pushed, conj_sels) if c is not conj]
            cost = (
                len(probes) * getattr(index, "height", 1) * p.index_node_cost
                + expected_pages(match_rows, stats.page_count, correlation, stats.row_count)
                * p.random_page_cost
                + match_rows * p.cpu_tuple_cost
                + filter_evals(residual_parts, residual_sels, match_rows) * p.cpu_predicate_cost
            )
            paths.append(_Path(cost, IndexScanPlan, index.name, (column, probes), residual_parts))
        best: _Path | None = None
        for k, found in self.bitmaps:
            conj = pushed[k]
            if found is None:
                found = planner._or_arms(self.table_name, conj, stats, planner.catalog.version)
                if found is None:
                    continue
            arms, total_sel, fetch_rows, est_pages, n_probes = found
            # Every fetched row satisfies an arm and every row the OR
            # admits is fetched, so it admits sel / total_sel of them.
            filter_sels = [
                (sel / total_sel if sel < total_sel else 1.0) if c is conj else sel
                for c, sel in zip(pushed, conj_sels)
            ]
            cost = (
                n_probes * 2 * p.index_node_cost
                + fetch_rows * p.index_node_cost
                + est_pages * p.bitmap_page_cost
                + fetch_rows * p.cpu_tuple_cost
                + filter_evals(pushed, filter_sels, fetch_rows) * p.cpu_predicate_cost
            )
            if best is None or cost < best.est_cost:
                best = _Path(cost, BitmapOrPlan, None, arms, pushed)
        if best is not None:
            paths.append(best)
        return paths, out_rows

    def make(self, path: _Path, est_rows: float) -> PlanNode:
        """The plan node of one costed path."""
        common = dict(
            binding=self.binding,
            est_rows=est_rows,
            est_cost=path.est_cost,
            table_name=self.table_name,
            alias=self.alias,
            filter=make_and(path.filter_parts),
        )
        if path.kind is SeqScanPlan:
            return SeqScanPlan(**common)
        if path.kind is IndexScanPlan:
            column, probes = path.detail
            return IndexScanPlan(
                index_name=path.index_name, column=column, probes=probes, **common
            )
        return BitmapOrPlan(arms=path.detail, **common)


_NO_PARAM = (Star, ColumnRef, Literal)  # leaves that cannot be or hold one


def _late_params(query: Query) -> bool:
    """Whether a Param sits outside every WHERE / JOIN ON conjunct where
    phase 1 matches expressions (aggregates against groups, sort keys
    against the projection) that a value could make equal: in a select
    item, GROUP BY or ORDER BY, or in a HAVING that
    :func:`_having_rematches`.  Parameterization extracts none there
    but HAVING's; a written template may."""
    return any(_late_params(cte.query) for cte in query.ctes) or _core_late_params(query.body)


def _core_late_params(core: SelectCore) -> bool:
    if isinstance(core, SetOp):
        return _core_late_params(core.left) or _core_late_params(core.right)
    exprs = [item.expr for item in core.items] + list(core.group_by)
    exprs += [order.expr for order in core.order_by]
    if any(not isinstance(expr, _NO_PARAM) and mentions_param(expr) for expr in exprs):
        return True
    if core.having is not None and mentions_param(core.having) and _having_rematches(core):
        return True
    items = [*core.from_items, *(join.item for join in core.joins)]
    return any(isinstance(item, DerivedTable) and _late_params(item.query) for item in items)


def _having_rematches(select: Select) -> bool:
    """Whether binding HAVING's Params could change what phase 1 matched
    in it: a Param under an aggregate call (each binding another
    aggregate), or a GROUP BY expression holding a literal or a
    subquery (a bound HAVING expression could equal it).  Otherwise —
    an aggregate or a group compared with a Param, ``COUNT(*) > ?`` —
    phase 2 binds the HAVING filter."""
    for expr in select.group_by:
        if facts(expr).has_subquery or any(isinstance(node, Literal) for node in walk(expr)):
            return True
    return any(
        isinstance(node, FuncCall)
        and node.name.lower() in AGGREGATE_FUNCTIONS
        and mentions_param(node)
        for node in walk(select.having)
    )


class PlanTemplate:
    """Phase 1's output for one query: :meth:`bind` plans it for one
    binding of its Params (``()`` for a query without any) in phase 2
    only.

    It holds what it was prepared from — each base table's
    ``TableStats``, the catalog version — and :meth:`current` says
    whether those are still the database's.  A template with a Param
    where phase 1 matches expressions (:func:`_late_params`) is
    prepared per binding instead."""

    def __init__(
        self,
        planner: "Planner",
        ctes: list[tuple[str, _Step]],
        root: _Step | None,
        read: list[tuple[Any, TableStats]],
        version: int,
        late: Query | None = None,
    ):
        self._planner = planner
        self._ctes = ctes
        self._root = root
        self._read = read
        self._version = version
        self._late = late

    def current(self) -> bool:
        """Whether planning the query now would read what this template
        was prepared from: the catalog is unchanged and every table's
        statistics are the same object (a drift past the staleness
        ratio rebuilds them here, as planning would)."""
        planner = self._planner
        return self._version == planner.catalog.version and all(
            planner.stats.get(table) is stats for table, stats in self._read
        )

    def bind(self, values: tuple = (), memo: dict | None = None) -> PlannedQuery:
        """Phase 2: the plan of the query with ``values`` bound into its
        slots — the plan :meth:`Planner.plan` builds for the bound
        query.  ``memo`` is ``bind_expr``'s, shared with the binding of
        the statement itself."""
        with span("plan.bind"):
            if self._late is not None:
                held = self._planner
                planner = Planner(held.catalog, held.stats, held.personality, held.udf_names)
                if not values:
                    return planner._prepare(self._late).bind(())
                return planner.prepare(bind_slots(self._late, values, memo)).bind(())
            b = _Bind(values, {} if memo is None else memo, {})
            for key, step in self._ctes:
                b.ctes[key] = step.bind(b)
            root = self._root.bind(b)  # type: ignore[union-attr]
            return PlannedQuery(root=root, cte_plans=b.ctes)


@dataclass
class _Source:
    alias: str
    step: _Step | None  # None until access path prepared (base tables)
    table_name: str | None  # base table name, None for derived/CTE
    hint: IndexHint | None
    column_names: list[str]

    def __post_init__(self) -> None:
        # What resolving a column reference compares against, once per
        # source instead of once per reference.
        self.alias_lc = self.alias.lower()
        self.columns_lc = frozenset(c.lower() for c in self.column_names)


@dataclass
class _Sargable:
    column: str
    probes: list[IndexProbe]
    conjunct: Expr


_RANGE_OPS = frozenset((CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE))
_OPERANDS = (Literal, Param)


class Planner:
    """Plans queries against a catalog under a given personality."""

    def __init__(
        self,
        catalog: Catalog,
        stats: StatsCatalog,
        personality: Personality,
        udf_names: frozenset[str] = frozenset(),
    ):
        self.catalog = catalog
        self.stats = stats
        self.personality = personality
        self.udf_names = udf_names
        self._read: list[tuple[Any, TableStats]] = []

    # ------------------------------------------------------------- top level

    def plan(self, query: Query) -> PlannedQuery:
        with span("plan", ctes=len(query.ctes)):
            return self.prepare(query).bind(())

    def prepare(self, query: Query) -> PlanTemplate:
        """Phase 1: a :class:`PlanTemplate` of ``query``, whose Params
        each :meth:`PlanTemplate.bind` supplies."""
        with span("plan.template"):
            if _late_params(query):
                return PlanTemplate(self, [], None, [], self.catalog.version, late=query)
            return self._prepare(query)

    def _prepare(self, query: Query) -> PlanTemplate:
        version = self.catalog.version  # read before anything derived under it
        self._read = []
        ctes: list[tuple[str, _Step]] = []
        columns: dict[str, list[str]] = {}
        for cte in query.ctes:
            step = self._prepare_core(cte.query.body, columns)
            if cte.query.ctes:
                raise PlanError("nested WITH inside a CTE is not supported")
            ctes.append((cte.name.lower(), step))
            columns[cte.name.lower()] = step.binding.column_names
        root = self._prepare_core(query.body, columns)
        return PlanTemplate(self, ctes, root, self._read, version)

    def plan_subquery(self, query: Query, outer_ctes: dict[str, PlanNode]) -> PlanNode:
        """Plan an expression subquery of a statement planned earlier:
        its FROM may name that statement's CTEs (``outer_ctes``, which
        the executor has materialised by the time it asks)."""
        if query.ctes:
            raise PlanError("WITH inside an expression subquery is not supported")
        columns = {key: plan.binding.column_names for key, plan in outer_ctes.items()}
        step = self._prepare_core(query.body, columns)
        return step.bind(_Bind((), {}, outer_ctes))

    def _prepare_core(self, core: SelectCore, ctes: dict[str, list[str]]) -> _Step:
        if isinstance(core, SetOp):
            left = self._prepare_core(core.left, ctes)
            right = self._prepare_core(core.right, ctes)
            if left.binding.width != right.binding.width:
                raise PlanError(
                    f"set operation arity mismatch: {left.binding.width} vs {right.binding.width}"
                )

            def bind_set_op(b: _Bind) -> PlanNode:
                lhs, rhs = left.bind(b), right.bind(b)
                return SetOpPlan(
                    binding=lhs.binding,
                    est_rows=lhs.est_rows + rhs.est_rows,
                    est_cost=lhs.est_cost + rhs.est_cost,
                    op=core.op,
                    all=core.all,
                    left=lhs,
                    right=rhs,
                )

            return _Step(left.binding, bind_set_op)
        return self._prepare_select(core, ctes)

    # ---------------------------------------------------------------- SELECT

    def _prepare_select(self, select: Select, ctes: dict[str, list[str]]) -> _Step:
        if not select.from_items:
            return self._prepare_table_less(select)
        sources = [self._make_source(item, ctes) for item in select.from_items]
        join_conditions: list[Expr] = []
        for join in select.joins:
            sources.append(self._make_source(join.item, ctes))
            if join.condition is not None:
                join_conditions.append(join.condition)

        all_conjuncts = conjuncts(select.where)
        for cond in join_conditions:
            all_conjuncts.extend(conjuncts(cond))

        single, multi = self._classify(all_conjuncts, sources)

        # Prepare access paths for base tables with their pushed predicates.
        for source in sources:
            pushed = single.get(source.alias.lower(), [])
            source.step = self._prepare_source_access(source, pushed)

        step = self._fold_joins(sources, multi)
        step = self._prepare_aggregation_and_projection(select, step)
        cpu_tuple = self.personality.cpu_tuple_cost
        if select.distinct:
            below = step

            def bind_distinct(b: _Bind) -> PlanNode:
                inner = below.bind(b)
                return DistinctPlan(
                    binding=inner.binding,
                    est_rows=inner.est_rows,
                    est_cost=inner.est_cost + inner.est_rows * cpu_tuple,
                    child=inner,
                )

            step = _Step(below.binding, bind_distinct)
        if select.order_by:
            step = self._attach_sort(step, select)
        if select.limit is not None:
            limited, limit = step, select.limit

            def bind_limit(b: _Bind) -> PlanNode:
                inner = limited.bind(b)
                return LimitPlan(
                    binding=inner.binding,
                    est_rows=min(inner.est_rows, limit),
                    est_cost=inner.est_cost,
                    child=inner,
                    limit=limit,
                )

            step = _Step(limited.binding, bind_limit)
        return step

    def _attach_sort(self, step: _Step, select: Select) -> _Step:
        """Wrap in a Sort, beneath the projection when the sort keys
        reference source columns the projection dropped (SQL allows
        ``SELECT name ... ORDER BY id``)."""
        sort_exprs = [o.expr for o in select.order_by]
        ascending = [o.ascending for o in select.order_by]
        cpu_tuple = self.personality.cpu_tuple_cost

        def resolvable(binding: RowBinding) -> bool:
            return all(
                binding.has(ref)
                for e in sort_exprs
                for ref in columns_referenced(e)
            )

        def sort_over(inner: PlanNode) -> SortPlan:
            return SortPlan(
                binding=inner.binding,
                est_rows=inner.est_rows,
                est_cost=inner.est_cost + inner.est_rows * cpu_tuple * 2,
                child=inner,
                sort_exprs=sort_exprs,
                ascending=ascending,
            )

        wrap_under_projection = (
            not resolvable(step.binding)
            and step.projected is not None
            and resolvable(step.projected.binding)
            and not select.distinct
        )
        if wrap_under_projection:

            def bind_under(b: _Bind) -> PlanNode:
                plan = step.bind(b)
                plan.child = sort_over(plan.child)  # type: ignore[attr-defined]
                return plan

            return _Step(step.binding, bind_under)
        return _Step(step.binding, lambda b: sort_over(step.bind(b)))

    def _prepare_table_less(self, select: Select) -> _Step:
        """SELECT without FROM: one row of constant expressions."""
        exprs: list[Expr] = []
        names: list[str] = []
        for item in select.items:
            if isinstance(item.expr, Star):
                raise PlanError("SELECT * requires a FROM clause")
            exprs.append(item.expr)
            names.append(item.output_name)
        binding = RowBinding.for_table("_const", names)
        return _Step(
            binding,
            lambda b: ProjectPlan(binding=binding, est_rows=1, child=None, exprs=exprs, names=names),
        )

    # --------------------------------------------------------------- sources

    def _make_source(self, item: FromItem, ctes: dict[str, list[str]]) -> _Source:
        if isinstance(item, DerivedTable):
            if item.query.ctes:
                raise PlanError("WITH inside a derived table is not supported")
            sub = self._prepare_core(item.query.body, {})
            names = sub.binding.column_names
            binding = RowBinding.for_table(item.alias, names)

            def bind_derived(b: _Bind) -> PlanNode:
                child = sub.bind(b)
                return DerivedScanPlan(
                    binding=binding,
                    est_rows=child.est_rows,
                    est_cost=child.est_cost,
                    child=child,
                    alias=item.alias,
                )

            return _Source(item.alias, _Step(binding, bind_derived), None, None, names)
        assert isinstance(item, TableRef)
        key = item.name.lower()
        if key in ctes:
            names = ctes[key]
            alias = item.binding_name
            binding = RowBinding.for_table(alias, names)

            def bind_cte_scan(b: _Bind) -> PlanNode:
                return CTEScanPlan(
                    binding=binding,
                    est_rows=b.ctes[key].est_rows,
                    cte_name=item.name,
                    alias=alias,
                )

            return _Source(alias, _Step(binding, bind_cte_scan), None, item.hint, names)
        table = self.catalog.table(item.name)
        return _Source(
            item.binding_name, None, table.name, item.hint, table.schema.names
        )

    def _classify(
        self, all_conjuncts: list[Expr], sources: list[_Source]
    ) -> tuple[dict[str, list[Expr]], list[Expr]]:
        """Split conjuncts into per-source pushdowns and multi-source rest."""
        single: dict[str, list[Expr]] = {}
        multi: list[Expr] = []
        for conj in all_conjuncts:
            aliases = self._aliases_of(conj, sources)
            if len(aliases) == 1:
                single.setdefault(next(iter(aliases)), []).append(conj)
            else:
                multi.append(conj)
        return single, multi

    def _aliases_of(self, expr: Expr, sources: list[_Source]) -> set[str]:
        found: set[str] = set()
        for ref in columns_referenced(expr):
            alias = self._resolve_alias(ref, sources)
            if alias is not None:
                found.add(alias)
        return found

    def _resolve_alias(self, ref: ColumnRef, sources: list[_Source]) -> str | None:
        if ref.table is not None:
            qualifier = ref.table.lower()
            for source in sources:
                if source.alias_lc == qualifier:
                    return qualifier
            return None  # likely a correlated outer reference
        name = ref.name.lower()
        matches = [s.alias_lc for s in sources if name in s.columns_lc]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise PlanError(f"ambiguous column {ref.name!r}")
        return None

    # ----------------------------------------------------------- access path

    def _prepare_source_access(self, source: _Source, pushed: list[Expr]) -> _Step:
        if source.step is not None:
            # CTE/derived: attach pushed predicate as a residual filter.
            if not pushed:
                return source.step
            inner_step, parts = source.step, _Parts(pushed)

            def bind_filter(b: _Bind) -> PlanNode:
                inner = inner_step.bind(b)
                return FilterPlan(
                    binding=inner.binding,
                    est_rows=inner.est_rows / 3.0,
                    est_cost=inner.est_cost,
                    child=inner,
                    expr=make_and(parts.bound(b)),
                )

            return _Step(inner_step.binding, bind_filter)
        assert source.table_name is not None
        access = self._access(source.table_name, source.alias, pushed)
        hint = source.hint

        def bind_access(b: _Bind) -> PlanNode:
            paths, est_rows = access.paths(b)
            return access.make(self._apply_hint(paths, hint), est_rows)

        return _Step(access.binding, bind_access)

    def _access(self, table_name: str, alias: str, pushed: list[Expr]) -> _AccessPaths:
        table = self.catalog.table(table_name)
        stats = self.stats.get(table)
        self._read.append((table, stats))
        binding = RowBinding.for_table(alias, table.schema.names)
        return _AccessPaths(self, table.name, alias, pushed, stats, binding)

    def access_paths(self, table_name: str, alias: str, pushed: list[Expr]) -> list[PlanNode]:
        """Every access path planning weighs for one table under its
        pushed conjuncts (SeqScan / IndexScan / BitmapOr), SeqScan
        first, each with its ``est_cost``."""
        access = self._access(table_name, alias, pushed)
        paths, est_rows = access.paths(_Bind((), {}, {}))
        return [access.make(path, est_rows) for path in paths]

    def _apply_hint(self, candidates: list[_Path], hint: IndexHint | None) -> _Path:
        seq = candidates[0]

        def cheapest(paths: list[_Path]) -> _Path:
            return min(paths, key=lambda path: path.est_cost)

        if hint is None or not self.personality.honors_index_hints:
            return cheapest(candidates)
        names = {n.lower() for n in hint.index_names}

        def index_name_of(path: _Path) -> str | None:
            return path.index_name.lower() if path.index_name is not None else None

        if hint.kind == "FORCE":
            forced = [path for path in candidates if index_name_of(path) in names]
            if forced:
                return cheapest(forced)
            return seq  # MySQL: table scan only when the index is unusable
        if hint.kind == "USE":
            if not names:
                return seq  # USE INDEX () => avoid all indexes
            return cheapest(
                [
                    path
                    for path in candidates
                    if index_name_of(path) in names or path.kind is SeqScanPlan
                ]
            )
        # IGNORE
        return cheapest([path for path in candidates if index_name_of(path) not in names])

    def _or_arms(
        self, table_name: str, conj: Expr, stats: TableStats, version: int
    ) -> tuple[list, float, float, float, int] | None:
        """A BitmapOr over the OR ``conj``, if every disjunct carries an
        indexable component: ``(arms, total_sel, fetch_rows, est_pages,
        n_probes)``, none of which any other conjunct moves."""
        arms: list[tuple[str, str, list[IndexProbe]]] = []
        total_sel = 0.0
        for disjunct in disjuncts(conj):
            # A guard branch reaches every plan of its querier as the
            # same node until a policy write touches that guard, and its
            # arm depends on the node, the statistics and which indexes
            # exist: the node remembers it with both (as
            # ``cardinality._estimate`` does the selectivity).
            known = disjunct.__dict__.get("_arm")
            if known is not None and known[0]() is stats and known[1] == version:
                arm = known[2]
            else:
                arm = self._best_arm(table_name, disjunct, stats)
                object.__setattr__(disjunct, "_arm", (weakref.ref(stats), version, arm))
            if arm is None:
                return None
            index_name, column, probes, sel = arm
            arms.append((index_name, column, probes))
            total_sel += sel
        if not arms:
            return None
        total_sel = min(1.0, total_sel)
        fetch_rows = total_sel * stats.row_count
        pages = stats.page_count
        est_pages = pages * (1.0 - (1.0 - 1.0 / max(1, pages)) ** fetch_rows)
        n_probes = sum(len(probes) for _, _, probes in arms)
        return arms, total_sel, fetch_rows, est_pages, n_probes

    def _best_arm(
        self, table_name: str, disjunct: Expr, stats: TableStats
    ) -> tuple[str, str, list[IndexProbe], float] | None:
        """Most selective sargable component of one OR disjunct."""
        best: tuple[str, str, list[IndexProbe], float] | None = None
        for part in conjuncts(disjunct):
            spec = self._sargable(part)
            if spec is None:
                continue
            index = self.catalog.index_on_column(table_name, spec.column)
            if index is None:
                continue
            if index.kind == "hash" and not all(pr.is_point for pr in spec.probes):
                continue
            sel = estimate_selectivity(part, stats)
            if best is None or sel < best[3]:
                best = (index.name, spec.column, spec.probes, sel)
        return best

    @staticmethod
    def _sargable_shape(conj: Expr) -> tuple[str, bool] | None:
        """``(column, probes are points)`` of a conjunct an index can
        probe once its operands are values — a column compared with
        literals or parameters — decided on the node type and its
        operands alone.  :meth:`_sargable` reads the values."""
        if isinstance(conj, Comparison):
            if isinstance(conj.left, ColumnRef) and isinstance(conj.right, _OPERANDS):
                col, op = conj.left.name, conj.op
            elif isinstance(conj.right, ColumnRef) and isinstance(conj.left, _OPERANDS):
                col, op = conj.right.name, conj.op.flip()
            else:
                return None
            if op is CompareOp.EQ:
                return col, True
            return (col, False) if op in _RANGE_OPS else None
        if isinstance(conj, Between) and not conj.negated:
            if (
                isinstance(conj.expr, ColumnRef)
                and isinstance(conj.low, _OPERANDS)
                and isinstance(conj.high, _OPERANDS)
            ):
                return conj.expr.name, False
            return None
        if isinstance(conj, InList) and not conj.negated:
            if isinstance(conj.expr, ColumnRef) and all(
                isinstance(i, _OPERANDS) for i in conj.items
            ):
                return conj.expr.name, True
        return None

    @staticmethod
    def _sargable(conj: Expr) -> _Sargable | None:
        """Extract an index-probe spec from one conjunct, if possible.

        Only a column compared with non-NULL literals qualifies, so the
        node type and its operands decide without walking the tree — a
        policy-wide OR (or anything holding a subquery) is turned away
        at once.  A NULL bound or list item admits no row an index
        could find (``x BETWEEN NULL AND 4`` is never true), so it
        disqualifies the conjunct rather than open that side."""
        if isinstance(conj, Comparison):
            col, value, op = None, None, conj.op
            if isinstance(conj.left, ColumnRef) and isinstance(conj.right, Literal):
                col, value = conj.left.name, conj.right.value
            elif isinstance(conj.right, ColumnRef) and isinstance(conj.left, Literal):
                col, value, op = conj.right.name, conj.left.value, conj.op.flip()
            if col is None or value is None:
                return None
            if op is CompareOp.EQ:
                return _Sargable(col, [IndexProbe.point(value)], conj)
            if op is CompareOp.LT:
                return _Sargable(col, [IndexProbe.range(hi=value, hi_inclusive=False)], conj)
            if op is CompareOp.LE:
                return _Sargable(col, [IndexProbe.range(hi=value)], conj)
            if op is CompareOp.GT:
                return _Sargable(col, [IndexProbe.range(lo=value, lo_inclusive=False)], conj)
            if op is CompareOp.GE:
                return _Sargable(col, [IndexProbe.range(lo=value)], conj)
            return None
        if isinstance(conj, Between) and not conj.negated:
            if (
                isinstance(conj.expr, ColumnRef)
                and isinstance(conj.low, Literal)
                and isinstance(conj.high, Literal)
                and conj.low.value is not None
                and conj.high.value is not None
            ):
                return _Sargable(
                    conj.expr.name,
                    [IndexProbe.range(lo=conj.low.value, hi=conj.high.value)],
                    conj,
                )
            return None
        if isinstance(conj, InList) and not conj.negated:
            if isinstance(conj.expr, ColumnRef) and all(
                isinstance(i, Literal) and i.value is not None for i in conj.items
            ):
                probes = [IndexProbe.point(i.value) for i in conj.items]  # type: ignore[union-attr]
                return _Sargable(conj.expr.name, probes, conj)
        return None

    # ----------------------------------------------------------------- joins

    def _fold_joins(self, sources: list[_Source], multi: list[Expr]) -> _Step:
        remaining = list(multi)
        combined = sources[0].step
        assert combined is not None
        combined_aliases = {sources[0].alias.lower()}

        for source in sources[1:]:
            next_aliases = combined_aliases | {source.alias.lower()}
            usable: list[Expr] = []
            rest: list[Expr] = []
            for conj in remaining:
                refs = self._aliases_of(conj, sources)
                if refs and refs <= next_aliases:
                    usable.append(conj)
                else:
                    rest.append(conj)
            remaining = rest
            combined = self._join_pair(combined, source, usable)
            combined_aliases = next_aliases

        if not remaining:
            return combined
        below, parts = combined, _Parts(remaining)
        cpu_pred = self.personality.cpu_predicate_cost

        def bind_filter(b: _Bind) -> PlanNode:
            inner = below.bind(b)
            bound = parts.bound(b)
            return FilterPlan(
                binding=inner.binding,
                est_rows=inner.est_rows / 3.0,
                est_cost=inner.est_cost
                + filter_evals(bound, [DEFAULT_SELECTIVITY] * len(bound), inner.est_rows)
                * cpu_pred,
                child=inner,
                expr=make_and(bound),
            )

        return _Step(below.binding, bind_filter)

    def _join_pair(self, left: _Step, right_source: _Source, conds: list[Expr]) -> _Step:
        right = right_source.step
        assert right is not None
        p = self.personality

        equi: list[tuple[Expr, Expr, Expr]] = []  # (left key, right key, conjunct)
        residual_parts: list[Expr] = []
        for conj in conds:
            pair = self._equi_pair(conj, left.binding, right.binding)
            if pair is not None:
                equi.append((pair[0], pair[1], conj))
            else:
                residual_parts.append(conj)
        residual_template = _Parts(residual_parts)

        joined_binding = RowBinding()
        for alias, names in self._binding_tables(left.binding):
            joined_binding.add_table(alias, names)
        for alias, names in self._binding_tables(right.binding):
            joined_binding.add_table(alias, names)

        # Index nested-loop candidates: right is a bare base-table scan
        # (known per binding) and one equi key is its indexed column.
        inl = self._index_nl_specs(right_source, equi)
        left_keys = [lk for lk, _, _ in equi]
        right_keys = [rk for _, rk, _ in equi]

        def bind_join(b: _Bind) -> PlanNode:
            lhs, rhs = left.bind(b), right.bind(b)
            residual = make_and(residual_template.bound(b))
            out_rows = max(1.0, lhs.est_rows) * max(1.0, rhs.est_rows)
            if equi:
                out_rows = max(lhs.est_rows, rhs.est_rows, 1.0)
            index_nl = None
            if inl and isinstance(rhs, SeqScanPlan):
                index_nl = self._index_nl_join(lhs, rhs, right_source, inl, residual, joined_binding)
            if equi:
                hash_cost = (
                    lhs.est_cost
                    + rhs.est_cost
                    + (lhs.est_rows + rhs.est_rows) * p.cpu_tuple_cost * 2
                )
                if index_nl is not None and index_nl.est_cost < hash_cost:
                    return index_nl
                return HashJoinPlan(
                    binding=joined_binding,
                    est_rows=out_rows,
                    est_cost=hash_cost,
                    left=lhs,
                    right=rhs,
                    left_keys=left_keys,
                    right_keys=right_keys,
                    residual=residual,
                )
            if index_nl is not None:
                return index_nl
            return NLJoinPlan(
                binding=joined_binding,
                est_rows=out_rows / 3.0 if residual is not None else out_rows,
                est_cost=lhs.est_cost + max(1.0, lhs.est_rows) * rhs.est_cost,
                left=lhs,
                right=rhs,
                condition=residual,
            )

        return _Step(joined_binding, bind_join)

    def _index_nl_specs(
        self, right_source: _Source, equi: list[tuple[Expr, Expr, Expr]]
    ) -> list[tuple[Any, str, Expr, float, list[Expr]]]:
        """Per equi key on an indexed column of the right base table:
        ``(index, column, outer key, rows per probe, the other equi
        conditions)`` — the index nested-loop join's literal-free half."""
        if right_source.table_name is None or not equi:
            return []
        table = self.catalog.table(right_source.table_name)
        stats = self.stats.get(table)
        specs = []
        for left_key, right_key, conj in equi:
            if not isinstance(right_key, ColumnRef):
                continue
            index = self.catalog.index_on_column(right_source.table_name, right_key.name)
            if index is None:
                continue
            cstats = stats.column(right_key.name)
            avg_match = (
                stats.row_count / max(1, cstats.ndv) if cstats is not None else 1.0
            )
            other_equis = [
                Comparison(CompareOp.EQ, lk, rk)
                for lk, rk, c in equi
                if c is not conj
            ]
            specs.append((index, right_key.name, left_key, avg_match, other_equis))
        return specs

    def _index_nl_join(
        self,
        left: PlanNode,
        right: SeqScanPlan,
        right_source: _Source,
        specs: list,
        residual: Expr | None,
        joined_binding: RowBinding,
    ) -> IndexNLJoinPlan:
        p = self.personality
        best = None
        best_cost = 0.0
        for spec in specs:
            index, avg_match = spec[0], spec[3]
            height = getattr(index, "height", 1)
            cost = left.est_cost + max(1.0, left.est_rows) * (
                height * p.index_node_cost + avg_match * (p.random_page_cost + p.cpu_tuple_cost)
            )
            if best is None or cost < best_cost:
                best, best_cost = spec, cost
        index, column, outer_key, avg_match, other_equis = best
        return IndexNLJoinPlan(
            binding=joined_binding,
            est_rows=max(left.est_rows, 1.0) * avg_match,
            est_cost=best_cost,
            left=left,
            inner_table=right.table_name,
            inner_alias=right_source.alias,
            inner_index=index.name,
            inner_column=column,
            outer_key=outer_key,
            inner_filter=right.filter,
            residual=make_and([e for e in ([residual] + other_equis) if e is not None]),
        )

    @staticmethod
    def _equi_pair(
        conj: Expr, left: RowBinding, right: RowBinding
    ) -> tuple[Expr, Expr] | None:
        if not isinstance(conj, Comparison) or conj.op is not CompareOp.EQ:
            return None
        a, b = conj.left, conj.right
        if not isinstance(a, ColumnRef) or not isinstance(b, ColumnRef):
            return None
        if left.has(a) and right.has(b):
            return (a, b)
        if left.has(b) and right.has(a):
            return (b, a)
        return None

    @staticmethod
    def _binding_tables(binding: RowBinding) -> list[tuple[str, list[str]]]:
        """Recover (alias, columns) groups from a binding."""
        groups: dict[str, list[str]] = {}
        order: list[str] = []
        # RowBinding does not retain the alias partition explicitly, so we
        # rebuild it from the qualified map, preserving position order.
        by_pos: list[tuple[int, str, str]] = sorted(
            (pos, alias, name) for (alias, name), pos in binding._by_qualified.items()
        )
        for _, alias, name in by_pos:
            if alias not in groups:
                groups[alias] = []
                order.append(alias)
            groups[alias].append(name)
        return [(alias, groups[alias]) for alias in order]

    # ---------------------------------------------------- aggregation & proj

    def _prepare_aggregation_and_projection(self, select: Select, child: _Step) -> _Step:
        has_aggregates = any(
            self._find_aggregates(item.expr) for item in select.items
        ) or (select.having is not None and bool(self._find_aggregates(select.having)))
        if not select.group_by and not has_aggregates:
            if select.having is not None:
                raise PlanError("HAVING without aggregation or GROUP BY")
            return self._prepare_projection(select, child)

        group_exprs = list(select.group_by)
        agg_calls: list[FuncCall] = []
        for item in select.items:
            for call in self._find_aggregates(item.expr):
                if call not in agg_calls:
                    agg_calls.append(call)
        if select.having is not None:
            for call in self._find_aggregates(select.having):
                if call not in agg_calls:
                    agg_calls.append(call)

        specs: list[AggSpec] = []
        for call in agg_calls:
            arg: Expr | None
            if not call.args or isinstance(call.args[0], Star):
                arg = None
            else:
                arg = call.args[0]
            specs.append(AggSpec(func=call.name.lower(), arg=arg, distinct=call.distinct))

        out_names = [f"g{i}" for i in range(len(group_exprs))] + [
            f"a{i}" for i in range(len(specs))
        ]
        agg_binding = RowBinding.for_table("_agg", out_names)
        cpu_tuple = self.personality.cpu_tuple_cost

        def bind_aggregate(b: _Bind) -> PlanNode:
            inner = child.bind(b)
            return AggregatePlan(
                binding=agg_binding,
                est_rows=max(1.0, inner.est_rows / 10.0),
                est_cost=inner.est_cost + inner.est_rows * cpu_tuple,
                child=inner,
                group_exprs=group_exprs,
                aggregates=specs,
            )

        substitutions: dict[Expr, Expr] = {}
        for i, gexpr in enumerate(group_exprs):
            substitutions[gexpr] = ColumnRef(f"g{i}")
        for j, call in enumerate(agg_calls):
            substitutions[call] = ColumnRef(f"a{j}")

        step = _Step(agg_binding, bind_aggregate)
        if select.having is not None:
            # Its Params (if any) match nothing phase 1 matched
            # (_having_rematches): each binding binds the filter itself.
            having = _Parts([self._substitute(select.having, substitutions)])
            aggregated = step

            def bind_having(b: _Bind) -> PlanNode:
                inner = aggregated.bind(b)
                return FilterPlan(
                    binding=inner.binding,
                    est_rows=inner.est_rows / 3.0,
                    est_cost=inner.est_cost,
                    child=inner,
                    expr=having.bound(b)[0],
                )

            step = _Step(agg_binding, bind_having)

        exprs: list[Expr] = []
        names: list[str] = []
        for item in select.items:
            if isinstance(item.expr, Star):
                raise PlanError("SELECT * cannot be combined with aggregation")
            exprs.append(self._substitute(item.expr, substitutions))
            names.append(item.output_name)
        binding = RowBinding.for_table("_out", names)
        below = step

        def bind_projection(b: _Bind) -> PlanNode:
            inner = below.bind(b)
            return ProjectPlan(
                binding=binding,
                est_rows=inner.est_rows,
                est_cost=inner.est_cost,
                child=inner,
                exprs=exprs,
                names=names,
            )

        return _Step(binding, bind_projection, projected=below)

    def _prepare_projection(self, select: Select, child: _Step) -> _Step:
        exprs: list[Expr] = []
        names: list[str] = []
        star_only = all(isinstance(i.expr, Star) for i in select.items)
        for item in select.items:
            if isinstance(item.expr, Star):
                for alias, cols in self._binding_tables(child.binding):
                    if item.expr.table is not None and alias != item.expr.table.lower():
                        continue
                    for col in cols:
                        exprs.append(ColumnRef(col, table=alias))
                        names.append(col)
            else:
                exprs.append(item.expr)
                names.append(item.output_name)
        if star_only and len(select.items) == 1 and select.items[0].expr.table is None:
            # Pure SELECT *: pass rows through untouched (keeps qualified
            # names resolvable for ORDER BY etc.).
            return child
        binding = RowBinding.for_table("_out", names)
        cpu_tuple = self.personality.cpu_tuple_cost

        def bind_projection(b: _Bind) -> PlanNode:
            inner = child.bind(b)
            return ProjectPlan(
                binding=binding,
                est_rows=inner.est_rows,
                est_cost=inner.est_cost + inner.est_rows * cpu_tuple,
                child=inner,
                exprs=exprs,
                names=names,
            )

        return _Step(binding, bind_projection, projected=child)

    def _find_aggregates(self, expr: Expr) -> list[FuncCall]:
        out: list[FuncCall] = []
        self._collect_aggregates(expr, out)
        return out

    def _collect_aggregates(self, expr: Expr, out: list[FuncCall]) -> None:
        if isinstance(expr, FuncCall):
            if expr.name.lower() in AGGREGATE_FUNCTIONS:
                out.append(expr)
                return  # nested aggregates not allowed; don't descend
            for arg in expr.args:
                self._collect_aggregates(arg, out)
            return
        if isinstance(expr, (And, Or)):
            for child in expr.children:
                self._collect_aggregates(child, out)
        elif isinstance(expr, Not):
            self._collect_aggregates(expr.child, out)
        elif isinstance(expr, Comparison):
            self._collect_aggregates(expr.left, out)
            self._collect_aggregates(expr.right, out)
        elif isinstance(expr, Arith):
            self._collect_aggregates(expr.left, out)
            self._collect_aggregates(expr.right, out)
        elif isinstance(expr, Between):
            self._collect_aggregates(expr.expr, out)
            self._collect_aggregates(expr.low, out)
            self._collect_aggregates(expr.high, out)
        elif isinstance(expr, InList):
            self._collect_aggregates(expr.expr, out)
        elif isinstance(expr, IsNull):
            self._collect_aggregates(expr.child, out)

    def _substitute(self, expr: Expr, subs: dict[Expr, Expr]) -> Expr:
        if expr in subs:
            return subs[expr]
        return map_children(expr, lambda child: self._substitute(child, subs))
