"""Query planner: AST -> physical plan.

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
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import PlanError
from repro.db.personality import Personality
from repro.expr.analysis import (
    columns_referenced,
    conjuncts,
    disjuncts,
    make_and,
    map_children,
)
from repro.expr.eval import RowBinding
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
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    ScalarSubquery,
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
    estimate_conjunction,
    estimate_selectivity,
    expected_pages,
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
    """A plan plus the CTE plans it depends on (materialised at exec)."""

    root: PlanNode
    cte_plans: dict[str, PlanNode]


@dataclass
class _Source:
    alias: str
    plan: PlanNode | None  # None until access path chosen (base tables)
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
        self._cte_bindings: dict[str, list[str]] = {}

    # ------------------------------------------------------------- top level

    def plan(self, query: Query) -> PlannedQuery:
        with span("plan", ctes=len(query.ctes)):
            cte_plans: dict[str, PlanNode] = {}
            self._cte_bindings = {}
            for cte in query.ctes:
                sub = self._plan_core(cte.query.body, extra_ctes=cte_plans)
                if cte.query.ctes:
                    raise PlanError("nested WITH inside a CTE is not supported")
                cte_plans[cte.name.lower()] = sub
                self._cte_bindings[cte.name.lower()] = sub.binding.column_names
            root = self._plan_core(query.body, extra_ctes=cte_plans)
            return PlannedQuery(root=root, cte_plans=cte_plans)

    def plan_subquery(self, query: Query, outer_ctes: dict[str, PlanNode]) -> PlanNode:
        """Plan an expression subquery of a statement planned earlier:
        its FROM may name that statement's CTEs (``outer_ctes``, which
        the executor has materialised by the time it asks)."""
        if query.ctes:
            raise PlanError("WITH inside an expression subquery is not supported")
        self._cte_bindings = {}
        return self._plan_core(query.body, extra_ctes=outer_ctes)

    def _plan_core(self, core: SelectCore, extra_ctes: dict[str, PlanNode]) -> PlanNode:
        if isinstance(core, SetOp):
            left = self._plan_core(core.left, extra_ctes)
            right = self._plan_core(core.right, extra_ctes)
            if left.binding.width != right.binding.width:
                raise PlanError(
                    f"set operation arity mismatch: {left.binding.width} vs {right.binding.width}"
                )
            node = SetOpPlan(op=core.op, all=core.all, left=left, right=right)
            node.binding = left.binding
            node.est_rows = left.est_rows + right.est_rows
            node.est_cost = left.est_cost + right.est_cost
            return node
        return self._plan_select(core, extra_ctes)

    # ---------------------------------------------------------------- SELECT

    def _plan_select(self, select: Select, extra_ctes: dict[str, PlanNode]) -> PlanNode:
        if not select.from_items:
            return self._plan_table_less(select)
        sources = [self._make_source(item, extra_ctes) for item in select.from_items]
        join_conditions: list[Expr] = []
        for join in select.joins:
            sources.append(self._make_source(join.item, extra_ctes))
            if join.condition is not None:
                join_conditions.append(join.condition)

        all_conjuncts = conjuncts(select.where)
        for cond in join_conditions:
            all_conjuncts.extend(conjuncts(cond))

        by_alias = {s.alias.lower(): s for s in sources}
        single, multi = self._classify(all_conjuncts, sources)

        # Choose access paths for base tables with their pushed predicates.
        for source in sources:
            pushed = single.get(source.alias.lower(), [])
            source.plan = self._plan_source_access(source, pushed)

        plan = self._fold_joins(sources, multi, by_alias)
        plan = self._plan_aggregation_and_projection(select, plan)
        if select.distinct:
            inner = plan
            plan = DistinctPlan(child=inner)
            plan.binding = inner.binding
            plan.est_rows = inner.est_rows
            plan.est_cost = inner.est_cost + inner.est_rows * self.personality.cpu_tuple_cost
        if select.order_by:
            plan = self._attach_sort(plan, select)
        if select.limit is not None:
            inner = plan
            plan = LimitPlan(child=inner, limit=select.limit)
            plan.binding = inner.binding
            plan.est_rows = min(inner.est_rows, select.limit)
            plan.est_cost = inner.est_cost
        return plan

    def _attach_sort(self, plan: PlanNode, select: Select) -> PlanNode:
        """Wrap in a Sort, beneath the projection when the sort keys
        reference source columns the projection dropped (SQL allows
        ``SELECT name ... ORDER BY id``)."""
        sort_exprs = [o.expr for o in select.order_by]
        ascending = [o.ascending for o in select.order_by]

        def resolvable(binding: RowBinding) -> bool:
            return all(
                binding.has(ref)
                for e in sort_exprs
                for ref in columns_referenced(e)
            )

        target = plan
        wrap_under_projection = (
            not resolvable(plan.binding)
            and isinstance(plan, ProjectPlan)
            and plan.child is not None
            and resolvable(plan.child.binding)
            and not select.distinct
        )
        if wrap_under_projection:
            inner = plan.child
            sort = SortPlan(child=inner, sort_exprs=sort_exprs, ascending=ascending)
            sort.binding = inner.binding
            sort.est_rows = inner.est_rows
            sort.est_cost = inner.est_cost + inner.est_rows * self.personality.cpu_tuple_cost * 2
            plan.child = sort
            return plan
        sort = SortPlan(child=target, sort_exprs=sort_exprs, ascending=ascending)
        sort.binding = target.binding
        sort.est_rows = target.est_rows
        sort.est_cost = target.est_cost + target.est_rows * self.personality.cpu_tuple_cost * 2
        return sort

    def _plan_table_less(self, select: Select) -> PlanNode:
        """SELECT without FROM: one row of constant expressions."""
        exprs: list[Expr] = []
        names: list[str] = []
        for item in select.items:
            if isinstance(item.expr, Star):
                raise PlanError("SELECT * requires a FROM clause")
            exprs.append(item.expr)
            names.append(item.output_name)
        node = ProjectPlan(child=None, exprs=exprs, names=names)
        node.binding = RowBinding.for_table("_const", names)
        node.est_rows = 1
        return node

    # --------------------------------------------------------------- sources

    def _make_source(self, item: FromItem, extra_ctes: dict[str, PlanNode]) -> _Source:
        if isinstance(item, DerivedTable):
            sub = self.plan(item.query)
            if sub.cte_plans:
                raise PlanError("WITH inside a derived table is not supported")
            wrapper = DerivedScanPlan(child=sub.root, alias=item.alias)
            names = sub.root.binding.column_names
            wrapper.binding = RowBinding.for_table(item.alias, names)
            wrapper.est_rows = sub.root.est_rows
            wrapper.est_cost = sub.root.est_cost
            return _Source(item.alias, wrapper, None, None, names)
        assert isinstance(item, TableRef)
        key = item.name.lower()
        if key in extra_ctes or key in self._cte_bindings:
            names = (
                extra_ctes[key].binding.column_names
                if key in extra_ctes
                else self._cte_bindings[key]
            )
            alias = item.binding_name
            node = CTEScanPlan(cte_name=item.name, alias=alias)
            node.binding = RowBinding.for_table(alias, names)
            node.est_rows = extra_ctes[key].est_rows if key in extra_ctes else 0.0
            return _Source(alias, node, None, item.hint, names)
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

    def _plan_source_access(self, source: _Source, pushed: list[Expr]) -> PlanNode:
        if source.plan is not None:
            # CTE/derived: attach pushed predicate as a residual filter.
            if pushed:
                inner = source.plan
                pred = make_and(pushed)
                node = FilterPlan(child=inner, expr=pred)
                node.binding = inner.binding
                node.est_rows = inner.est_rows / 3.0
                node.est_cost = inner.est_cost
                return node
            return source.plan
        assert source.table_name is not None
        return self.choose_access_path(
            source.table_name, source.alias, pushed, source.hint
        )

    def choose_access_path(
        self,
        table_name: str,
        alias: str,
        pushed: list[Expr],
        hint: IndexHint | None,
    ) -> PlanNode:
        """Cost-based choice among SeqScan / IndexScan / BitmapOr.

        Public because Sieve's strategy selector (paper Section 5.5)
        interrogates it through EXPLAIN.
        """
        table = self.catalog.table(table_name)
        stats = self.stats.get(table)
        p = self.personality
        full_pred = make_and(pushed)
        # Each pushed conjunct is estimated once per plan; the candidate
        # paths below share the figures (a guarded expression's OR is
        # hundreds of leaf estimates).
        conj_sels, full_sel = estimate_conjunction(pushed, stats)
        out_rows = full_sel * stats.row_count

        binding = RowBinding.for_table(alias, table.schema.names)

        candidates: list[tuple[float, PlanNode]] = []

        seq_cost = (
            stats.page_count * p.seq_page_cost
            + stats.row_count * p.cpu_tuple_cost
            + stats.row_count * max(1, len(pushed)) * p.cpu_predicate_cost
        )
        seq = SeqScanPlan(table_name=table.name, alias=alias, filter=full_pred)
        seq.binding = binding
        seq.est_rows = out_rows
        seq.est_cost = seq_cost
        candidates.append((seq_cost, seq))

        index_candidates = self._index_scan_candidates(
            table.name, alias, pushed, conj_sels, stats, binding, out_rows
        )
        candidates.extend(index_candidates)

        if p.supports_bitmap_or:
            bitmap = self._bitmap_or_candidate(
                table.name, alias, pushed, stats, binding, out_rows
            )
            if bitmap is not None:
                candidates.append(bitmap)

        chosen = self._apply_hint(candidates, seq, hint)
        return chosen

    def _apply_hint(
        self,
        candidates: list[tuple[float, PlanNode]],
        seq: SeqScanPlan,
        hint: IndexHint | None,
    ) -> PlanNode:
        if hint is None or not self.personality.honors_index_hints:
            return min(candidates, key=lambda c: c[0])[1]
        names = {n.lower() for n in hint.index_names}

        def index_name_of(node: PlanNode) -> str | None:
            if isinstance(node, IndexScanPlan):
                return node.index_name.lower()
            return None

        if hint.kind == "FORCE":
            forced = [
                (cost, node)
                for cost, node in candidates
                if index_name_of(node) in names
            ]
            if forced:
                return min(forced, key=lambda c: c[0])[1]
            return seq  # MySQL: table scan only when the index is unusable
        if hint.kind == "USE":
            if not names:
                return seq  # USE INDEX () => avoid all indexes
            allowed = [
                (cost, node)
                for cost, node in candidates
                if index_name_of(node) in names or isinstance(node, SeqScanPlan)
            ]
            return min(allowed, key=lambda c: c[0])[1]
        # IGNORE
        remaining = [
            (cost, node)
            for cost, node in candidates
            if index_name_of(node) not in names
        ]
        return min(remaining, key=lambda c: c[0])[1]

    def _index_scan_candidates(
        self,
        table_name: str,
        alias: str,
        pushed: list[Expr],
        conj_sels: list[float],
        stats: TableStats,
        binding: RowBinding,
        out_rows: float,
    ) -> list[tuple[float, PlanNode]]:
        p = self.personality
        out: list[tuple[float, PlanNode]] = []
        for conj, sel in zip(pushed, conj_sels):
            spec = self._sargable(conj)
            if spec is None:
                continue
            index = self.catalog.index_on_column(table_name, spec.column)
            if index is None:
                continue
            if index.kind == "hash" and not all(pr.is_point for pr in spec.probes):
                continue
            match_rows = sel * stats.row_count
            height = getattr(index, "height", 1)
            residual_parts = [c for c in pushed if c is not conj]
            residual = make_and(residual_parts)
            cstats = stats.column(spec.column)
            correlation = cstats.correlation if cstats is not None else 0.0
            cost = (
                len(spec.probes) * height * p.index_node_cost
                + expected_pages(
                    match_rows, stats.page_count, correlation, stats.row_count
                )
                * p.random_page_cost
                + match_rows * p.cpu_tuple_cost
                + match_rows * len(residual_parts) * p.cpu_predicate_cost
            )
            node = IndexScanPlan(
                table_name=table_name,
                alias=alias,
                index_name=index.name,
                column=spec.column,
                probes=spec.probes,
                filter=residual,
            )
            node.binding = binding
            node.est_rows = out_rows
            node.est_cost = cost
            out.append((cost, node))
        return out

    def _bitmap_or_candidate(
        self,
        table_name: str,
        alias: str,
        pushed: list[Expr],
        stats: TableStats,
        binding: RowBinding,
        out_rows: float,
    ) -> tuple[float, PlanNode] | None:
        """A BitmapOr over a top-level OR conjunct, if one qualifies."""
        p = self.personality
        version = self.catalog.version  # read before any arm derived under it
        best: tuple[float, PlanNode] | None = None
        for conj in pushed:
            if not isinstance(conj, Or):
                continue
            arms: list[tuple[str, str, list[IndexProbe]]] = []
            total_sel = 0.0
            feasible = True
            for disjunct in disjuncts(conj):
                # A guard branch reaches every plan of its querier as
                # the same node until a policy write touches that guard,
                # and its arm depends on the node, the statistics and
                # which indexes exist: the node remembers it with both
                # (as ``cardinality._estimate`` does the selectivity).
                known = disjunct.__dict__.get("_arm")
                if known is not None and known[0]() is stats and known[1] == version:
                    arm = known[2]
                else:
                    arm = self._best_arm(table_name, disjunct, stats)
                    object.__setattr__(disjunct, "_arm", (weakref.ref(stats), version, arm))
                if arm is None:
                    feasible = False
                    break
                index_name, column, probes, sel = arm
                arms.append((index_name, column, probes))
                total_sel += sel
            if not feasible or not arms:
                continue
            total_sel = min(1.0, total_sel)
            fetch_rows = total_sel * stats.row_count
            pages = stats.page_count
            est_pages = pages * (1.0 - (1.0 - 1.0 / max(1, pages)) ** fetch_rows)
            n_probes = sum(len(probes) for _, _, probes in arms)
            cost = (
                n_probes * 2 * p.index_node_cost
                + fetch_rows * p.index_node_cost
                + est_pages * p.bitmap_page_cost
                + fetch_rows * p.cpu_tuple_cost
                + fetch_rows * len(pushed) * p.cpu_predicate_cost
            )
            node = BitmapOrPlan(
                table_name=table_name,
                alias=alias,
                arms=arms,
                filter=make_and(pushed),
            )
            node.binding = binding
            node.est_rows = out_rows
            node.est_cost = cost
            if best is None or cost < best[0]:
                best = (cost, node)
        return best

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
    def _sargable(conj: Expr) -> _Sargable | None:
        """Extract an index-probe spec from one conjunct, if possible.

        Only a column compared with literals qualifies, so the node type
        and its operands decide without walking the tree — a policy-wide
        OR (or anything holding a subquery) is turned away at once."""
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
            ):
                return _Sargable(
                    conj.expr.name,
                    [IndexProbe.range(lo=conj.low.value, hi=conj.high.value)],
                    conj,
                )
            return None
        if isinstance(conj, InList) and not conj.negated:
            if isinstance(conj.expr, ColumnRef) and all(
                isinstance(i, Literal) for i in conj.items
            ):
                probes = [IndexProbe.point(i.value) for i in conj.items]  # type: ignore[union-attr]
                return _Sargable(conj.expr.name, probes, conj)
        return None

    # ----------------------------------------------------------------- joins

    def _fold_joins(
        self,
        sources: list[_Source],
        multi: list[Expr],
        by_alias: dict[str, _Source],
    ) -> PlanNode:
        remaining = list(multi)
        combined = sources[0].plan
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
            combined = self._join_pair(combined, combined_aliases, source, usable)
            combined_aliases = next_aliases

        if remaining:
            pred = make_and(remaining)
            inner = combined
            combined = FilterPlan(child=inner, expr=pred)
            combined.binding = inner.binding
            combined.est_rows = inner.est_rows / 3.0
            combined.est_cost = inner.est_cost + inner.est_rows * self.personality.cpu_predicate_cost
        return combined

    def _join_pair(
        self,
        left: PlanNode,
        left_aliases: set[str],
        right_source: _Source,
        conds: list[Expr],
    ) -> PlanNode:
        right = right_source.plan
        assert right is not None
        p = self.personality

        equi: list[tuple[Expr, Expr, Expr]] = []  # (left key, right key, conjunct)
        residual_parts: list[Expr] = []
        for conj in conds:
            pair = self._equi_pair(conj, left, right)
            if pair is not None:
                equi.append((pair[0], pair[1], conj))
            else:
                residual_parts.append(conj)
        residual = make_and(residual_parts)

        joined_binding = RowBinding()
        for alias, names in self._binding_tables(left):
            joined_binding.add_table(alias, names)
        for alias, names in self._binding_tables(right):
            joined_binding.add_table(alias, names)

        out_rows = max(1.0, left.est_rows) * max(1.0, right.est_rows)
        if equi:
            out_rows = max(left.est_rows, right.est_rows, 1.0)

        # Index nested-loop candidate: right is a bare base-table scan and
        # one equi key is its indexed column.
        inl = self._index_nl_candidate(left, right_source, equi, residual, joined_binding)

        if equi:
            hash_cost = (
                left.est_cost
                + right.est_cost
                + (left.est_rows + right.est_rows) * p.cpu_tuple_cost * 2
            )
            node: PlanNode = HashJoinPlan(
                left=left,
                right=right,
                left_keys=[lk for lk, _, _ in equi],
                right_keys=[rk for _, rk, _ in equi],
                residual=residual,
            )
            node.binding = joined_binding
            node.est_rows = out_rows
            node.est_cost = hash_cost
            if inl is not None and inl.est_cost < hash_cost:
                return inl
            return node

        if inl is not None:
            return inl
        node = NLJoinPlan(left=left, right=right, condition=residual)
        node.binding = joined_binding
        node.est_rows = out_rows / 3.0 if residual is not None else out_rows
        node.est_cost = (
            left.est_cost + max(1.0, left.est_rows) * right.est_cost
        )
        return node

    def _index_nl_candidate(
        self,
        left: PlanNode,
        right_source: _Source,
        equi: list[tuple[Expr, Expr, Expr]],
        residual: Expr | None,
        joined_binding: RowBinding,
    ) -> IndexNLJoinPlan | None:
        if right_source.table_name is None or not equi:
            return None
        right_plan = right_source.plan
        inner_filter: Expr | None = None
        if isinstance(right_plan, SeqScanPlan):
            inner_filter = right_plan.filter
        elif isinstance(right_plan, (IndexScanPlan, BitmapOrPlan)):
            # Reconstructing pushed predicates from an index plan is
            # messier; only SeqScan right sides become INL inners.
            return None
        else:
            return None
        p = self.personality
        table = self.catalog.table(right_source.table_name)
        stats = self.stats.get(table)
        best: IndexNLJoinPlan | None = None
        used_key_conj: Expr | None = None
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
            height = getattr(index, "height", 1)
            cost = left.est_cost + max(1.0, left.est_rows) * (
                height * p.index_node_cost
                + avg_match * (p.random_page_cost + p.cpu_tuple_cost)
            )
            other_equis = [
                Comparison(CompareOp.EQ, lk, rk)
                for lk, rk, c in equi
                if c is not conj
            ]
            full_residual = make_and(
                [e for e in ([residual] + other_equis) if e is not None]
            )
            node = IndexNLJoinPlan(
                left=left,
                inner_table=table.name,
                inner_alias=right_source.alias,
                inner_index=index.name,
                inner_column=right_key.name,
                outer_key=left_key,
                inner_filter=inner_filter,
                residual=full_residual,
            )
            node.binding = joined_binding
            node.est_rows = max(left.est_rows, 1.0) * avg_match
            node.est_cost = cost
            if best is None or cost < best.est_cost:
                best = node
                used_key_conj = conj
        del used_key_conj
        return best

    def _equi_pair(
        self, conj: Expr, left: PlanNode, right: PlanNode
    ) -> tuple[Expr, Expr] | None:
        if not isinstance(conj, Comparison) or conj.op is not CompareOp.EQ:
            return None
        a, b = conj.left, conj.right
        if not isinstance(a, ColumnRef) or not isinstance(b, ColumnRef):
            return None
        if left.binding.has(a) and right.binding.has(b):
            return (a, b)
        if left.binding.has(b) and right.binding.has(a):
            return (b, a)
        return None

    @staticmethod
    def _binding_tables(plan: PlanNode) -> list[tuple[str, list[str]]]:
        """Recover (alias, columns) groups from a plan's binding."""
        binding = plan.binding
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

    def _plan_aggregation_and_projection(
        self, select: Select, child: PlanNode
    ) -> PlanNode:
        has_aggregates = any(
            self._find_aggregates(item.expr) for item in select.items
        ) or (select.having is not None and bool(self._find_aggregates(select.having)))
        if not select.group_by and not has_aggregates:
            if select.having is not None:
                raise PlanError("HAVING without aggregation or GROUP BY")
            return self._plan_projection(select, child)

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

        agg = AggregatePlan(child=child, group_exprs=group_exprs, aggregates=specs)
        out_names = [f"g{i}" for i in range(len(group_exprs))] + [
            f"a{i}" for i in range(len(specs))
        ]
        agg.binding = RowBinding.for_table("_agg", out_names)
        agg.est_rows = max(1.0, child.est_rows / 10.0)
        agg.est_cost = child.est_cost + child.est_rows * self.personality.cpu_tuple_cost

        substitutions: dict[Expr, Expr] = {}
        for i, gexpr in enumerate(group_exprs):
            substitutions[gexpr] = ColumnRef(f"g{i}")
        for j, call in enumerate(agg_calls):
            substitutions[call] = ColumnRef(f"a{j}")

        plan: PlanNode = agg
        if select.having is not None:
            having_expr = self._substitute(select.having, substitutions)
            inner = plan
            plan = FilterPlan(child=inner, expr=having_expr)
            plan.binding = inner.binding
            plan.est_rows = inner.est_rows / 3.0
            plan.est_cost = inner.est_cost

        exprs: list[Expr] = []
        names: list[str] = []
        for item in select.items:
            if isinstance(item.expr, Star):
                raise PlanError("SELECT * cannot be combined with aggregation")
            exprs.append(self._substitute(item.expr, substitutions))
            names.append(item.output_name)
        proj = ProjectPlan(child=plan, exprs=exprs, names=names)
        proj.binding = RowBinding.for_table("_out", names)
        proj.est_rows = plan.est_rows
        proj.est_cost = plan.est_cost
        return proj

    def _plan_projection(self, select: Select, child: PlanNode) -> PlanNode:
        exprs: list[Expr] = []
        names: list[str] = []
        star_only = all(isinstance(i.expr, Star) for i in select.items)
        for item in select.items:
            if isinstance(item.expr, Star):
                for alias, cols in self._binding_tables(child):
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
        proj = ProjectPlan(child=child, exprs=exprs, names=names)
        proj.binding = RowBinding.for_table("_out", names)
        proj.est_rows = child.est_rows
        proj.est_cost = child.est_cost + child.est_rows * self.personality.cpu_tuple_cost
        return proj

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
