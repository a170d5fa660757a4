"""Query rewriting (paper Sections 5.3-5.6).

For every relation with applicable policies, Sieve prepends a WITH
clause selecting the policy-compliant projection and redirects all
references to it::

    WITH WiFi_Dataset_sieve AS (
      SELECT * FROM WiFi_Dataset FORCE INDEX (idx_..._wifiap)
        WHERE <guard_1> AND <query predicate> AND (<partition_1>)
      UNION
      SELECT * FROM WiFi_Dataset FORCE INDEX (idx_..._owner)
        WHERE <guard_n> AND <query predicate> AND sieve_delta('…', id, …)
    )
    SELECT ... FROM WiFi_Dataset_sieve AS W ...

Personality shapes the CTE body (Section 5.3):

* **MySQL** + IndexGuards: one UNION branch per guard, each forcing
  that guard's index; LinearScan uses ``USE INDEX ()``; IndexQuery
  forces the query predicate's index.
* **PostgreSQL**: a single SELECT with the guard disjunction — the
  engine's optimizer turns it into a BitmapOr over the guard indexes
  on its own (hints are ignored there anyway).

Selective query predicates on the rewritten table are copied into the
CTE (Section 5.5) so the inner access-path choice can exploit them;
the originals stay in the outer query, which is semantically redundant
but harmless.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

from repro.common.errors import SieveError
from repro.core.delta import DELTA_UDF_NAME, DeltaOperator
from repro.core.guards import GuardedExpression
from repro.core.strategy import Strategy, StrategyDecision
from repro.expr.analysis import (
    conjuncts,
    contains_subquery,
    make_and,
    make_or,
    map_children,
    walk,
)
from repro.obs.tracing import span
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
    Param,
    ScalarSubquery,
    Star,
)
from repro.sql.ast import (
    CTE,
    DerivedTable,
    IndexHint,
    JoinClause,
    OrderItem,
    Query,
    Select,
    SelectCore,
    SelectItem,
    SetOp,
    TableRef,
)


@dataclass
class RewriteInfo:
    """What the rewriter did, for logging/EXPLAIN and tests."""

    enforced_tables: dict[str, str] = field(default_factory=dict)  # table -> cte name
    decisions: dict[str, StrategyDecision] = field(default_factory=dict)
    denied_tables: list[str] = field(default_factory=list)
    #: table -> guard keys materialized into its enforcement CTE, in
    #: guard order.  The audit tier records these; keeping them on the
    #: RewriteInfo makes audit records identical whether the rewrite
    #: came fresh or from the plan cache (a cached plan carries its
    #: original info, guard keys included).
    guard_keys: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: The rewritten query and the dialect of the engine that will run
    #: it — what :attr:`sql` prints.
    rewritten: Query | None = field(default=None, init=False, repr=False, compare=False)
    dialect: Any = field(default=None, init=False, repr=False, compare=False)

    def bound(self, rewritten: Query, decisions: dict[str, StrategyDecision]) -> "RewriteInfo":
        """This template rewrite's bookkeeping for one binding: the
        tables, denial and guard keys are the template's, the
        decisions (whose costs read the literals) and the bound tree
        the binding's own."""
        info = RewriteInfo(self.enforced_tables, dict(decisions), self.denied_tables, self.guard_keys)
        info.rewritten, info.dialect = rewritten, self.dialect
        return info

    @cached_property
    def sql(self) -> str:
        """The rewritten query as the executing engine's SQL text.

        Printed on first read: a backend and an inspector read it, the
        bundled engine executes the AST and never does — and the text
        of a policy-wide rewrite runs to kilobytes per request."""
        from repro.sql.printer import to_sql

        return "" if self.rewritten is None else to_sql(self.rewritten, dialect=self.dialect)


def collect_table_names(query: Query) -> set[str]:
    """All base-table names referenced anywhere in a query AST."""
    names: set[str] = set()
    cte_names = {c.name.lower() for c in query.ctes}
    for cte in query.ctes:
        names |= collect_table_names(cte.query)
    _collect_core(query.body, names, cte_names)
    return names


def _collect_core(core: SelectCore, names: set[str], cte_names: set[str]) -> None:
    if isinstance(core, SetOp):
        _collect_core(core.left, names, cte_names)
        _collect_core(core.right, names, cte_names)
        return
    for item in list(core.from_items) + [j.item for j in core.joins]:
        if isinstance(item, TableRef):
            if item.name.lower() not in cte_names:
                names.add(item.name.lower())
        else:
            names |= collect_table_names(item.query)
    for expr in _exprs_of_select(core):
        for node in walk(expr):
            if hasattr(node, "select") and node.select is not None:
                names |= collect_table_names(node.select)


def _exprs_of_select(select: Select) -> list[Expr]:
    out = [i.expr for i in select.items]
    out.extend(j.condition for j in select.joins if j.condition is not None)
    if select.where is not None:
        out.append(select.where)
    out.extend(select.group_by)
    if select.having is not None:
        out.append(select.having)
    out.extend(o.expr for o in select.order_by)
    return out


def aliases_for_table(query: Query, table_name: str) -> list[str]:
    """The aliases under which ``table_name`` appears in the query body."""
    out: list[str] = []

    def visit(core: SelectCore) -> None:
        if isinstance(core, SetOp):
            visit(core.left)
            visit(core.right)
            return
        for item in list(core.from_items) + [j.item for j in core.joins]:
            if isinstance(item, TableRef) and item.name.lower() == table_name.lower():
                out.append(item.binding_name)

    visit(query.body)
    return out


def query_predicates_for(query: Query, table_name: str, table_columns: set[str]) -> list[Expr]:
    """Single-table, constant-only conjuncts of the outer WHERE that
    target ``table_name`` (Section 5.5's 'selective query predicates').

    Only safe when the table is referenced exactly once: the CTE is
    shared by every reference, so predicates from two different uses
    (e.g. the two sides of an EXCEPT) must not be conjoined into it.
    """
    alias_list = aliases_for_table(query, table_name)
    if len(alias_list) != 1:
        return []
    aliases = {alias_list[0].lower()}
    found: list[Expr] = []

    def visit(core: SelectCore) -> None:
        if isinstance(core, SetOp):
            visit(core.left)
            visit(core.right)
            return
        if core.where is None:
            return
        for conj in conjuncts(core.where):
            if _is_copyable_predicate(conj, aliases, table_columns):
                found.append(conj)

    visit(query.body)
    return found


def _is_copyable_predicate(expr: Expr, aliases: set[str], columns: set[str]) -> bool:
    """Deterministic, single-table, constant-only predicate?"""
    saw_column = False
    for node in walk(expr):
        if isinstance(node, ColumnRef):
            saw_column = True
            if node.table is not None:
                if node.table.lower() not in aliases:
                    return False
            elif node.name.lower() not in columns:
                return False
        elif isinstance(node, (FuncCall,)):
            return False  # UDFs/aggregates are not safe to duplicate
        elif not isinstance(
            node, (Literal, Param, Comparison, Between, InList, And, Or, Not, Arith, IsNull)
        ):
            return False
    return saw_column


def strip_qualifiers(expr: Expr) -> Expr:
    """Rewrite qualified column refs to bare names (for CTE bodies)."""
    if isinstance(expr, ColumnRef):
        return ColumnRef(expr.name) if expr.table is not None else expr
    return map_children(expr, strip_qualifiers)


def _same(old: Any, new: Any) -> bool:
    """Is a rebuilt ``Select`` field the field it was built from —
    the object itself, or a list of the very same members?"""
    if isinstance(new, list):
        return all(a is b for a, b in zip(old, new))
    return old is new


class SieveRewriter:
    """Builds the policy-enforcing rewrite of a query.

    ``personality`` defaults to the bundled engine's; pass the target
    backend's when the rewrite ships to a different engine, so the CTE
    shape (hinted UNION vs single disjunction, Section 5.3) matches
    the system that will run it.  ``dialect`` likewise controls how
    :attr:`RewriteInfo.sql` is printed — it must be the text the
    executing engine actually sees, or the logging/EXPLAIN field lies.
    """

    def __init__(self, db, delta: DeltaOperator, personality=None, dialect=None):
        from repro.sql.printer import DEFAULT_DIALECT

        self.db = db
        self.delta = delta
        self.personality = personality or db.personality
        self.dialect = dialect or DEFAULT_DIALECT

    def decision_shape(self, decision: StrategyDecision) -> tuple:
        """What :meth:`rewrite` reads of a decision: its Δ set and, only
        under a personality that honours index hints, its strategy and
        (for IndexQuery) the column whose index it forces.  Decisions
        of one shape rewrite a query identically; their costs, which
        read the literals, are not part of it."""
        if not self.personality.honors_index_hints:
            return (decision.delta_guards,)
        column = decision.query_index_column if decision.strategy is Strategy.INDEX_QUERY else None
        return (decision.strategy, column, decision.delta_guards)

    def rewrite(
        self,
        query: Query,
        expressions: dict[str, GuardedExpression],
        decisions: dict[str, StrategyDecision],
        denied_tables: set[str] = frozenset(),
        query_predicates: dict[str, list[Expr]] | None = None,
    ) -> tuple[Query, RewriteInfo]:
        """Produce the rewritten query plus bookkeeping.

        ``expressions``/``decisions`` are keyed by lowercase table name;
        ``denied_tables`` are relations the querier has no policies on —
        they rewrite to an empty projection (opt-out semantics).
        ``query_predicates`` is :func:`query_predicates_for` of each
        enforced table when the caller already has it (the middleware
        does: strategy choice costs the same conjuncts).
        """
        with span("rewrite") as sp:
            rewritten, info = self._rewrite(
                query, expressions, decisions, denied_tables, query_predicates
            )
            sp.set(
                enforced=len(info.enforced_tables), denied=len(info.denied_tables)
            )
        return rewritten, info

    def _rewrite(
        self,
        query: Query,
        expressions: dict[str, GuardedExpression],
        decisions: dict[str, StrategyDecision],
        denied_tables: set[str] = frozenset(),
        query_predicates: dict[str, list[Expr]] | None = None,
    ) -> tuple[Query, RewriteInfo]:
        info = RewriteInfo(decisions=dict(decisions))
        new_ctes: list[CTE] = []
        replacements: dict[str, str] = {}

        for table_name in sorted(denied_tables):
            cte_name = self._cte_name(table_name)
            new_ctes.append(self._denial_cte(table_name, cte_name))
            replacements[table_name.lower()] = cte_name
            info.denied_tables.append(table_name)

        for table_name, expression in sorted(expressions.items()):
            decision = decisions[table_name]
            cte_name = self._cte_name(table_name)
            if query_predicates is not None:
                qpreds = query_predicates[table_name]
            else:
                columns = self.db.catalog.table(table_name).schema.names
                qpreds = query_predicates_for(query, table_name, {c.lower() for c in columns})
            body = self._enforcement_select(table_name, expression, decision, qpreds)
            new_ctes.append(CTE(cte_name, Query(body=body)))
            replacements[table_name.lower()] = cte_name
            info.enforced_tables[table_name] = cte_name
            info.guard_keys[table_name] = tuple(
                expression.guard_key(i) for i in range(len(expression.guards))
            )

        redirected = self._replace_tables(query, replacements)
        rewritten = Query(body=redirected.body, ctes=new_ctes + redirected.ctes)
        info.rewritten, info.dialect = rewritten, self.dialect
        return rewritten, info

    # ------------------------------------------------------------ CTE body

    def _cte_name(self, table_name: str) -> str:
        return f"{table_name}_sieve"

    def _denial_cte(self, table_name: str, cte_name: str) -> CTE:
        select = Select(
            items=[SelectItem(Star())],
            from_items=[TableRef(table_name)],
            where=Literal(False),
        )
        return CTE(cte_name, Query(body=select))

    def _enforcement_select(
        self,
        table_name: str,
        expression: GuardedExpression,
        decision: StrategyDecision,
        query_predicates: list[Expr],
    ) -> SelectCore:
        personality = self.personality
        table = self.db.catalog.table(table_name)
        columns = table.schema.names
        qpred = make_and([strip_qualifiers(p) for p in query_predicates])
        self._register_delta_partitions(table_name, expression, decision)

        if personality.honors_index_hints and decision.strategy is Strategy.INDEX_GUARDS:
            return self._union_of_guard_scans(
                table_name, expression, decision, qpred, columns
            )

        guard_or = expression.to_expr(
            qualifier=None,
            delta_guards=decision.delta_guards,
            delta_udf=DELTA_UDF_NAME,
            delta_columns=columns,
        )
        if guard_or is None:
            guard_or = Literal(False)
        where = make_and([p for p in (qpred, guard_or) if p is not None])
        hint: IndexHint | None = None
        if personality.honors_index_hints:
            if decision.strategy is Strategy.LINEAR_SCAN:
                hint = IndexHint("USE", ())
            elif (
                decision.strategy is Strategy.INDEX_QUERY
                and decision.query_index_column is not None
            ):
                index = self.db.catalog.index_on_column(
                    table_name, decision.query_index_column
                )
                if index is not None:
                    hint = IndexHint("FORCE", (index.name,))
        return Select(
            items=[SelectItem(Star())],
            from_items=[TableRef(table_name, hint=hint)],
            where=where,
        )

    def _union_of_guard_scans(
        self,
        table_name: str,
        expression: GuardedExpression,
        decision: StrategyDecision,
        qpred: Expr | None,
        columns: list[str],
    ) -> SelectCore:
        """MySQL IndexGuards: UNION of per-guard forced index scans."""
        branches: list[Select] = []
        for i, guard in enumerate(expression.guards):
            index = self.db.catalog.index_on_column(table_name, guard.condition.attr)
            hint = IndexHint("FORCE", (index.name,)) if index is not None else None
            branch_expr = expression.branch_expr(
                i,
                use_delta=i in decision.delta_guards,
                delta_udf=DELTA_UDF_NAME,
                delta_columns=columns,
            )
            where = make_and([p for p in (branch_expr, qpred) if p is not None])
            branches.append(
                Select(
                    items=[SelectItem(Star())],
                    from_items=[TableRef(table_name, hint=hint)],
                    where=where,
                )
            )
        if not branches:
            return Select(
                items=[SelectItem(Star())],
                from_items=[TableRef(table_name)],
                where=Literal(False),
            )
        core: SelectCore = branches[0]
        for branch in branches[1:]:
            core = SetOp("UNION", core, branch)  # UNION dedups overlapping guards
        return core

    def _register_delta_partitions(
        self, table_name: str, expression: GuardedExpression, decision: StrategyDecision
    ) -> None:
        prefix = f"{expression.querier}|{expression.purpose}|{expression.table}|"
        # sync (overwrite-then-prune) rather than unregister-then-
        # register: concurrent executions of this expression's queries
        # must never observe a missing guard key.
        self.delta.sync_prefix(
            prefix,
            {
                expression.guard_key(i): (expression.guards[i], table_name)
                for i in decision.delta_guards
            },
        )

    # ------------------------------------------------------ table renaming

    def _replace_tables(self, query: Query, replacements: dict[str, str]) -> Query:
        """``query`` with every reference to a replaced table — in its
        body, its CTEs and every statement nested under them —
        redirected to the table's CTE.  Only the spine that changes is
        rebuilt (``Query`` → ``Select`` → FROM / JOIN item → the
        ``TableRef``, and an expression only on the way down to a
        subquery naming a replaced table); every other node is the
        input's own, which is never touched: expression nodes are
        immutable and nothing downstream edits a statement node."""
        ctes = [
            cte
            if (sub := self._replace_tables(cte.query, replacements)) is cte.query
            else CTE(cte.name, sub)
            for cte in query.ctes
        ]
        body = self._replace_in_core(query.body, replacements)
        if body is query.body and _same(query.ctes, ctes):
            return query
        return Query(body=body, ctes=ctes)

    def _replace_in_core(self, core: SelectCore, replacements: dict[str, str]) -> SelectCore:
        if isinstance(core, SetOp):
            left = self._replace_in_core(core.left, replacements)
            right = self._replace_in_core(core.right, replacements)
            if left is core.left and right is core.right:
                return core
            return SetOp(core.op, left, right, all=core.all)

        def item_of(item):
            if isinstance(item, DerivedTable):
                sub = self._replace_tables(item.query, replacements)
                return item if sub is item.query else DerivedTable(sub, item.alias)
            new_name = replacements.get(item.name.lower())
            if new_name is None:
                return item
            # The old name stays visible as the alias; hints moved inside the CTE.
            return TableRef(new_name, alias=item.alias or item.name)

        def expr_of(expr: Expr | None) -> Expr | None:
            return None if expr is None else self._replace_in_expr(expr, replacements)

        def join_of(join: JoinClause) -> JoinClause:
            item, on = item_of(join.item), expr_of(join.condition)
            return join if item is join.item and on is join.condition else JoinClause(item, on)

        parts = {
            "from_items": [item_of(item) for item in core.from_items],
            "joins": [join_of(join) for join in core.joins],
            "items": [
                i if (e := expr_of(i.expr)) is i.expr else SelectItem(e, i.alias) for i in core.items
            ],
            "where": expr_of(core.where),
            "group_by": [expr_of(e) for e in core.group_by],
            "having": expr_of(core.having),
            "order_by": [
                o if (e := expr_of(o.expr)) is o.expr else OrderItem(e, o.ascending)
                for o in core.order_by
            ],
        }
        if all(_same(getattr(core, name), part) for name, part in parts.items()):
            return core
        return replace(core, **parts)

    def _replace_in_expr(self, expr: Expr, replacements: dict[str, str]) -> Expr:
        """``expr`` with the subqueries under it redirected; the same
        node when none names a replaced table (for the common,
        subquery-free tree that is one look at its remembered facts)."""
        if not contains_subquery(expr):
            return expr
        if isinstance(expr, (ScalarSubquery, InSubquery)):
            select = self._replace_tables(expr.select, replacements)
            if select is not expr.select:
                expr = replace(expr, select=select)
        return map_children(expr, lambda child: self._replace_in_expr(child, replacements))
