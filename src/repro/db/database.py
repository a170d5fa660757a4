"""The Database facade.

One object bundles catalog, statistics, planner, executor, UDF registry
and counters — the "existing DBMS" that Sieve layers on.  Construct it
with a personality to get MySQL-like (hint-obeying) or PostgreSQL-like
(bitmap-OR) behaviour::

    db = connect(personality="mysql")
    db.create_table("t", Schema.of(("id", ColumnType.INT), ...))
    db.insert("t", rows)
    db.create_index("t", "id")
    result = db.execute("SELECT * FROM t WHERE id = 7")
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.common.errors import ExecutionError
from repro.db.counters import CounterSet
from repro.db.personality import MYSQL, Personality, personality_by_name
from repro.engine.executor import Executor, QueryResult
from repro.engine.plans import PlanNode
from repro.engine.vector import VectorizedExecutor
from repro.expr.codegen import CompiledExprCache
from repro.obs.tracing import span
from repro.optimizer.explain import ExplainNode, TableAccess, access_summary, explain_plan
from repro.optimizer.planner import PlannedQuery, Planner, PlanTemplate
from repro.optimizer.stats import StatsCatalog, TableStats
from repro.sql.ast import Query
from repro.sql.parser import parse_query
from repro.sql.statements import (
    AnalyzeStatement,
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    InsertStatement,
    Statement,
    UpdateStatement,
    parse_statement,
)
from repro.storage.catalog import Catalog
from repro.storage.schema import ColumnType, Schema
from repro.storage.table import DEFAULT_PAGE_SIZE, HeapTable


class Database:
    """An embedded relational database with a pluggable personality."""

    def __init__(
        self,
        personality: Personality = MYSQL,
        page_size: int = DEFAULT_PAGE_SIZE,
        vectorized: bool = True,
    ):
        self.personality = personality
        self.page_size = page_size
        self.catalog = Catalog()
        self.stats = StatsCatalog()
        self.counters = CounterSet()
        # The product is the batch executor running generated code: a
        # batch operator per plan node, no other executor beneath it.
        # ``vectorized=False`` is the differential oracle: the
        # tuple-at-a-time executor over closure trees, sharing no
        # compiled code with the product.
        self.vectorized = vectorized
        #: The product's compiled expressions, shared by every execution
        #: (it counts its own hits and misses).
        self.expr_cache = CompiledExprCache()
        self._udfs: dict[str, Callable[..., Any]] = {}
        self._udf_version = 0  # (re-)registrations and drops

    @property
    def schema_version(self) -> int:
        """Bumped on every catalog / UDF-registry change.  Table and
        index DDL is counted by the catalog itself (``catalog.version``),
        so a change that does not come through this facade counts too."""
        return self.catalog.version + self._udf_version

    @property
    def plan_version(self) -> tuple[int, int]:
        """Fingerprint of everything planner output depends on besides
        the query itself: (catalog+UDF version, statistics version)."""
        return (self.schema_version, self.stats.version)

    # ------------------------------------------------------------------ DDL

    def create_table(
        self, name: str, schema: Schema, page_size: int | None = None
    ) -> HeapTable:
        return self.catalog.create_table(name, schema, page_size=page_size or self.page_size)

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)
        self.stats.invalidate(name)

    def create_index(self, table: str, column: str, kind: str = "btree", name: str | None = None):
        return self.catalog.create_index(table, column, kind=kind, name=name)

    def analyze(self, table: str | None = None) -> None:
        """Rebuild statistics (for one table or all)."""
        if table is not None:
            self.stats.analyze(self.catalog.table(table))
            return
        for name in self.catalog.table_names():
            self.stats.analyze(self.catalog.table(name))

    # ------------------------------------------------------------------ DML

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        return self.catalog.insert_rows(table, rows)

    def insert_row(self, table: str, row: Sequence[Any]) -> int:
        return self.catalog.insert_row(table, row)

    def insert_batch(self, table: str, rows: Sequence[Sequence[Any]]) -> range:
        """Insert ``rows`` in order, validated as one batch; their rowids."""
        return self.catalog.insert_batch(table, rows)

    def delete_row(self, table: str, rowid: int) -> None:
        self.catalog.delete_row(table, rowid)

    def update_row(self, table: str, rowid: int, row: Sequence[Any]) -> None:
        self.catalog.update_row(table, rowid, row)

    # ----------------------------------------------------------------- UDFs

    def create_function(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a UDF; every invocation is counted."""
        counters = self.counters

        def counted(*args: Any) -> Any:
            counters.udf_invocations += 1
            return fn(*args)

        self._udfs[name.lower()] = counted
        # Compiled expressions bind UDF callables at compile time;
        # (re-)registering a name must drop them.
        self.expr_cache.clear()
        self._udf_version += 1

    def has_function(self, name: str) -> bool:
        return name.lower() in self._udfs

    def function(self, name: str) -> Callable[..., Any]:
        """The counted wrapper for a registered UDF (backends re-register
        these so UDF invocation counters stay engine-agnostic)."""
        return self._udfs[name.lower()]

    def functions(self) -> dict[str, Callable[..., Any]]:
        """All registered UDFs by lowercase name (counted wrappers)."""
        return dict(self._udfs)

    def release_compiled(self, nodes) -> int:
        """Forget compiled predicates whose expression is one of
        ``nodes`` or carries one as a top-level conjunct (matched by
        object identity).  For owners of large shared ASTs — Sieve's
        guard store — that know the AST will never be planned again."""
        return self.expr_cache.discard_conjuncts(nodes)

    # ---------------------------------------------------------------- query

    def _planner(self) -> Planner:
        return Planner(
            self.catalog,
            self.stats,
            self.personality,
            udf_names=frozenset(self._udfs),
        )

    def plan(self, query: str | Query) -> PlannedQuery:
        ast = parse_query(query) if isinstance(query, str) else query
        return self._planner().plan(ast)

    def plan_template(self, query: Query) -> PlanTemplate:
        """Phase 1 of planning a template with ``?`` slots, once:
        :meth:`PlanTemplate.bind <repro.optimizer.planner.PlanTemplate.bind>`
        then plans each binding as :meth:`plan` plans the bound query."""
        return self._planner().prepare(query)

    def execute(self, query: str | Query) -> QueryResult:
        """Execute any supported statement.

        SELECT/WITH return their result rows; DML and DDL return a
        one-row summary (``affected`` count).
        """
        if isinstance(query, str):
            statement = parse_statement(query)
            if not isinstance(statement, Query):
                return self._execute_statement(statement)
            query = statement
        planned = self.plan(query)
        with span("run", vectorized=self.vectorized):
            return self.run_plan(planned)

    def run_plan(self, planned: PlannedQuery) -> QueryResult:
        """Execute an already-planned query in the database's engine
        mode (a warm plan-cache hit enters here, skipping planning).
        The batch executor files what it resolves for each plan node in
        ``planned.resolved`` and reads it back on the plan's repeats.
        The oracle gets no compiled-expression cache, so a differential
        never compares the product with its own cached kernels.  A
        ``TypeError`` the query raises on the way (an ordering or
        arithmetic across types, a function given the wrong arguments)
        leaves as an :class:`ExecutionError`."""
        try:
            if self.vectorized:
                executor = VectorizedExecutor(
                    self.catalog, self.counters, self._udfs, self._plan_subquery, self.expr_cache
                )
                return executor.run(planned.root, planned.cte_plans, planned.resolved)
            oracle = Executor(self.catalog, self.counters, self._udfs, self._plan_subquery)
            return oracle.run(planned.root, planned.cte_plans)
        except TypeError as exc:
            raise ExecutionError(f"query failed: {exc}") from exc

    # ----------------------------------------------------------- statements

    def _execute_statement(self, statement: Statement) -> QueryResult:
        from repro.expr.eval import ExprCompiler, RowBinding

        def summary(count: int) -> QueryResult:
            return QueryResult(columns=["affected"], rows=[(count,)])

        if isinstance(statement, CreateTableStatement):
            columns = [
                (name, ColumnType[type_name]) for name, type_name in statement.columns
            ]
            self.create_table(statement.table, Schema.of(*columns))
            return summary(0)
        if isinstance(statement, CreateIndexStatement):
            self.create_index(
                statement.table, statement.column, kind=statement.kind,
                name=statement.name,
            )
            return summary(0)
        if isinstance(statement, DropTableStatement):
            self.drop_table(statement.table)
            return summary(0)
        if isinstance(statement, AnalyzeStatement):
            self.analyze(statement.table)
            return summary(0)

        table = self.catalog.table(statement.table)
        schema = table.schema
        if isinstance(statement, InsertStatement):
            columns = statement.columns or schema.names
            positions = [schema.index_of(c) for c in columns]
            if statement.source is not None:
                values = [list(row) for row in self.execute(statement.source).rows]
            else:
                compiler = ExprCompiler(RowBinding(), udfs=self._udfs)
                values = [
                    [compiler.compile(e)(()) for e in row] for row in statement.rows
                ]
            count = 0
            for value_row in values:
                if len(value_row) != len(positions):
                    raise ExecutionError(
                        f"INSERT arity {len(value_row)} != column count {len(positions)}"
                    )
                full = [None] * len(schema)
                for pos, value in zip(positions, value_row):
                    full[pos] = value
                self.insert_row(statement.table, full)
                count += 1
            return summary(count)

        binding = RowBinding.for_table(statement.table, schema.names)
        compiler = ExprCompiler(binding, udfs=self._udfs, counters=self.counters)
        predicate = (
            compiler.compile(statement.where) if statement.where is not None else None
        )
        if isinstance(statement, DeleteStatement):
            doomed = [
                rowid
                for rowid, row in table.scan()
                if predicate is None or predicate(row)
            ]
            for rowid in doomed:
                self.delete_row(statement.table, rowid)
            return summary(len(doomed))
        if isinstance(statement, UpdateStatement):
            assignment_fns = [
                (schema.index_of(column), compiler.compile(expr))
                for column, expr in statement.assignments
            ]
            updates: list[tuple[int, list]] = []
            for rowid, row in table.scan():
                if predicate is not None and not predicate(row):
                    continue
                new_row = list(row)
                for pos, fn in assignment_fns:
                    new_row[pos] = fn(row)
                updates.append((rowid, new_row))
            for rowid, new_row in updates:
                self.update_row(statement.table, rowid, new_row)
            return summary(len(updates))
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def _plan_subquery(self, query_ast: Query, cte_plans: dict[str, PlanNode]) -> PlanNode:
        return self._planner().plan_subquery(query_ast, cte_plans)

    # -------------------------------------------------------------- explain

    def explain(self, query: str | Query) -> ExplainNode:
        planned = self.plan(query)
        return explain_plan(planned.root)

    def explain_access(self, query: str | Query) -> list[TableAccess]:
        """Structured access-path summary (Sieve's strategy input)."""
        planned = self.plan(query)
        summary = access_summary(planned.root)
        for cte_plan in planned.cte_plans.values():
            summary.extend(access_summary(cte_plan))
        return summary

    # ------------------------------------------------------------- metrics

    def table_stats(self, table: str) -> TableStats:
        return self.stats.get(self.catalog.table(table))

    def reset_counters(self) -> None:
        self.counters.reset()


def connect(
    personality: str | Personality = "mysql",
    page_size: int = DEFAULT_PAGE_SIZE,
    vectorized: bool = True,
) -> Database:
    """Create a fresh in-memory database with the given personality.

    ``vectorized=False`` selects the tuple-at-a-time closure
    interpreter (the differential oracle)."""
    if isinstance(personality, str):
        personality = personality_by_name(personality)
    return Database(personality=personality, page_size=page_size, vectorized=vectorized)
