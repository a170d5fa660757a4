"""The Sieve middleware facade (paper Section 5).

Usage::

    db = connect("mysql")
    ... create tables, load data, create indexes ...
    store = PolicyStore(db, groups)
    store.insert_many(policies)
    sieve = Sieve(db, store)
    result = sieve.execute(
        "SELECT * FROM WiFi_Dataset WHERE ts_date BETWEEN 10 AND 20",
        querier="Prof.Smith",
        purpose="analytics",
    )

Per query, Sieve:

1. filters the policy corpus by query metadata (querier, purpose) —
   the PQM filter of Section 3.2;
2. fetches the guarded expression for each referenced relation,
   maintained to the current policies (regenerated on the Section 6
   schedule);
3. chooses LinearScan / IndexQuery / IndexGuards and per-guard Δ
   (Sections 5.4-5.5);
4. rewrites the query with enforcement CTEs (Section 5.3) and runs it
   on the underlying database.

Steps 1-2 are amortized across queries by the guard tier
(:mod:`repro.core.guard_store`): repeated queries by the same (querier,
purpose) are answered from each relation's entry stamped with the current
policy epoch instead of re-filtering the corpus.  Steps 3-4 are
amortized by the plan cache (:mod:`repro.core.cache`).

Protected relations (the store's declared set,
:attr:`PolicySnapshot.protected <repro.policy.store.PolicySnapshot.protected>`)
where the querier holds no applicable policies come back empty
(opt-out default-deny, Section 3.1) — also once the last policy on
them has been revoked.

Without a backend, the rewrite runs on the bundled engine's
vectorized batch executor (:mod:`repro.engine.vector`) — the
database's default mode, a batch operator for every plan node;
``SieveExecution.engine`` records the serving tier/mode.  Pass
``backend=`` (a :class:`repro.backend.Backend`, e.g.
``SqliteBackend().ship(db)``) to
execute the rewritten queries on a real DBMS instead — the rewrite is
printed in the backend's SQL dialect and shipped there, mirroring how
the paper's Experiments 4-5 run Sieve's output on actual
MySQL/PostgreSQL servers.

See ``docs/ARCHITECTURE.md`` for the end-to-end dataflow.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.audit import AuditLog, Explanation, explain_row, make_payload, result_digest
from repro.common.errors import ExecutionError, SieveError
from repro.core.cache import DEFAULT_PLAN_CACHE_CAPACITY, CachedPlan, PlanCache
from repro.core.cost_model import SieveCostModel, calibrate
from repro.core.delta import DELTA_UDF_NAME, DeltaOperator
from repro.core.generation import build_guarded_expression, maintain_guarded_expression
from repro.core.guard_store import GuardStore
from repro.core.guards import GuardedExpression
from repro.core.regeneration import RegenerationController
from repro.core.rewriter import (
    RewriteInfo,
    SieveRewriter,
    collect_table_names,
    query_predicates_for,
)
from repro.core.strategy import StrategyDecision, choose_strategy
from repro.engine.executor import QueryResult
from repro.expr.nodes import ColumnRef, Star
from repro.expr.params import (
    bind_expr,
    bind_slots,
    collect_params,
    normalize_bindings,
    parameterize_query,
    parameterize_traced,
)
from repro.optimizer.planner import PlannedQuery
from repro.obs.tracing import SlowQueryLog, Tracer, current_trace_id, span
from repro.policy.store import PolicySnapshot, PolicyStore
from repro.sql.ast import Query, Select
from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import literal_value, parse_query
from repro.sql.printer import to_sql

#: Bound on each probe of the statement memo (texts, token shapes);
#: least-recently-created entries age out beyond it.
AUTO_PREPARE_MAX_SHAPES = 512


def _is_plain_select(query: Query) -> bool:
    """A bare projection — no aggregates, grouping, DISTINCT or LIMIT.

    Only these shapes let the selectivity profiler equate "rows
    admitted" with "rows surviving the guard disjunction" (the engine
    charges ``tuples_output`` for the *final* result, which for a
    ``COUNT(*)`` is one row whatever the guards admitted)."""
    body = query.body
    if not isinstance(body, Select):
        return False
    if body.group_by or body.having or body.distinct or body.limit is not None:
        return False
    return all(isinstance(item.expr, (Star, ColumnRef)) for item in body.items)


def _protected_relations(query: Query, snapshot: PolicySnapshot) -> list[str]:
    """The relations of ``query`` under Sieve's control at ``snapshot``
    — the declared protected set, not the relations that happen to
    carry a policy: these are rewritten, and a querier no policy admits
    reads nothing from them (opt-out default deny, Section 3.1)."""
    return sorted(collect_table_names(query) & snapshot.protected)


def _shape_of(tokens: list[Token]) -> tuple[tuple, list[int]]:
    """A text's token stream with each NUMBER and STRING value masked by
    its kind — the key of the statement memo's second probe — and the
    indices of those literal tokens, in text order.  Keywords,
    operators and punctuation key by their text, identifiers and
    parameters by theirs in a tuple (a quoted ``"("`` is not ``(``)."""
    key: list = []
    literals: list[int] = []
    for index, token in enumerate(tokens):
        kind = token.type
        if kind is TokenType.NUMBER or kind is TokenType.STRING:
            literals.append(index)
            key.append("\0number" if kind is TokenType.NUMBER else "\0string")
        elif kind is TokenType.IDENT or kind is TokenType.PARAM:
            key.append((kind is TokenType.IDENT, token.value))
        else:
            key.append(token.value)
    return tuple(key), literals


@dataclass(frozen=True)
class _Shape:
    """The statement memo's entry for a token shape, made from the one
    parse of its first text: the memo entry of its template, and per
    literal token (text order) what a new text's token there is — the
    value of slot ``j`` (an ``int``), or text that must read exactly as
    recorded (a ``str``: ``LIMIT 20``, a select-list constant, which
    stay in the template)."""

    statement: "QueryTemplate"
    reads: tuple[int | str, ...]
    slots: int

    def values_of(self, tokens: list[Token], literals: list[int]) -> tuple | None:
        """A new text's binding — each slot converted by the parser's
        own :func:`~repro.sql.parser.literal_value` — or ``None`` when
        a recorded text differs."""
        values: list = [None] * self.slots
        for index, read in zip(literals, self.reads):
            token = tokens[index]
            if isinstance(read, int):
                values[read] = literal_value(token)
            elif token.value != read:
                return None
        return tuple(values)


def _file(memo: dict, key: Any, value: Any) -> None:
    """Put ``key`` in a memo probe, the oldest entries aging out past
    ``AUTO_PREPARE_MAX_SHAPES`` (dict order is creation order)."""
    memo[key] = value
    while len(memo) > AUTO_PREPARE_MAX_SHAPES:
        memo.pop(next(iter(memo)))


@dataclass(frozen=True)
class QueryMetadata:
    """QM: the context Sieve reads off an incoming query (Section 3.1)."""

    querier: Any
    purpose: str


@dataclass
class SieveExecution:
    """Result of one middleware execution, with full bookkeeping."""

    result: QueryResult
    rewrite: RewriteInfo
    metadata: QueryMetadata
    policies_considered: int = 0
    #: Relations whose guards this request *selected afresh* (a first
    #: build, or the Section 6 schedule firing); an expression merely
    #: maintained to a written corpus is not listed.
    regenerated_tables: list[str] = field(default_factory=list)
    middleware_ms: float = 0.0
    execution_ms: float = 0.0
    #: Which execution tier served the query: ``"backend"`` (external
    #: DBMS) or the bundled engine's configured mode — ``"vectorized"``
    #: / ``"tuple"`` (the differential oracle); a plan runs wholly in
    #: one of them.
    engine: str = ""
    #: The policy epoch this request planned against — the epoch of the
    #: :class:`~repro.policy.store.PolicySnapshot` taken at admission
    #: (a partition-local epoch when serving from a cluster shard).
    #: The audit tier records it so replay can pin the same corpus view.
    policy_epoch: int = -1
    #: The id of the ``sieve.query`` root span this execution ran
    #: under — empty when tracing is off.  Also stamped into the audit
    #: payload so a slow trace and its decision record correlate.
    trace_id: str = ""


class Sieve:
    """The middleware: intercepts queries, rewrites, executes."""

    def __init__(
        self,
        db,
        policy_store: PolicyStore,
        cost_model: SieveCostModel | None = None,
        regeneration: RegenerationController | None = None,
        backend=None,
        plan_cache_capacity: int = DEFAULT_PLAN_CACHE_CAPACITY,
        audit: AuditLog | None = None,
    ):
        self.db = db
        self.policy_store = policy_store
        self.cost_model = cost_model or SieveCostModel()
        self.delta = DeltaOperator.for_database(db)
        self.guard_store = GuardStore(db, policy_store)
        self.regeneration = regeneration
        # Post-rewrite, post-plan artifacts — see
        # :class:`~repro.core.cache.PlanCache`.  Every execution binds a
        # template rewrite and its plan template held there; prepared
        # and served statements also keep a plan per binding.
        self.plan_cache = PlanCache(capacity=plan_cache_capacity)
        # The statement memo (:meth:`_statement`), two probes shared by
        # queriers (parsing is a pure function of the text), each a
        # bounded FIFO written under _memo_lock.  By text: SQL text →
        # (QueryTemplate, values), so a repeated text skips even the
        # lexer.  By shape: masked token stream → _Shape, so a fresh
        # literal in a known shape is lexed, not parsed, parameterized
        # or printed.
        self._memo_lock = threading.Lock()
        self._statements: dict[str, tuple[QueryTemplate, tuple]] = {}
        self._shapes: dict[tuple, _Shape] = {}
        # Optional audit tier (repro.audit): every execution appends a
        # hash-chained DecisionRecord.  None = off (zero cost).
        self.audit: AuditLog | None = None
        if audit is not None:
            self.enable_audit(audit)
        # Optional observability tier (repro.obs): span tracing, slow
        # query capture, observed-selectivity feedback.  All None = off
        # (span() degrades to a shared no-op scope on the hot path).
        self.tracer: Tracer | None = None
        self.slow_query_log: SlowQueryLog | None = None
        self.profiler = None
        # Optional real-DBMS execution tier (repro.backend).  The whole
        # middleware pipeline — PQM filter, guard tier, strategy,
        # rewrite, Δ registration — is unchanged; only the final
        # execution hops engines.  Strategy choice and rewrite shape
        # follow the personality of the engine that will actually run
        # the query (Section 5.3), so a backend's declared personality
        # overrides the bundled one.  The Δ UDF's counted wrapper is
        # (re-)registered here so it exists even when the backend was
        # shipped before this Sieve (and its DeltaOperator) was built.
        self.backend = backend
        self.execution_personality = (
            getattr(backend, "personality", None) or db.personality
        )
        self.rewriter = SieveRewriter(
            db,
            self.delta,
            personality=self.execution_personality,
            dialect=backend.dialect if backend is not None else None,
        )
        if backend is not None:
            backend.register_udf(DELTA_UDF_NAME, db.function(DELTA_UDF_NAME))
        # The plan cache's targeted invalidation on corpus mutations
        # (the guard tier listens for itself).  ``epoch`` is this
        # event's own: events are dispatched after the store's write
        # lock drops, so the live ``store.epoch`` may already be ahead.
        # Registered weakly: short-lived Sieve instances over a
        # long-lived store must not be pinned (and kept invalidating)
        # forever by the store's listener list.  A hook that finds its
        # Sieve collected deregisters itself.
        self_ref = weakref.ref(self)

        def _mutation_hook(kind: str, policy, epoch: int) -> None:
            live = self_ref()
            if live is None:
                policy_store.remove_mutation_listener(_mutation_hook)
                return
            live.plan_cache.on_policy_mutation(kind, policy, epoch, policy_store.groups)

        policy_store.add_mutation_listener(_mutation_hook)

    # ------------------------------------------------------------ observers

    def enable_audit(self, log: AuditLog | None = None) -> AuditLog:
        """Attach an append-only decision log (idempotent).

        Enables snapshot retention on the policy store so every epoch a
        record names stays replayable
        (:meth:`~repro.policy.store.PolicyStore.snapshot_at`).  From
        here on every ``execute_with_info`` chains one
        :class:`~repro.audit.DecisionRecord` — cache hits and cold
        misses alike, since the record is built from the
        :class:`~repro.core.rewriter.RewriteInfo` both paths share.
        """
        if self.audit is None:
            self.audit = log if log is not None else AuditLog()
            self.policy_store.retain_snapshots()
        return self.audit

    def enable_tracing(
        self, tracer: Tracer | None = None, slow_query_ms: float | None = None
    ) -> Tracer:
        """Attach a span tracer (idempotent).

        Every subsequent ``execute``/``execute_with_info`` opens a
        ``sieve.query`` root span; the pipeline stages (prepare, guard
        resolve, strategy, rewrite, plan, run) nest under it, and the
        finished tree lands in the tracer's ring buffer.  Pass a
        shared ``tracer`` to aggregate several Sieve instances (the
        cluster tier does).  ``slow_query_ms`` additionally retains
        the full span tree of any query slower than the threshold in
        a :class:`~repro.obs.tracing.SlowQueryLog`.
        """
        if self.tracer is None:
            self.tracer = tracer if tracer is not None else Tracer()
        if slow_query_ms is not None and self.slow_query_log is None:
            self.slow_query_log = SlowQueryLog(threshold_ms=slow_query_ms)
            self.tracer.on_finish(self.slow_query_log.observe)
        return self.tracer

    def enable_profiling(self, profiler=None):
        """Close the selectivity feedback loop (idempotent).

        Ensures tracing is on, subscribes a
        :class:`~repro.obs.profile.SelectivityProfiler` to finished
        traces, and attaches it to the cost model so
        :func:`~repro.core.strategy.choose_strategy` prefers measured
        guard cardinalities over statistics estimates.
        """
        tracer = self.enable_tracing()
        if self.profiler is None:
            from repro.obs.profile import SelectivityProfiler

            self.profiler = profiler if profiler is not None else SelectivityProfiler()
            tracer.on_finish(self.profiler.on_trace)
            self.cost_model.attach_profile(self.profiler)
        return self.profiler

    def invalidate_caches(self, querier: Any = None) -> int:
        """Drop ``querier``'s (default: everyone's) state in both tiers
        — the plan cache, and the guard tier's entries, whose persisted
        rows and compiled predicates go with them (e.g. after editing
        the group directory, which does not bump the policy epoch;
        state built under the old membership must not survive any
        tier).  Returns the number of entries dropped."""
        return self.plan_cache.invalidate(querier=querier) + self.guard_store.invalidate(
            querier=querier
        )

    # ------------------------------------------------------------- plumbing

    def calibrate(self, table_name: str, sample_limit: int = 2000) -> SieveCostModel:
        """Re-derive the cost constants from the live engine (Section 5.4)."""
        policies = [
            p
            for p in self.policy_store.all_policies()
            if p.table.lower() == table_name.lower()
        ]
        self.cost_model = calibrate(self.db, table_name, policies, sample_limit)
        return self.cost_model

    def guarded_expression_for(
        self, querier: Any, purpose: str, table: str, force_rebuild: bool = False, snapshot=None
    ) -> tuple[GuardedExpression | None, bool]:
        """G(P) for one (querier, purpose, relation) through the guard
        tier at ``snapshot`` (the live store's when omitted), its guards
        selected afresh on ``force_rebuild``.  Returns ``(expression,
        regenerated?)``, ``None`` for a querier without a policy there."""
        snapshot = snapshot if snapshot is not None else self.policy_store.snapshot()
        entry, rebuilt = self.guard_store.resolve(
            querier, purpose, table, snapshot, self._generation, force_rebuild
        )
        return entry.expression, rebuilt

    def _generation(self, querier: Any, purpose: str, table: str, policies: list):
        """The guard tier's two steps for ``policies`` (``(builder,
        maintain)``, :data:`~repro.core.guard_store.Generation`).  An
        expression the tier already holds is *maintained* to the
        corpus — the written policies leave or join partitions, every
        other guard is shared with its predecessor
        (:func:`~repro.core.generation.maintain_guarded_expression`) —
        so it is exact at once, and the guards are selected afresh only
        when the Section 6 schedule says the accumulated inserts have
        made that worth its cost (``self.regeneration``, by default a
        :class:`~repro.core.regeneration.RegenerationController` over
        the current cost model), when maintenance cannot reach the
        corpus, or — so that decision records stay replayable from
        their epoch alone — on every change while an audit log is
        attached.  The statistics are read here, before the tier takes
        its build lock; both steps run under it."""
        heap = self.db.catalog.table(table)
        stats = self.db.stats.get(heap)
        indexed = frozenset(self.db.catalog.indexed_columns(table))

        def builder() -> GuardedExpression:
            return build_guarded_expression(
                policies,
                stats,
                indexed,
                self.cost_model,
                querier=querier,
                purpose=purpose,
                table=heap.name,
            )

        def maintain(held: GuardedExpression) -> GuardedExpression | None:
            maintained = maintain_guarded_expression(
                held, policies, stats, indexed, self.cost_model
            )
            if maintained is None or maintained is held:
                return maintained
            if self.audit is not None:
                # A decision record replays from the corpus its epoch
                # names (tools/replay.py): audited guards must be a
                # function of that corpus, not of the writes before it.
                return None
            # Section 6: select again at the k-th insertion since the
            # last selection; until then the edited expression serves.
            schedule = self.regeneration or RegenerationController(self.cost_model)
            mean_cardinality = maintained.total_cardinality / max(1, len(maintained.guards))
            if schedule.decide(maintained.maintained_inserts, mean_cardinality):
                return None
            return maintained

        return builder, maintain

    # ------------------------------------------------------------ execution

    def _prepare(
        self, statement: "QueryTemplate", querier: Any, purpose: str, values: tuple
    ) -> tuple[SieveExecution, Query, Callable[[], PlannedQuery]]:
        """Run the middleware pipeline on one binding of ``statement``
        up to (not including) planning — one path for every caller.

        Per-relation policy filtering and guard fetch go through the
        guard tier.  Strategy choice reads the binding's
        literals (Section 5.5), so it runs per binding, on the
        template's query conjuncts bound.  The rewrite reads the guards
        and the decisions' shape, never a literal: a template's rewrite
        is kept in the plan cache per decision shape
        (:meth:`_rewritten_template`) and bound per binding, so a
        statement in a known shape is not rewritten.  Nor is it planned
        from scratch: the third value returned plans the bound rewrite
        by binding the rewrite's :class:`PlanTemplate
        <repro.optimizer.planner.PlanTemplate>`, held in the same entry
        (:meth:`_bound_plan`).  The whole request plans against one
        policy snapshot, so concurrent mutations can never show a query
        a half-applied corpus (an update's delete and re-insert are
        observed together or not at all)."""
        start = time.perf_counter()
        snapshot = self.policy_store.snapshot()
        template = statement.template

        expressions: dict[str, GuardedExpression] = {}
        decisions: dict[str, StrategyDecision] = {}
        query_predicates: dict[str, list] = {}
        denied: set[str] = set()
        regenerated: list[str] = []
        policies_considered = 0
        bound: dict = {}  # one binding per template node (bind_expr's memo)

        for table_name in sorted(statement.tables & snapshot.protected):
            entry, rebuilt = self.guard_store.resolve(
                querier, purpose, table_name, snapshot, self._generation
            )
            policies_considered += len(entry.policies)
            if entry.expression is None:
                denied.add(table_name)
                continue
            expression = entry.expression
            if rebuilt:
                regenerated.append(table_name)
            heap = self.db.catalog.table(table_name)
            qpreds = query_predicates[table_name] = query_predicates_for(
                template, table_name, {c.lower() for c in heap.schema.names}
            )
            with span("strategy", table=table_name) as st:
                decisions[table_name] = choose_strategy(
                    self.db,
                    table_name,
                    expression,
                    [bind_expr(p, values, bound) for p in qpreds],
                    self.cost_model,
                    personality=self.execution_personality,
                )
                st.set(strategy=decisions[table_name].strategy.value)
            expressions[table_name] = expression

        entry = self._rewritten_template(
            statement, querier, purpose, snapshot.epoch, expressions, decisions, denied, query_predicates
        )
        rewritten = bind_slots(entry.rewritten, values, bound)
        execution = SieveExecution(
            result=QueryResult(columns=[], rows=[]),
            rewrite=entry.info.bound(rewritten, decisions),
            metadata=QueryMetadata(querier=querier, purpose=purpose),
            policies_considered=policies_considered,
            regenerated_tables=regenerated,
            middleware_ms=(time.perf_counter() - start) * 1000.0,
            policy_epoch=snapshot.epoch,
        )
        return execution, rewritten, lambda: self._bound_plan(entry, values, bound)

    def _rewritten_template(
        self,
        statement: "QueryTemplate",
        querier: Any,
        purpose: str,
        epoch: int,
        expressions: dict[str, GuardedExpression],
        decisions: dict[str, StrategyDecision],
        denied: set[str],
        query_predicates: dict[str, list],
    ) -> CachedPlan:
        """The plan-cache entry of the enforcement rewrite of
        ``statement``'s template, Params and all, for this querier and
        decision shape over these very guards (rewritten here on a miss).

        The rewriter reads of a decision only its strategy, its
        ``query_index_column`` and its Δ set — of those, only the Δ set
        under a personality that ignores index hints
        (:meth:`SieveRewriter.decision_shape
        <repro.core.rewriter.SieveRewriter.decision_shape>`) — so that
        shape, per table, and the denied tables key the entry beside
        the template.  The entry serves only if each guarded expression
        it was rewritten over ``is`` the one resolved now, and it is
        fenced and released like the plans beside it (a policy write
        drops it).  Its look-ups are not counted in the cache's stats,
        which stay the plans' own.  Its ``planned`` is the rewrite's
        :class:`PlanTemplate <repro.optimizer.planner.PlanTemplate>`
        once a binding has planned it, so the fence that serves the
        rewrite serves the template too."""
        cache = self.plan_cache
        key = (
            querier,
            purpose,
            statement.template_key,
            tuple(
                (table, self.rewriter.decision_shape(decision))
                for table, decision in decisions.items()
            ),
            tuple(sorted(denied)),
        )
        version = self.db.plan_version
        entry = cache.rewrite_entry(key, epoch, version)
        if entry is not None and all(
            entry.guards[table] is expression for table, expression in expressions.items()
        ):
            return entry
        rewritten, info = self.rewriter.rewrite(
            statement.template, expressions, decisions, denied, query_predicates
        )
        return cache.admit(
            key,
            CachedPlan(
                querier=querier,
                tables=statement.tables,
                epoch=epoch,
                version=version,
                rewritten=rewritten,
                planned=None,
                info=info,
                policies_considered=0,
                guards=dict(expressions),
            ),
        )

    def _bound_plan(self, entry: CachedPlan, values: tuple, memo: dict) -> PlannedQuery:
        """The plan of ``entry``'s rewrite under ``values``: its
        template bound (phase 2 only), the template prepared first when
        the entry has none yet or the catalog or statistics it read have
        moved on since.  ``memo`` is the one the statement was bound
        with, so the plan's filters are the bound rewrite's nodes."""
        template = entry.planned
        if template is None or not template.current():
            template = entry.planned = self.db.plan_template(entry.rewritten)
        return template.bind(values, memo)

    def _parsed(self, sql: str | Query) -> tuple["QueryTemplate", tuple]:
        """``sql`` parsed and split into a template and the binding that
        restores it (:func:`parameterize_query`) — the unmemoized front
        end of :meth:`execute` and :meth:`rewrite`.  A statement with
        parameters of its own has no binding here: it is refused before
        any work, as the engine refuses a Param it meets."""
        with span("parse"):
            query = parse_query(sql) if isinstance(sql, str) else sql
        template, values = parameterize_query(query)
        statement = QueryTemplate(template)
        if len(values) != len(statement.params):
            param = statement.params[0]
            raise ExecutionError(
                f"unbound parameter {param.name or param.index!r}: "
                "bind values before execution (see repro.expr.params)"
            )
        return statement, values

    def rewrite(self, sql: str | Query, querier: Any, purpose: str) -> Query:
        """The enforcement rewrite as an AST (without executing it)."""
        statement, values = self._parsed(sql)
        return self._prepare(statement, querier, purpose, values)[1]

    def execute(self, sql: str | Query, querier: Any, purpose: str) -> QueryResult:
        """Enforce policies and run the query; the common entry point."""
        return self.execute_with_info(sql, querier, purpose).result

    def execute_with_info(self, sql: str | Query, querier: Any, purpose: str) -> SieveExecution:
        """:meth:`execute` with the full bookkeeping.  It parses every
        call and keeps no plan per binding: the rewrite and the plan
        template of its shape are shared with the prepared path, each
        call binds them."""
        return self._traced(querier, purpose, self._execute, sql, querier, purpose)

    def _execute(self, sql: str | Query, querier: Any, purpose: str) -> tuple[SieveExecution, Query]:
        """One unmemoized execution: parse, the pipeline, the plan bound
        from the template's plan template, run."""
        with span("middleware.prepare"):
            statement, values = self._parsed(sql)
            execution, rewritten, plan = self._prepare(statement, querier, purpose, values)
        planned = None
        if self.backend is None:
            with span("plan"):
                planned = plan()
        self._finish_execution(sql, execution, planned)
        return execution, rewritten

    def serve(self, sql: str | Query, querier: Any, purpose: str) -> SieveExecution:
        """The serving tier's entry, one call per request: ``sql``
        through the statement memo (:meth:`_statement`) to its template
        and binding, then through the plan cache, which keeps a plan per
        binding.  What the memo refuses — a non-SELECT statement,
        unparseable SQL, a query with its own parameters — runs as
        :meth:`execute_with_info` runs it, raising what that raises.
        Row- and enforcement-counter identical to :meth:`execute` by
        construction (the plan cache is keyed by the binding's values),
        so callers cannot observe the memo except in latency and the
        plan cache's :class:`~repro.core.cache.CacheStats`."""
        found = self._statement(sql)
        if found is None:
            return self.execute_with_info(sql, querier, purpose)
        statement, values = found
        return self._traced(
            querier, purpose, self._prepared_execute, statement, querier, purpose, values
        )

    def _traced(self, querier: Any, purpose: str, run: Callable, *args: Any) -> SieveExecution:
        """``run(*args)`` — an execution and the rewrite it ran — under
        a ``sieve.query`` root span when tracing is on."""
        if self.tracer is None:
            return run(*args)[0]
        with self.tracer.trace(
            "sieve.query", querier=str(querier), purpose=purpose
        ) as root:
            execution, rewritten = run(*args)
            execution.trace_id = root.trace_id
            root.set(
                engine=execution.engine,
                policy_epoch=execution.policy_epoch,
                rows_admitted=len(execution.result.rows),
                plain_select=_is_plain_select(rewritten),
                enforcement={
                    table: {
                        "strategy": decision.strategy.value,
                        "guard_keys": list(execution.rewrite.guard_keys.get(table, ())),
                        "est_rows": list(decision.guard_est_rows),
                        "query_conjuncts": decision.query_conjuncts,
                    }
                    for table, decision in execution.rewrite.decisions.items()
                },
            )
        return execution

    def _finish_execution(
        self, sql: str | Query, execution: SieveExecution, planned: PlannedQuery | None
    ) -> SieveExecution:
        """Run a finished rewrite and record the audit/tracing delta.

        ``planned`` is the bundled engine's plan of the bound rewrite
        (``None`` when a backend runs its printed text), executed via
        ``db.run_plan``: planning happened before, from the rewrite's
        plan template or, on a warm hit, not at all.  Audit scopes
        its counter delta around *execution only*: guard generation /
        strategy / rewrite / planning charge no enforcement counters,
        so the recorded delta is identical for cache-hit and cold paths
        — the cache-transparency the replay oracle depends on.
        Snapshot/diff is a fixed-size dict pass over repro.db.counters,
        so the hot-path cost stays O(1).  Tracing wants the same delta
        (the profiler reads it off the execute span), so it is taken
        whenever either consumer is on."""
        need_delta = self.audit is not None or self.tracer is not None
        before = self.db.counters.snapshot() if need_delta else None
        with span("execute") as ex_span:
            if self.backend is not None:
                # RewriteInfo.sql is in the backend's dialect — exactly
                # the text the engine sees; it is printed on first read,
                # which stays out of the timed window so execution_ms
                # is comparable with the bundled path's.
                text = execution.rewrite.sql
                start = time.perf_counter()
                execution.result = self.backend.execute(text)
                execution.execution_ms = (time.perf_counter() - start) * 1000.0
                execution.engine = "backend"
                counters = self.db.counters
                counters.backend_queries += 1
                counters.backend_rows += len(execution.result.rows)
            else:
                execution.engine = (
                    "vectorized" if getattr(self.db, "vectorized", False) else "tuple"
                )
                start = time.perf_counter()
                with span("run", vectorized=execution.engine == "vectorized"):
                    execution.result = self.db.run_plan(planned)
                execution.execution_ms = (time.perf_counter() - start) * 1000.0
        if before is not None:
            delta = self.db.counters.diff(before)
            ex_span.set(
                engine=execution.engine,
                tuples_scanned=delta["tuples_scanned"],
                tuples_output=delta["tuples_output"],
            )
            if self.audit is not None:
                with span("audit.record"):
                    self._record_decision(sql, execution, delta)
        return execution

    def _record_decision(
        self, sql: str | Query, execution: SieveExecution, delta: dict[str, int]
    ) -> None:
        """Chain one DecisionRecord for a finished execution."""
        info = execution.rewrite
        rows = execution.result.rows
        denied = max(0, delta["tuples_scanned"] - delta["tuples_output"])
        payload = make_payload(
            querier=execution.metadata.querier,
            purpose=execution.metadata.purpose,
            sql=sql if isinstance(sql, str) else to_sql(sql),
            policy_epoch=execution.policy_epoch,
            engine=execution.engine,
            strategies={
                table: decision.strategy.value
                for table, decision in info.decisions.items()
            },
            guards_fired=info.guard_keys,
            delta_guards={
                table: sorted(decision.delta_guards)
                for table, decision in info.decisions.items()
            },
            denied_tables=info.denied_tables,
            rows_admitted=len(rows),
            rows_denied=denied,
            digest=result_digest(rows),
            counters=delta,
            trace_id=current_trace_id() or "",
        )
        self.audit.record(payload)

    # ------------------------------------------------------ prepared queries

    def prepare(self, sql: str | Query, querier: Any, purpose: str) -> "PreparedQuery":
        """Parse once, execute many: a :class:`PreparedQuery` handle.

        ``sql`` may contain ``?`` positional and ``:name`` parameters;
        each :meth:`PreparedQuery.execute` binds a value vector and
        runs the full enforcement pipeline, memoizing the post-rewrite,
        post-plan artifact in the plan cache.  Repeated executions with
        the same values — including every execution of a zero-parameter
        query — skip parse, strategy, rewrite and planning entirely
        while staying row- and counter-identical to the unprepared
        path, and the cache is fenced to the policy epoch and
        catalog/stats version so a policy or schema change is never
        served a stale plan.
        """
        template = parse_query(sql) if isinstance(sql, str) else sql
        return PreparedQuery(self, template, querier, purpose)

    def _prepared_execute(
        self, statement: "QueryTemplate", querier: Any, purpose: str, values: tuple
    ) -> tuple[SieveExecution, Query]:
        """One binding of ``statement`` through the plan cache: a hit
        skips strategy, rewrite and planning; a miss runs
        :meth:`_prepare` and plans, and admits the result."""
        start = time.perf_counter()
        cache = self.plan_cache
        # Each value's type is part of the key: 2 and 2.0 are equal in
        # Python but not in SQL (``v / 2`` vs ``v / 2.0`` on SQLite).
        key = (
            querier,
            purpose,
            statement.template_key,
            tuple((value.__class__, value) for value in values),
        )
        snapshot = self.policy_store.snapshot()

        def build():
            execution, rewritten, plan = self._prepare(statement, querier, purpose, values)
            planned = None if self.backend is not None else plan()
            # Stamp the entry with the epoch and plan version the
            # pipeline *actually* saw (``_prepare`` snapshots the store
            # itself, and planning may lazily rebuild stats).
            entry = CachedPlan(
                querier=querier,
                tables=statement.tables,
                epoch=execution.policy_epoch,
                version=self.db.plan_version,
                rewritten=rewritten,
                planned=planned,
                info=execution.rewrite,
                policies_considered=execution.policies_considered,
            )
            return cache.admit(key, entry), (execution, rewritten, planned)

        with span("middleware.prepare") as prep:
            entry, built, hit = cache.get_or_build(
                key, snapshot.epoch, self.db.plan_version, build
            )
            prep.set(cached=hit, template=statement.template_key)
            if built is not None:
                execution, rewritten, planned = built
            else:
                # Warm hit (or coalesced follower): rebuild the view of
                # the execution from the entry — the same bookkeeping
                # the cold path produced, so audit records stay
                # cache-transparent.
                rewritten = entry.rewritten
                planned = entry.planned
                execution = SieveExecution(
                    result=QueryResult(columns=[], rows=[]),
                    rewrite=entry.info,
                    metadata=QueryMetadata(querier=querier, purpose=purpose),
                    policies_considered=entry.policies_considered,
                    middleware_ms=(time.perf_counter() - start) * 1000.0,
                    policy_epoch=entry.epoch,
                )
        # The audit record wants the bound statement (replay reruns
        # it); binding is only worth paying for when auditing.
        sql_for_audit: str | Query = (
            bind_slots(statement.template, values)
            if self.audit is not None
            else statement.template_key
        )
        self._finish_execution(sql_for_audit, execution, planned)
        return execution, rewritten

    # -------------------------------------------------------- statement memo

    def _statement(self, sql: str | Query) -> "tuple[QueryTemplate, tuple] | None":
        """The statement memo's entry for ``sql`` and ``sql``'s binding
        of it, or ``None`` for what it does not serve.

        The memo is probed twice.  A text seen before is found by its
        text: nothing is lexed.  A new text is lexed, and a known
        *shape* (its token stream with the literal values masked) gives
        the entry without a parse: the values are read off the tokens
        the first text's lifted literals came from.  Anything else — a
        new shape, a shape whose inline literal (``LIMIT 20``) reads
        differently, a text whose literals were not each one token
        (``-5``, ``TRUE``) — is parsed and its literals are
        auto-parameterized (:func:`repro.expr.params.parameterize_traced`).
        Entries hold no querier: every (querier, purpose) binding a
        shape shares its template, key, tables and slots.

        Never raises: non-SELECT statements, unparseable SQL and
        already-parameterized queries give ``None``, and none of them
        is memoized."""
        shape_key = None
        if isinstance(sql, str):
            found = self._statements.get(sql)
            if found is not None:
                return found
            try:
                tokens = tokenize(sql)
                shape_key, literals = _shape_of(tokens)
                shape = self._shapes.get(shape_key)
                values = None if shape is None else shape.values_of(tokens, literals)
            except Exception:
                return None
            if values is not None:
                return self._memoize(sql, shape.statement, values)
        try:
            query = parse_query(sql) if isinstance(sql, str) else sql
            if not isinstance(query, Query) or collect_params(query):
                return None
            template, values, sources = parameterize_traced(query)
            statement = QueryTemplate(template)
        except Exception:
            return None
        # The shape is memoized only when each slot's value is one
        # token's own: a lifted TRUE, NULL or folded ``-5`` has no token
        # to read a new value from (and ``-0`` lifts 0, which equals
        # its token but must not serve ``-3`` as 3).
        shape = None
        if shape_key is not None and None not in sources and len(set(sources)) == len(sources):
            slot_of = {token: slot for slot, token in enumerate(sources)}
            reads = tuple(slot_of.get(i, tokens[i].value) for i in literals)
            shape = (shape_key, _Shape(statement, reads, len(sources)))
        return self._memoize(sql, statement, values, shape)

    def _memoize(
        self, sql: str | Query, statement: "QueryTemplate", values: tuple, shape: tuple | None = None
    ) -> "tuple[QueryTemplate, tuple]":
        """File a text (and a new shape) in the memo; each probe is a
        FIFO of at most ``AUTO_PREPARE_MAX_SHAPES``."""
        with self._memo_lock:
            if isinstance(sql, str):
                _file(self._statements, sql, (statement, values))
            if shape is not None:
                _file(self._shapes, *shape)
        return statement, values

    def rewritten_sql(self, sql: str | Query, querier: Any, purpose: str) -> str:
        """The enforcement rewrite as SQL text (for inspection/docs) —
        printed in the backend's dialect when one is attached, i.e.
        exactly the text the executing engine will see."""
        return to_sql(self.rewrite(sql, querier, purpose), dialect=self.rewriter.dialect)

    # ------------------------------------------------------------ explanation

    def _explain_table(self, target: str | Query) -> str:
        """Resolve an explain target — a bare table name, or a query
        whose (single) policy-protected relation is meant."""
        if isinstance(target, str) and self.db.catalog.has_table(target):
            return self.db.catalog.table(target).name
        query = parse_query(target) if isinstance(target, str) else target
        names = collect_table_names(query)
        protected = _protected_relations(query, self.policy_store.snapshot())
        if len(protected) == 1:
            return protected[0]
        if not protected and len(names) == 1:
            return next(iter(names))  # explanation will report default deny
        raise SieveError(
            f"cannot pick the relation to explain: query references "
            f"{sorted(names)} with {len(protected)} policy-protected "
            f"relation(s); pass the table name directly"
        )

    def explain_decision(
        self, querier: Any, target: str | Query, row, purpose: str
    ) -> Explanation:
        """Why this row is admitted/denied for (querier, purpose).

        ``target`` is a relation name or a query over exactly one
        policy-protected relation; ``row`` is a full tuple of that
        relation (schema-ordered sequence, or a mapping by column
        name).  The trace is built from the *same* guard structures
        the enforcement rewrite uses — resolved through the guard tier
        against the current policy snapshot — so the named
        guards and policies are the ones a query right now would be
        rewritten with (see :mod:`repro.audit.explain`).
        """
        table = self._explain_table(target)
        snapshot = self.policy_store.snapshot()
        heap = self.db.catalog.table(table)
        if table.lower() in snapshot.protected:
            entry, _rebuilt = self.guard_store.resolve(
                querier, purpose, table.lower(), snapshot, self._generation
            )
            policies, expression = entry.policies, entry.expression
        else:
            policies, expression = [], None
        return explain_row(
            querier=querier,
            purpose=purpose,
            table=heap.name,
            columns=list(heap.schema.names),
            row=row,
            policies=policies,
            expression=expression,
            db=self.db,
        )

    def explain_denial(
        self, querier: Any, query: str | Query, row, purpose: str
    ) -> Explanation:
        """Explain why ``row`` is **denied** — names the guards whose
        conditions fail and, per policy, the first object condition
        that does not hold.  Raises
        :class:`~repro.common.errors.SieveError` if the row is in fact
        admitted (the caller is asking the wrong question, and an
        explanation of the opposite verdict would mislead)."""
        explanation = self.explain_decision(querier, query, row, purpose)
        if explanation.admitted:
            raise SieveError(
                f"row is admitted for querier {querier!r} by policies "
                f"{list(explanation.matched_policies)}; use explain_admission"
            )
        return explanation

    def explain_admission(
        self, querier: Any, query: str | Query, row, purpose: str
    ) -> Explanation:
        """Explain why ``row`` is **admitted** — names the matching
        policies and the guards that fired.  Raises
        :class:`~repro.common.errors.SieveError` if the row is in fact
        denied."""
        explanation = self.explain_decision(querier, query, row, purpose)
        if not explanation.admitted:
            raise SieveError(
                f"row is denied for querier {querier!r} ({explanation.reason}); "
                f"use explain_denial"
            )
        return explanation


class QueryTemplate:
    """A statement memo entry: a parameterized statement and what every
    binding of it shares — its canonical key, the tables it names and
    its parameter slots."""

    def __init__(self, template: Query):
        self.template = template
        self.params = collect_params(template)
        #: Canonical template identity — the default-dialect SQL text,
        #: so the same shape prepared from different whitespace or via
        #: the auto-parameterizer lands on the same cache entries.
        self.template_key = to_sql(template)
        #: The base tables the statement names (lower-cased) — what a
        #: cached plan of any binding is invalidated by.
        self.tables = frozenset(collect_table_names(template))


class PreparedQuery(QueryTemplate):
    """A parsed, parameterized statement bound to one (querier, purpose).

    Obtained from :meth:`Sieve.prepare`::

        prepared = sieve.prepare(
            "SELECT * FROM WiFi_Dataset WHERE ts_date BETWEEN ? AND ?",
            querier="Prof.Smith", purpose="analytics",
        )
        first = prepared.execute([10, 20])
        again = prepared.execute([10, 20])   # warm: no parse/rewrite/plan

    ``params`` lists the template's parameter slots; ``execute`` takes
    a slot-ordered sequence or (for ``:name`` templates) a mapping.
    The handle itself holds no mutable state — all memoization lives in
    the middleware's epoch-fenced :class:`~repro.core.cache.PlanCache`
    — so one PreparedQuery may be shared across threads, and policy or
    catalog changes take effect on the very next execution.
    """

    def __init__(self, sieve: Sieve, template: Query, querier: Any, purpose: str):
        super().__init__(template)
        self._sieve = sieve
        self.querier = querier
        self.purpose = purpose

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PreparedQuery({self.template_key!r}, querier={self.querier!r}, "
            f"purpose={self.purpose!r}, params={len(self.params)})"
        )

    def execute(self, params=None) -> QueryResult:
        """Bind ``params`` and run under full policy enforcement."""
        return self.execute_with_info(params).result

    def execute_with_info(self, params=None) -> SieveExecution:
        values = normalize_bindings(self.params, params)
        sieve = self._sieve
        return sieve._traced(
            self.querier, self.purpose, sieve._prepared_execute, self, self.querier, self.purpose, values
        )

    def execute_many(self, param_sets) -> list[QueryResult]:
        """Run one execution per binding vector."""
        return [self.execute(params) for params in param_sets]
