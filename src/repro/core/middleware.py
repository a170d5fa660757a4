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

Steps 1-2 are amortized across queries by the session guard cache
(:mod:`repro.core.cache`): repeated queries by the same (querier,
purpose) resolve each relation from a policy-epoch-validated LRU
instead of re-filtering the corpus.  Use :meth:`Sieve.session` for an
explicit per-querier handle with batched ``execute_many``; the plain
``execute`` entry points route through the same cache.

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

import time
import weakref
from dataclasses import dataclass, field
from typing import Any

from repro.audit import AuditLog, Explanation, explain_row, make_payload, result_digest
from repro.common.errors import SieveError
from repro.core.cache import (
    DEFAULT_GUARD_CACHE_CAPACITY,
    DEFAULT_PLAN_CACHE_CAPACITY,
    CachedPlan,
    GuardCache,
    PlanCache,
    SieveSession,
)
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
from repro.expr.params import collect_params, bind_query, normalize_bindings
from repro.obs.tracing import SlowQueryLog, Tracer, current_trace_id, span
from repro.policy.store import PolicySnapshot, PolicyStore
from repro.sql.ast import Query, Select
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql


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
        guard_cache_capacity: int = DEFAULT_GUARD_CACHE_CAPACITY,
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
        self.guard_cache = GuardCache(capacity=guard_cache_capacity)
        # Prepared-query tier: post-rewrite, post-plan artifacts keyed
        # by (querier, purpose, template, binding values) — see
        # :class:`~repro.core.cache.PlanCache`.  Only :meth:`prepare`d
        # queries consult it; unused, it is an empty dict.
        self.plan_cache = PlanCache(capacity=plan_cache_capacity)
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
        # middleware pipeline — PQM filter, guard cache, strategy,
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
        # Register weakly: short-lived Sieve instances over a long-lived
        # store must not be pinned (and kept invalidating) forever by the
        # store's listener list.  A hook that finds its Sieve collected
        # deregisters itself.
        self_ref = weakref.ref(self)

        def _mutation_hook(kind: str, policy, epoch: int) -> None:
            live = self_ref()
            if live is None:
                policy_store.remove_mutation_listener(_mutation_hook)
                return
            live._on_policy_mutation(kind, policy, epoch)

        policy_store.add_mutation_listener(_mutation_hook)

    # ------------------------------------------------------------- sessions

    def session(self, querier: Any, purpose: str) -> SieveSession:
        """A session handle for one (querier, purpose) — Section 3.2's
        QM pair, the natural unit of amortization.  Handles are
        stateless views over the shared guard cache, so they are cheap
        to create and any number may coexist."""
        return SieveSession(self, querier, purpose)

    def enable_audit(self, log: AuditLog | None = None) -> AuditLog:
        """Attach an append-only decision log (idempotent).

        Binds the log's bookkeeping counters to this database's and
        enables snapshot retention on the policy store so every epoch a
        record names stays replayable
        (:meth:`~repro.policy.store.PolicyStore.snapshot_at`).  From
        here on every ``execute_with_info`` chains one
        :class:`~repro.audit.DecisionRecord` — cache hits and cold
        misses alike, since the record is built from the
        :class:`~repro.core.rewriter.RewriteInfo` both paths share.
        """
        if self.audit is None:
            self.audit = log if log is not None else AuditLog()
            if self.audit.counters is None:
                self.audit.counters = self.db.counters
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

    def _on_policy_mutation(self, kind: str, policy, epoch: int) -> None:
        """Targeted guard- and plan-cache invalidation on corpus mutations.

        ``epoch`` is the mutated-to version of *this* event; events are
        dispatched after the store's write lock drops, so the live
        ``store.epoch`` may already be ahead (e.g. the second event of
        a cross-querier update) and re-stamping against it would strand
        unrelated warm entries one epoch short."""
        for cache in (self.guard_cache, self.plan_cache):
            cache.on_policy_mutation(kind, policy, epoch, self.policy_store.groups)

    def invalidate_caches(self, querier: Any = None) -> int:
        """Drop ``querier``'s (default: everyone's) cached state in
        every tier — guard cache, plan cache, and the guard store's
        expressions, whose compiled predicates go with them (e.g. after
        editing the group directory, which does not bump the policy
        epoch; state built under the old membership must not survive
        any tier).  Returns the number of entries dropped."""
        return (
            self.guard_cache.invalidate(querier=querier)
            + self.plan_cache.invalidate(querier=querier)
            + self.guard_store.invalidate(querier=querier)
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
        self,
        querier: Any,
        purpose: str,
        table: str,
        force_rebuild: bool = False,
        snapshot=None,
    ) -> tuple[GuardedExpression, bool]:
        """Fetch/build G(P) for one (querier, purpose, relation).

        ``snapshot`` (a :class:`~repro.policy.store.PolicySnapshot`)
        pins the corpus the expression must cover; without one the live
        store is consulted.  An expression the guard store already holds
        is *maintained* to that corpus — the written policies leave or
        join partitions, every other guard is shared with its
        predecessor (:func:`~repro.core.generation.maintain_guarded_expression`)
        — so it is exact at once, and the guards are selected afresh
        only when the Section 6 schedule says the accumulated inserts
        have made that worth its cost (``self.regeneration``, by default
        a :class:`~repro.core.regeneration.RegenerationController` over
        the current cost model), when maintenance cannot reach the
        corpus, on ``force_rebuild``, or — so that decision records stay
        replayable from their epoch alone — on every change while an
        audit log is attached.  Returns ``(expression,
        regenerated?)``.  Deciding, editing and persisting run under the
        guard store's lock — persistence writes rGE/rGG/rGP rows into
        the bundled engine, which is not safe to mutate from two threads
        (this is the amortized-away cold path, so the serialization
        never sits on warm-path queries); the corpus and the statistics
        are read before it is taken."""
        source = snapshot if snapshot is not None else self.policy_store
        policies = source.policies_for(querier, purpose, table)
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

        return self.guard_store.get_or_build(
            querier, purpose, table, builder, maintain, force_rebuild=force_rebuild
        )

    # ------------------------------------------------------------ execution

    def _prepare(
        self, sql: str | Query, querier: Any, purpose: str
    ) -> tuple[SieveExecution, Query]:
        """Run the middleware pipeline up to (not including) execution.

        Per-relation policy filtering and guard fetch go through the
        session guard cache; only parse, strategy choice and rewrite
        remain per-query work on the warm path.  The whole request
        plans against one policy snapshot, so concurrent mutations can
        never show a query a half-applied corpus (an update's delete
        and re-insert are observed together or not at all)."""
        start = time.perf_counter()
        metadata = QueryMetadata(querier=querier, purpose=purpose)
        with span("middleware.prepare"):
            snapshot = self.policy_store.snapshot()
            session = self.session(querier, purpose)
            with span("parse"):
                query = parse_query(sql) if isinstance(sql, str) else sql

            targets = _protected_relations(query, snapshot)

            expressions: dict[str, GuardedExpression] = {}
            decisions: dict[str, StrategyDecision] = {}
            query_predicates: dict[str, list] = {}
            denied: set[str] = set()
            regenerated: list[str] = []
            policies_considered = 0

            for table_name in targets:
                entry, rebuilt = session.resolve(table_name, snapshot=snapshot)
                policies_considered += len(entry.policies)
                if entry.expression is None:
                    denied.add(table_name)
                    continue
                expression = entry.expression
                if rebuilt:
                    regenerated.append(table_name)
                heap = self.db.catalog.table(table_name)
                qpreds = query_predicates[table_name] = query_predicates_for(
                    query, table_name, {c.lower() for c in heap.schema.names}
                )
                with span("strategy", table=table_name) as st:
                    decisions[table_name] = choose_strategy(
                        self.db,
                        table_name,
                        expression,
                        qpreds,
                        self.cost_model,
                        personality=self.execution_personality,
                    )
                    st.set(strategy=decisions[table_name].strategy.value)
                expressions[table_name] = expression

            rewritten, info = self.rewriter.rewrite(
                query, expressions, decisions, denied, query_predicates
            )
            middleware_ms = (time.perf_counter() - start) * 1000.0
            execution = SieveExecution(
                result=QueryResult(columns=[], rows=[]),
                rewrite=info,
                metadata=metadata,
                policies_considered=policies_considered,
                regenerated_tables=regenerated,
                middleware_ms=middleware_ms,
                policy_epoch=snapshot.epoch,
            )
            return execution, rewritten

    def rewrite(self, sql: str | Query, querier: Any, purpose: str) -> Query:
        """The enforcement rewrite as an AST (without executing it)."""
        _execution, rewritten = self._prepare(sql, querier, purpose)
        return rewritten

    def execute(self, sql: str | Query, querier: Any, purpose: str) -> QueryResult:
        """Enforce policies and run the query; the common entry point."""
        return self.execute_with_info(sql, querier, purpose).result

    def execute_with_info(self, sql: str | Query, querier: Any, purpose: str) -> SieveExecution:
        if self.tracer is None:
            return self._execute_with_info(sql, querier, purpose)[0]
        with self.tracer.trace(
            "sieve.query", querier=str(querier), purpose=purpose
        ) as root:
            execution, rewritten = self._execute_with_info(sql, querier, purpose)
            execution.trace_id = root.trace_id
            self._annotate_root_span(root, execution, rewritten)
        return execution

    @staticmethod
    def _annotate_root_span(root, execution: SieveExecution, rewritten: Query) -> None:
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

    def _execute_with_info(
        self, sql: str | Query, querier: Any, purpose: str
    ) -> tuple[SieveExecution, Query]:
        execution, rewritten = self._prepare(sql, querier, purpose)
        self._finish_execution(sql, execution, rewritten)
        return execution, rewritten

    def _finish_execution(
        self,
        sql: str | Query,
        execution: SieveExecution,
        rewritten: Query,
        planned=None,
    ) -> SieveExecution:
        """Run a finished rewrite and record the audit/tracing delta.

        ``planned`` is the prepared-query fast path: an already-built
        :class:`~repro.optimizer.planner.PlannedQuery` executed via
        ``db.run_plan`` so a warm hit skips planning too.  Audit scopes
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
                start = time.perf_counter()
                if planned is not None:
                    execution.result = self.db.run_plan(planned)
                else:
                    execution.result = self.db.execute(rewritten)
                execution.execution_ms = (time.perf_counter() - start) * 1000.0
                execution.engine = (
                    "vectorized" if getattr(self.db, "vectorized", False) else "tuple"
                )
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
        self, prepared: "PreparedQuery", params
    ) -> tuple[SieveExecution, Query]:
        values = normalize_bindings(prepared.params, params)
        start = time.perf_counter()
        metadata = QueryMetadata(querier=prepared.querier, purpose=prepared.purpose)
        cache = self.plan_cache
        key = (prepared.querier, prepared.purpose, prepared.template_key, values)
        snapshot = self.policy_store.snapshot()

        def build():
            bound = bind_query(prepared.template, values)
            execution, rewritten = self._prepare(
                bound, prepared.querier, prepared.purpose
            )
            planned = None if self.backend is not None else self.db.plan(rewritten)
            # Stamp the entry with the epoch and plan version the
            # pipeline *actually* saw (``_prepare`` snapshots the store
            # itself, and planning may lazily rebuild stats).
            entry = CachedPlan(
                querier=prepared.querier,
                tables=prepared.tables,
                epoch=execution.policy_epoch,
                version=self.db.plan_version,
                rewritten=rewritten,
                planned=planned,
                info=execution.rewrite,
                policies_considered=execution.policies_considered,
            )
            return cache.admit(key, entry), (execution, rewritten, bound, planned)

        with span("middleware.prepare") as prep:
            entry, built, hit = cache.get_or_build(
                key, snapshot.epoch, self.db.plan_version, build
            )
            cache.charge(self.db.counters, hit)
            prep.set(cached=hit, template=prepared.template_key)
            if built is not None:
                execution, rewritten, bound, planned = built
            else:
                # Warm hit (or coalesced follower): rebuild the view of
                # the execution from the entry — the same bookkeeping
                # the cold path produced, so audit records stay
                # cache-transparent.
                rewritten = entry.rewritten
                planned = entry.planned
                bound = None
                execution = SieveExecution(
                    result=QueryResult(columns=[], rows=[]),
                    rewrite=entry.info,
                    metadata=metadata,
                    policies_considered=entry.policies_considered,
                    middleware_ms=(time.perf_counter() - start) * 1000.0,
                    policy_epoch=entry.epoch,
                )
        if bound is None:
            # The audit record wants the bound statement (replay reruns
            # it); binding is only worth paying for when auditing.
            sql_for_audit: str | Query = (
                bind_query(prepared.template, values)
                if self.audit is not None
                else prepared.template_key
            )
        else:
            sql_for_audit = bound
        self._finish_execution(sql_for_audit, execution, rewritten, planned=planned)
        return execution, rewritten

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
        the enforcement rewrite uses — resolved through the session
        guard cache against the current policy snapshot — so the named
        guards and policies are the ones a query right now would be
        rewritten with (see :mod:`repro.audit.explain`).
        """
        table = self._explain_table(target)
        snapshot = self.policy_store.snapshot()
        heap = self.db.catalog.table(table)
        if table.lower() in snapshot.protected:
            entry, _rebuilt = self.session(querier, purpose).resolve(
                table.lower(), snapshot=snapshot
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


class PreparedQuery:
    """A parsed, parameterized statement bound to one (querier, purpose).

    Obtained from :meth:`Sieve.prepare` or :meth:`SieveSession.prepare
    <repro.core.cache.SieveSession.prepare>`::

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
        self._sieve = sieve
        self.template = template
        self.querier = querier
        self.purpose = purpose
        self.params = collect_params(template)
        #: Canonical template identity — the default-dialect SQL text,
        #: so the same shape prepared from different whitespace or via
        #: the auto-parameterizer lands on the same cache entries.
        self.template_key = to_sql(template)
        #: The base tables the statement names (lower-cased) — what a
        #: cached plan of any binding is invalidated by.
        self.tables = frozenset(collect_table_names(template))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PreparedQuery({self.template_key!r}, querier={self.querier!r}, "
            f"purpose={self.purpose!r}, params={len(self.params)})"
        )

    def execute(self, params=None) -> QueryResult:
        """Bind ``params`` and run under full policy enforcement."""
        return self.execute_with_info(params).result

    def execute_with_info(self, params=None) -> SieveExecution:
        sieve = self._sieve
        if sieve.tracer is None:
            return sieve._prepared_execute(self, params)[0]
        with sieve.tracer.trace(
            "sieve.query", querier=str(self.querier), purpose=self.purpose
        ) as root:
            execution, rewritten = sieve._prepared_execute(self, params)
            execution.trace_id = root.trace_id
            sieve._annotate_root_span(root, execution, rewritten)
        return execution

    def execute_many(self, param_sets) -> list[QueryResult]:
        """Run one execution per binding vector (the batch analogue of
        :meth:`SieveSession.execute_many
        <repro.core.cache.SieveSession.execute_many>`)."""
        return [self.execute(params) for params in param_sets]
