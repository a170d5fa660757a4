"""The paper's comparison baselines (Section 7.2, Experiment 3).

All three enforce the same semantics as Sieve (replace each relation
with a policy-compliant projection; default deny) but with the
traditional rewrite shapes:

* **BaselineP** — "policy as predicate": append the full policy DNF
  ``E(P) = OC_1 ∨ ... ∨ OC_|P|`` to the relation's WHERE clause and let
  the optimizer cope.
* **BaselineI** — one forced index scan *per policy* (on the owner
  index), UNION-ed together.
* **BaselineU** — a UDF over the relation that evaluates the querier's
  policies per tuple (bucketed by owner, so it checks few policies per
  tuple — but pays a UDF invocation for every tuple scanned).

Each baseline exposes ``execute(sql, querier, purpose)`` mirroring the
Sieve middleware, so benchmarks swap enforcement engines freely.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable

from repro.common.errors import SieveError
from repro.core.rewriter import (
    collect_table_names,
    query_predicates_for,
    strip_qualifiers,
)
from repro.engine.executor import QueryResult
from repro.expr.analysis import make_and, make_or
from repro.expr.nodes import ColumnRef, Expr, FuncCall, Literal, Star
from repro.policy.model import Policy, policy_expression
from repro.policy.store import PolicyStore
from repro.sql.ast import (
    CTE,
    IndexHint,
    Query,
    Select,
    SelectCore,
    SelectItem,
    SetOp,
    TableRef,
)
from repro.sql.parser import parse_query
from repro.sql.printer import to_sql


class _BaselineBase:
    """Shared plumbing: find protected tables, build CTEs, execute."""

    name = "Baseline"

    def __init__(self, db, policy_store: PolicyStore):
        self.db = db
        self.policy_store = policy_store

    # subclasses implement this
    def _enforcement_body(
        self, table_name: str, policies: list[Policy], qpred: Expr | None
    ) -> SelectCore:
        raise NotImplementedError

    def rewrite(self, sql: str | Query, querier: Any, purpose: str) -> Query:
        query = parse_query(sql) if isinstance(sql, str) else sql
        snapshot = self.policy_store.snapshot()  # one corpus view for the whole rewrite
        targets = sorted(collect_table_names(query) & snapshot.protected)
        new_ctes: list[CTE] = []
        replacements: dict[str, str] = {}
        for table_name in targets:
            policies = snapshot.policies_for(querier, purpose, table_name)
            cte_name = f"{table_name}_{self.name.lower()}"
            # "Append E(P) to the query's WHERE": query predicates and
            # policy expression are evaluated together, so the optimizer
            # may read via the query predicate (and degrades with its
            # cardinality, as in the paper's Experiment 3).
            columns = {
                c.lower() for c in self.db.catalog.table(table_name).schema.names
            }
            qpreds = query_predicates_for(query, table_name, columns)
            qpred = make_and([strip_qualifiers(p) for p in qpreds])
            if policies:
                body = self._enforcement_body(table_name, policies, qpred)
            else:
                body = Select(
                    items=[SelectItem(Star())],
                    from_items=[TableRef(table_name)],
                    where=Literal(False),
                )
            new_ctes.append(CTE(cte_name, Query(body=body)))
            replacements[table_name] = cte_name
        from repro.core.rewriter import SieveRewriter  # reuse the renamer

        renamer = SieveRewriter.__new__(SieveRewriter)
        renamer.db = self.db
        redirected = renamer._replace_tables(query, replacements)
        return Query(body=redirected.body, ctes=new_ctes + redirected.ctes)

    def execute(self, sql: str | Query, querier: Any, purpose: str) -> QueryResult:
        return self.db.execute(self.rewrite(sql, querier, purpose))

    def rewritten_sql(self, sql: str | Query, querier: Any, purpose: str) -> str:
        return to_sql(self.rewrite(sql, querier, purpose))


class BaselineP(_BaselineBase):
    """Append the policy DNF to the WHERE clause (query-rewrite FGAC)."""

    name = "BaselineP"

    def _enforcement_body(
        self, table_name: str, policies: list[Policy], qpred: Expr | None
    ) -> SelectCore:
        dnf = policy_expression(policies)
        assert dnf is not None
        where = make_and([p for p in (qpred, dnf) if p is not None])
        return Select(
            items=[SelectItem(Star())],
            from_items=[TableRef(table_name)],
            where=where,
        )


class BaselineI(_BaselineBase):
    """One forced index scan per policy, UNION-combined."""

    name = "BaselineI"

    def _enforcement_body(
        self, table_name: str, policies: list[Policy], qpred: Expr | None
    ) -> SelectCore:
        owner_index = self.db.catalog.index_on_column(table_name, "owner")
        branches: list[Select] = []
        for policy in policies:
            hint = (
                IndexHint("FORCE", (owner_index.name,)) if owner_index is not None else None
            )
            where = make_and(
                [p for p in (policy.object_expr(), qpred) if p is not None]
            )
            branches.append(
                Select(
                    items=[SelectItem(Star())],
                    from_items=[TableRef(table_name, hint=hint)],
                    where=where,
                )
            )
        core: SelectCore = branches[0]
        for branch in branches[1:]:
            core = SetOp("UNION", core, branch)
        return core


class BaselineU(_BaselineBase):
    """Evaluate policies through a per-tuple UDF over the relation."""

    name = "BaselineU"
    UDF_NAME = "baseline_u_check"

    def __init__(self, db, policy_store: PolicyStore):
        super().__init__(db, policy_store)
        # The UDF name is global per database; share compiled state across
        # BaselineU instances so re-registration never orphans old keys.
        shared = getattr(db, "_baseline_u_state", None)
        if shared is None:
            shared = ({}, {})
            db._baseline_u_state = shared
        self._compiled: dict[str, dict[Any, list[Callable[[tuple], bool]]]] = shared[0]
        self._owner_pos: dict[str, int] = shared[1]
        if not db.has_function(self.UDF_NAME):
            db.create_function(self.UDF_NAME, self._check)

    def _enforcement_body(
        self, table_name: str, policies: list[Policy], qpred: Expr | None
    ) -> SelectCore:
        key = self._register(table_name, policies)
        table = self.db.catalog.table(table_name)
        call: Expr = FuncCall(
            self.UDF_NAME,
            (Literal(key), *(ColumnRef(c) for c in table.schema.names)),
        )
        # The UDF must run last; ANDing the query predicate first lets the
        # optimizer read via it (and keeps UDF invocations down at low
        # cardinality, exactly the paper's BaselineU behaviour).
        where = make_and([p for p in (qpred, call) if p is not None])
        return Select(
            items=[SelectItem(Star())],
            from_items=[TableRef(table_name)],
            where=where,
        )

    def _register(self, table_name: str, policies: list[Policy]) -> str:
        from repro.expr.eval import ExprCompiler, RowBinding

        table = self.db.catalog.table(table_name)
        binding = RowBinding.for_table(table_name, table.schema.names)
        compiler = ExprCompiler(binding)
        buckets: dict[Any, list[Callable[[tuple], bool]]] = defaultdict(list)
        for policy in policies:
            if policy.has_derived_conditions:
                raise SieveError(
                    "BaselineU cannot evaluate derived-value policies in a UDF"
                )
            body = make_and([oc.to_expr() for oc in policy.non_owner_conditions])
            fn = compiler.compile(body) if body is not None else (lambda row: True)
            owner_oc = policy.owner_condition
            owners = owner_oc.value if owner_oc.op == "IN" else [owner_oc.value]
            for owner in owners:
                buckets[owner].append(fn)
        key = f"{table_name}|{len(self._compiled)}"
        self._compiled[key] = dict(buckets)
        self._owner_pos[key] = table.schema.index_of("owner")
        return key

    def _check(self, key: str, *column_values: Any) -> bool:
        buckets = self._compiled[key]
        owner = column_values[self._owner_pos[key]]
        relevant = buckets.get(owner)
        if not relevant:
            return False
        counters = self.db.counters
        row = tuple(column_values)
        for fn in relevant:
            counters.udf_policy_evals += 1
            if fn(row):
                return True
        return False
