"""A guard carries what generation knew, and later layers read it.

What generation and a guard's own conditions already hold is not
derived again per request:

* the ``Facts`` of a guard branch and of the guard OR are stamped when
  the nodes are built — equal to what a walk would find;
* generation keeps the selectivity it took of a policy condition with
  the statistics by value, where it is the planner's figure to the bit;
  the planner reads it and files nothing, so query literals never grow
  that table, and after a policy write the next plan estimates, arms
  and compiles only the edited guard's branch;
* a guard's rGG and rGP rows are written as one batch each — the rows a
  guard-by-guard write leaves.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Sieve
from repro.core.candidate_gen import _eligible_conditions, condition_cardinality, generate_candidate_guards
from repro.core.generation import build_guarded_expression
from repro.core.guard_store import GE_TABLE, GUARD_TABLE, PARTITION_TABLE, GuardStore
from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
from repro.datasets.tippers import WIFI_TABLE
from repro.expr import codegen
from repro.expr.analysis import Facts, walk
from repro.expr.nodes import And, Between, ColumnRef, CompareOp, Comparison, InSubquery, Literal, Or, Param, ScalarSubquery
from repro.optimizer import cardinality, planner
from repro.optimizer.cardinality import figure_key
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore, _serialize

from tests.conftest import make_policies, make_wifi_db
from tests.test_golden_guards import mall_policies, mall_world


def walked(expr) -> Facts:
    """The facts of ``expr`` from a walk of every node (no stamp read)."""
    nodes = list(walk(expr))
    return Facts(
        frozenset(n for n in nodes if isinstance(n, ColumnRef)),
        any(isinstance(n, (ScalarSubquery, InSubquery)) for n in nodes),
        any(isinstance(n, Param) for n in nodes),
    )


def golden_expressions(tippers):
    """A guarded expression per golden corpus kind: the conftest WiFi
    world, a TIPPERS querier's and Mall shops of 150 and 400 policies."""
    db, _rows = make_wifi_db()
    yield build_guarded_expression(
        make_policies(), db.table_stats("wifi"), frozenset({"owner", "wifiap", "ts_time", "ts_date"})
    )
    dataset, campus, store = tippers
    stats = dataset.db.stats.get(dataset.db.catalog.table(WIFI_TABLE))
    indexed = frozenset(dataset.db.catalog.indexed_columns(WIFI_TABLE))
    for profile in ("faculty", "grad"):
        querier = campus.designated_queriers[profile][0]
        yield build_guarded_expression(store.policies_for(querier, "analytics", WIFI_TABLE), stats, indexed)
    stats, indexed = mall_world()
    for n in (150, 400):
        yield build_guarded_expression(mall_policies(n), stats, indexed)


def test_stamped_facts_equal_a_fresh_walk(tippers_small):
    """Every guard OR and branch — inline and Δ, bare and qualified —
    carries the facts a walk of it finds."""
    checked = 0
    for expression in golden_expressions(tippers_small):
        n = len(expression.guards)
        for qualifier in (None, "w"):
            for delta in (frozenset(), frozenset(range(0, n, 2))):
                guard_or = expression.to_expr(qualifier, delta, "sieve_delta", ("owner", "ts_date"))
                for node in (guard_or, *getattr(guard_or, "children", ())):
                    if isinstance(node, (And, Or)):
                        assert node.__dict__["_facts"] == walked(node), str(node)[:200]
                        checked += 1
    assert checked > 500


@pytest.fixture(scope="module")
def golden_mall():
    return mall_world()


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([50, 150, 400]), seed=st.integers(0, 10_000))
def test_generation_figures_are_the_planners(golden_mall, n, seed):
    """Over seeded Mall corpora (the golden worlds' shape): each policy
    condition generation leaves a figure on is the planner's own
    estimate of the condition's expression (``_estimate_leaf``, which
    reads no figure) to the bit, and each candidate's ρ over the row
    count is that estimate to 1e-9."""
    stats, indexed = golden_mall
    policies = mall_policies(n, seed)
    candidates = generate_candidate_guards(policies, indexed, stats)
    stamped = 0
    for oc in {id(oc): oc for p in policies for oc in _eligible_conditions(p, indexed)}.values():
        column = ColumnRef(oc.attr)
        if oc.is_range:
            fresh = Between(column, Literal(oc.value), Literal(oc.value2))
        else:
            fresh = Comparison(CompareOp.EQ, column, Literal(oc.value))
        figure = cardinality._estimate_leaf(fresh, stats)
        rho = next(c.cardinality for c in candidates if c.condition == oc)
        assert rho / stats.row_count == pytest.approx(figure, abs=1e-9)
        assert condition_cardinality(oc, stats) / stats.row_count == pytest.approx(figure, abs=1e-9)
        remembered = stats.figures.get(figure_key(fresh))
        if remembered is not None:
            assert remembered == figure, oc
            stamped += 1
    assert candidates and stamped


def _one_owner_guard(expression):
    return next(g for g in expression.guards if g.condition.attr == "owner" and g.condition.op == "=")


def test_a_policy_write_replans_only_the_edited_branch(monkeypatch):
    """After one policy joins a guard, the next request's plan derives
    the BitmapOr arm of, estimates and compiles only the edited guard's
    branch; every other branch, and every condition, comes as it was."""
    mall = generate_mall(MallConfig(seed=23, n_customers=100, days=8))
    store = PolicyStore(mall.db, mall.groups)
    store.insert_many(mall.policies)
    sieve = Sieve(mall.db, store)
    querier = mall.shop_querier(mall.shops[0])
    sql = f"SELECT * FROM {CONNECTIVITY_TABLE}"
    sieve.execute(sql, querier, "analytics")
    guard = _one_owner_guard(sieve.guard_store.peek(querier, "analytics", CONNECTIVITY_TABLE))

    calls = {"arm": 0, "leaf": 0, "branch": 0}

    def counting(owner, name, key):
        real = getattr(owner, name)

        def run(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, run)

    counting(planner.Planner, "_best_arm", "arm")
    counting(cardinality, "_estimate_leaf", "leaf")
    counting(codegen.CodegenExprCompiler, "compile_guard_branch", "branch")
    joined = Policy(
        owner=guard.condition.value,
        querier=querier,
        purpose="analytics",
        table=CONNECTIVITY_TABLE,
        object_conditions=(guard.condition, ObjectCondition("ts_date", ">=", 2, "<=", 4)),
    )
    store.insert(joined)
    info = sieve.execute_with_info(sql, querier, "analytics")
    assert info.regenerated_tables == []
    edited = sieve.guard_store.peek(querier, "analytics", CONNECTIVITY_TABLE)
    assert any(joined.id in g.policy_ids for g in edited.guards)  # joined, not regenerated
    assert calls["arm"] == 1  # the edited branch's
    assert calls["leaf"] == 1  # the joined policy's date range: nothing else is estimated
    assert calls["branch"] == 1


@pytest.mark.parametrize(
    "template",
    [
        "SELECT * FROM wifi WHERE (wifiap = {0} OR ts_time = {1}) AND ts_date BETWEEN {0} AND {1}",
        "SELECT * FROM wifi WHERE NOT (ts_time BETWEEN {0} AND {1}) AND NOT (wifiap = {0})",
    ],
)
def test_query_literals_file_no_figures(template):
    """Only guard generation files figures: serving one template under
    a guard with many fresh literals — leaves beneath the query's own
    OR and NOT included — leaves ``TableStats.figures`` as the first
    request left it."""
    db, _rows = make_wifi_db()
    store = PolicyStore(db)
    store.insert_many(make_policies())
    sieve = Sieve(db, store)
    sieve.serve(template.format(1, 2), "prof", "analytics")
    stats = db.table_stats("wifi")
    filed = dict(stats.figures)
    assert filed  # generation's
    for value in range(3, 40):
        sieve.serve(template.format(value, value + 7), "prof", "analytics")
    assert db.table_stats("wifi") is stats
    assert stats.figures == filed


def _per_guard_writes(self, rows, ge_id, guards):
    """Guard persistence as it was written guard by guard: each rGG
    row, then that guard's rGP rows, one validated insert at a time."""
    for guard in guards:
        guard_id = next(self._guard_ids)
        oc = guard.condition
        tag, payload = _serialize(oc.value)
        payload2 = _serialize(oc.value2)[1] if oc.op2 is not None else ""
        rowid = self.db.insert_row(
            GUARD_TABLE, (guard_id, ge_id, tag, oc.attr, oc.op, payload, oc.op2 or "", payload2)
        )
        rows.guard_rows[guard.key] = rowid, [
            self.db.insert_row(PARTITION_TABLE, (guard_id, policy.id)) for policy in guard.policies
        ]


def test_batched_persistence_writes_the_per_guard_rows(monkeypatch):
    """Two identical worlds, one persisting guard by guard: after a
    build, a maintained insert and delete (``_persist_edit``), a forced
    regeneration and an invalidation (``_retire``), rGE, rGG and rGP
    hold the same rows under the same rowids, the held row maps agree,
    and ``load_persisted`` reads the same guards back."""
    config = MallConfig(seed=23, n_customers=100, days=8)
    first = generate_mall(config)
    worlds = []
    for mall in (first, generate_mall(config)):
        store = PolicyStore(mall.db, mall.groups)
        store.insert_many(first.policies)  # the very policies, ids and all
        worlds.append((mall.db, store, Sieve(mall.db, store)))
    batched, per_guard = worlds
    per_guard[2].guard_store._write_guards = _per_guard_writes.__get__(per_guard[2].guard_store, GuardStore)
    querier = first.shop_querier(first.shops[0])
    sql = f"SELECT * FROM {CONNECTIVITY_TABLE}"

    def rows(world):
        db, _store, sieve = world
        tables = [list(db.catalog.table(name).scan()) for name in (GE_TABLE, GUARD_TABLE, PARTITION_TABLE)]
        entry = sieve.guard_store.entry(querier, "analytics", CONNECTIVITY_TABLE)
        return tables, None if entry is None else (entry.rows.ge_rowid, entry.rows.guard_rows)

    def persisted(world):
        found = world[2].guard_store.load_persisted(querier, "analytics", CONNECTIVITY_TABLE)
        return None if found is None else [(g.condition, g.policy_ids) for g in found.guards]

    guard = None
    joined = None
    steps = ["build", "insert", "delete", "regenerate", "invalidate"]
    for step in steps:
        for world in worlds:
            db, store, sieve = world
            if step == "insert":
                store.insert(joined)
            elif step == "delete":
                store.delete(joined.id)
            elif step == "regenerate":
                sieve.guarded_expression_for(querier, "analytics", CONNECTIVITY_TABLE, force_rebuild=True)
            elif step == "invalidate":
                sieve.guard_store.invalidate(querier)
            if step not in ("regenerate", "invalidate"):
                sieve.execute(sql, querier, "analytics")
        if step == "build":
            guard = _one_owner_guard(batched[2].guard_store.peek(querier, "analytics", CONNECTIVITY_TABLE))
            joined = Policy(
                owner=guard.condition.value,
                querier=querier,
                purpose="analytics",
                table=CONNECTIVITY_TABLE,
                object_conditions=(guard.condition, ObjectCondition("ts_date", ">=", 2, "<=", 4)),
            )
        assert rows(batched) == rows(per_guard), step
        assert persisted(batched) == persisted(per_guard), step
    assert rows(batched)[0][1] == []  # the invalidation retired every guard row
