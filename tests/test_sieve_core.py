"""Cost model, Δ operator, strategy selection, guard store, regeneration."""

import math

import pytest

from repro.core.cost_model import SieveCostModel, calibrate
from repro.core.delta import DELTA_UDF_NAME, DeltaOperator
from repro.core.generation import build_guarded_expression, maintain_guarded_expression
from repro.core.guard_store import GuardStore
from repro.core.middleware import Sieve
from repro.core.regeneration import (
    RegenerationController,
    optimal_regeneration_interval,
    query_cost_with_stale_guards,
    simulate_total_cost,
)
from repro.core.strategy import Strategy, choose_strategy, decide_delta_guards
from repro.policy.groups import GroupDirectory
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore
from repro.sql.parser import parse_expression

from tests.conftest import make_policies, make_wifi_db

INDEXED = frozenset({"owner", "wifiap", "ts_time", "ts_date"})


class TestCostModel:
    def test_eq2_eq3_shapes(self):
        cm = SieveCostModel(cr=1.0, ce=0.2, alpha=0.5)
        assert cm.eval_cost(10) == pytest.approx(1.0)
        assert cm.guard_cost(100, 10) == pytest.approx(100 * (1 + 1.0))

    def test_benefit_decreases_with_cardinality(self):
        cm = SieveCostModel()
        assert cm.guard_benefit(1000, 10, 5) > cm.guard_benefit(1000, 500, 5)

    def test_delta_crossover_monotone(self):
        cm = SieveCostModel(cr=1, ce=0.2, alpha=0.35, udf_invocation=9.0, udf_per_policy=0.05)
        crossover = cm.delta_crossover(relevant_policies=2)
        assert crossover > 1
        assert not cm.use_delta(crossover - 1, 2)
        assert cm.use_delta(crossover + 1, 2)

    def test_default_crossover_near_paper_value(self):
        """Defaults are calibrated so the Fig. 3 crossover lands near the
        paper's ~120 policies."""
        cm = SieveCostModel()
        assert 80 <= cm.delta_crossover(relevant_policies=2.0) <= 160

    def test_calibrate_on_live_engine(self):
        db, _ = make_wifi_db(n_rows=1500)
        policies = make_policies(n_owners=20)
        cm = calibrate(db, "wifi", policies, sample_limit=400, repeat=1)
        assert cm.cr > 0 and cm.ce > 0
        assert 0 < cm.alpha <= 1
        assert cm.udf_invocation > cm.ce

    def test_calibrate_empty_inputs(self):
        db, _ = make_wifi_db(n_rows=10)
        assert isinstance(calibrate(db, "wifi", []), SieveCostModel)


class TestDeltaOperator:
    def setup_method(self):
        self.db, self.rows = make_wifi_db(n_rows=2000)
        self.policies = make_policies(n_owners=10, per_owner=3)
        stats = self.db.table_stats("wifi")
        self.ge = build_guarded_expression(
            self.policies, stats, INDEXED, SieveCostModel(),
            querier="prof", purpose="analytics", table="wifi",
        )
        self.delta = DeltaOperator(self.db)

    def test_register_and_call_matches_inline(self):
        guard = self.ge.guards[0]
        key = self.ge.guard_key(0)
        self.delta.register_guard(key, guard, "wifi")
        from repro.expr.eval import ExprCompiler, RowBinding

        binding = RowBinding.for_table("wifi", ["id", "wifiap", "owner", "ts_time", "ts_date"])
        compiler = ExprCompiler(binding)
        fns = [compiler.compile(p.object_expr()) for p in guard.policies]
        for row in self.rows[:500]:
            expected = any(fn(row) for fn in fns)
            assert self.delta._call(key, *row) == expected

    def test_udf_policy_evals_counted(self):
        guard = self.ge.guards[0]
        key = self.ge.guard_key(0)
        self.delta.register_guard(key, guard, "wifi")
        before = self.db.counters.udf_policy_evals
        owner = guard.policies[0].owner
        row = next(r for r in self.rows if r[2] == owner)
        self.delta._call(key, *row)
        assert self.db.counters.udf_policy_evals > before

    def test_unknown_key_raises(self):
        from repro.common.errors import SieveError

        with pytest.raises(SieveError):
            self.delta._call("nope", 1, 2, 3, 4, 5)

    def test_unregister_prefix(self):
        key = self.ge.guard_key(0)
        self.delta.register_guard(key, self.ge.guards[0], "wifi")
        self.delta.unregister_prefix(f"prof|analytics|")
        assert self.delta.registered_keys == []

    def test_derived_policy_rejected(self):
        from repro.common.errors import SieveError
        from repro.core.guards import Guard
        from repro.policy.model import DerivedValue

        bad = Policy(
            owner=1, querier="q", purpose="p", table="wifi",
            object_conditions=(
                ObjectCondition("owner", "=", 1),
                ObjectCondition("wifiap", "=", DerivedValue("SELECT 1 AS x")),
            ),
        )
        guard = Guard(ObjectCondition("owner", "=", 1), [bad], 1)
        with pytest.raises(SieveError):
            self.delta.register_guard("k", guard, "wifi")

    def test_owner_bucketing_filters_policies(self):
        """Δ checks only the tuple owner's policies (paper Section 5.2)."""
        guard = self.ge.guards[0]
        key = self.ge.guard_key(0)
        self.delta.register_guard(key, guard, "wifi")
        partition_owners = {p.owner for p in guard.policies}
        foreign_owner = max(partition_owners) + 1000
        row = (0, 0, foreign_owner, 0, 0)
        before = self.db.counters.udf_policy_evals
        assert self.delta._call(key, *row) is False
        assert self.db.counters.udf_policy_evals == before  # zero checks


class TestStrategy:
    def setup_method(self):
        self.db, _ = make_wifi_db(n_rows=20_000, n_owners=500)
        self.policies = make_policies(n_owners=40, per_owner=3)
        self.cm = SieveCostModel()
        stats = self.db.table_stats("wifi")
        self.ge = build_guarded_expression(
            self.policies, stats, INDEXED, self.cm,
            querier="prof", purpose="analytics", table="wifi",
        )

    def test_selective_query_predicate_wins(self):
        pred = parse_expression("owner = 3")
        decision = choose_strategy(self.db, "wifi", self.ge, [pred], self.cm)
        assert decision.strategy is Strategy.INDEX_QUERY
        assert decision.query_index_column == "owner"

    def test_unselective_predicate_uses_guards_or_linear(self):
        pred = parse_expression("ts_time >= 0")
        decision = choose_strategy(self.db, "wifi", self.ge, [pred], self.cm)
        assert decision.strategy in (Strategy.INDEX_GUARDS, Strategy.LINEAR_SCAN)

    def test_no_predicate(self):
        decision = choose_strategy(self.db, "wifi", self.ge, [], self.cm)
        assert decision.costs["IndexQuery"] == float("inf")

    def test_linear_wins_when_guards_unselective(self):
        # Make guard cardinalities artificially huge.
        for g in self.ge.guards:
            g.cardinality = 1e9
        decision = choose_strategy(self.db, "wifi", self.ge, [], self.cm)
        assert decision.strategy is Strategy.LINEAR_SCAN

    def test_delta_decision_by_partition_size(self):
        cm = SieveCostModel(udf_invocation=0.001, udf_per_policy=0.0001)
        chosen = decide_delta_guards(self.ge, cm)
        assert len(chosen) == len(self.ge.guards)  # nearly free UDF: always Δ
        cm2 = SieveCostModel(udf_invocation=1e9)
        assert decide_delta_guards(self.ge, cm2) == frozenset()


class TestGuardStore:
    def make(self):
        db, _ = make_wifi_db(n_rows=1000)
        groups = GroupDirectory()
        store = PolicyStore(db, groups)
        for p in make_policies(n_owners=8, per_owner=2):
            store.insert(p)
        gs = GuardStore(db, store)
        return db, store, gs

    def _builder(self, db, store):
        def build():
            policies = store.policies_for("prof", "analytics", "wifi")
            return build_guarded_expression(
                policies, db.table_stats("wifi"), INDEXED, SieveCostModel(),
                querier="prof", purpose="analytics", table="wifi",
            )

        return build

    @staticmethod
    def _keep(held):
        """A ``maintain`` that finds the held expression current."""
        return held

    @staticmethod
    def _resolve(gs, store, builder, maintain):
        """``prof``'s expression resolved at the store's epoch with
        these steps: ``(expression, regenerated?)``."""
        entry, rebuilt = gs.resolve(
            "prof", "analytics", "wifi", store.snapshot(), lambda *_: (builder, maintain)
        )
        return entry.expression, rebuilt

    def test_resolve_holds_the_expression(self):
        db, store, gs = self.make()
        ge1, built1 = self._resolve(gs, store, self._builder(db, store), self._keep)
        ge2, built2 = self._resolve(gs, store, self._builder(db, store), self._keep)
        assert built1 and not built2
        assert ge1 is ge2

    def test_policy_insert_flips_outdated(self):
        db, store, gs = self.make()
        self._resolve(gs, store, self._builder(db, store), self._keep)
        assert not gs.is_outdated("prof", "analytics", "wifi")
        store.insert(make_policies(n_owners=1, per_owner=1, seed=99)[0])
        assert gs.is_outdated("prof", "analytics", "wifi")
        # A ``maintain`` that declines (None) has the expression rebuilt.
        _, rebuilt = self._resolve(gs, store, self._builder(db, store), lambda held: None)
        assert rebuilt and not gs.is_outdated("prof", "analytics", "wifi")

    def test_unrelated_querier_not_invalidated(self):
        db, store, gs = self.make()
        self._resolve(gs, store, self._builder(db, store), self._keep)
        other = Policy(
            owner=1, querier="someone-else", purpose="analytics", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 1),),
        )
        store.insert(other)
        assert not gs.is_outdated("prof", "analytics", "wifi")

    def test_group_querier_policy_invalidates_members(self):
        db, _ = make_wifi_db(n_rows=500)
        groups = GroupDirectory()
        groups.add_member("faculty", "prof")
        store = PolicyStore(db, groups)
        for p in make_policies(n_owners=4):
            store.insert(p)
        gs = GuardStore(db, store)
        self._resolve(gs, store, self._builder(db, store), self._keep)
        group_policy = Policy(
            owner=9, querier="faculty", purpose="analytics", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 9),),
        )
        store.insert(group_policy)
        assert gs.is_outdated("prof", "analytics", "wifi")

    def test_persistence_round_trip(self):
        db, store, gs = self.make()
        ge, _ = self._resolve(gs, store, self._builder(db, store), self._keep)
        loaded = gs.load_persisted("prof", "analytics", "wifi")
        assert loaded is not None
        assert len(loaded.guards) == len(ge.guards)
        assert loaded.covered_policy_ids() == ge.covered_policy_ids()

    def test_maintained_expression_rewrites_only_the_touched_guards_rows(self):
        """``maintain`` edits the held expression instead of ``builder``
        rebuilding it: not a regeneration, the flag (in memory and in
        rGE) is cleared, guards shared with the predecessor keep their
        rGG rows, and what is persisted round-trips to the maintained
        expression after a mixed insert / delete / update sequence."""
        db, store, gs = self.make()
        builder = self._builder(db, store)
        stats, cm = db.table_stats("wifi"), SieveCostModel()

        def maintain(held):
            policies = store.policies_for("prof", "analytics", "wifi")
            return maintain_guarded_expression(held, policies, stats, INDEXED, cm)

        first, _ = self._resolve(gs, store, builder, maintain)
        again, rebuilt = self._resolve(gs, store, builder, maintain)
        assert again is first and not rebuilt

        def guard_rows():
            return {
                (row[3], row[5]): row[0]  # (attr, val) -> rGG id
                for _rowid, row in db.catalog.table("sieve_guards").scan()
            }

        rows_before = guard_rows()
        mine = store.policies_for("prof", "analytics", "wifi")
        store.delete(mine[0].id)
        store.insert(make_policies(n_owners=1, per_owner=1, seed=99)[0])
        store.update(
            Policy(
                owner=mine[1].owner, querier="prof", purpose="analytics", table="wifi",
                object_conditions=(mine[1].owner_condition,), id=mine[1].id,
            )
        )
        assert gs.is_outdated("prof", "analytics", "wifi")
        maintained, rebuilt = self._resolve(gs, store, builder, maintain)
        assert not rebuilt and maintained is not first
        assert not gs.is_outdated("prof", "analytics", "wifi")
        assert db.execute("SELECT outdated FROM sieve_guarded_expressions").column("outdated") == [False]
        assert maintained.covered_policy_ids() == {
            p.id for p in store.policies_for("prof", "analytics", "wifi")
        }
        shared = [g for g in maintained.guards if any(g is h for h in first.guards)]
        assert 0 < len(shared) < len(maintained.guards)
        rows_after = guard_rows()
        for guard in shared:
            key = (guard.condition.attr, str(guard.condition.value))
            assert rows_after[key] == rows_before[key]
        loaded = gs.load_persisted("prof", "analytics", "wifi")
        describe = lambda ge: sorted((str(g.condition), sorted(g.policy_ids)) for g in ge.guards)  # noqa: E731
        assert describe(loaded) == describe(maintained)

    def test_outdated_flag_persisted(self):
        db, store, gs = self.make()
        self._resolve(gs, store, self._builder(db, store), self._keep)
        store.insert(make_policies(n_owners=1, per_owner=1, seed=77)[0])
        flags = db.execute(
            "SELECT outdated FROM sieve_guarded_expressions"
        ).column("outdated")
        assert True in flags


class TestRegeneration:
    def test_eq19_formula(self):
        cm = SieveCostModel(cr=1, ce=0.2, alpha=0.5, cg=500)
        k = optimal_regeneration_interval(cm, guard_cardinality=100, queries_per_insert=1)
        expected = math.sqrt(4 * 500 / (100 * 0.5 * 0.2 * 1))
        assert k == max(1, round(expected))

    def test_interval_decreases_with_query_rate(self):
        cm = SieveCostModel()
        lazy = optimal_regeneration_interval(cm, 100, queries_per_insert=0.1)
        busy = optimal_regeneration_interval(cm, 100, queries_per_insert=10)
        assert busy < lazy  # more queries -> regenerate more eagerly

    def test_controller_decides_at_k(self):
        cm = SieveCostModel()
        ctrl = RegenerationController(cm, queries_per_insert=1.0)
        k = ctrl.interval_for(100)
        assert not ctrl.decide(k - 1, 100)
        assert ctrl.decide(k, 100)
        assert not ctrl.decide(0, 100)

    def test_stale_guards_cost_grows(self):
        cm = SieveCostModel()
        fresh = query_cost_with_stale_guards(cm, 100, 50, 0)
        stale = query_cost_with_stale_guards(cm, 100, 50, 30)
        assert stale > fresh

    def test_simulated_minimum_near_k_tilde(self):
        """Eq. 19's k̃ should be (near-)optimal in the cost simulation."""
        cm = SieveCostModel(cg=2000)
        rho, rpq, n = 50.0, 2.0, 400
        k_opt = optimal_regeneration_interval(cm, rho, rpq)
        cost_at_opt = simulate_total_cost(cm, rho, n, rpq, k_opt)
        for k in (1, max(2, k_opt // 4), k_opt * 4, n):
            other = simulate_total_cost(cm, rho, n, rpq, k)
            assert cost_at_opt <= other * 1.10  # within 10% of any rival

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            simulate_total_cost(SieveCostModel(), 10, 10, 1, 0)
