"""Counter accounting API and strategy-decision surfaces."""

import dataclasses
import inspect

import pytest

from repro.db.counters import CounterSet, CostWeights
from repro.core.cost_model import SieveCostModel
from repro.core.strategy import Strategy, StrategyDecision, choose_strategy
from repro.core.generation import build_guarded_expression
from repro.policy.groups import GroupDirectory
from repro.policy.store import PolicyStore
from repro.sql.parser import parse_expression

from tests.conftest import make_policies, make_wifi_db


class TestCounterSet:
    def test_reset(self):
        c = CounterSet()
        c.pages_sequential = 5
        c.udf_invocations = 2
        c.reset()
        assert c.pages_sequential == 0 and c.udf_invocations == 0

    def test_snapshot_diff(self):
        c = CounterSet()
        c.tuples_scanned = 10
        before = c.snapshot()
        c.tuples_scanned = 25
        c.pages_random = 3
        diff = c.diff(before)
        assert diff["tuples_scanned"] == 15
        assert diff["pages_random"] == 3

    def test_cost_units_weighting(self):
        c = CounterSet()
        c.pages_sequential = 10
        c.pages_random = 10
        assert c.cost_units == pytest.approx(10 * 1.0 + 10 * 4.0)

    def test_cost_of_static(self):
        cost = CounterSet.cost_of({"pages_random": 2, "udf_invocations": 4})
        assert cost == pytest.approx(2 * 4.0 + 4 * 0.5)

    def test_custom_weights(self):
        c = CounterSet(weights=CostWeights(seq_page=10.0))
        c.pages_sequential = 1
        assert c.cost_units == pytest.approx(10.0)

    def test_str_contains_totals(self):
        c = CounterSet()
        c.pages_bitmap = 7
        assert "pages_bitmap=7" in str(c)

    def test_the_counters_are_the_declared_int_fields(self):
        declared = [f.name for f in dataclasses.fields(CounterSet)]
        assert declared[-1] == "weights"
        assert list(CounterSet._COUNTER_NAMES) == declared[:-1]
        assert list(CounterSet().snapshot()) == declared[:-1] == list(CounterSet().diff({}))

    def test_a_newly_declared_counter_needs_no_second_edit(self, monkeypatch):
        """The module as it would read with one more field declared:
        ``snapshot`` / ``diff`` / ``reset`` and the metrics registry
        carry the counter, nothing else edited."""
        import repro.db.counters as counters_module
        import repro.obs.metrics as metrics

        source = inspect.getsource(counters_module)
        declaration = "    weights: CostWeights = field("
        assert source.count(declaration) == 1
        namespace = {"__name__": counters_module.__name__}
        exec(source.replace(declaration, "    brand_new: int = 0\n" + declaration), namespace)
        grown = namespace["CounterSet"]
        assert grown._COUNTER_NAMES == CounterSet._COUNTER_NAMES + ("brand_new",)

        counters = grown(brand_new=4)
        assert counters.snapshot()["brand_new"] == 4 and counters.diff({})["brand_new"] == 4
        monkeypatch.setattr(metrics, "CounterSet", grown)
        registry = metrics.MetricsRegistry()
        metrics.register_counterset(registry, lambda: {(): counters})
        (metric,) = registry.get(f"{metrics.COUNTER_METRIC_PREFIX}brand_new_total")
        assert metric.zero_weight and metric.samples()[0].value == 4
        counters.reset()
        assert counters.brand_new == 0 and metric.samples()[0].value == 0


class TestStrategySurface:
    @pytest.fixture(scope="class")
    def world(self):
        db, rows = make_wifi_db(n_rows=20_000, n_owners=2000)
        policies = make_policies(n_owners=6, per_owner=2)
        store = PolicyStore(db, GroupDirectory())
        store.insert_many(policies)
        expression = build_guarded_expression(
            store.all_policies(),
            db.table_stats("wifi"),
            frozenset(db.catalog.indexed_columns("wifi")),
            SieveCostModel(),
            querier="prof", purpose="analytics", table="wifi",
        )
        return db, expression

    def test_costs_dict_has_all_strategies(self, world):
        db, expression = world
        decision = choose_strategy(db, "wifi", expression, [], SieveCostModel())
        assert set(decision.costs) == {"IndexGuards", "IndexQuery", "LinearScan"}
        assert decision.costs["IndexQuery"] == float("inf")  # no predicate

    def test_describe_is_readable(self, world):
        db, expression = world
        decision = choose_strategy(
            db, "wifi", expression, [parse_expression("owner = 3")], SieveCostModel()
        )
        text = decision.describe()
        assert decision.strategy.value in text

    def test_sparse_guards_prefer_index_guards(self, world):
        db, expression = world
        decision = choose_strategy(db, "wifi", expression, [], SieveCostModel())
        # 12 policies over 6 of 2000 owners: guard scans are far cheaper
        # than scanning 20k rows.
        assert decision.strategy is Strategy.INDEX_GUARDS

    def test_selective_query_predicate_chosen_by_cost(self, world):
        db, expression = world
        decision = choose_strategy(
            db, "wifi", expression,
            [parse_expression("owner = 3")],
            SieveCostModel(),
        )
        assert decision.strategy is Strategy.INDEX_QUERY
        assert decision.query_index_column == "owner"

    def test_decision_is_plain_data(self):
        d = StrategyDecision(strategy=Strategy.LINEAR_SCAN)
        assert d.delta_guards == frozenset()
        assert d.query_index_column is None
