"""End-to-end middleware tests: Sieve vs brute force vs all baselines."""

import pytest

from repro.core import BaselineI, BaselineP, BaselineU, Sieve
from repro.core.cost_model import SieveCostModel
from repro.core.regeneration import RegenerationController
from repro.core.strategy import Strategy
from repro.policy.groups import GroupDirectory
from repro.policy.model import DerivedValue, ObjectCondition, Policy
from repro.policy.store import PolicyStore

from tests.conftest import brute_force_allowed, make_policies, make_wifi_db


def build_world(personality="mysql", n_rows=5000, n_owners=40, per_owner=2, seed=1):
    db, rows = make_wifi_db(personality, n_rows=n_rows, n_owners=n_owners, seed=seed)
    groups = GroupDirectory()
    store = PolicyStore(db, groups)
    policies = make_policies(n_owners=n_owners, per_owner=per_owner, seed=seed + 1)
    store.insert_many(policies)
    sieve = Sieve(db, store)
    return db, rows, store, policies, sieve


QUERY = "SELECT * FROM wifi AS W WHERE W.ts_date BETWEEN 10 AND 70"


def reference(rows, policies, lo=10, hi=70):
    return sorted(
        r for r in brute_force_allowed(rows, policies) if lo <= r[4] <= hi
    )


class TestSieveEquivalence:
    @pytest.mark.parametrize("personality", ["mysql", "postgres"])
    def test_matches_brute_force(self, personality):
        db, rows, store, policies, sieve = build_world(personality)
        got = sieve.execute(QUERY, "prof", "analytics")
        assert sorted(got.rows) == reference(rows, policies)

    @pytest.mark.parametrize("baseline_cls", [BaselineP, BaselineI, BaselineU])
    def test_baselines_match_brute_force(self, baseline_cls):
        db, rows, store, policies, sieve = build_world()
        baseline = baseline_cls(db, store)
        got = baseline.execute(QUERY, "prof", "analytics")
        assert sorted(got.rows) == reference(rows, policies)

    def test_forced_delta_still_correct(self):
        """Δ-on-everything must be semantically identical to inlining."""
        db, rows, store, policies, sieve = build_world()
        sieve.cost_model = SieveCostModel(udf_invocation=0.0001, udf_per_policy=0.00001)
        got = sieve.execute(QUERY, "prof", "analytics")
        assert sorted(got.rows) == reference(rows, policies)
        assert db.counters.udf_invocations > 0

    def test_unknown_querier_denied(self):
        _db, _rows, _store, _policies, sieve = build_world()
        assert sieve.execute(QUERY, "stranger", "analytics").rows == []

    def test_wrong_purpose_denied(self):
        _db, _rows, _store, _policies, sieve = build_world()
        assert sieve.execute(QUERY, "prof", "espionage").rows == []

    def test_aggregation_after_enforcement(self):
        db, rows, store, policies, sieve = build_world()
        got = sieve.execute(
            "SELECT count(*) AS n FROM wifi WHERE ts_date BETWEEN 10 AND 70",
            "prof", "analytics",
        )
        assert got.rows == [(len(reference(rows, policies)),)]

    def test_join_query_enforced(self):
        db, rows, store, policies, sieve = build_world()
        from repro.storage.schema import ColumnType, Schema

        db.create_table("m", Schema.of(("user_id", ColumnType.INT),))
        db.insert("m", [(i,) for i in range(5)])
        db.analyze()
        got = sieve.execute(
            "SELECT count(*) AS n FROM wifi AS W, m WHERE m.user_id = W.owner",
            "prof", "analytics",
        )
        expected = sum(1 for r in brute_force_allowed(rows, policies) if r[2] < 5)
        assert got.rows == [(expected,)]

    def test_minus_query_policy_first_semantics(self):
        """Non-monotonic operator: policies must apply before EXCEPT
        (paper Section 3.1 correctness argument)."""
        db, rows, store, policies, sieve = build_world()
        sql = (
            "SELECT id FROM wifi WHERE ts_date <= 45 "
            "EXCEPT SELECT id FROM wifi WHERE ts_date > 20"
        )
        got = sieve.execute(sql, "prof", "analytics")
        allowed = brute_force_allowed(rows, policies)
        left = {r[0] for r in allowed if r[4] <= 45}
        right = {r[0] for r in allowed if r[4] > 20}
        assert {r[0] for r in got.rows} == left - right

    def test_group_querier_policies_apply(self):
        db, rows, _, _, _ = build_world(n_owners=10)
        groups = GroupDirectory()
        groups.add_member("faculty", "prof.smith")
        store = PolicyStore(db, groups)
        policy = Policy(
            owner=3, querier="faculty", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 3),),
        )
        store.insert(policy)
        sieve = Sieve(db, store)
        got = sieve.execute("SELECT * FROM wifi", "prof.smith", "analytics")
        assert sorted(got.rows) == sorted(r for r in rows if r[2] == 3)

    def test_derived_value_policy(self):
        """Paper 3.1: 'allow access only when I am with Prof. Smith' —
        the allowed AP is a correlated subquery."""
        db, rows, _, _, _ = build_world(n_rows=0)
        # Craft tiny deterministic data: owner 1 = student, owner 0 = prof.
        db2, _ = make_wifi_db(n_rows=0, seed=3)
        data = [
            (0, 5, 0, 100, 1),   # prof at ap 5, t=100
            (1, 5, 1, 100, 1),   # student with prof -> allowed
            (2, 6, 1, 200, 1),   # student elsewhere -> denied
            (3, 7, 0, 200, 2),   # prof other day
        ]
        db2.insert("wifi", data)
        db2.analyze()
        store = PolicyStore(db2, GroupDirectory())
        derived = DerivedValue(
            "SELECT W2.wifiap FROM wifi AS W2 WHERE W2.owner = 0 AND W2.ts_time = wifi.ts_time"
        )
        store.insert(Policy(
            owner=1, querier="prof", purpose="any", table="wifi",
            object_conditions=(
                ObjectCondition("owner", "=", 1),
                ObjectCondition("wifiap", "=", derived),
            ),
        ))
        sieve = Sieve(db2, store)
        got = sieve.execute("SELECT id FROM wifi", "prof", "x")
        assert got.rows == [(1,)]

    def test_execution_info(self):
        _db, _rows, _store, _policies, sieve = build_world()
        info = sieve.execute_with_info(QUERY, "prof", "analytics")
        assert info.policies_considered > 0
        assert "wifi" in {t.lower() for t in info.rewrite.enforced_tables}
        assert info.middleware_ms >= 0 and info.execution_ms >= 0
        assert info.rewrite.decisions["wifi"].strategy in Strategy

    def test_rewritten_sql_is_runnable(self):
        db, rows, store, policies, sieve = build_world()
        sql = sieve.rewritten_sql(QUERY, "prof", "analytics")
        assert "wifi_sieve" in sql
        again = db.execute(sql)
        assert sorted(again.rows) == reference(rows, policies)

    def test_regeneration_controller_defers_rebuild(self):
        db, rows, store, policies, _ = build_world()
        cm = SieveCostModel(cg=1e9)  # astronomically expensive regeneration
        sieve = Sieve(db, store, cost_model=cm,
                      regeneration=RegenerationController(cm, queries_per_insert=1.0))
        sieve.execute(QUERY, "prof", "analytics")  # build once
        new_policy = Policy(
            owner=0, querier="prof", purpose="analytics", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 0),),
        )
        store.insert(new_policy)
        info = sieve.execute_with_info(QUERY, "prof", "analytics")
        assert info.regenerated_tables == []  # deferred: k̃ is enormous

    def test_deferred_regeneration_is_exact_after_insert_and_delete(self):
        """Deferral defers the *selection* of guards, never a policy:
        with k̃ out of reach, deleted policies stop admitting rows and an
        inserted one starts to at the next query (the parent kept
        serving the expression it had: 965 rows here, 519 of them
        permitted by no policy)."""
        db, rows, store, policies, _ = build_world()
        cm = SieveCostModel(cg=1e9)
        sieve = Sieve(db, store, cost_model=cm,
                      regeneration=RegenerationController(cm, queries_per_insert=1.0))
        sieve.execute(QUERY, "prof", "analytics")  # build once
        mine = store.policies_for("prof", "analytics", "wifi")
        assert len(mine) == 80
        for policy in mine[::2]:
            store.delete(policy.id)
        kept = mine[1::2]
        info = sieve.execute_with_info(QUERY, "prof", "analytics")
        assert sorted(info.result.rows) == reference(rows, kept)
        assert len(info.result.rows) == len(
            Sieve(db, store).execute(QUERY, "prof", "analytics").rows
        ) < 965
        assert info.regenerated_tables == []
        granted = store.insert(Policy(
            owner=0, querier="prof", purpose="analytics", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 0),),
        ))
        info = sieve.execute_with_info(QUERY, "prof", "analytics")
        assert sorted(info.result.rows) == reference(rows, kept + [granted])
        assert info.regenerated_tables == []

    def test_regeneration_immediate_when_cheap(self):
        db, rows, store, policies, _ = build_world()
        cm = SieveCostModel(cg=1e-9)  # free regeneration -> k̃ = 1
        sieve = Sieve(db, store, cost_model=cm,
                      regeneration=RegenerationController(cm, queries_per_insert=1.0))
        sieve.execute(QUERY, "prof", "analytics")
        store.insert(Policy(
            owner=0, querier="prof", purpose="analytics", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 0),),
        ))
        info = sieve.execute_with_info(QUERY, "prof", "analytics")
        assert info.regenerated_tables == ["wifi"]

    def test_new_policy_reflected_after_regeneration(self):
        db, rows, store, policies, sieve = build_world(n_owners=5, per_owner=1)
        first = sieve.execute("SELECT * FROM wifi", "newbie", "analytics")
        assert first.rows == []
        store.insert(Policy(
            owner=2, querier="newbie", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 2),),
        ))
        second = sieve.execute("SELECT * FROM wifi", "newbie", "analytics")
        assert sorted(second.rows) == sorted(r for r in rows if r[2] == 2)


class TestStrategiesEndToEnd:
    @pytest.mark.parametrize("personality", ["mysql", "postgres"])
    def test_all_strategies_same_answer(self, personality):
        """Force each strategy via cost-model manipulation; answers must
        be identical."""
        db, rows, store, policies, sieve = build_world(personality, n_rows=8000)
        expected = reference(rows, policies)

        # LinearScan: make guard reads look expensive.
        sieve.cost_model = SieveCostModel(cr=1e6)
        assert sorted(sieve.execute(QUERY, "prof", "analytics").rows) == expected

        # IndexGuards flavoured: cheap reads.
        sieve.cost_model = SieveCostModel(cr=1e-6)
        assert sorted(sieve.execute(QUERY, "prof", "analytics").rows) == expected

    @staticmethod
    def sparse_world(personality):
        """Policies touch 4 of 2000 owners (~10 rows each): guard scans
        are far cheaper than a linear scan, so IndexGuards wins without
        cost tricks."""
        db, rows = make_wifi_db(personality, n_rows=20_000, n_owners=2000)
        store = PolicyStore(db, GroupDirectory())
        store.insert_many(make_policies(n_owners=4, per_owner=2))
        return db, rows, store, Sieve(db, store)

    def test_union_rewrite_on_mysql_index_guards(self):
        # No sargable query predicate -> IndexQuery infeasible; sparse
        # guards beat LinearScan -> MySQL gets the UNION of forced
        # per-guard index scans (paper Section 5.3).
        db, rows, store, sieve = self.sparse_world("mysql")
        sql = sieve.rewritten_sql("SELECT * FROM wifi", "prof", "analytics")
        assert "FORCE INDEX" in sql and "UNION" in sql
        # and it still answers correctly
        got = db.execute(sql)
        expected = brute_force_allowed(rows, store.all_policies())
        assert sorted(got.rows) == sorted(expected)

    def test_single_select_rewrite_on_postgres(self):
        db, rows, store, sieve = self.sparse_world("postgres")
        sql = sieve.rewritten_sql("SELECT * FROM wifi", "prof", "analytics")
        assert "FORCE INDEX" not in sql and "UNION" not in sql
        got = db.execute(sql)
        expected = brute_force_allowed(rows, store.all_policies())
        assert sorted(got.rows) == sorted(expected)

    def test_index_query_rewrite_forces_predicate_index(self):
        # A point query on a 2000-owner table reads ~10 rows via the
        # owner index — IndexQuery wins on cost and the MySQL rewrite
        # must force that index.
        db, rows, store, sieve = self.sparse_world("mysql")
        sql = sieve.rewritten_sql(
            "SELECT * FROM wifi WHERE owner = 3", "prof", "analytics"
        )
        assert "FORCE INDEX (idx_wifi_owner)" in sql
