"""Policy model, groups, and store (incl. persistence round-trip)."""

import pytest

from repro.common.errors import PolicyError
from repro.db.database import connect
from repro.expr.nodes import Between, Comparison, InList, ScalarSubquery
from repro.policy import (
    ANY_PURPOSE,
    DerivedValue,
    GroupDirectory,
    ObjectCondition,
    Policy,
    PolicyStore,
    QuerierCondition,
)
from repro.policy.model import policy_expression
from repro.sql.printer import to_sql


def simple_policy(owner=1, querier="prof", purpose="analytics", **kwargs):
    conditions = kwargs.pop(
        "object_conditions",
        (
            ObjectCondition("owner", "=", owner),
            ObjectCondition("ts_time", ">=", 540, "<=", 600),
        ),
    )
    return Policy(
        owner=owner,
        querier=querier,
        purpose=purpose,
        table="wifi",
        object_conditions=conditions,
        **kwargs,
    )


class TestObjectCondition:
    def test_point_to_expr(self):
        oc = ObjectCondition("wifiap", "=", 1200)
        assert str(oc.to_expr()) == "wifiap = 1200"

    def test_range_to_expr_is_between(self):
        oc = ObjectCondition("ts_time", ">=", 540, "<=", 600)
        assert isinstance(oc.to_expr(), Between)

    def test_half_open_range_ops(self):
        oc = ObjectCondition("ts_time", ">", 540, "<", 600)
        expr = oc.to_expr()
        assert "540" in str(expr) and "600" in str(expr)

    def test_in_condition(self):
        oc = ObjectCondition("wifiap", "IN", [3, 1, 2])
        expr = oc.to_expr()
        assert isinstance(expr, InList)
        assert oc.value == (1, 2, 3)  # normalised to sorted tuple

    def test_interval_views(self):
        assert ObjectCondition("a", "=", 5).interval().lo == 5
        rng = ObjectCondition("a", ">=", 1, "<=", 9).interval()
        assert (rng.lo, rng.hi) == (1, 9)
        assert ObjectCondition("a", ">", 5).interval() is None
        assert ObjectCondition("a", "IN", [1]).interval() is None

    def test_invalid_ranges(self):
        with pytest.raises(PolicyError):
            ObjectCondition("a", ">=", 10, "<=", 5)
        with pytest.raises(PolicyError):
            ObjectCondition("a", "<=", 1, "<=", 5)  # wrong op order
        with pytest.raises(PolicyError):
            ObjectCondition("a", "bogus", 1)

    def test_derived_value(self):
        oc = ObjectCondition("wifiap", "=", DerivedValue("SELECT 1 AS x"))
        assert oc.is_derived and not oc.is_constant
        expr = oc.to_expr()
        assert isinstance(expr, Comparison)
        assert isinstance(expr.right, ScalarSubquery)

    def test_qualified_expr(self):
        oc = ObjectCondition("owner", "=", 7)
        assert str(oc.to_expr("W")) == "W.owner = 7"


class TestPolicy:
    def test_requires_owner_condition(self):
        with pytest.raises(PolicyError):
            Policy(
                owner=1, querier="q", purpose="p", table="t",
                object_conditions=(ObjectCondition("ts_time", "=", 1),),
            )

    def test_only_allow(self):
        with pytest.raises(PolicyError):
            simple_policy(action="deny")

    def test_applies_to_direct_querier(self):
        p = simple_policy()
        assert p.applies_to("prof", "analytics")
        assert not p.applies_to("prof", "other")
        assert not p.applies_to("someone", "analytics")

    def test_applies_to_group_querier(self):
        p = simple_policy(querier="faculty")
        assert p.applies_to("prof", "analytics", querier_groups=frozenset({"faculty"}))
        assert not p.applies_to("prof", "analytics", querier_groups=frozenset({"staff"}))

    def test_any_purpose(self):
        p = simple_policy(purpose=ANY_PURPOSE)
        assert p.applies_to("prof", "whatever")

    def test_object_expr_conjunction(self):
        p = simple_policy()
        text = str(p.object_expr())
        assert "owner = 1" in text and "BETWEEN" in text

    def test_owner_and_non_owner_split(self):
        p = simple_policy()
        assert p.owner_condition.attr == "owner"
        assert all(oc.attr != "owner" for oc in p.non_owner_conditions)

    def test_policy_expression_dnf(self):
        e = policy_expression([simple_policy(owner=1), simple_policy(owner=2)])
        assert " OR " in str(e)

    def test_querier_condition_model(self):
        qc = QuerierCondition("querier", "=", "prof")
        assert qc.matches("prof")
        assert qc.matches("u1", groups=frozenset({"prof"}))
        with pytest.raises(PolicyError):
            QuerierCondition("nonsense", "=", 1)


class TestGroupDirectory:
    def test_membership(self):
        g = GroupDirectory()
        g.add_members("students", [1, 2, 3])
        assert g.groups_of(1) == frozenset({"students"})
        assert g.members_of("students") == frozenset({1, 2, 3})

    def test_hierarchy_transitive(self):
        g = GroupDirectory()
        g.add_group("students")
        g.add_group("undergrads", parent="students")
        g.add_member("undergrads", 7)
        assert "students" in g.groups_of(7)
        assert 7 in g.members_of("students")

    def test_unknown_user(self):
        assert GroupDirectory().groups_of(99) == frozenset()

    def test_install_creates_tables(self):
        db = connect()
        g = GroupDirectory()
        g.add_members("region-1", [1, 2])
        g.install(db)
        r = db.execute("SELECT count(*) AS n FROM User_Group_Membership")
        assert r.rows == [(2,)]


class TestPolicyStore:
    def make_store(self):
        db = connect()
        groups = GroupDirectory()
        groups.add_members("faculty", ["prof"])
        return PolicyStore(db, groups), db

    def test_insert_persists_rows(self):
        store, db = self.make_store()
        store.insert(simple_policy())
        assert db.execute("SELECT count(*) AS n FROM sieve_policies").rows == [(1,)]
        assert db.execute("SELECT count(*) AS n FROM sieve_object_conditions").rows == [(2,)]

    def test_duplicate_id_rejected(self):
        store, _ = self.make_store()
        p = simple_policy()
        store.insert(p)
        with pytest.raises(PolicyError):
            store.insert(p)

    def test_policies_for_filters_querier_purpose_table(self):
        store, _ = self.make_store()
        store.insert(simple_policy(querier="prof", purpose="analytics"))
        store.insert(simple_policy(querier="prof", purpose="attendance"))
        store.insert(simple_policy(querier="other", purpose="analytics"))
        got = store.policies_for("prof", "analytics", "wifi")
        assert len(got) == 1

    def test_policies_for_includes_group_policies(self):
        store, _ = self.make_store()
        store.insert(simple_policy(querier="faculty"))
        assert len(store.policies_for("prof", "analytics", "wifi")) == 1
        assert len(store.policies_for("stranger", "analytics", "wifi")) == 0

    def test_any_purpose_always_matches(self):
        store, _ = self.make_store()
        store.insert(simple_policy(purpose=ANY_PURPOSE))
        assert len(store.policies_for("prof", "xyz", "wifi")) == 1

    def test_delete(self):
        store, db = self.make_store()
        p = store.insert(simple_policy())
        store.delete(p.id)
        assert len(store) == 0
        assert db.execute("SELECT count(*) AS n FROM sieve_policies").rows == [(0,)]
        with pytest.raises(PolicyError):
            store.delete(p.id)

    def test_listener_fires(self):
        store, _ = self.make_store()
        events = []
        store.add_mutation_listener(lambda kind, p, epoch: events.append(p.id))
        inserted = store.insert(simple_policy())
        assert events == [inserted.id]

    def test_reload_round_trip(self):
        store, db = self.make_store()
        original = [
            simple_policy(owner=1),
            simple_policy(
                owner=2,
                object_conditions=(
                    ObjectCondition("owner", "=", 2),
                    ObjectCondition("wifiap", "IN", [1, 5, 9]),
                ),
            ),
            simple_policy(
                owner=3,
                object_conditions=(
                    ObjectCondition("owner", "=", 3),
                    ObjectCondition("wifiap", "=", DerivedValue("SELECT 4 AS x")),
                ),
            ),
        ]
        for p in original:
            store.insert(p)
        count = store.reload_from_database()
        assert count == 3
        reloaded = {p.id: p for p in store.all_policies()}
        for p in original:
            got = reloaded[p.id]
            assert got.owner == p.owner
            assert got.querier == p.querier
            assert len(got.object_conditions) == len(p.object_conditions)
        # IN list survived
        in_policy = reloaded[original[1].id]
        in_conds = [oc for oc in in_policy.object_conditions if oc.op == "IN"]
        assert in_conds and set(in_conds[0].value) == {1, 5, 9}
        # derived value survived
        derived = [oc for oc in reloaded[original[2].id].object_conditions if oc.is_derived]
        assert derived and "SELECT" in derived[0].value.sql

    def test_queriers_and_tables(self):
        store, _ = self.make_store()
        store.insert(simple_policy(querier="a"))
        store.insert(simple_policy(querier="b"))
        assert set(store.queriers()) == {"a", "b"}
        assert store.snapshot().protected == {"wifi"}


class TestPolicyStoreEpochAndListeners:
    """Epoch/listener semantics under interleaved insert/update/delete
    — the contract the guard and rewrite caches validate against."""

    def make_store(self):
        db = connect()
        return PolicyStore(db, GroupDirectory()), db

    def test_epoch_monotonic_across_interleaved_mutations(self):
        store, _ = self.make_store()
        seen = [store.epoch]
        a = store.insert(simple_policy(querier="a"))
        seen.append(store.epoch)
        b = store.insert(simple_policy(querier="b"))
        seen.append(store.epoch)
        store.update(a)  # same querier/table: one event, >= 1 bump
        seen.append(store.epoch)
        store.delete(b.id)
        seen.append(store.epoch)
        store.update(simple_policy(querier="c", id=a.id))  # crosses queriers
        seen.append(store.epoch)
        assert all(x < y for x, y in zip(seen, seen[1:])), seen

    def test_update_across_queriers_fires_both_corpus_views(self):
        store, _ = self.make_store()
        events = []
        p = store.insert(simple_policy(querier="a"))
        store.add_mutation_listener(lambda kind, pol, epoch: events.append((kind, pol.querier)))
        store.update(simple_policy(querier="b", id=p.id))
        assert ("update", "b") in events  # the new version
        assert ("update", "a") in events  # the old view must invalidate too

    def test_listeners_hear_the_epoch_already_bumped(self):
        store, _ = self.make_store()
        observed = []
        store.add_mutation_listener(lambda kind, pol, epoch: observed.append((store.epoch, epoch)))
        store.protect("wifi")  # a relation's *first* policy also moves the protected set
        before = store.epoch
        store.insert(simple_policy())
        assert observed == [(before + 1, before + 1)]

    def test_remove_listener_during_dispatch_neither_skips_nor_raises(self):
        store, _ = self.make_store()
        calls = []

        def self_removing(kind, policy, epoch):
            calls.append("self_removing")
            store.remove_mutation_listener(self_removing)

        def steady(kind, policy, epoch):
            calls.append("steady")

        store.add_mutation_listener(self_removing)
        store.add_mutation_listener(steady)
        store.insert(simple_policy(owner=1))
        assert calls == ["self_removing", "steady"]  # nothing skipped
        store.insert(simple_policy(owner=2))
        assert calls == ["self_removing", "steady", "steady"]  # deregistered

    def test_remove_mutation_listener_during_dispatch(self):
        store, _ = self.make_store()
        calls = []

        def once(kind, policy, epoch):
            calls.append(kind)
            store.remove_mutation_listener(once)

        store.add_mutation_listener(once)
        store.insert(simple_policy(owner=1))
        store.insert(simple_policy(owner=2))
        assert calls == ["insert"]

    def test_remove_absent_listener_is_noop(self):
        store, _ = self.make_store()
        store.remove_mutation_listener(lambda k, p, e: None)

    def test_reload_bumps_epoch_exactly_once_and_fires_no_events(self):
        store, _ = self.make_store()
        store.insert(simple_policy(owner=1))
        store.insert(simple_policy(owner=2))
        events = []
        store.add_mutation_listener(lambda kind, pol, epoch: events.append(kind))
        before = store.epoch
        store.reload_from_database()
        assert store.epoch == before + 1
        assert events == []

    def test_failed_update_keeps_old_policy_and_epoch(self):
        store, _ = self.make_store()
        p = store.insert(simple_policy())
        before = store.epoch

        class Unserializable:
            pass

        bad = simple_policy(
            id=p.id,
            object_conditions=(ObjectCondition("owner", "=", Unserializable()),),
        )
        with pytest.raises(PolicyError):
            store.update(bad)
        assert store.get(p.id) is p
        assert store.epoch == before


class TestPolicySnapshot:
    """Copy-on-write corpus views (the serving tier's consistency unit)."""

    def make_store(self):
        db = connect()
        groups = GroupDirectory()
        groups.add_members("faculty", ["prof"])
        return PolicyStore(db, groups), db

    def test_snapshot_memoized_per_epoch(self):
        store, _ = self.make_store()
        store.insert(simple_policy())
        snap = store.snapshot()
        assert store.snapshot() is snap  # same epoch -> same object
        store.insert(simple_policy(owner=2))
        fresh = store.snapshot()
        assert fresh is not snap
        assert fresh.epoch == snap.epoch + 1

    def test_snapshot_matches_live_filter_and_is_frozen_in_time(self):
        store, _ = self.make_store()
        store.insert(simple_policy(querier="faculty"))
        p2 = store.insert(simple_policy(querier="other"))
        snap = store.snapshot()
        assert [p.id for p in snap.policies_for("prof", "analytics", "wifi")] == [
            p.id for p in store.policies_for("prof", "analytics", "wifi")
        ]
        assert snap.protected == {"wifi"}
        assert len(snap) == 2
        store.delete(p2.id)
        # The old view still sees the deleted policy; the store doesn't.
        assert len(snap.policies_for("other", "analytics", "wifi")) == 1
        assert len(store.policies_for("other", "analytics", "wifi")) == 0


#: One querier in eight groups, each group granted five owners' rows in
#: its own overlapping time window; prints the group-derived policy
#: order and what Baseline P and SIEVE read under it.
HASH_SEED_WORLD = r"""
import json, random
from repro import connect
from repro.core import BaselineP, Sieve
from repro.policy import GroupDirectory, ObjectCondition, Policy, PolicyStore
from repro.storage.schema import ColumnType, Schema

db = connect("mysql", page_size=16)
db.create_table("W", Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT), ("ts_time", ColumnType.TIME)))
rng = random.Random(5)
db.insert("W", [(i, rng.randrange(40), rng.randrange(1440)) for i in range(600)])
for column in ("owner", "ts_time"):
    db.create_index("W", column)
db.analyze()
groups = GroupDirectory()
for g in range(8):
    groups.add_member(f"group-{g}", "querier")
store = PolicyStore(db, groups)
for g in range(8):
    for owner in range(40):
        if owner % 8 <= g % 3:
            store.insert(Policy(
                owner=owner, querier=f"group-{g}", purpose="any", table="W",
                object_conditions=(
                    ObjectCondition("owner", "=", owner),
                    ObjectCondition("ts_time", ">=", 90 * g, "<=", 90 * g + 700),
                ),
            ))
order = [p.id for p in store.snapshot().policies_for("querier", "any", "W")]
counts = {}
for name, engine in (("BaselineP", BaselineP(db, store)), ("SIEVE", Sieve(db, store))):
    before = db.counters.snapshot()
    rows = engine.execute("SELECT * FROM W WHERE ts_time BETWEEN 300 AND 1100", "querier", "any").rows
    counts[name] = [sorted(rows), db.counters.diff(before)]
print(json.dumps({"order": order, "counts": counts}))
"""


def test_group_derived_policy_order_and_counters_ignore_the_hash_seed():
    """A querier's group-derived policies come in ``group_id`` order, so
    Baseline P's inlined OR, SIEVE's partitions and every engine counter
    are the same whatever ``PYTHONHASHSEED`` the process runs under."""
    import json
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")

    def run(seed: str) -> dict:
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_WORLD], env=env, capture_output=True, text=True, check=True
        )
        return json.loads(done.stdout)

    first, second = run("0"), run("1")
    assert len(first["order"]) > 8 and first["counts"]["SIEVE"][1]["policy_evals"] > 0
    assert first["order"] == second["order"]
    assert first["counts"] == second["counts"]
