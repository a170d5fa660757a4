"""Algorithm 1 (guard selection) and guarded-expression invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SieveError
from repro.core.candidate_gen import CandidateGuard, generate_candidate_guards
from repro.core.cost_model import SieveCostModel
from repro.core.generation import build_guarded_expression
from repro.core.guard_selection import select_guards, total_cost
from repro.core.guards import GuardedExpression
from repro.policy.model import ObjectCondition, Policy

from tests.conftest import make_policies, make_wifi_db

CM = SieveCostModel()
INDEXED = frozenset({"owner", "wifiap", "ts_time", "ts_date"})


def mk_policy(owner, querier="prof"):
    return Policy(
        owner=owner, querier=querier, purpose="analytics", table="wifi",
        object_conditions=(ObjectCondition("owner", "=", owner),),
    )


def mk_candidate(condition, policy_ids, cardinality):
    return CandidateGuard(condition=condition, policy_ids=set(policy_ids), cardinality=cardinality)


class TestSelectGuards:
    def test_single_candidate(self):
        p = mk_policy(1)
        c = mk_candidate(ObjectCondition("owner", "=", 1), {p.id}, 10)
        guards = select_guards([c], [p], CM, 1000)
        assert len(guards) == 1
        assert guards[0].policy_ids == {p.id}

    def test_partitions_disjoint_and_exact_cover(self):
        policies = [mk_policy(i) for i in range(6)]
        ids = [p.id for p in policies]
        candidates = [
            mk_candidate(ObjectCondition("owner", "=", 0), ids[:4], 50),
            mk_candidate(ObjectCondition("owner", "=", 1), ids[2:], 50),
            mk_candidate(ObjectCondition("owner", "=", 2), ids[0:1], 5),
        ]
        guards = select_guards(candidates, policies, CM, 1000)
        seen = set()
        for g in guards:
            assert not (seen & g.policy_ids)
            seen |= g.policy_ids
        assert seen == set(ids)

    def test_high_utility_selected_first(self):
        policies = [mk_policy(i) for i in range(4)]
        ids = [p.id for p in policies]
        cheap_broad = mk_candidate(ObjectCondition("wifiap", "=", 1), set(ids), 10)
        pricey_narrow = mk_candidate(ObjectCondition("owner", "=", 0), ids[:1], 500)
        guards = select_guards([pricey_narrow, cheap_broad], policies, CM, 10_000)
        assert guards[0].condition.attr == "wifiap"
        assert len(guards) == 1  # broad one covered everything

    def test_uncoverable_policy_raises(self):
        p1, p2 = mk_policy(1), mk_policy(2)
        c = mk_candidate(ObjectCondition("owner", "=", 1), {p1.id}, 5)
        with pytest.raises(SieveError):
            select_guards([c], [p1, p2], CM, 100)

    def test_costs_populated(self):
        p = mk_policy(1)
        c = mk_candidate(ObjectCondition("owner", "=", 1), {p.id}, 10)
        [guard] = select_guards([c], [p], CM, 1000)
        assert guard.cost > 0
        assert guard.benefit > 0
        assert guard.utility > 0
        assert total_cost([guard]) == guard.cost

    def test_stale_entries_rescored(self):
        """A candidate whose partition shrinks must not win on its old
        (inflated) utility."""
        policies = [mk_policy(i) for i in range(10)]
        ids = [p.id for p in policies]
        big = mk_candidate(ObjectCondition("wifiap", "=", 1), ids[:9], 100)
        thief = mk_candidate(ObjectCondition("wifiap", "=", 2), ids[:8], 10)
        loner = mk_candidate(ObjectCondition("owner", "=", 9), ids[9:], 1)
        guards = select_guards([big, thief, loner], policies, CM, 100_000)
        seen = set()
        for g in guards:
            assert not (seen & g.policy_ids)
            seen |= g.policy_ids
        assert seen == set(ids)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 25), min_size=1, max_size=40))
    def test_cover_property_random(self, owners):
        policies = [mk_policy(o) for o in owners]
        db, _ = make_wifi_db(n_rows=1000, seed=4)
        stats = db.table_stats("wifi")
        candidates = generate_candidate_guards(policies, INDEXED, stats, CM)
        guards = select_guards(candidates, policies, CM, stats.row_count)
        seen = set()
        for g in guards:
            assert not (seen & g.policy_ids)
            seen |= g.policy_ids
        assert seen == {p.id for p in policies}


class TestBuildGuardedExpression:
    def test_end_to_end(self):
        db, _ = make_wifi_db(n_rows=4000)
        policies = make_policies(n_owners=30)
        stats = db.table_stats("wifi")
        ge = build_guarded_expression(
            policies, stats, INDEXED, CM, querier="prof", purpose="analytics", table="wifi"
        )
        assert ge.policy_count == len(policies)
        ge.check_partition_invariants()
        assert ge.generation_ms >= 0
        assert len(ge.guards) <= len(policies)

    def test_rendered_ast_is_shared_per_argument_tuple(self):
        db, _ = make_wifi_db(n_rows=2000)
        ge = build_guarded_expression(
            make_policies(n_owners=10), db.table_stats("wifi"), INDEXED, CM,
            querier="prof", purpose="analytics", table="wifi",
        )
        plain = ge.to_expr()
        assert ge.to_expr() is plain  # every rewrite of the epoch shares it
        qualified = ge.to_expr(qualifier="w")
        assert qualified is not plain and qualified != plain
        with_delta = ge.to_expr(
            delta_guards=frozenset({0}), delta_udf="sieve_delta", delta_columns=["id", "owner"]
        )
        assert with_delta is not plain
        assert ge.to_expr(
            delta_guards=frozenset({0}), delta_udf="sieve_delta", delta_columns=["id", "owner"]
        ) is with_delta
        # ... and one node per guard branch, which the ORs are made of.
        assert ge.branch_expr(0) is plain.children[0]
        assert ge.branch_expr(1) is with_delta.children[1]
        rendered = {id(e) for e in ge.rendered_exprs()}
        assert {id(plain), id(qualified), id(with_delta)} <= rendered
        assert all(id(branch) in rendered for branch in plain.children + with_delta.children)

    def test_invariant_check_catches_overlap(self):
        p = mk_policy(1)
        from repro.core.guards import Guard

        g1 = Guard(ObjectCondition("owner", "=", 1), [p], 1)
        g2 = Guard(ObjectCondition("wifiap", "=", 2), [p], 1)
        ge = GuardedExpression("q", "p", "wifi", [g1, g2], policy_count=1)
        with pytest.raises(SieveError):
            ge.check_partition_invariants()

    def test_guard_partition_expr_drops_guard_equal_condition(self):
        """Paper Section 3.2 example: the guard condition is factored out
        of each policy conjunction in the partition."""
        shared = ObjectCondition("wifiap", "=", 1200)
        p1 = Policy(
            owner="John", querier="prof", purpose="att", table="wifi",
            object_conditions=(
                ObjectCondition("owner", "=", "John"),
                ObjectCondition("ts_time", ">=", 540, "<=", 600),
                shared,
            ),
        )
        p2 = Policy(
            owner="Mary", querier="prof", purpose="att", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", "Mary"), shared),
        )
        from repro.core.guards import Guard

        guard = Guard(shared, [p1, p2], 10)
        text = str(guard.to_expr())
        assert text.count("wifiap = 1200") == 1  # only the guard mentions it
        assert "John" in text and "Mary" in text

    def test_partition_expr_keeps_stronger_conditions_under_merged_guard(self):
        merged = ObjectCondition("ts_time", ">=", 100, "<=", 600)
        p = Policy(
            owner=1, querier="q", purpose="p", table="wifi",
            object_conditions=(
                ObjectCondition("owner", "=", 1),
                ObjectCondition("ts_time", ">=", 150, "<=", 300),
            ),
        )
        from repro.core.guards import Guard

        guard = Guard(merged, [p], 10)
        text = str(guard.to_expr())
        # the policy's own tighter range must survive inside the partition
        assert "150" in text and "300" in text

    def test_guard_alone_suffices_when_all_conditions_equal_guard(self):
        cond = ObjectCondition("owner", "=", 5)
        p = Policy(
            owner=5, querier="q", purpose="p", table="wifi",
            object_conditions=(cond,),
        )
        from repro.core.guards import Guard

        guard = Guard(cond, [p], 10)
        assert guard.partition_expr() is None
        assert str(guard.to_expr()) == "owner = 5"
