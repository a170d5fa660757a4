"""Candidate guard generation: Theorem 1 and its corollaries."""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import candidate_gen
from repro.core.candidate_gen import (
    CandidateGuard,
    condition_cardinality,
    generate_candidate_guards,
)
from repro.core.cost_model import SieveCostModel
from repro.optimizer.stats import ColumnStats, EquiDepthHistogram, TableStats
from repro.policy.model import ObjectCondition, Policy

from tests.conftest import make_wifi_db

INDEXED = frozenset({"owner", "wifiap", "ts_time", "ts_date"})


def policy_with(owner, *conditions, querier="prof"):
    return Policy(
        owner=owner,
        querier=querier,
        purpose="analytics",
        table="wifi",
        object_conditions=(ObjectCondition("owner", "=", owner), *conditions),
    )


@pytest.fixture(scope="module")
def stats():
    db, _ = make_wifi_db(n_rows=6000, seed=8)
    return db.table_stats("wifi")


class TestEligibility:
    def test_owner_condition_always_candidate(self, stats):
        policies = [policy_with(i) for i in range(5)]
        cg = generate_candidate_guards(policies, INDEXED, stats)
        owner_values = {c.condition.value for c in cg if c.condition.attr == "owner"}
        assert owner_values == {0, 1, 2, 3, 4}

    def test_every_policy_covered_by_some_candidate(self, stats):
        policies = [
            policy_with(i, ObjectCondition("ts_time", ">=", 100 * i, "<=", 100 * i + 50))
            for i in range(8)
        ]
        cg = generate_candidate_guards(policies, INDEXED, stats)
        covered = set()
        for c in cg:
            covered |= c.policy_ids
        assert covered == {p.id for p in policies}

    def test_unindexed_attribute_skipped(self, stats):
        p = policy_with(1, ObjectCondition("ts_time", "=", 300))
        cg = generate_candidate_guards([p], frozenset({"owner"}), stats)
        assert all(c.condition.attr == "owner" for c in cg)

    def test_derived_conditions_skipped(self, stats):
        from repro.policy.model import DerivedValue

        p = policy_with(
            1, ObjectCondition("wifiap", "=", DerivedValue("SELECT 1 AS x"))
        )
        cg = generate_candidate_guards([p], INDEXED, stats)
        assert all(not c.condition.is_derived for c in cg)

    def test_negations_not_guards(self, stats):
        p = policy_with(1, ObjectCondition("wifiap", "!=", 3))
        cg = generate_candidate_guards([p], INDEXED, stats)
        assert all(c.condition.op != "!=" for c in cg)

    def test_identical_conditions_dedup_into_one_candidate(self, stats):
        shared = ObjectCondition("wifiap", "=", 7)
        policies = [policy_with(i, shared) for i in range(4)]
        cg = generate_candidate_guards(policies, INDEXED, stats)
        wifiap_cands = [c for c in cg if c.condition == shared]
        assert len(wifiap_cands) == 1
        assert len(wifiap_cands[0].policy_ids) == 4


class TestMerging:
    def test_disjoint_ranges_never_merge(self, stats):
        """Theorem 1: no benefit merging non-overlapping ranges."""
        p1 = policy_with(1, ObjectCondition("ts_time", ">=", 100, "<=", 200))
        p2 = policy_with(2, ObjectCondition("ts_time", ">=", 500, "<=", 600))
        cg = generate_candidate_guards([p1, p2], INDEXED, stats)
        merged = [c for c in cg if len(c.policy_ids) > 1 and c.condition.attr == "ts_time"]
        assert merged == []

    def test_heavily_overlapping_ranges_merge(self, stats):
        cm = SieveCostModel(cr=1.0, ce=0.2)  # threshold ~0.167
        p1 = policy_with(1, ObjectCondition("ts_time", ">=", 100, "<=", 500))
        p2 = policy_with(2, ObjectCondition("ts_time", ">=", 120, "<=", 520))
        cg = generate_candidate_guards([p1, p2], INDEXED, stats, cm)
        merged = [c for c in cg if c.policy_ids == {p1.id, p2.id}]
        assert merged, "overlap 380/420 >> threshold: should merge"
        hull = merged[0].condition
        assert (hull.value, hull.value2) == (100, 520)

    def test_barely_overlapping_ranges_do_not_merge(self, stats):
        cm = SieveCostModel(cr=1.0, ce=1.0)  # threshold 0.5: strict
        p1 = policy_with(1, ObjectCondition("ts_time", ">=", 100, "<=", 300))
        p2 = policy_with(2, ObjectCondition("ts_time", ">=", 290, "<=", 500))
        cg = generate_candidate_guards([p1, p2], INDEXED, stats, cm)
        merged = [c for c in cg if len(c.policy_ids) > 1 and c.condition.attr == "ts_time"]
        assert merged == []  # intersection 10/400 << 0.5

    def test_merge_threshold_follows_eq8(self):
        cm = SieveCostModel(cr=1.0, ce=0.25)
        assert cm.merge_threshold() == pytest.approx(0.2)

    def test_transitive_merges_produced(self, stats):
        cm = SieveCostModel(cr=1.0, ce=0.05)  # permissive threshold
        ps = [
            policy_with(i, ObjectCondition("ts_time", ">=", 100 + 30 * i, "<=", 400 + 30 * i))
            for i in range(4)
        ]
        cg = generate_candidate_guards(ps, INDEXED, stats, cm)
        sizes = {len(c.policy_ids) for c in cg if c.condition.attr == "ts_time"}
        assert 4 in sizes  # chain merged into one covering candidate

    def test_equalities_merge_only_when_equal(self, stats):
        p1 = policy_with(1, ObjectCondition("wifiap", "=", 5))
        p2 = policy_with(2, ObjectCondition("wifiap", "=", 5))
        p3 = policy_with(3, ObjectCondition("wifiap", "=", 9))
        cg = generate_candidate_guards([p1, p2, p3], INDEXED, stats)
        five = [c for c in cg if c.condition.attr == "wifiap" and c.condition.value == 5]
        assert len(five[0].policy_ids) == 2
        multi = [
            c for c in cg
            if c.condition.attr == "wifiap" and len(c.policy_ids) > 2
        ]
        assert multi == []  # 5 and 9 are disjoint points

    def test_originals_kept_alongside_merges(self, stats):
        cm = SieveCostModel(cr=1.0, ce=0.05)
        p1 = policy_with(1, ObjectCondition("ts_time", ">=", 100, "<=", 500))
        p2 = policy_with(2, ObjectCondition("ts_time", ">=", 120, "<=", 520))
        cg = generate_candidate_guards([p1, p2], INDEXED, stats, cm)
        ts_conditions = {(c.condition.value, c.condition.value2)
                         for c in cg if c.condition.attr == "ts_time"}
        assert (100, 500) in ts_conditions  # original survives
        assert (100, 520) in ts_conditions  # merge added


class TestCardinality:
    def test_condition_cardinality_shapes(self, stats):
        eq = condition_cardinality(ObjectCondition("owner", "=", 3), stats)
        rng = condition_cardinality(
            ObjectCondition("ts_time", ">=", 0, "<=", 1439), stats
        )
        inl = condition_cardinality(ObjectCondition("wifiap", "IN", [1, 2]), stats)
        assert 0 < eq < stats.row_count / 10
        assert rng == pytest.approx(stats.row_count, rel=0.1)
        assert 0 < inl < stats.row_count / 4

    def test_unknown_column_default(self, stats):
        got = condition_cardinality(ObjectCondition("mystery", "=", 1), stats)
        assert got == pytest.approx(stats.row_count / 3)

def test_cardinality_monotone_in_width():
    db, _ = make_wifi_db(n_rows=6000, seed=8)
    stats = db.table_stats("wifi")
    small = condition_cardinality(ObjectCondition("ts_time", ">=", 300, "<=", 400), stats)
    large = condition_cardinality(ObjectCondition("ts_time", ">=", 300, "<=", 800), stats)
    assert large >= small


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 1300), st.integers(10, 140)),
        min_size=1,
        max_size=25,
    )
)
def test_candidates_always_cover_all_policies(windows):
    """Coverage property: whatever the range structure, every policy is
    reachable from at least one candidate (its owner condition)."""
    db, _ = make_wifi_db(n_rows=2000, seed=8)
    stats = db.table_stats("wifi")
    policies = [
        policy_with(i % 7, ObjectCondition("ts_time", ">=", s, "<=", s + w))
        for i, (s, w) in enumerate(windows)
    ]
    cg = generate_candidate_guards(policies, INDEXED, stats)
    covered = set()
    for c in cg:
        covered |= c.policy_ids
    assert covered == {p.id for p in policies}


# ------------------------------------------------- the sweep vs its reference


def pairwise_sweep(los, his, candidates, attr, stats, cost_model, ends=None):
    """The merge sweep as the hull walk replaced it: per anchor, every
    overlapping neighbour in order, each weighed by Eq. 8 against the
    hull as it stands, ρ straight from ``selectivity_range`` (not from
    the table of range ends generation hands the sweep)."""
    cstats = stats.column(attr)
    if cstats is None or cstats.histogram is None:
        flat = stats.row_count / 3.0 if cstats is None else 0.0
        rho = lambda lo, hi: flat  # noqa: E731
    else:
        rho = lambda lo, hi: cstats.histogram.selectivity_range(lo, hi) * stats.row_count  # noqa: E731
    produced = []
    seen_spans = set(zip(los, his))
    threshold = cost_model.merge_threshold()
    own_rho = [rho(lo, hi) for lo, hi in zip(los, his)]
    n = len(los)
    for i in range(n):
        acc_lo, acc_hi, acc_rho = los[i], his[i], own_rho[i]
        acc_ids = set(candidates[i].policy_ids)
        merged_any = False
        for j in range(i + 1, n):
            if not (acc_lo <= his[j] and los[j] <= acc_hi):
                break
            if his[j] <= acc_hi:
                union, rho_union, rho_intersection = (acc_lo, acc_hi), acc_rho, own_rho[j]
            else:
                union = (min(acc_lo, los[j]), max(acc_hi, his[j]))
                rho_union = rho(*union)
                rho_intersection = rho(max(acc_lo, los[j]), min(acc_hi, his[j]))
            if rho_union <= 0 or rho_intersection / rho_union <= threshold:
                continue
            (acc_lo, acc_hi), acc_rho = union, rho_union
            acc_ids |= candidates[j].policy_ids
            merged_any = True
        if not merged_any or (acc_lo, acc_hi) in seen_spans:
            continue
        seen_spans.add((acc_lo, acc_hi))
        condition = ObjectCondition(attr=attr, op=">=", value=acc_lo, op2="<=", value2=acc_hi)
        produced.append(CandidateGuard(condition=condition, policy_ids=acc_ids, cardinality=acc_rho))
    return produced


_DOMAIN = 100


def _condition(kind, value, width):
    if kind == "range":  # width 0 is a point range [v, v]
        return ObjectCondition("a", ">=", value, "<=", value + width)
    if kind == "=":
        return ObjectCondition("a", "=", value)
    return ObjectCondition("a", kind, value)  # open-ended: widened to the column's min / max


def _world(values, buckets, column, specs, ce):
    """(policies, stats, cost model): one range condition per policy on
    column ``a``, whose statistics are built from ``values``."""
    stats = TableStats("t", row_count=len(values), page_count=1)
    if column != "no column":
        histogram = EquiDepthHistogram.build(values, buckets) if column == "histogram" else None
        stats.columns["a"] = ColumnStats("a", len(values), 0, len(set(values)), histogram)
    policies = [
        Policy(
            owner=i % 5,
            querier="q",
            purpose="p",
            table="t",
            object_conditions=(ObjectCondition("owner", "=", i % 5), _condition(*spec)),
        )
        for i, spec in enumerate(specs)
    ]
    return policies, stats, SieveCostModel(cr=1.0, ce=ce)


@st.composite
def sweep_worlds(draw):
    # Every value once makes ρ follow the width; a few distinct values
    # leave wide buckets with a low distinct count, whose equality
    # estimate outweighs a narrow range's interpolation.
    if draw(st.booleans()):
        values = list(range(_DOMAIN + 1))
        distinct = values
    else:
        distinct = draw(st.lists(st.integers(0, _DOMAIN), min_size=1, max_size=6))
        values = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    # Heavy hitters fill whole buckets: point-mass buckets on the bounds.
    for value, copies in draw(st.lists(st.tuples(st.sampled_from(distinct), st.integers(1, 60)), max_size=3)):
        values += [value] * copies
    # Ends on a coarse grid, so spans repeat (also as `=` v beside [v, v],
    # and `>= v` widened beside [v, max]), nest and chain.
    specs = st.tuples(
        st.sampled_from(["range"] * 6 + ["=", ">", ">=", "<", "<="]),
        st.integers(-1, _DOMAIN // 5 + 1).map(lambda v: 5 * v),
        st.integers(0, 12).map(lambda w: 5 * w),
    )
    return _world(
        values,
        draw(st.integers(1, 12)),
        draw(st.sampled_from(["histogram", "no histogram", "no column"])),
        draw(st.lists(specs, min_size=2, max_size=25)),
        draw(st.sampled_from([0.02, 0.2, 0.5, 1.0, 4.0])),
    )


@settings(max_examples=300, deadline=None)
@given(sweep_worlds())
# After [85, 110] fails against the hull [65, 105], [95, 130] still
# merges: its start, 95, carries a point-mass bucket that the failed
# intersection [85, 105] interpolates to much less.  The cut-off must
# allow for a later start's equality mass.
@example(_world([83, 83] + [95] * 6, 2, "histogram", [("range", 65, 40), ("range", 90, 60), ("range", 85, 25), ("range", 95, 35)], 4.0))
# [60, 115] reaches past the hull [10, 70] and fails Eq. 8: its policy
# stays out, though its own ρ against the hull's would pass.
@example(_world([62, 91, 91], 2, "histogram", [("range", 60, 55), ("range", 10, 60), ("range", 55, 25)], 0.5))
# [10, 10] passes against the hull [0, 50] of its time, not against the
# [0, 80] that [40, 80] grows it to afterwards.
@example(_world(list(range(_DOMAIN + 1)), 4, "histogram", [("range", 40, 40), ("range", 0, 50), ("range", 10, 0)], 0.02))
def test_the_hull_walk_emits_what_the_pairwise_sweep_emits(world):
    """Same candidates in the same order: condition, policy ids and
    cardinality equal to the bit, whatever the duplicates, nesting,
    open ends, flat ρ or point-mass buckets."""
    policies, stats, cost_model = world

    def candidates():
        return [
            (c.condition, c.policy_ids, c.cardinality)
            for c in generate_candidate_guards(policies, frozenset({"a"}), stats, cost_model)
        ]

    walked = candidates()
    with mock.patch.object(candidate_gen, "_sweep_merge", pairwise_sweep):
        assert walked == candidates()
