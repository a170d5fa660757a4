"""Guard generation pinned across estimator and sweep rewrites.

``tests/data/golden_guards.json`` holds, for seeded corpora over the
conftest worlds and Mall queriers of 150, 400 and 1 000 policies (where
overlapping ranges are densest), every selected guard's condition,
partition and ``cardinality``: the first five as generated by the
bucket-sweep estimator (the commit before ``EquiDepthHistogram`` went
cumulative), the 400- and 1 000-policy ones by the pairwise merge sweep
the hull walk replaced.  A faster estimator or sweep must reproduce
them: same guards, same partitions, cardinalities to 1e-6.
``PYTHONPATH=src:. python tests/test_golden_guards.py`` (from the repo
root) rewrites the file.

The complexity tests ride on the same Mall world: they count the
bucket bounds one estimate touches (through a counting list, not a
product counter), how that total grows with the corpus, how many
times the merge sweep asks the histogram anything at all — three
look-ups per distinct range end, however many pairs it weighs — and
the sweep's own work: the estimates it makes and the range ends it
reads, pinned.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import pathlib
import random

import pytest

from repro.core import candidate_gen
from repro.core.candidate_gen import (
    _eligible_conditions,
    condition_cardinality,
    generate_candidate_guards,
)
from repro.core.cost_model import SieveCostModel
from repro.core.generation import build_guarded_expression
from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
from repro.datasets.tippers import WIFI_TABLE
from repro.optimizer.stats import EquiDepthHistogram
from repro.policy.model import ObjectCondition, Policy

from tests.conftest import make_policies, make_tippers_small, make_wifi_db

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_guards.json"


def mall_world():
    mall = generate_mall(MallConfig(seed=13, n_customers=900, days=25, personality="postgres"))
    heap = mall.db.catalog.table(CONNECTIVITY_TABLE)
    return (
        mall.db.stats.get(heap),
        frozenset(mall.db.catalog.indexed_columns(CONNECTIVITY_TABLE)),
    )


def mall_policies(n: int, seed: int = 13) -> list[Policy]:
    """One shop's corpus: 25 owners, each policy an owner plus a
    time-of-day window, a date window, or both (the benchmark's shape)."""
    rng = random.Random(f"golden:{seed}:{n}")
    community = sorted(rng.sample(range(900), 25))
    out = []
    for i in range(n):
        conds = [ObjectCondition("owner", "=", rng.choice(community))]
        kind = rng.random()
        if kind < 0.55:
            start = rng.randrange(600, 1200)
            conds.append(
                ObjectCondition("ts_time", ">=", start, "<=", min(1439, start + rng.randrange(60, 240)))
            )
        if kind >= 0.45:
            start = rng.randrange(0, 21)
            conds.append(
                ObjectCondition("ts_date", ">=", start, "<=", min(24, start + rng.randrange(2, 10)))
            )
        out.append(
            Policy(
                owner=conds[0].value,
                querier="shop-7",
                purpose="any",
                table=CONNECTIVITY_TABLE,
                object_conditions=tuple(conds),
                id=3_000_000 + i,
            )
        )
    return out


def _describe(policies, stats, indexed) -> dict:
    # Policy ids come from a process-wide counter and the store lists a
    # querier's policies group by group in (string-)hash order, so fix the
    # order here and name policies by position.
    policies = sorted(
        policies,
        key=lambda p: (str(p.owner), [str(oc) for oc in p.object_conditions], str(p.querier), p.purpose),
    )
    position = {p.id: i for i, p in enumerate(policies)}
    expression = build_guarded_expression(policies, stats, indexed)
    return {
        "policies": len(policies),
        "candidates": len(generate_candidate_guards(policies, indexed, stats)),
        "guards": [
            {
                "condition": str(g.condition),
                "partition": sorted(position[p.id] for p in g.policies),
                "cardinality": g.cardinality,
            }
            for g in expression.guards
        ],
    }


def snapshot(tippers, mall) -> dict:
    """Every golden corpus, described."""
    out = {}
    wifi_indexed = frozenset({"owner", "wifiap", "ts_time", "ts_date"})
    for name, db_args, policy_args in (
        ("wifi-default", {}, {}),
        ("wifi-dense", {"n_rows": 6000, "seed": 8}, {"seed": 5, "per_owner": 4}),
    ):
        db, _rows = make_wifi_db(**db_args)
        out[name] = _describe(make_policies(**policy_args), db.table_stats("wifi"), wifi_indexed)

    dataset, campus, store = tippers
    heap = dataset.db.catalog.table(WIFI_TABLE)
    stats = dataset.db.stats.get(heap)
    indexed = frozenset(dataset.db.catalog.indexed_columns(WIFI_TABLE))
    for profile in ("faculty", "grad"):
        querier = campus.designated_queriers[profile][0]
        policies = store.policies_for(querier, "analytics", WIFI_TABLE)
        out[f"tippers-{profile}"] = _describe(policies, stats, indexed)

    for n in (150, 400, 1000):
        out[f"mall-{n}"] = _describe(mall_policies(n), *mall)
    return out


@pytest.fixture(scope="module")
def mall():
    return mall_world()


def test_guards_match_the_recorded_sets(tippers_small, mall):
    golden = json.loads(GOLDEN.read_text())
    got = snapshot(tippers_small, mall)
    assert got.keys() == golden.keys()
    for name, want in golden.items():
        have = got[name]
        assert have["policies"] == want["policies"], name
        assert have["candidates"] == want["candidates"], name
        assert len(have["guards"]) == len(want["guards"]), name
        for g, w in zip(have["guards"], want["guards"]):
            assert g["condition"] == w["condition"], name
            assert g["partition"] == w["partition"], name
            assert g["cardinality"] == pytest.approx(w["cardinality"], abs=1e-6), name


# --------------------------------------------------------------- complexity


class _CountingBounds(list):
    """Bucket bounds that count every element read — ``bisect``'s
    comparisons and plain indexing alike — so a bucket sweep shows as
    ~B touches per estimate and a binary search as ~log2 B."""

    touches = 0

    def __getitem__(self, index):
        _CountingBounds.touches += 1
        return super().__getitem__(index)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


class _CountingHistogram(EquiDepthHistogram):
    """The product estimator over counting bounds; the call counts and
    the bucket count come from the wrapper, nothing in ``stats.py``.
    ``lookups`` counts the per-value reads every estimate is made of
    (``cumulative`` and ``selectivity_eq``: a bisect or two each)."""

    calls = 0
    lookups = 0

    def selectivity_range(self, *args, **kwargs):
        _CountingHistogram.calls += 1
        return super().selectivity_range(*args, **kwargs)

    def cumulative(self, *args, **kwargs):
        _CountingHistogram.lookups += 1
        return super().cumulative(*args, **kwargs)

    def selectivity_eq(self, *args, **kwargs):
        _CountingHistogram.lookups += 1
        return super().selectivity_eq(*args, **kwargs)


def _instrumented(stats):
    """A copy of ``stats`` whose histograms count their work."""
    clone = copy.deepcopy(stats)
    for cstats in clone.columns.values():
        hist = cstats.histogram
        if hist is not None:
            fields = {f.name: getattr(hist, f.name) for f in dataclasses.fields(hist)}
            fields["bounds"] = _CountingBounds(hist.bounds)
            cstats.histogram = _CountingHistogram(**fields)
    return clone


def _reset_counts() -> None:
    _CountingBounds.touches = _CountingHistogram.calls = _CountingHistogram.lookups = 0


def _generation_work(n: int, stats, indexed) -> tuple[int, int]:
    """(bound touches, histogram look-ups) of generating candidates for
    an ``n``-policy corpus."""
    _reset_counts()
    generate_candidate_guards(mall_policies(n), indexed, stats)
    return _CountingBounds.touches, _CountingHistogram.lookups


def test_range_estimate_touches_log_buckets(mall):
    stats, _indexed = mall
    counted = _instrumented(stats)
    hist = counted.column("ts_time").histogram
    n_buckets = len(hist.bounds)
    assert n_buckets >= 32
    budget = 8 * math.log2(n_buckets)  # a handful of bisects + edge reads
    rng = random.Random(5)
    for _ in range(200):
        lo = rng.randrange(500, 1400)
        hi = lo + rng.randrange(0, 400)
        _CountingBounds.touches = 0
        hist.selectivity_range(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
        assert _CountingBounds.touches <= budget, (lo, hi)


def test_generation_work_per_pair_does_not_grow_with_the_corpus(mall):
    stats, indexed = mall
    counted = _instrumented(stats)
    touches_50, lookups_50 = _generation_work(50, counted, indexed)
    touches_400, lookups_400 = _generation_work(400, counted, indexed)
    assert lookups_50 > 0 and lookups_400 > lookups_50
    assert touches_400 / lookups_400 <= 10 * (touches_50 / lookups_50)
    n_buckets = len(counted.column("ts_time").histogram.bounds)
    assert touches_400 / lookups_400 <= 4 * math.log2(n_buckets)  # two bisects + edge reads


@pytest.mark.parametrize("n", [150, 400])
def test_merge_sweep_asks_the_histogram_three_times_per_range_end(mall, n):
    """Every closed range generation estimates — each condition's own,
    and every hull and intersection the sweep weighs — ends where the
    original conditions end, so beyond ρ of each other condition it
    needs (cumulative as a lower end, as an upper end, equality mass) of
    each distinct end, once: the conditions' ρ and the sweep read one
    table of ends — and no range estimate of its own (the commit before
    the sweep read ends made 3 174 for the 150-policy corpus)."""
    stats, indexed = mall
    counted = _instrumented(stats)
    policies = mall_policies(n)
    conditions = {oc for p in policies for oc in _eligible_conditions(p, indexed)}
    _reset_counts()
    for oc in conditions:
        if (oc.op, oc.op2) != (">=", "<="):  # the ranges are the table's
            condition_cardinality(oc, counted)
    own_calls, own_lookups = _CountingHistogram.calls, _CountingHistogram.lookups
    ends = {(oc.attr, end) for oc in conditions for end in (oc.interval().lo, oc.interval().hi)}
    _reset_counts()
    generate_candidate_guards(policies, indexed, counted)
    assert _CountingHistogram.calls == own_calls
    assert 0 < _CountingHistogram.lookups - own_lookups <= 3 * len(ends)


class _CountingEnds(list):
    """Range ends that count every element read: one per index, the
    length of a slice, the whole list per iteration."""

    reads = 0

    def __getitem__(self, index):
        got = super().__getitem__(index)
        _CountingEnds.reads += len(got) if isinstance(index, slice) else 1
        return got

    def __iter__(self):
        _CountingEnds.reads += len(self)
        return super().__iter__()


class _CountingEstimates(EquiDepthHistogram):
    """The product histogram, counting the closed-range estimates made
    through :meth:`closed_range_estimator`."""

    made = 0

    def closed_range_estimator(self, *args, **kwargs):
        estimate = super().closed_range_estimator(*args, **kwargs)

        def counted(lo, hi):
            _CountingEstimates.made += 1
            return estimate(lo, hi)

        return counted


def _sweep_work(n: int, cost_model, stats, indexed, monkeypatch) -> tuple[int, int]:
    """(closed-range estimates, range ends read) of the merge sweep over
    an ``n``-policy corpus."""
    clone = copy.deepcopy(stats)
    for cstats in clone.columns.values():
        hist = cstats.histogram
        if hist is not None:
            cstats.histogram = _CountingEstimates(**{f.name: getattr(hist, f.name) for f in dataclasses.fields(hist)})
    sweep = candidate_gen._sweep_merge
    monkeypatch.setattr(
        candidate_gen, "_sweep_merge", lambda los, his, *rest: sweep(los, _CountingEnds(his), *rest)
    )
    _CountingEstimates.made = _CountingEnds.reads = 0
    generate_candidate_guards(mall_policies(n), indexed, clone, cost_model)
    return _CountingEstimates.made, _CountingEnds.reads


@pytest.mark.parametrize(
    "n, ce, estimates, ends_read",
    # ce 0.2 is the default, Eq. 8's θ ≈ 0.17; ce 1.0 makes θ 0.5, where
    # checks fail and the cut-off ends walks early.
    [(150, 0.2, 1204, 6582), (400, 0.2, 3875, 30506), (150, 1.0, 1217, 4305)],
)
def test_merge_sweep_work_is_pinned(mall, monkeypatch, n, ce, estimates, ends_read):
    """The sweep's work as counts, not time, so a change to the walk
    shows here deterministically.  An estimate is one closed-range ρ: a
    range's own, the intersection a shared step meets, a hull union per
    Eq. 8 check, an equality mass for the cut-off.  An end read is one
    neighbour looked at, by the walk or when reading the policy ids of
    an emitted span.  At the default θ the pairwise sweep this replaced
    made 2 618 and 9 563 estimates here, two for every neighbour reaching
    past the hull, over 5 151 and 30 972 overlapping pairs."""
    assert _sweep_work(n, SieveCostModel(cr=1.0, ce=ce), *mall, monkeypatch) == (estimates, ends_read)


if __name__ == "__main__":  # record the golden file
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(make_tippers_small(), mall_world()), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
