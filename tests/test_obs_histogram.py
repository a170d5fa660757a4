"""Log-bucketed histogram: merge exactness, quantile error bounds
against an exact sorted-sample reference (:func:`percentile` below),
and the :class:`~repro.service.server.LatencySummary` edge cases of
the cluster's latency roll-up the health tier leans on."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hist_of
from repro.obs.histogram import DEFAULT_BASE_MS, DEFAULT_GROWTH, LatencyHistogram
from repro.cluster import ClusterStats
from repro.service.server import LatencySummary, ServiceStats


def percentile(values, q: float) -> float:
    """The exact q-th percentile (0..100, clamped) of raw samples by
    linear interpolation between neighboring ranks; 0.0 when empty —
    the reference the histogram's error bound is measured against."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (min(100.0, max(0.0, q)) / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _rollup(*populations) -> LatencySummary:
    """The cluster's latency summary over shards that served the given
    per-shard populations (milliseconds)."""
    per_shard = {
        f"s{i}": ServiceStats(
            workers=1, pending=0, requests=len(ms), batches=0, rejections=0,
            failures=0, latency_hist=hist_of(ms),
        )
        for i, ms in enumerate(populations)
    }
    return ClusterStats.merge(per_shard, {}, {}).latency


# --------------------------------------------------------------- construction


def test_invalid_bucketing_rejected():
    with pytest.raises(ValueError):
        LatencyHistogram(growth=1.0)
    with pytest.raises(ValueError):
        LatencyHistogram(growth=0.5)
    with pytest.raises(ValueError):
        LatencyHistogram(base_ms=0.0)


def test_empty_histogram():
    hist = LatencyHistogram()
    assert len(hist) == 0
    assert hist.percentile(50) == 0.0
    assert hist.percentile(99) == 0.0
    assert hist.mean_ms == 0.0
    assert hist.buckets() == []
    assert hist.summary_dict()["count"] == 0


def test_single_sample_every_quantile_is_the_sample_within_bound():
    hist = hist_of([42.0])
    for q in (0, 1, 50, 99, 100):
        assert hist.percentile(q) == pytest.approx(42.0, rel=hist.relative_error)
    assert hist.min_ms == 42.0
    assert hist.max_ms == 42.0
    assert hist.mean_ms == 42.0


def test_percentile_q_is_clamped():
    hist = hist_of([1.0, 2.0, 3.0])
    assert hist.percentile(-10) == hist.percentile(0)
    assert hist.percentile(250) == hist.percentile(100)


def test_sub_base_samples_share_bucket_zero():
    hist = hist_of([1e-6, 5e-4, DEFAULT_BASE_MS])
    (lower, upper, count), *rest = hist.buckets()
    assert (lower, upper, count) == (0.0, DEFAULT_BASE_MS, 3)
    assert rest == []


def test_bucket_boundaries_are_lower_open_upper_closed():
    hist = LatencyHistogram()
    boundary = DEFAULT_BASE_MS * DEFAULT_GROWTH**7
    # An exact boundary value lands in bucket 7, not 8 (the epsilon in
    # _index guards the float log of an exact power).
    assert hist._index(boundary) == 7
    assert hist._index(boundary * (1 + 1e-6)) == 8


def test_representative_clamped_to_observed_range():
    # A lone sample deep inside a wide bucket: the geometric midpoint
    # may sit outside [min, max]; clamping can only reduce error.
    hist = hist_of([100.0])
    assert hist.percentile(50) == 100.0


def test_relative_error_is_sqrt_growth():
    hist = LatencyHistogram(growth=1.05)
    assert hist.relative_error == pytest.approx(math.sqrt(1.05) - 1.0)


# -------------------------------------------------------------------- merging


def test_add_rejects_mismatched_bucketing():
    with pytest.raises(ValueError, match="different bucketing"):
        LatencyHistogram(growth=1.05).add(LatencyHistogram(growth=1.1))
    with pytest.raises(ValueError, match="different bucketing"):
        LatencyHistogram(base_ms=1e-3).add(LatencyHistogram(base_ms=1e-2))


def test_merge_of_nothing_is_empty():
    merged = LatencyHistogram.merge([])
    assert merged.count == 0
    assert merged.percentile(99) == 0.0


def test_merge_with_empty_histogram_is_identity():
    hist = hist_of([1.0, 10.0, 100.0])
    merged = LatencyHistogram.merge([hist, LatencyHistogram()])
    assert merged.to_dict() == hist.to_dict()


def test_merge_does_not_mutate_inputs():
    a = hist_of([1.0, 2.0])
    b = hist_of([3.0, 4.0])
    before = (a.to_dict(), b.to_dict())
    LatencyHistogram.merge([a, b])
    assert (a.to_dict(), b.to_dict()) == before


def test_copy_is_independent():
    hist = hist_of([5.0])
    clone = hist.copy()
    clone.record_ms(500.0)
    assert hist.count == 1
    assert clone.count == 2
    assert hist.max_ms == 5.0


def test_to_dict_round_trips_exactly():
    hist = hist_of([0.0005, 1.0, 3.7, 250.0, 250.0])
    back = LatencyHistogram.from_dict(hist.to_dict())
    assert back.to_dict() == hist.to_dict()
    assert back.percentile(99) == hist.percentile(99)
    empty_back = LatencyHistogram.from_dict(LatencyHistogram().to_dict())
    assert empty_back.count == 0
    assert empty_back.min_ms == math.inf


# ------------------------------------------------- the merge-split property


@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=1e-4, max_value=1e5, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=300,
    ),
    n_shards=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_merge_split_quantiles_match_direct_within_bound(samples, n_shards, seed):
    """ISSUE satellite property: split xs across shards, merge the
    per-shard histograms, and the merged quantiles must (a) equal the
    direct single-histogram quantiles *exactly* (merge is bucket-exact)
    and (b) sit within the documented relative error of the true sample
    percentiles."""
    direct = hist_of(samples)

    rng = random.Random(seed)
    shards = [LatencyHistogram() for _ in range(n_shards)]
    for value in samples:
        rng.choice(shards).record_ms(value)
    merged = LatencyHistogram.merge(shards)

    # (a) bucket-exact merge: counts, count, min, max identical; sum
    # only up to float addition order.
    assert merged._counts == direct._counts
    assert merged.count == direct.count
    assert merged.min_ms == direct.min_ms
    assert merged.max_ms == direct.max_ms
    assert merged.sum_ms == pytest.approx(direct.sum_ms, rel=1e-9)
    for q in (0, 25, 50, 90, 95, 99, 100):
        assert merged.percentile(q) == direct.percentile(q)

    # (b) quantile error vs the exact sample percentile.  The
    # interpolated exact percentile can fall between two samples whose
    # bucket representatives each carry the bound, so allow the bound
    # plus float slack.
    bound = direct.relative_error + 1e-9
    for q in (50, 95, 99):
        true = percentile(samples, q)
        got = direct.percentile(q)
        assert abs(got - true) <= bound * true + direct.base_ms


@settings(max_examples=30, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=1e-4, max_value=1e5, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=200,
    )
)
def test_of_histogram_tracks_of_seconds_within_bound(samples):
    """The histogram-backed LatencySummary must agree with the exact
    summary of the raw samples within the documented bound — the
    contract that let the serving tier swap reservoir math out."""
    approx = LatencySummary.of_histogram(hist_of(samples))
    assert approx.count == len(samples)
    assert approx.mean_ms == pytest.approx(sum(samples) / len(samples), rel=1e-9)
    bound = LatencyHistogram().relative_error + 1e-9
    for q, attr in ((50, "p50_ms"), (95, "p95_ms"), (99, "p99_ms")):
        true = percentile(samples, q)
        got = getattr(approx, attr)
        assert abs(got - true) <= bound * true + DEFAULT_BASE_MS


# ----------------------------------------------- LatencySummary edge pins


def test_summary_of_empty_histogram_is_zero_summary():
    summary = LatencySummary.of_histogram(LatencyHistogram())
    assert summary == LatencySummary()


def test_summary_merge_empty_inputs():
    assert _rollup() == LatencySummary()
    assert _rollup([], []) == LatencySummary()


def test_summary_merge_single_population_passes_through_exactly():
    only = [1.0, 2.0, 10.0]
    assert _rollup([], only, []) == LatencySummary.of_histogram(hist_of(only))


def test_summary_merge_weighted_mean_is_exact():
    merged = _rollup([1.0] * 3, [4.0])
    assert merged.count == 4
    assert merged.mean_ms == pytest.approx((3 * 1.0 + 1 * 4.0) / 4)


def test_percentile_function_edges():
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 0) == 7.0
    assert percentile([7.0], 100) == 7.0
    assert percentile([1.0, 3.0], 50) == 2.0
    assert percentile([3.0, 1.0], 50) == 2.0  # unsorted input is sorted
    assert percentile([1.0, 3.0], -5) == 1.0
    assert percentile([1.0, 3.0], 500) == 3.0


def test_histogram_percentile_mirrors_reservoir_on_identical_buckets():
    """When every sample is its own bucket representative (clamped
    single-bucket populations), histogram interpolation reduces to the
    reservoir formula."""
    hist = hist_of([10.0] * 5)
    assert hist.percentile(50) == 10.0
    assert hist.percentile(99) == 10.0
