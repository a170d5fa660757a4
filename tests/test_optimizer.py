"""Statistics, cardinality estimation, planner access paths, EXPLAIN."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.database import connect
from repro.optimizer.cardinality import estimate_selectivity
from repro.optimizer.stats import EquiDepthHistogram, StatsCatalog, build_table_stats
from repro.sql.parser import parse_expression, parse_query
from repro.storage.schema import ColumnType, Schema

from tests.conftest import make_wifi_db


class TestHistogram:
    def test_empty(self):
        assert EquiDepthHistogram.build([]) is None

    def test_eq_selectivity_uniform(self):
        hist = EquiDepthHistogram.build(list(range(1000)), buckets=32)
        sel = hist.selectivity_eq(500)
        assert 0.0001 < sel < 0.01  # ~1/1000

    def test_eq_out_of_range(self):
        hist = EquiDepthHistogram.build(list(range(100)))
        assert hist.selectivity_eq(-5) == 0.0
        assert hist.selectivity_eq(500) == 0.0

    def test_range_full_coverage(self):
        hist = EquiDepthHistogram.build(list(range(100)))
        assert hist.selectivity_range(0, 99) == pytest.approx(1.0, abs=0.05)

    def test_range_half_coverage(self):
        hist = EquiDepthHistogram.build(list(range(1000)), buckets=50)
        sel = hist.selectivity_range(0, 499)
        assert 0.4 < sel < 0.6

    def test_range_disjoint(self):
        hist = EquiDepthHistogram.build(list(range(100)))
        assert hist.selectivity_range(200, 300) == 0.0

    def test_skewed_distribution(self):
        values = [1] * 900 + list(range(2, 102))
        hist = EquiDepthHistogram.build(values, buckets=16)
        assert hist.selectivity_eq(1) > 0.1
        assert hist.selectivity_eq(50) < 0.05

    def test_string_values(self):
        hist = EquiDepthHistogram.build([f"u{i:03d}" for i in range(100)])
        assert hist.selectivity_eq("u050") > 0
        assert 0 < hist.selectivity_range("u000", "u049") <= 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=8, max_size=500),
           st.integers(0, 100), st.integers(0, 100))
    def test_range_estimate_bounded_and_sane(self, values, a, b):
        # min_size=8: with fewer values than buckets the estimator is
        # legitimately coarse (one value per bucket, interior guesses).
        lo, hi = min(a, b), max(a, b)
        hist = EquiDepthHistogram.build(values, buckets=8)
        sel = hist.selectivity_range(lo, hi)
        assert 0.0 <= sel <= 1.0
        true_sel = sum(1 for v in values if lo <= v <= hi) / len(values)
        # Histogram is an estimate; allow generous error but catch nonsense.
        assert abs(sel - true_sel) < 0.5


def _sweep_selectivity_range(hist, lo=None, hi=None, lo_inclusive=True, hi_inclusive=True):
    """The bucket sweep ``EquiDepthHistogram.selectivity_range`` used
    before it went cumulative: every bucket visited, partial edge
    buckets interpolated.  Kept here only, as the reference."""

    def lt(a, b):
        try:
            return a < b
        except TypeError:
            return False

    def coverage(bucket_lo, bucket_hi, lo, hi):
        if isinstance(bucket_lo, (int, float)) and isinstance(bucket_hi, (int, float)):
            span = float(bucket_hi) - float(bucket_lo)
            if span <= 0:
                return 1.0
            left = max(float(bucket_lo), float(lo)) if isinstance(lo, (int, float)) else float(bucket_lo)
            right = min(float(bucket_hi), float(hi)) if isinstance(hi, (int, float)) else float(bucket_hi)
            if right < left:
                return 0.0
            return (right - left) / span
        return 1.0

    if hist.total == 0:
        return 0.0
    if lo is not None and hi is not None and lo == hi:
        return hist.selectivity_eq(lo) if lo_inclusive and hi_inclusive else 0.0
    lo_eff = hist.min_value if lo is None else lo
    hi_eff = hist.max_value if hi is None else hi
    try:
        if lo_eff > hist.max_value or hi_eff < hist.min_value:
            return 0.0
    except TypeError:
        return 0.0
    frac = 0.0
    prev_bound = hist.min_value
    for bound in hist.bounds:
        bucket_lo, bucket_hi = prev_bound, bound
        prev_bound = bound
        if lt(bucket_hi, lo_eff) or lt(hi_eff, bucket_lo):
            continue
        frac += coverage(bucket_lo, bucket_hi, lo_eff, hi_eff) * (hist.depth / hist.total)
    if lo is not None and lo_inclusive:
        frac = max(frac, hist.selectivity_eq(lo))
    if hi is not None and hi_inclusive:
        frac = max(frac, hist.selectivity_eq(hi))
    if not lo_inclusive and lo is not None:
        frac -= hist.selectivity_eq(lo)
    if not hi_inclusive and hi is not None:
        frac -= hist.selectivity_eq(hi)
    return min(1.0, max(0.0, frac))


def _columns():
    """Column contents that stress the bucket layout: plain ints and
    floats, strings, a heavy hitter filling several buckets, a single
    repeated value, fewer rows than buckets."""
    ints = st.lists(st.integers(-50, 200), min_size=1, max_size=400)
    floats = st.lists(
        st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=300
    )
    strings = st.lists(st.text("abcde", min_size=1, max_size=3), min_size=1, max_size=300)
    heavy = st.builds(
        lambda hitter, copies, rest: [hitter] * copies + rest,
        st.integers(0, 100),
        st.integers(50, 400),
        st.lists(st.integers(0, 100), max_size=150),
    )
    single = st.builds(lambda v, n: [v] * n, st.integers(-5, 5), st.integers(1, 200))
    few = st.lists(st.integers(0, 1000), min_size=1, max_size=63)
    return st.one_of(ints, floats, strings, heavy, single, few)


class TestCumulativeRangeEstimate:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_equals_the_bucket_sweep(self, data):
        values = data.draw(_columns())
        hist = EquiDepthHistogram.build(values, buckets=data.draw(st.sampled_from([4, 16, 64])))
        if isinstance(values[0], str):
            probe = st.text("abcdef", max_size=3)
        elif isinstance(values[0], float):
            probe = st.floats(-150.0, 150.0, allow_nan=False)
        else:
            probe = st.integers(-80, 1100)
        # Endpoints on bucket bounds and on min/max are the awkward ones.
        endpoint = st.one_of(
            st.none(), probe, st.sampled_from(hist.bounds), st.just(hist.min_value)
        )
        lo, hi = data.draw(endpoint), data.draw(endpoint)
        if lo is not None and hi is not None and hi < lo:
            lo, hi = hi, lo
        lo_inc, hi_inc = data.draw(st.booleans()), data.draw(st.booleans())
        got = hist.selectivity_range(lo, hi, lo_inc, hi_inc)
        want = _sweep_selectivity_range(hist, lo, hi, lo_inc, hi_inc)
        assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_closed_range_estimator_is_selectivity_range_to_the_bit(self, data):
        values = data.draw(_columns())
        hist = EquiDepthHistogram.build(values, buckets=data.draw(st.sampled_from([4, 16, 64])))
        probe = st.integers(-80, 1100) if not isinstance(values[0], str) else st.text("abcdef", max_size=3)
        endpoint = st.one_of(probe, st.sampled_from(hist.bounds), st.just(hist.min_value))
        lows = data.draw(st.lists(endpoint, min_size=1, max_size=6))
        highs = data.draw(st.lists(endpoint, min_size=1, max_size=6))
        estimate = hist.closed_range_estimator(lows, highs, 1234)
        for lo in lows:
            for hi in highs:
                assert estimate(lo, hi) == hist.selectivity_range(lo, hi) * 1234, (lo, hi)

    def test_mixed_type_probe_estimates_zero_like_the_sweep(self):
        hist = EquiDepthHistogram.build(list(range(100)))
        for args in (("a", None), (None, "a"), ("a", "b"), (3, "b")):
            assert hist.selectivity_range(*args) == _sweep_selectivity_range(hist, *args) == 0.0

    def test_inverted_range_is_empty(self):
        # The sweep let the "included endpoint" floor fire although
        # lo > hi, so BETWEEN 700 AND 300 estimated ~0.001 of the table.
        hist = EquiDepthHistogram.build(list(range(1000)))
        assert _sweep_selectivity_range(hist, 700, 300) > 0.0
        assert hist.selectivity_range(700, 300) == 0.0
        assert hist.selectivity_range(700, 300, False, True) == 0.0
        db, _rows = make_wifi_db(n_rows=500)
        stats = db.table_stats("wifi")
        assert estimate_selectivity(parse_expression("ts_time BETWEEN 900 AND 100"), stats) == 0.0


class TestTableStats:
    def test_build(self):
        db, rows = make_wifi_db(n_rows=500)
        stats = db.table_stats("wifi")
        assert stats.row_count == 500
        assert stats.column("owner").ndv <= 40
        assert stats.column("OWNER") is not None  # case-insensitive

    def test_staleness_triggers_rebuild(self):
        db, _rows = make_wifi_db(n_rows=100)
        catalog = StatsCatalog(staleness_ratio=0.1)
        table = db.catalog.table("wifi")
        s1 = catalog.get(table)
        db.insert("wifi", [(10_000 + i, 1, 1, 1, 1) for i in range(50)])
        s2 = catalog.get(table)
        assert s2.row_count == 150 and s1.row_count == 100


class TestCardinality:
    def setup_method(self):
        self.db, self.rows = make_wifi_db(n_rows=3000, seed=5)
        self.stats = self.db.table_stats("wifi")

    def _true_sel(self, pred):
        from repro.expr.eval import ExprCompiler, RowBinding

        binding = RowBinding.for_table("wifi", ["id", "wifiap", "owner", "ts_time", "ts_date"])
        fn = ExprCompiler(binding).compile(pred)
        return sum(1 for r in self.rows if fn(r)) / len(self.rows)

    @pytest.mark.parametrize("text", [
        "owner = 7",
        "ts_time BETWEEN 500 AND 700",
        "wifiap IN (1, 2, 3)",
        "ts_date >= 45",
        "owner = 3 AND wifiap = 5",
        "owner = 3 OR owner = 4",
        "NOT owner = 3",
    ])
    def test_estimates_close_to_truth(self, text):
        pred = parse_expression(text)
        est = estimate_selectivity(pred, self.stats)
        true = self._true_sel(pred)
        assert 0.0 <= est <= 1.0
        assert abs(est - true) < 0.15

    def test_unknown_column_default(self):
        est = estimate_selectivity(parse_expression("mystery < 5"), self.stats)
        assert est == pytest.approx(1 / 3)

    def test_none_predicate(self):
        assert estimate_selectivity(None, self.stats) == 1.0


class TestAccessPathSelection:
    def test_selective_eq_uses_index(self):
        db, _ = make_wifi_db(n_rows=20_000, n_owners=500)
        access = db.explain_access("SELECT * FROM wifi WHERE owner = 7")
        assert access[0].method == "index"
        assert "owner" in access[0].index_name

    def test_unselective_pred_uses_seq(self):
        db, _ = make_wifi_db(n_rows=5000)
        access = db.explain_access("SELECT * FROM wifi WHERE ts_time >= 10")
        assert access[0].method == "seq"

    def test_force_index_obeyed_on_mysql(self):
        db, _ = make_wifi_db("mysql", n_rows=2000)
        sql = "SELECT * FROM wifi FORCE INDEX (idx_wifi_ts_time) WHERE ts_time >= 10"
        access = db.explain_access(sql)
        assert access[0].method == "index"
        assert access[0].index_name == "idx_wifi_ts_time"

    def test_force_index_ignored_on_postgres(self):
        db, _ = make_wifi_db("postgres", n_rows=5000)
        sql = "SELECT * FROM wifi FORCE INDEX (idx_wifi_ts_time) WHERE ts_time >= 10"
        access = db.explain_access(sql)
        assert access[0].method == "seq"  # hint ignored; seq is cheaper

    def test_use_index_empty_forces_seq(self):
        db, _ = make_wifi_db("mysql", n_rows=20_000, n_owners=500)
        sql = "SELECT * FROM wifi USE INDEX () WHERE owner = 7"
        access = db.explain_access(sql)
        assert access[0].method == "seq"

    def test_ignore_index(self):
        db, _ = make_wifi_db("mysql", n_rows=20_000, n_owners=500)
        sql = "SELECT * FROM wifi IGNORE INDEX (idx_wifi_owner) WHERE owner = 7"
        access = db.explain_access(sql)
        assert access[0].index_name != "idx_wifi_owner"

    def test_bitmap_or_on_postgres(self):
        db, _ = make_wifi_db("postgres", n_rows=30_000, n_owners=800)
        sql = "SELECT * FROM wifi WHERE owner = 3 OR owner = 4 OR wifiap = 700"
        access = db.explain_access(sql)
        assert access[0].method == "bitmap-or"

    def test_no_bitmap_or_on_mysql(self):
        db, _ = make_wifi_db("mysql", n_rows=30_000, n_owners=800)
        sql = "SELECT * FROM wifi WHERE owner = 3 OR owner = 4"
        access = db.explain_access(sql)
        assert access[0].method != "bitmap-or"

    def test_bitmap_requires_all_arms_indexable(self):
        db, _ = make_wifi_db("postgres", n_rows=30_000, n_owners=800)
        # second disjunct has no sargable component -> no bitmap
        sql = "SELECT * FROM wifi WHERE owner = 3 OR id + 1 = 5"
        access = db.explain_access(sql)
        assert access[0].method != "bitmap-or"

    def test_in_list_probes_index(self):
        db, _ = make_wifi_db(n_rows=30_000, n_owners=1000)
        access = db.explain_access("SELECT * FROM wifi WHERE owner IN (1, 2, 3)")
        assert access[0].method == "index"


class TestExplain:
    def test_render_contains_plan_shape(self):
        db, _ = make_wifi_db(n_rows=2000)
        text = db.explain(
            "SELECT owner, count(*) AS n FROM wifi WHERE owner = 3 GROUP BY owner"
        ).render()
        assert "Aggregate" in text
        assert "rows=" in text and "cost=" in text

    def test_cte_access_summary(self):
        db, _ = make_wifi_db(n_rows=2000)
        access = db.explain_access(
            "WITH v AS (SELECT * FROM wifi WHERE owner = 1) SELECT * FROM v"
        )
        methods = {a.method for a in access}
        assert "cte" in methods
