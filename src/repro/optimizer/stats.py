"""Table statistics: equi-depth histograms and NDV counts.

The paper's cost model estimates guard cardinality "using histograms
maintained by the database" (Section 4, footnote 5).  This module is
that substrate: ``ANALYZE``-style statistics built from table contents,
giving ``ρ(pred)`` estimates for equality, range and IN predicates.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.storage.table import HeapTable

DEFAULT_BUCKETS = 64
_NUMERIC = (int, float)


@dataclass
class EquiDepthHistogram:
    """Equal-frequency histogram over one column's sorted values.

    ``bounds`` holds bucket upper edges (inclusive); each bucket covers
    roughly ``n / len(bounds)`` rows.  ``distinct_per_bucket`` supports
    equality estimates inside a bucket.
    """

    bounds: list[Any]
    depth: float  # rows per bucket
    distinct_per_bucket: list[int]
    min_value: Any
    max_value: Any
    total: int

    @classmethod
    def build(cls, values: Sequence[Any], buckets: int = DEFAULT_BUCKETS) -> "EquiDepthHistogram | None":
        if not values:
            return None
        ordered = sorted(values)
        n = len(ordered)
        buckets = max(1, min(buckets, n))
        depth = n / buckets
        bounds: list[Any] = []
        distinct: list[int] = []
        start = 0
        for b in range(1, buckets + 1):
            end = min(n, round(b * depth))
            if end <= start:
                continue
            chunk = ordered[start:end]
            bounds.append(chunk[-1])
            distinct.append(max(1, len(set(chunk))))
            start = end
        return cls(
            bounds=bounds,
            depth=n / len(bounds),
            distinct_per_bucket=distinct,
            min_value=ordered[0],
            max_value=ordered[-1],
            total=n,
        )

    def selectivity_eq(self, value: Any) -> float:
        """Estimated fraction of rows equal to ``value``.

        A heavy-hitter value can be the upper bound of several
        consecutive buckets; all of them contribute (otherwise skewed
        columns — e.g. a dominant owner — are badly underestimated).
        """
        if self.total == 0:
            return 0.0
        try:
            if value < self.min_value or value > self.max_value:
                return 0.0
        except TypeError:
            return 0.0
        pos_lo = bisect.bisect_left(self.bounds, value)
        pos_hi = bisect.bisect_right(self.bounds, value)
        if pos_lo == pos_hi:
            # Value lies strictly inside one bucket (or past the end).
            if pos_lo >= len(self.bounds):
                pos_lo = len(self.bounds) - 1
            ndv = self.distinct_per_bucket[pos_lo]
            return (self.depth / ndv) / self.total
        rows = sum(
            self.depth / self.distinct_per_bucket[i] for i in range(pos_lo, pos_hi)
        )
        return min(1.0, rows / self.total)

    def selectivity_range(
        self,
        lo: Any = None,
        hi: Any = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of rows in the (possibly open) range.

        Cumulative form, O(log B): buckets are equal-depth, so bucket
        ``i`` ends at cumulative fraction ``(i + 1) / B`` and the rows
        up to ``x`` are ``F(x) = (rank(x) + edge) / B`` — ``rank`` one
        bisect over ``bounds``, ``edge`` the linear interpolation inside
        the bucket ``x`` falls in.  The estimate is ``F(hi) − F(lo)``;
        no bucket other than the two edge ones is read.
        """
        if self.total == 0:
            return 0.0
        if lo is not None and hi is not None and lo == hi:
            # Degenerate point range: the equality path is strictly better
            # than interpolating a zero-width slice of a bucket.
            return self.selectivity_eq(lo) if lo_inclusive and hi_inclusive else 0.0
        lo_eff = self.min_value if lo is None else lo
        hi_eff = self.max_value if hi is None else hi
        try:
            if lo_eff > self.max_value or hi_eff < self.min_value or hi_eff < lo_eff:
                return 0.0  # outside the column, or an empty (inverted) range
        except TypeError:
            return 0.0
        frac = (self.cumulative(hi_eff, True) - self.cumulative(lo_eff, False)) * (
            self.depth / self.total
        )
        # Interpolation can miss point masses sitting exactly on bucket
        # bounds; an included endpoint contributes at least its equality
        # mass.
        if lo is not None and lo_inclusive:
            frac = max(frac, self.selectivity_eq(lo))
        if hi is not None and hi_inclusive:
            frac = max(frac, self.selectivity_eq(hi))
        # Half-open adjustments are below histogram resolution; clamp only.
        if not lo_inclusive and lo is not None:
            frac -= self.selectivity_eq(lo)
        if not hi_inclusive and hi is not None:
            frac -= self.selectivity_eq(hi)
        return min(1.0, max(0.0, frac))

    def cumulative(self, x: Any, upper: bool) -> float:
        """Buckets' worth of rows up to ``x``, taken as a range's upper
        or lower end: whole buckets by rank plus the covered share of
        the bucket ``x`` falls in.  ``bisect_left`` for a lower end and
        ``bisect_right`` for an upper one keep point buckets (one value
        filling a bucket) that sit exactly on an endpoint inside the
        closed range."""
        if upper:
            k = bisect.bisect_right(self.bounds, x)
            return k + self._edge(k, x, 1.0)
        k = bisect.bisect_left(self.bounds, x)
        return k + self._edge(k, x, 0.0)

    def closed_range_estimator(
        self, lows: Iterable[Any], highs: Iterable[Any], rows: float
    ) -> Callable[[Any, Any], float]:
        """``selectivity_range(lo, hi) * rows`` — closed, both ends given
        — for ranges whose lower end comes from ``lows`` and upper end
        from ``highs``, to the bit: what the estimate reads of an end (its
        :meth:`cumulative` as that end, its equality mass) is looked up
        once per distinct point, and a range combines two entries in
        O(1)."""
        lows, highs = set(lows), set(highs)
        try:
            mass = {x: self.selectivity_eq(x) for x in lows | highs}
            low_at = {x: (self.cumulative(x, False), mass[x]) for x in lows}
            high_at = {x: (self.cumulative(x, True), mass[x]) for x in highs}
        except TypeError:
            low_at = None  # points the column's values do not compare with
        if low_at is None or self.total == 0:
            return lambda lo, hi: 0.0 * rows
        scale = self.depth / self.total
        low, high = self.min_value, self.max_value

        def estimate(lo: Any, hi: Any) -> float:
            below, lo_mass = low_at[lo]
            if lo == hi:
                return lo_mass * rows
            if lo > high or hi < low or hi < lo:
                return 0.0 * rows
            upto, hi_mass = high_at[hi]
            return min(1.0, max(0.0, (upto - below) * scale, lo_mass, hi_mass)) * rows

        return estimate

    def _edge(self, k: int, x: Any, whole: float) -> float:
        """Share of bucket ``k`` lying left of ``x`` (uniform within the
        bucket).  Non-numeric buckets are all-or-nothing: ``whole`` says
        which — 1.0 on the ``hi`` side (the bucket ``hi`` falls in
        counts), 0.0 on the ``lo`` side (so does the one ``lo`` falls in).
        """
        bounds = self.bounds
        if k >= len(bounds):
            return 0.0
        bucket_lo = bounds[k - 1] if k else self.min_value
        bucket_hi = bounds[k]
        if not (
            isinstance(bucket_lo, _NUMERIC)
            and isinstance(bucket_hi, _NUMERIC)
            and isinstance(x, _NUMERIC)
        ):
            return whole
        span = float(bucket_hi) - float(bucket_lo)
        if span <= 0:
            return 0.0  # a point bucket is whole or absent; the ranks decide
        return min(1.0, max(0.0, (float(x) - float(bucket_lo)) / span))


@dataclass
class ColumnStats:
    name: str
    row_count: int
    null_count: int
    ndv: int
    histogram: EquiDepthHistogram | None
    #: |Pearson correlation| between column value and heap position,
    #: à la PostgreSQL's ``pg_stats.correlation``: 1.0 means rows with
    #: similar values sit on the same pages, so index scans touch few
    #: pages. 0.0 (unknown/non-numeric) falls back to Cardenas.
    correlation: float = 0.0

    @property
    def min_value(self) -> Any:
        return self.histogram.min_value if self.histogram else None

    @property
    def max_value(self) -> Any:
        return self.histogram.max_value if self.histogram else None

    def selectivity_eq(self, value: Any) -> float:
        if self.histogram is None:
            return 0.0
        return self.histogram.selectivity_eq(value)

    def selectivity_range(self, lo=None, hi=None, lo_inclusive=True, hi_inclusive=True) -> float:
        if self.histogram is None:
            return 0.0
        return self.histogram.selectivity_range(lo, hi, lo_inclusive, hi_inclusive)

    def selectivity_in(self, values: Sequence[Any]) -> float:
        return min(1.0, sum(self.selectivity_eq(v) for v in set(values)))


@dataclass
class TableStats:
    table_name: str
    row_count: int
    page_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name.lower())


def build_table_stats(table: HeapTable, buckets: int = DEFAULT_BUCKETS) -> TableStats:
    """Scan a table once and derive statistics for every column."""
    stats = TableStats(
        table_name=table.name,
        row_count=table.row_count,
        page_count=table.page_count,
    )
    for col in table.schema:
        values = [v for v in table.column_values(col.name) if v is not None]
        nulls = table.row_count - len(values)
        histogram = EquiDepthHistogram.build(values, buckets)
        stats.columns[col.name.lower()] = ColumnStats(
            name=col.name,
            row_count=table.row_count,
            null_count=nulls,
            ndv=len(set(values)),
            histogram=histogram,
            correlation=_heap_correlation(values),
        )
    return stats


def _heap_correlation(values: list[Any]) -> float:
    """|Pearson r| between value and heap position (numeric columns)."""
    n = len(values)
    if n < 3 or not isinstance(values[0], (int, float)) or isinstance(values[0], bool):
        return 0.0
    mean_pos = (n - 1) / 2.0
    mean_val = sum(values) / n
    cov = var_pos = var_val = 0.0
    for pos, val in enumerate(values):
        dp = pos - mean_pos
        dv = val - mean_val
        cov += dp * dv
        var_pos += dp * dp
        var_val += dv * dv
    if var_pos <= 0 or var_val <= 0:
        return 0.0
    return min(1.0, abs(cov) / (var_pos * var_val) ** 0.5)


class StatsCatalog:
    """Lazily-built, staleness-aware statistics for all tables."""

    def __init__(self, staleness_ratio: float = 0.2, buckets: int = DEFAULT_BUCKETS):
        self._stats: dict[str, TableStats] = {}
        self._rows_at_build: dict[str, int] = {}
        self.staleness_ratio = staleness_ratio
        self.buckets = buckets
        # Monotonic rebuild counter: anything caching planner output
        # (the plan cache) keys on this, so implicit staleness rebuilds
        # inside :meth:`get` invalidate cached plans exactly like an
        # explicit ANALYZE.
        self.version = 0

    def analyze(self, table: HeapTable) -> TableStats:
        """Force a rebuild (the SQL ``ANALYZE`` equivalent)."""
        stats = build_table_stats(table, self.buckets)
        key = table.name.lower()
        self._stats[key] = stats
        self._rows_at_build[key] = table.row_count
        self.version += 1
        return stats

    def get(self, table: HeapTable) -> TableStats:
        """Current stats, rebuilding when row count drifted too far."""
        key = table.name.lower()
        stats = self._stats.get(key)
        if stats is None:
            return self.analyze(table)
        built_at = self._rows_at_build.get(key, 0)
        drift = abs(table.row_count - built_at)
        if built_at == 0 or drift / max(1, built_at) > self.staleness_ratio:
            return self.analyze(table)
        return stats

    def invalidate(self, table_name: str) -> None:
        self._stats.pop(table_name.lower(), None)
        self._rows_at_build.pop(table_name.lower(), None)
        self.version += 1
