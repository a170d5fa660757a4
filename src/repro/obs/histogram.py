"""Log-bucketed, exactly-mergeable latency histograms.

Percentiles of a merged population are *not* recoverable from
per-shard percentiles — count-weighting per-shard quantiles is exact
for homogeneous shards and silently wrong the moment one shard is slow
(precisely the case the health tier must detect) — so every latency
population the serving tier keeps is a :class:`LatencyHistogram`, the
standard log-bucketed design (HdrHistogram / DDSketch family):

* **buckets** — bucket 0 holds every value ``<= base_ms``; bucket
  ``i >= 1`` covers ``(base_ms * growth**(i-1), base_ms * growth**i]``.
  Counts live in a sparse dict, so memory is O(distinct buckets), not
  O(samples), and never ages out.
* **exact merging** — two histograms with the same ``(base_ms,
  growth)`` merge by adding bucket counts.  ``merge(split(xs)) ==
  histogram(xs)`` *exactly*, bucket for bucket (and hence identical
  quantiles) — the property the cluster's latency roll-up leans on.  The one caveat: ``sum_ms`` is a float
  accumulator, so merged vs direct sums agree only up to float
  addition order (last-ulp, not bucket, differences).
* **error-bounded quantiles** — a bucket reports its geometric
  midpoint ``sqrt(lo * hi)``, so any reported value is within a
  relative factor ``sqrt(growth)`` of the true sample:
  ``|reported - v| / v <= sqrt(growth) - 1`` (:attr:`relative_error`,
  ~2.5% at the default ``growth = 1.05``), plus an absolute
  ``base_ms`` floor for sub-``base_ms`` samples (1 microsecond by
  default — noise at serving latencies).  ``count``/``sum``/``min``/
  ``max`` (hence the mean) are exact.

:meth:`percentile` follows the exact sorted-sample definition — ``q``
in 0..100, clamped, 0.0 when empty, linear interpolation between the
neighboring ranks (here: their bucket representatives) — so the
histogram-backed ``LatencySummary`` agrees with the exact one within
the documented bound (pinned by ``tests/test_obs_histogram.py``'s
hypothesis property against its own exact reference).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

__all__ = ["LatencyHistogram", "DEFAULT_GROWTH", "DEFAULT_BASE_MS"]

#: Per-bucket growth factor: ~2.5% worst-case relative quantile error.
DEFAULT_GROWTH = 1.05
#: Resolution floor, in milliseconds (1 microsecond).
DEFAULT_BASE_MS = 1e-3


class LatencyHistogram:
    """Sparse log-bucketed histogram of latencies in milliseconds."""

    __slots__ = (
        "base_ms",
        "growth",
        "_log_growth",
        "_counts",
        "count",
        "sum_ms",
        "min_ms",
        "max_ms",
    )

    def __init__(self, growth: float = DEFAULT_GROWTH, base_ms: float = DEFAULT_BASE_MS):
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        if base_ms <= 0.0:
            raise ValueError("base_ms must be positive")
        self.base_ms = base_ms
        self.growth = growth
        self._log_growth = math.log(growth)
        self._counts: dict[int, int] = {}
        self.count = 0
        self.sum_ms = 0.0
        self.min_ms = math.inf
        self.max_ms = 0.0

    # -------------------------------------------------------------- recording

    def record_ms(self, ms: float) -> None:
        """Record one latency (milliseconds).  One dict increment."""
        idx = self._index(ms)
        self._counts[idx] = self._counts.get(idx, 0) + 1
        self.count += 1
        self.sum_ms += ms
        if ms < self.min_ms:
            self.min_ms = ms
        if ms > self.max_ms:
            self.max_ms = ms

    def record_seconds(self, seconds: float) -> None:
        self.record_ms(seconds * 1000.0)

    def _index(self, ms: float) -> int:
        if ms <= self.base_ms:
            return 0
        # ceil puts an exact boundary value base*g**k into bucket k
        # (buckets are lower-open, upper-closed).  The tiny epsilon
        # keeps float log of an exact boundary from landing one up.
        return max(1, math.ceil(math.log(ms / self.base_ms) / self._log_growth - 1e-9))

    # ---------------------------------------------------------------- merging

    def add(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Merge ``other`` into self (exact).  Same bucketing required."""
        if (other.base_ms, other.growth) != (self.base_ms, self.growth):
            raise ValueError(
                "cannot merge histograms with different bucketing: "
                f"({self.base_ms}, {self.growth}) vs ({other.base_ms}, {other.growth})"
            )
        for idx, n in other._counts.items():
            self._counts[idx] = self._counts.get(idx, 0) + n
        self.count += other.count
        self.sum_ms += other.sum_ms
        self.min_ms = min(self.min_ms, other.min_ms)
        self.max_ms = max(self.max_ms, other.max_ms)
        return self

    @classmethod
    def merge(cls, histograms: "Iterable[LatencyHistogram]") -> "LatencyHistogram":
        """One histogram holding every input's population, exactly."""
        histograms = list(histograms)
        if not histograms:
            return cls()
        out = histograms[0].copy()
        for hist in histograms[1:]:
            out.add(hist)
        return out

    def copy(self) -> "LatencyHistogram":
        out = LatencyHistogram(growth=self.growth, base_ms=self.base_ms)
        out._counts = dict(self._counts)
        out.count = self.count
        out.sum_ms = self.sum_ms
        out.min_ms = self.min_ms
        out.max_ms = self.max_ms
        return out

    # -------------------------------------------------------------- quantiles

    @property
    def relative_error(self) -> float:
        """Worst-case relative quantile error: ``sqrt(growth) - 1``."""
        return math.sqrt(self.growth) - 1.0

    @property
    def mean_ms(self) -> float:
        return self.sum_ms / self.count if self.count else 0.0

    def _representative(self, idx: int) -> float:
        if idx == 0:
            value = self.base_ms
        else:
            # Geometric midpoint of (base*g**(i-1), base*g**i].
            value = self.base_ms * self.growth ** (idx - 0.5)
        # Clamping into the exact observed range only reduces error.
        return min(max(value, self.min_ms), self.max_ms)

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100), linearly interpolated between
        the neighboring ranks' bucket representatives; 0.0 when empty."""
        if not self.count:
            return 0.0
        q = min(100.0, max(0.0, q))
        rank = (q / 100.0) * (self.count - 1)
        lo = int(rank)
        hi = min(lo + 1, self.count - 1)
        frac = rank - lo
        lo_value = hi_value = None
        cumulative = 0
        for idx in sorted(self._counts):
            cumulative += self._counts[idx]
            if lo_value is None and cumulative > lo:
                lo_value = self._representative(idx)
            if cumulative > hi:
                hi_value = self._representative(idx)
                break
        assert lo_value is not None and hi_value is not None
        return lo_value * (1.0 - frac) + hi_value * frac

    # ------------------------------------------------------------- exposition

    def summary_dict(self) -> dict[str, float]:
        """The ``LatencySummary.to_dict()`` shape, histogram-derived."""
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.percentile(50),
            "p95_ms": self.percentile(95),
            "p99_ms": self.percentile(99),
        }

    def to_dict(self) -> dict[str, object]:
        """JSON/wire form; :meth:`from_dict` round-trips it exactly."""
        return {
            "base_ms": self.base_ms,
            "growth": self.growth,
            "count": self.count,
            "sum_ms": self.sum_ms,
            "min_ms": self.min_ms if self.count else None,
            "max_ms": self.max_ms if self.count else None,
            "counts": {str(idx): n for idx, n in sorted(self._counts.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "LatencyHistogram":
        out = cls(growth=float(data["growth"]), base_ms=float(data["base_ms"]))
        out._counts = {int(k): int(v) for k, v in dict(data["counts"]).items()}  # type: ignore[arg-type]
        out.count = int(data["count"])  # type: ignore[arg-type]
        out.sum_ms = float(data["sum_ms"])  # type: ignore[arg-type]
        out.min_ms = math.inf if data.get("min_ms") is None else float(data["min_ms"])  # type: ignore[arg-type]
        out.max_ms = 0.0 if data.get("max_ms") is None else float(data["max_ms"])  # type: ignore[arg-type]
        return out

    def buckets(self) -> list[tuple[float, float, int]]:
        """(lower_ms, upper_ms, count) per populated bucket, ascending
        — the text dashboard's bar-chart source."""
        out = []
        for idx in sorted(self._counts):
            if idx == 0:
                lower, upper = 0.0, self.base_ms
            else:
                lower = self.base_ms * self.growth ** (idx - 1)
                upper = self.base_ms * self.growth**idx
            out.append((lower, upper, self._counts[idx]))
        return out

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram(count={self.count}, mean_ms={self.mean_ms:.3f}, "
            f"p99_ms={self.percentile(99):.3f}, buckets={len(self._counts)})"
        )
