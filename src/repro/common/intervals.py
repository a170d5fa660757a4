"""Closed-interval arithmetic over orderable values.

Policy conditions are reasoned about as value ranges (see
``ObjectCondition.interval``): guard maintenance asks whether one lies
inside a guard's range, and policy factoring whether two can both hold.
Intervals are closed on both ends, matching the paper's ``[val1, val2]``
notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[lo, hi]`` over any consistently orderable type."""

    lo: Any
    hi: Any

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound {self.lo!r} > upper bound {self.hi!r}")

    def overlaps(self, other: "Interval") -> bool:
        """Return True when the two closed intervals share at least a point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo}, {self.hi}]"
