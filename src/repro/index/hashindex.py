"""Hash index: exact-match lookups only.

Used for columns that are only ever probed with equality (e.g. the
policy table's ``querier`` column).  The optimizer refuses to plan
range predicates against it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable


class HashIndex:
    """Equality-only secondary index."""

    kind = "hash"

    def __init__(self, name: str, table: str, column: str):
        self.name = name
        self.table = table
        self.column = column
        self._buckets: dict[Any, list[int]] = defaultdict(list)
        self._entry_count = 0
        self.node_visits = 0

    def __len__(self) -> int:
        return self._entry_count

    def insert(self, key: Any, rowid: int) -> None:
        self._buckets[key].append(rowid)
        self._entry_count += 1

    def delete(self, key: Any, rowid: int) -> bool:
        bucket = self._buckets.get(key)
        if not bucket:
            return False
        try:
            bucket.remove(rowid)
        except ValueError:
            return False
        if not bucket:
            del self._buckets[key]
        self._entry_count -= 1
        return True

    def search_eq(self, key: Any, counters: Any = None) -> list[int]:
        """One bucket visit, added to ``counters.index_node_visits``
        (this call's own; ``node_visits`` is the cumulative statistic)."""
        self.node_visits += 1
        if counters is not None:
            counters.index_node_visits += 1
        return list(self._buckets.get(key, ()))

    def search_in(self, keys: Iterable[Any]) -> list[int]:
        out: list[int] = []
        for key in keys:
            out.extend(self.search_eq(key))
        return out
