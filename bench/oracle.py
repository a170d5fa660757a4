"""Independent oracle: what a querier may see, computed without Sieve.

For one (querier, policy set) the allowed rows of the protected relation
are found by evaluating every policy on every row in plain Python
(default deny: a row no policy admits is dropped).  The *original*,
unprotected SQL then runs over that subset in an in-memory SQLite — a
different engine from the one under test — and results are compared as
multisets.  Unprotected relations are visible in full.
"""

from __future__ import annotations

import sqlite3
from collections import Counter, defaultdict

from bench.workloads import TABLE, PolicySpec


class Oracle:
    def __init__(self, tables: dict[str, tuple[list[str], list[tuple]]]):
        """``tables``: name → (column names, rows), copied out of the
        loaded database before any policy exists."""
        self.tables = tables
        self._dbs: dict[tuple, tuple] = {}
        self._expected: dict[tuple, Counter] = {}

    def allowed_rows(self, querier: str, policies: tuple[PolicySpec, ...]) -> list[tuple]:
        columns, rows = self.tables[TABLE]
        owner_at = columns.index("owner")
        by_owner: dict[int, list[list[tuple[int, int, int]]]] = defaultdict(list)
        for policy in policies:
            if policy.querier == querier:
                by_owner[policy.owner].append(
                    [(columns.index(attr), lo, hi) for attr, lo, hi in policy.ranges]
                )
        return [
            row
            for row in rows
            if any(
                all(lo <= row[at] <= hi for at, lo, hi in ranges)
                for ranges in by_owner.get(row[owner_at], ())
            )
        ]

    def _db(self, querier: str, policies: tuple[PolicySpec, ...]) -> sqlite3.Connection:
        key = (querier, id(policies))
        if key not in self._dbs:
            conn = sqlite3.connect(":memory:")
            for name, (columns, rows) in self.tables.items():
                if name == TABLE:
                    rows = self.allowed_rows(querier, policies)
                conn.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
                conn.executemany(
                    f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})", rows
                )
            # Holding ``policies`` keeps its id() from being reused.
            self._dbs[key] = (policies, conn)
        return self._dbs[key][1]

    def matches(self, querier: str, policies: tuple[PolicySpec, ...], sql: str, rows) -> bool:
        key = (querier, id(policies), sql)
        if key not in self._expected:
            self._expected[key] = Counter(self._db(querier, policies).execute(sql).fetchall())
        return Counter(map(tuple, rows)) == self._expected[key]

    @property
    def distinct_checked(self) -> int:
        return len(self._expected)

    def close(self) -> None:
        for _policies, conn in self._dbs.values():
            conn.close()
        self._dbs.clear()
