"""Data-tier replication for shard bring-up.

Sieve's cluster partitions the *policy* corpus by querier; the *data*
relations are replicated to every shard (any shard must be able to
execute any of its queriers' queries, and the datasets are the shared
substrate policies protect).  :func:`replicate_database` clones a
bundled-engine :class:`~repro.db.database.Database` — schema, rows,
indexes, statistics, engine mode — into a fresh instance a shard can
own outright, so shard execution never contends with (or corrupts)
another shard's heaps.

Sieve-internal relations (``sieve_policies`` / ``sieve_object_
conditions`` / ``sieve_protected`` — the base store's persistence,
which stays on the coordinator — and ``sieve_guarded_expressions`` / ``sieve_guards`` /
``sieve_guard_partitions``, which each shard's own
:class:`~repro.core.guard_store.GuardStore` re-creates for its
partition) are deliberately *not* copied.  UDFs are not copied either:
counted wrappers are bound to the source database's counters, and the
only middleware UDF (Δ) is re-registered by each shard's Sieve against
its own engine.

Rows are copied in scan order, which equals insertion order while the
source has no deleted rows — the dataset generators only insert, so a
replica's page layout (and therefore its page counters) is identical
to the source's.  A source with heap holes would replicate compacted;
the differential suite's counter identity assumes hole-free sources.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.guard_store import GE_TABLE, GUARD_TABLE, PARTITION_TABLE
from repro.db.database import Database
from repro.index.hashindex import HashIndex
from repro.policy.store import CONDITION_TABLE, POLICY_TABLE, PROTECTED_TABLE

#: Middleware-owned relations that must not follow the data to shards.
SIEVE_INTERNAL_TABLES = frozenset(
    name.lower()
    for name in (
        POLICY_TABLE, CONDITION_TABLE, PROTECTED_TABLE, GE_TABLE, GUARD_TABLE, PARTITION_TABLE
    )
)


def replicate_database(source: Database, skip_tables: Iterable[str] = ()) -> Database:
    """A deep copy of ``source``'s data tier for one shard.

    Copies every table (schema, rows, per-table page size), every
    index (kind and name preserved), and rebuilds statistics; skips
    the Sieve-internal tables plus any extra ``skip_tables``.
    """
    skip = SIEVE_INTERNAL_TABLES | {name.lower() for name in skip_tables}
    clone = Database(
        personality=source.personality,
        page_size=source.page_size,
        vectorized=source.vectorized,
    )
    for name in source.catalog.table_names():
        if name.lower() in skip:
            continue
        heap = source.catalog.table(name)
        clone.create_table(name, heap.schema, page_size=heap.page_size)
        clone.insert(name, (row for _rowid, row in heap.scan()))
        for index in source.catalog.indexes_on(name):
            kind = "hash" if isinstance(index, HashIndex) else "btree"
            clone.create_index(name, index.column, kind=kind, name=index.name)
    clone.analyze()
    return clone
