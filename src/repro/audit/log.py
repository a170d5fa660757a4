"""The append-only audit log and its cluster-merge helpers.

One :class:`AuditLog` holds one hash chain.  Appends chain under a
lock (linkage is inherently serial), but the serving tier never sits
on that lock per request: :class:`~repro.service.SieveServer` workers
register a *thread-local* buffer — a plain list, lock-free because it
is thread-confined and CPython list appends are atomic — and the
middleware's hot path does one ``list.append`` of a payload dict.
The same worker thread flushes its buffer into the chain after each
admission-queue batch, so chaining cost is amortized per batch, order
within a worker is preserved, and no cross-thread handoff exists
(nothing to lose under backpressure retries: a request either reached
the middleware — and recorded exactly once — or was rejected before
it).

Hot-path cost is O(1) per request by construction: the payload is
assembled from data the middleware already computed (the rewrite's
bookkeeping, the execution's counter deltas from
:mod:`repro.db.counters`) plus one digest pass over the result rows;
hashing happens at flush time.

Cluster logs (one chain per shard, chain id = shard name) merge via
:func:`merge_records`, which verifies each per-shard chain and
interleaves records deterministically by ``(chain, seq)`` —
verifiability is preserved because the merged sequence can always be
re-partitioned by chain id and re-verified (:func:`verify_merged`).
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping, Sequence

from repro.audit.record import (
    GENESIS_HASH,
    DecisionRecord,
    verify_chain,
)
from repro.common.errors import ChainVerificationError


class AuditLog:
    """One append-only, hash-chained decision log.

    It counts its own traffic: ``len(log)`` records chained, and
    :attr:`flushes` — the chaining passes that appended them (a worker
    buffer's flush, or one direct unbuffered append).
    """

    def __init__(self, chain_id: str = ""):
        self.chain_id = chain_id
        self.flushes = 0
        self._lock = threading.Lock()
        self._records: list[DecisionRecord] = []
        self._last_hash = GENESIS_HASH
        self._local = threading.local()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def last_hash(self) -> str:
        """The chain head — hand this to ``verify_chain(head=...)`` to
        make tail truncation detectable."""
        with self._lock:
            return self._last_hash

    # ------------------------------------------------------------- recording

    def record(self, payload: Mapping[str, Any]) -> None:
        """Record one decision payload (the middleware's entry point).

        On a registered worker thread this is a single list append;
        elsewhere the payload chains immediately (a bare ``Sieve``
        without a serving tier still gets a complete log).
        """
        buffer = getattr(self._local, "buffer", None)
        if buffer is not None:
            buffer.append(payload)
        else:
            self._chain([payload])

    def register_worker(self) -> None:
        """Give the calling thread a private buffer (idempotent).
        Called by :class:`~repro.service.SieveServer` workers on entry;
        the registering thread must also be the one flushing."""
        if getattr(self._local, "buffer", None) is None:
            self._local.buffer = []

    def flush_local(self) -> int:
        """Chain the calling thread's buffered payloads; returns how
        many were flushed.  No-op (0) for unregistered threads."""
        buffer = getattr(self._local, "buffer", None)
        if not buffer:
            return 0
        # Swap before chaining so a re-entrant record() during the
        # flush (there are none today, but cheap to be safe) cannot
        # interleave into the batch being written.
        self._local.buffer = []
        self._chain(buffer)
        return len(buffer)

    def unregister_worker(self) -> int:
        """Flush any remainder and drop the thread's buffer."""
        flushed = self.flush_local()
        self._local.buffer = None
        return flushed

    def _chain(self, payloads: Sequence[Mapping[str, Any]]) -> None:
        with self._lock:
            for payload in payloads:
                record = DecisionRecord.chained(
                    chain=self.chain_id,
                    seq=len(self._records),
                    prev_hash=self._last_hash,
                    payload=payload,
                )
                self._records.append(record)
                self._last_hash = record.record_hash
            self.flushes += 1

    # --------------------------------------------------------------- reading

    def records(self) -> list[DecisionRecord]:
        """A consistent copy of the chain so far (records themselves
        are frozen and shared)."""
        with self._lock:
            return list(self._records)

    def window(self, start: int = 0, end: int | None = None) -> list[DecisionRecord]:
        """A contiguous slice of the chain, for windowed replay."""
        with self._lock:
            return self._records[start:end]

    def verify(self) -> int:
        """Verify the whole chain against the live head; returns the
        record count.  Raises
        :class:`~repro.common.errors.ChainVerificationError`."""
        with self._lock:
            records = list(self._records)
            head = self._last_hash
        return verify_chain(records, chain=self.chain_id, head=head)


def merge_records(
    logs: "Mapping[str, Sequence[DecisionRecord]] | Iterable[AuditLog]",
) -> list[DecisionRecord]:
    """Merge per-shard chains into one deterministic sequence.

    Accepts either ``{chain_id: records}`` or an iterable of
    :class:`AuditLog`.  Every input chain is verified first (for live
    logs, against their heads — so a shard's tail truncation is caught
    at merge time), then records interleave ordered by
    ``(chain, seq)``.  The merge preserves verifiability: it is a
    disjoint union of intact chains, which :func:`verify_merged`
    re-partitions and re-checks.
    """
    merged: list[DecisionRecord] = []
    if isinstance(logs, Mapping):
        for chain_id, records in logs.items():
            verify_chain(list(records), chain=chain_id)
            merged.extend(records)
    else:
        for log in logs:
            log.verify()
            merged.extend(log.records())
    merged.sort(key=lambda r: (str(r.chain), r.seq))
    return merged


def verify_merged(records: Sequence[DecisionRecord]) -> int:
    """Verify a merged log: each chain id's sub-sequence must be a
    complete, intact chain (contiguous from seq 0, unbroken linkage,
    all hashes recomputing).  Returns the total records checked."""
    by_chain: dict[str, list[DecisionRecord]] = {}
    for record in records:
        by_chain.setdefault(record.chain, []).append(record)
    total = 0
    for chain_id, chain_records in by_chain.items():
        chain_records.sort(key=lambda r: r.seq)
        total += verify_chain(chain_records, chain=chain_id)
    if total != len(records):
        raise ChainVerificationError(
            f"merged log holds {len(records)} records but only {total} verified"
        )
    return total
