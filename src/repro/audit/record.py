"""Hash-chained decision records (the audit tier's unit of evidence).

A :class:`DecisionRecord` captures everything needed to re-check one
enforcement decision after the fact: who asked (querier, purpose),
what they asked (the SQL text), against which corpus version (the
policy epoch pinned by the request's
:class:`~repro.policy.store.PolicySnapshot`), what the middleware
decided (strategy per relation, guards materialized, Δ guard set,
denied relations), and what came out (rows admitted/denied, a digest
of the result rows, and the enforcement-counter deltas charged by the
execution).

Records form an append-only blake2b hash chain: record *i* carries
``prev_hash`` = record *i-1*'s ``record_hash``, and ``record_hash``
covers the chain id, sequence number, ``prev_hash`` and the canonical
JSON of the decision payload.  :func:`verify_chain` therefore detects
any single-record tamper, reorder, insertion, or interior truncation;
tail truncation is detected when the caller supplies the live log's
``head`` hash (an append-only file alone cannot know its own end —
the head pointer lives with the :class:`~repro.audit.log.AuditLog`).

The payload is canonical JSON (sorted keys, no whitespace) so hashing
is byte-stable across processes and a record round-trips losslessly
through :meth:`DecisionRecord.to_dict` / :meth:`DecisionRecord.from_dict`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.common.errors import ChainVerificationError

#: Hash of the empty chain — what the first record's ``prev_hash`` is.
GENESIS_HASH = "0" * 32

#: Counters whose per-request deltas a record captures: every engine
#: counter but ``batches``, which describes how the batch executor cut
#: the scan rather than the work done.  Nothing auditing does ticks a
#: counter, so audited and unaudited runs record identical deltas.
AUDIT_COUNTERS = (
    "pages_sequential",
    "pages_random",
    "pages_bitmap",
    "tuples_scanned",
    "tuples_output",
    "predicate_evals",
    "policy_evals",
    "index_node_visits",
    "udf_invocations",
    "udf_policy_evals",
    "backend_queries",
    "backend_rows",
)


def canonicalize(value: Any) -> Any:
    """Normalize a payload value to the canonical JSON-stable form.

    Tuples/sets become sorted-where-unordered lists, mapping keys
    become strings (JSON object keys always are), and non-JSON scalars
    fall back to ``str`` — so ``from_dict(to_dict(r)) == r`` holds and
    hashing never depends on Python-side container types.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Mapping):
        return {str(k): canonicalize(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((canonicalize(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    return str(value)


def canonical_json(payload: Mapping[str, Any]) -> str:
    """Byte-stable serialization used for hashing and persistence."""
    return json.dumps(
        canonicalize(payload), sort_keys=True, separators=(",", ":"), default=str
    )


def result_digest(rows: Iterable[Sequence[Any]]) -> str:
    """Order-insensitive digest of a result's rows.

    Row order is engine- and plan-dependent (the differential suites
    compare ``sorted(rows)`` for the same reason), so the digest sorts
    first — replay on a different engine mode must still match.
    """
    digest = hashlib.blake2b(digest_size=16)
    for row in sorted(rows, key=repr):
        digest.update(repr(row).encode())
        digest.update(b"\x1e")  # record separator: no row-boundary ambiguity
    return digest.hexdigest()


def record_hash(chain: str, seq: int, prev_hash: str, payload: Mapping[str, Any]) -> str:
    """The chained hash: covers position (chain, seq), linkage
    (prev_hash) and content (canonical payload JSON)."""
    message = canonical_json(
        {"chain": chain, "seq": seq, "prev_hash": prev_hash, "payload": payload}
    )
    return hashlib.blake2b(message.encode(), digest_size=16).hexdigest()


@dataclass(frozen=True)
class DecisionRecord:
    """One enforcement decision, chained to its predecessor.

    ``payload`` is the canonicalized decision content (see
    :func:`make_payload` for the schema); ``seq``/``chain``/
    ``prev_hash``/``record_hash`` are the chain envelope.  Frozen:
    records are evidence, not working state.
    """

    seq: int
    chain: str
    prev_hash: str
    record_hash: str
    payload: Mapping[str, Any]

    # Convenience accessors over the payload schema.
    @property
    def querier(self) -> Any:
        return self.payload["querier"]

    @property
    def purpose(self) -> str:
        return self.payload["purpose"]

    @property
    def sql(self) -> str:
        return self.payload["sql"]

    @property
    def policy_epoch(self) -> int:
        return self.payload["policy_epoch"]

    @property
    def engine(self) -> str:
        return self.payload["engine"]

    @property
    def rows_admitted(self) -> int:
        return self.payload["rows_admitted"]

    @property
    def rows_denied(self) -> int:
        return self.payload["rows_denied"]

    @property
    def counters(self) -> Mapping[str, int]:
        return self.payload["counters"]

    @property
    def denied_tables(self) -> Sequence[str]:
        return self.payload["denied_tables"]

    def decision_view(self, include_counters: bool = True) -> dict[str, Any]:
        """The replay-comparable part of the payload (everything; minus
        the counter deltas when the caller cannot hold them fixed).
        The trace id is always dropped: it names one live execution,
        so a (bit-identical) replay necessarily produces a different
        one."""
        view = dict(self.payload)
        view.pop("trace_id", None)
        if not include_counters:
            view.pop("counters", None)
        return view

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "chain": self.chain,
            "prev_hash": self.prev_hash,
            "record_hash": self.record_hash,
            "payload": canonicalize(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DecisionRecord":
        return cls(
            seq=int(data["seq"]),
            chain=data["chain"],
            prev_hash=data["prev_hash"],
            record_hash=data["record_hash"],
            payload=canonicalize(data["payload"]),
        )

    @classmethod
    def chained(
        cls, chain: str, seq: int, prev_hash: str, payload: Mapping[str, Any]
    ) -> "DecisionRecord":
        """Build a record with its hash computed over the canonical
        payload (the only constructor the log uses)."""
        canonical = canonicalize(payload)
        return cls(
            seq=seq,
            chain=chain,
            prev_hash=prev_hash,
            record_hash=record_hash(chain, seq, prev_hash, canonical),
            payload=canonical,
        )


def make_payload(
    *,
    querier: Any,
    purpose: str,
    sql: str,
    policy_epoch: int,
    engine: str,
    strategies: Mapping[str, Any],
    guards_fired: Mapping[str, Sequence[str]],
    delta_guards: Mapping[str, Sequence[int]],
    denied_tables: Sequence[str],
    rows_admitted: int,
    rows_denied: int,
    digest: str,
    counters: Mapping[str, int],
    trace_id: str = "",
) -> dict[str, Any]:
    """Assemble the canonical decision payload.

    ``strategies`` maps relation → strategy name; ``guards_fired``
    maps relation → the guard keys materialized into the rewrite;
    ``delta_guards`` maps relation → guard indexes routed through the
    Δ UDF.  ``rows_denied`` is the execution's scanned-minus-output
    tuple count — the engine-level measure of what enforcement
    filtered (0 for backend executions, whose scans happen off-engine).
    ``trace_id`` correlates the record with the observability tier's
    span tree for the same execution ("" when tracing is off); it is
    excluded from :meth:`DecisionRecord.decision_view` so replay
    comparisons ignore it.
    """
    return canonicalize(
        {
            "querier": querier,
            "purpose": purpose,
            "sql": sql,
            "policy_epoch": policy_epoch,
            "engine": engine,
            "strategies": strategies,
            "guards_fired": guards_fired,
            "delta_guards": delta_guards,
            "denied_tables": sorted(denied_tables),
            "rows_admitted": rows_admitted,
            "rows_denied": rows_denied,
            "result_digest": digest,
            "counters": {name: int(counters.get(name, 0)) for name in AUDIT_COUNTERS},
            "trace_id": trace_id,
        }
    )


def verify_chain(
    records: Sequence[DecisionRecord],
    chain: str | None = None,
    head: str | None = None,
) -> int:
    """Verify an entire chain; returns the number of records checked.

    Checks, in order: every record belongs to the expected chain,
    sequence numbers are contiguous from 0, ``prev_hash`` linkage is
    intact starting at :data:`GENESIS_HASH`, every ``record_hash``
    recomputes from its content, and — when ``head`` is given (the
    live log's last hash) — the final record is the head.  Raises
    :class:`~repro.common.errors.ChainVerificationError` on the first
    violation.
    """
    if chain is None and records:
        chain = records[0].chain
    prev = GENESIS_HASH
    for index, record in enumerate(records):
        if record.chain != chain:
            raise ChainVerificationError(
                f"record {index} belongs to chain {record.chain!r}, expected {chain!r}"
            )
        if record.seq != index:
            raise ChainVerificationError(
                f"chain {chain!r}: record at position {index} carries seq "
                f"{record.seq} (reorder or truncation)"
            )
        if record.prev_hash != prev:
            raise ChainVerificationError(
                f"chain {chain!r}: record {index} links to {record.prev_hash[:8]}…, "
                f"expected {prev[:8]}… (broken linkage)"
            )
        expected = record_hash(record.chain, record.seq, record.prev_hash, record.payload)
        if record.record_hash != expected:
            raise ChainVerificationError(
                f"chain {chain!r}: record {index} hash mismatch (content tampered)"
            )
        prev = record.record_hash
    if head is not None and prev != head:
        raise ChainVerificationError(
            f"chain {chain!r}: head is {prev[:8]}…, log attests {head[:8]}… "
            f"(tail truncation)"
        )
    return len(records)
