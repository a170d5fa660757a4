"""The audit tier's unit gate: tamper-evidence, schema round-trips,
zero enforcement overhead, and row-level explanations.

The hash-chain properties are stated as hypothesis properties over
arbitrary windows: *any* single-record content tamper, reorder,
interior truncation, or cross-chain splice must raise
``ChainVerificationError``; tail truncation is detectable exactly when
the verifier holds the live log's head hash.  The overhead guard pins
the design invariant that auditing a run changes no enforcement
counter — the recorded deltas are the same numbers an unaudited run
charges, which is what lets the differential suites compare them.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.audit import (
    AUDIT_COUNTERS,
    GENESIS_HASH,
    AuditLog,
    DecisionRecord,
    canonical_json,
    canonicalize,
    make_payload,
    merge_records,
    record_hash,
    result_digest,
    verify_chain,
    verify_merged,
)
from repro.common.errors import ChainVerificationError, SieveError
from repro.core import Sieve
from repro.policy.groups import GroupDirectory
from repro.policy.store import PolicyStore

from tests.conftest import (
    WIFI_COLUMNS,
    brute_force_allowed,
    make_policies,
    make_wifi_db,
)


def _payload(i: int) -> dict:
    """A synthetic but schema-complete decision payload."""
    return make_payload(
        querier=f"querier-{i % 3}",
        purpose="analytics",
        sql=f"SELECT * FROM wifi WHERE ts_date = {i}",
        policy_epoch=10 + i % 2,
        engine="vectorized",
        strategies={"wifi": "LinearScan"},
        guards_fired={"wifi": (f"q|p|wifi|{i % 4}",)},
        delta_guards={"wifi": [i % 2]},
        denied_tables=(),
        rows_admitted=i * 7 % 50,
        rows_denied=i * 3 % 20,
        digest=result_digest([(i, i + 1)]),
        counters={"tuples_scanned": 100 + i, "tuples_output": 40 + i},
    )


def _chain_of(n: int, chain_id: str = "c") -> AuditLog:
    log = AuditLog(chain_id=chain_id)
    for i in range(n):
        log.record(_payload(i))
    return log


# ------------------------------------------------------- chain properties


class TestChainTamperEvidence:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 8), data=st.data())
    def test_any_single_record_content_tamper_detected(self, n, data):
        log = _chain_of(n)
        records = log.records()
        idx = data.draw(st.integers(0, n - 1))
        field = data.draw(
            st.sampled_from(
                ["rows_admitted", "querier", "policy_epoch", "result_digest"]
            )
        )
        tampered_payload = dict(records[idx].payload)
        tampered_payload[field] = (
            "evil" if isinstance(tampered_payload[field], str)
            else tampered_payload[field] + 1
        )
        records[idx] = dataclasses.replace(records[idx], payload=tampered_payload)
        with pytest.raises(ChainVerificationError, match="tampered"):
            verify_chain(records, head=log.last_hash)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 8), data=st.data())
    def test_any_reorder_detected(self, n, data):
        log = _chain_of(n)
        records = log.records()
        i = data.draw(st.integers(0, n - 2))
        j = data.draw(st.integers(i + 1, n - 1))
        records[i], records[j] = records[j], records[i]
        with pytest.raises(ChainVerificationError):
            verify_chain(records, head=log.last_hash)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 8), data=st.data())
    def test_any_interior_truncation_detected(self, n, data):
        log = _chain_of(n)
        records = log.records()
        idx = data.draw(st.integers(0, n - 2))  # never the tail
        del records[idx]
        with pytest.raises(ChainVerificationError):
            verify_chain(records)  # even without the head hash

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 8))
    def test_tail_truncation_needs_the_head_hash(self, n):
        log = _chain_of(n)
        truncated = log.records()[:-1]
        # An append-only prefix is self-consistent ...
        assert verify_chain(truncated) == n - 1
        # ... so only the live head pointer exposes the missing tail.
        with pytest.raises(ChainVerificationError, match="tail truncation"):
            verify_chain(truncated, head=log.last_hash)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 6))
    def test_duplicate_insertion_detected(self, n):
        log = _chain_of(n)
        records = log.records()
        records.append(records[-1])  # replayed/duplicated record
        with pytest.raises(ChainVerificationError):
            verify_chain(records)

    def test_cross_chain_splice_detected(self):
        a, b = _chain_of(3, "shard-a"), _chain_of(3, "shard-b")
        spliced = a.records()[:2] + [b.records()[2]]
        with pytest.raises(ChainVerificationError, match="belongs to chain"):
            verify_chain(spliced, chain="shard-a")

    def test_intact_chain_verifies_and_links_from_genesis(self):
        log = _chain_of(5)
        records = log.records()
        assert records[0].prev_hash == GENESIS_HASH
        for prev, rec in zip(records, records[1:]):
            assert rec.prev_hash == prev.record_hash
        assert verify_chain(records, head=log.last_hash) == 5
        assert log.verify() == 5


# --------------------------------------------------------- record schema


class TestRecordSchema:
    def test_round_trip_through_json_is_lossless(self):
        log = _chain_of(4, "rt")
        for record in log.records():
            wire = json.loads(json.dumps(record.to_dict()))
            back = DecisionRecord.from_dict(wire)
            assert back == record
        restored = [
            DecisionRecord.from_dict(json.loads(json.dumps(r.to_dict())))
            for r in log.records()
        ]
        assert verify_chain(restored, head=log.last_hash) == 4

    def test_canonicalization_is_container_insensitive(self):
        as_tuple = {"g": ("a", "b"), "s": {2, 1}, "n": {"k": (1,)}}
        as_list = {"g": ["a", "b"], "s": [1, 2], "n": {"k": [1]}}
        assert canonical_json(as_tuple) == canonical_json(as_list)
        assert record_hash("c", 0, GENESIS_HASH, canonicalize(as_tuple)) == record_hash(
            "c", 0, GENESIS_HASH, canonicalize(as_list)
        )

    def test_result_digest_is_order_insensitive_and_boundary_safe(self):
        rows = [(1, "ab"), (2, "cd")]
        assert result_digest(rows) == result_digest(list(reversed(rows)))
        assert result_digest([(1, "ab")]) != result_digest([(1, "a"), ("b",)])
        assert result_digest([]) != result_digest([()])

    def test_payload_counters_restricted_to_audit_set(self):
        payload = _payload(0)
        assert set(payload["counters"]) == set(AUDIT_COUNTERS)
        assert "batches" not in payload["counters"]

    def test_record_accessors_mirror_payload(self):
        record = _chain_of(1).records()[0]
        assert record.querier == "querier-0"
        assert record.engine == "vectorized"
        assert record.policy_epoch == 10
        view = record.decision_view(include_counters=False)
        assert "counters" not in view and view["sql"] == record.sql


# ---------------------------------------------------- log buffering/merge


class TestAuditLogBuffering:
    def test_unbuffered_record_chains_immediately(self):
        log = AuditLog(chain_id="direct")
        log.record(_payload(0))
        assert len(log) == 1 and log.verify() == 1

    def test_worker_buffer_defers_until_flush(self):
        log = AuditLog(chain_id="buffered")
        log.register_worker()
        for i in range(3):
            log.record(_payload(i))
        assert len(log) == 0  # buffered, not chained
        assert log.flush_local() == 3
        assert log.verify() == 3
        log.record(_payload(3))
        assert len(log) == 3  # still registered: buffered again
        assert log.unregister_worker() == 1  # remainder flushed on exit
        assert log.verify() == 4
        log.record(_payload(4))  # unregistered: direct chaining again
        assert log.verify() == 5

    def test_worker_buffers_are_thread_confined(self):
        log = AuditLog(chain_id="mt")
        n, per = 4, 25
        barrier = threading.Barrier(n)

        def worker(k):
            log.register_worker()
            barrier.wait()
            for i in range(per):
                log.record(_payload(k * per + i))
                if i % 7 == 0:
                    log.flush_local()
            log.unregister_worker()

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert log.verify() == n * per
        queriers = [r.sql for r in log.records()]
        assert len(set(queriers)) == n * per  # no loss, no duplicates

    def test_merge_preserves_verifiability_and_determinism(self):
        logs = [_chain_of(4, "shard-a"), _chain_of(3, "shard-b")]
        merged = merge_records(logs)
        assert len(merged) == 7
        assert verify_merged(merged) == 7
        assert merged == merge_records({log.chain_id: log.records() for log in logs})
        tampered = list(merged)
        bad = dict(tampered[2].payload)
        bad["rows_admitted"] = 999
        tampered[2] = dataclasses.replace(tampered[2], payload=bad)
        with pytest.raises(ChainVerificationError):
            verify_merged(tampered)
        with pytest.raises(ChainVerificationError):
            verify_merged(merged[1:])  # a shard chain missing its seq 0


# ------------------------------------------------------- overhead guard


class TestAuditOverhead:
    def test_audited_run_charges_identical_enforcement_counters(self):
        """The O(1)-overhead claim, stated on the counters themselves:
        two identically-seeded worlds run the same workload with and
        without auditing, and the full counter deltas are identical —
        the log counts its own records."""
        queries = [
            "SELECT * FROM wifi WHERE ts_date BETWEEN 10 AND 70",
            "SELECT id, owner FROM wifi WHERE wifiap = 3",
            "SELECT count(*) AS n FROM wifi",
        ]

        def run(audited: bool):
            db, _rows = make_wifi_db(seed=23)
            store = PolicyStore(db, GroupDirectory())
            store.insert_many(make_policies(seed=24))
            sieve = Sieve(db, store)
            log = sieve.enable_audit() if audited else None
            before = db.counters.snapshot()
            for sql in queries:
                for querier in ("prof", "stranger"):
                    sieve.execute(sql, querier, "analytics")
            return db.counters.diff(before), log

        (audited, log), (unaudited, _) = run(True), run(False)
        assert len(log) == 6 and log.flushes == 6  # unbuffered: one pass per record
        assert audited == unaudited


# ------------------------------------------------------------- explain


class TestExplain:
    @pytest.fixture()
    def world(self):
        db, rows = make_wifi_db(seed=31)
        store = PolicyStore(db, GroupDirectory())
        store.insert_many(make_policies(seed=32))
        return db, rows, store, Sieve(db, store)

    def test_explanations_match_brute_force_for_every_row(self, world):
        db, rows, store, sieve = world
        policies = store.policies_for("prof", "analytics", "wifi")
        allowed = {r[0] for r in brute_force_allowed(rows, policies)}
        for row in rows[:120]:
            explanation = sieve.explain_decision("prof", "wifi", row, "analytics")
            assert explanation.admitted == (row[0] in allowed), explanation.describe()
            if explanation.admitted:
                for pid in explanation.matched_policies:
                    policy = store.get(pid)
                    assert brute_force_allowed([row], [policy]) == [row]

    def test_denial_names_failing_conditions(self, world):
        db, rows, store, sieve = world
        policies = store.policies_for("prof", "analytics", "wifi")
        allowed = {r[0] for r in brute_force_allowed(rows, policies)}
        denied_row = next(r for r in rows if r[0] not in allowed)
        explanation = sieve.explain_denial("prof", "wifi", denied_row, "analytics")
        assert not explanation.admitted
        assert explanation.policies_considered == len(policies)
        for guard in explanation.guards:
            for trace in guard.policies:
                assert not trace.matched and trace.failed_conditions
        assert "DENIED" in explanation.describe()

    def test_admission_names_matching_policies_and_guards(self, world):
        db, rows, store, sieve = world
        policies = store.policies_for("prof", "analytics", "wifi")
        admitted_row = brute_force_allowed(rows, policies)[0]
        explanation = sieve.explain_admission("prof", "wifi", admitted_row, "analytics")
        assert explanation.admitted and explanation.matched_policies
        assert explanation.matched_guards
        assert "ADMITTED" in explanation.describe()

    def test_wrong_direction_raises(self, world):
        db, rows, store, sieve = world
        policies = store.policies_for("prof", "analytics", "wifi")
        allowed = {r[0] for r in brute_force_allowed(rows, policies)}
        admitted_row = next(r for r in rows if r[0] in allowed)
        denied_row = next(r for r in rows if r[0] not in allowed)
        with pytest.raises(SieveError, match="admitted"):
            sieve.explain_denial("prof", "wifi", admitted_row, "analytics")
        with pytest.raises(SieveError, match="denied"):
            sieve.explain_admission("prof", "wifi", denied_row, "analytics")

    def test_default_deny_for_querier_without_policies(self, world):
        db, rows, store, sieve = world
        explanation = sieve.explain_denial("stranger", "wifi", rows[0], "analytics")
        assert not explanation.admitted
        assert explanation.policies_considered == 0
        assert "default deny" in explanation.reason

    def test_row_accepted_as_mapping_with_any_casing(self, world):
        db, rows, store, sieve = world
        row = rows[0]
        as_mapping = {c.upper(): v for c, v in zip(WIFI_COLUMNS, row)}
        by_seq = sieve.explain_decision("prof", "wifi", row, "analytics")
        by_map = sieve.explain_decision("prof", "wifi", as_mapping, "analytics")
        assert by_seq.admitted == by_map.admitted
        assert by_seq.matched_policies == by_map.matched_policies

    def test_explain_target_via_query_text(self, world):
        db, rows, store, sieve = world
        explanation = sieve.explain_decision(
            "prof", "SELECT * FROM wifi WHERE ts_date > 5", rows[0], "analytics"
        )
        assert explanation.table == "wifi"
