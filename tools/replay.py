"""Replay a logged decision window against its pinned policy epochs.

The audit tier's closing argument: a window of
:class:`~repro.audit.DecisionRecord`\\ s re-executes on a replica of
the data tier, each record against the *exact* corpus view its
``policy_epoch`` names (:meth:`PolicyStore.snapshot_at
<repro.policy.store.PolicyStore.snapshot_at>`, frozen behind a
:class:`~repro.policy.store.PinnedPolicyStore`), and every replayed
decision must be bit-identical — strategies, guards fired, Δ guard
sets, denied relations, row counts, result digest, and (when the
caller holds the engine fixed, the default) the enforcement-counter
deltas.  Later policy churn on the live store is invisible to the
replay, which is exactly what epoch pinning buys.

Library use::

    report = replay_records(log.records(), store)
    assert report.ok, report.describe()

As a script, ``python tools/replay.py [--queries N]`` runs a
self-contained record → tamper-check → replay exercise over a Mall
workload with mid-window policy churn — including the relation's first
policy and the revocation of its last, so the window crosses both
changes of what default deny ranges over (the CI ``tools-smoke`` job
and ``make replay``), exiting non-zero on any mismatch.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # script use: make the package importable
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.audit import AuditLog, DecisionRecord  # noqa: E402
from repro.cluster.replicate import replicate_database  # noqa: E402
from repro.common.errors import AuditError  # noqa: E402
from repro.core.middleware import Sieve  # noqa: E402
from repro.policy.store import PinnedPolicyStore  # noqa: E402


@dataclass(frozen=True)
class ReplayMismatch:
    """One record whose replay diverged, field by field."""

    chain: str
    seq: int
    diffs: dict[str, tuple[Any, Any]]  # field -> (recorded, replayed)


@dataclass
class ReplayReport:
    """Outcome of one replay run."""

    replayed: int = 0
    matched: int = 0
    epochs: list[int] = field(default_factory=list)
    mismatches: list[ReplayMismatch] = field(default_factory=list)
    counters_compared: bool = True

    @property
    def ok(self) -> bool:
        return self.replayed > 0 and not self.mismatches

    def describe(self) -> str:
        lines = [
            f"replayed {self.replayed} record(s) across {len(self.epochs)} "
            f"pinned epoch(s) {self.epochs}; {self.matched} matched"
            + ("" if self.counters_compared else " (counters not compared)")
        ]
        for mismatch in self.mismatches[:10]:
            lines.append(f"  MISMATCH chain={mismatch.chain!r} seq={mismatch.seq}:")
            for name, (recorded, replayed) in mismatch.diffs.items():
                lines.append(f"    {name}: recorded={recorded!r} replayed={replayed!r}")
        if len(self.mismatches) > 10:
            lines.append(f"  … and {len(self.mismatches) - 10} more")
        return "\n".join(lines)


def replay_records(
    records: Sequence[DecisionRecord],
    store,
    db=None,
    *,
    cost_model=None,
    backend_factory: "Callable[[Any], Any] | None" = None,
    compare_counters: bool = True,
    isolate: bool = True,
) -> ReplayReport:
    """Re-execute ``records`` against their pinned epochs; compare.

    ``store`` is the (live) :class:`~repro.policy.store.PolicyStore`
    or :class:`~repro.policy.store.PolicyPartition` that recorded the
    window — it must have snapshot retention enabled (automatic for
    audited middleware).  ``db`` defaults to ``store.db``; with
    ``isolate`` (default) the replay runs on a fresh replica so it can
    never perturb the live engine's counters or caches.  ``cost_model``
    must be the one the recording Sieve used (strategy choice is part
    of the decision).  Records whose ``engine`` is ``"backend"`` need
    ``backend_factory(replay_db)`` to ship the replica to the same
    kind of backend.

    Counter deltas are compared per record (``compare_counters=False``
    relaxes this for windows recorded under concurrent interleaving,
    where per-request deltas on shared counters are not well defined —
    decisions and digests still must match).
    """
    report = ReplayReport(counters_compared=compare_counters)
    if not records:
        return report
    source_db = db if db is not None else store.db
    replay_db = replicate_database(source_db) if isolate else source_db
    replay_log = AuditLog(chain_id="replay")

    sieves: dict[tuple[int, bool], Sieve] = {}

    def sieve_for(epoch: int, backend_engine: bool) -> Sieve:
        key = (epoch, backend_engine)
        sieve = sieves.get(key)
        if sieve is None:
            pinned = PinnedPolicyStore(
                replay_db, store.snapshot_at(epoch), groups=store.groups
            )
            backend = None
            if backend_engine:
                if backend_factory is None:
                    raise AuditError(
                        "window contains backend-executed records; pass "
                        "backend_factory to replay them on the same engine kind"
                    )
                backend = backend_factory(replay_db)
            sieve = Sieve(
                replay_db, pinned, cost_model=cost_model, backend=backend,
                audit=replay_log,
            )
            sieves[key] = sieve
        return sieve

    epochs_seen: list[int] = []
    for record in records:
        epoch = record.policy_epoch
        if epoch not in epochs_seen:
            epochs_seen.append(epoch)
        sieve = sieve_for(epoch, record.engine == "backend")
        sieve.execute_with_info(record.sql, record.querier, record.purpose)
        replayed = replay_log.records()[-1].payload
        recorded = record.decision_view(include_counters=compare_counters)
        replayed_view = dict(replayed)
        # Trace ids name live executions — the replay's differ (or are
        # empty) by construction, so both sides exclude them.
        replayed_view.pop("trace_id", None)
        if not compare_counters:
            replayed_view.pop("counters", None)
        diffs = {
            name: (recorded.get(name), replayed_view.get(name))
            for name in sorted(set(recorded) | set(replayed_view))
            if recorded.get(name) != replayed_view.get(name)
        }
        report.replayed += 1
        if diffs:
            report.mismatches.append(
                ReplayMismatch(chain=record.chain, seq=record.seq, diffs=diffs)
            )
        else:
            report.matched += 1
    report.epochs = sorted(epochs_seen)
    replay_log.verify()  # the replay's own chain must be intact too
    return report


# --------------------------------------------------------------- self-test


def _selftest(n_queries: int) -> int:
    """Record a Mall window with mid-window policy churn, verify the
    chain, replay against the pinned epochs, and post-churn the corpus
    to prove pinning isolates the replay.  The window opens on an
    unprotected relation and closes on a protected one whose every
    policy is revoked: each record must replay under the protected set
    its own epoch archived, not the live store's.  Returns a process
    exit code."""
    from repro.datasets.mall import CONNECTIVITY_TABLE, MallConfig, generate_mall
    from repro.policy.store import PolicyStore

    print(f"audit replay self-test: recording a {n_queries}-query Mall window")
    mall = generate_mall(MallConfig(seed=21, n_customers=80, days=8, personality="postgres"))
    store = PolicyStore(mall.db, mall.groups)
    log = AuditLog(chain_id="selftest")
    sieve = Sieve(mall.db, store, audit=log)

    queriers = [mall.shop_querier(s) for s in mall.shops[:2]] + ["nobody-without-policies"]
    templates = [
        f"SELECT * FROM {CONNECTIVITY_TABLE} WHERE ts_date BETWEEN {{lo}} AND {{hi}}",
        f"SELECT * FROM {CONNECTIVITY_TABLE} WHERE ts_time BETWEEN 600 AND 1000",
        f"SELECT shop_id, count(*) AS n FROM {CONNECTIVITY_TABLE} "
        f"WHERE ts_date >= {{lo}} GROUP BY shop_id",
    ]
    for i in range(n_queries):
        if i == n_queries // 6:
            store.insert_many(mall.policies)  # first policy: the relation becomes protected
            victim = store.policies_for(queriers[0], "any", CONNECTIVITY_TABLE)[0]
        if i == n_queries // 3:
            store.delete(victim.id)  # mid-window churn: epoch advances
        if i == (2 * n_queries) // 3:
            store.insert(victim)  # …and again
        if i == (5 * n_queries) // 6:
            for policy in store.all_policies():  # revoked to empty: still protected
                store.delete(policy.id)
        sql = templates[i % len(templates)].format(lo=i % 5, hi=i % 5 + 3)
        sieve.execute(sql, queriers[i % len(queriers)], "any")
    admitted = [record.rows_admitted for record in log.records()]
    if not admitted[0] or any(admitted[(5 * n_queries) // 6:]):
        print("FAIL: the window did not open unprotected and close revoked-to-empty")
        return 1

    checked = log.verify()
    print(f"chain verified: {checked} records, head {log.last_hash[:12]}…")

    # Post-window churn the live corpus; pinned replay must not notice.
    store.insert(victim)
    store.delete(victim.id)

    report = replay_records(log.records(), store)
    print(report.describe())
    if not report.ok:
        print("FAIL: replay diverged from the recorded decisions")
        return 1
    if len(report.epochs) < 3:
        print("FAIL: mid-window churn did not produce multiple pinned epochs")
        return 1
    print("OK: replay reproduced every decision bit-identically")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--queries", type=int, default=200,
        help="window size for the self-test (default 200)",
    )
    args = parser.parse_args(argv)
    return _selftest(args.queries)


if __name__ == "__main__":
    sys.exit(main())
