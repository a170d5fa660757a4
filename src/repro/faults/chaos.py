"""The chaos differential: randomized fault plans vs a fault-free oracle.

:func:`run_chaos_plan` is the harness shared by the test suite
(``tests/test_chaos_differential.py``) and the report tool
(``tools/chaos_report.py``).  One run builds a compact Sieve
world, computes a fault-free oracle answer for every measured
(querier, query) pair, then drives a 3-shard cluster through a mix of
queries and policy-churn writes while a seeded
:class:`~repro.faults.FaultPlan` fires crashes, hangs, lost replies,
relay failures, and mid-scatter faults at it.  The contract under
judgment:

* every **answered** query is row-identical to the fault-free oracle
  (sorted rows — shard/backends may order differently);
* every **unanswered** query failed with a *typed* error
  (``DeadlineExceededError``, ``ShardUnavailableError``,
  ``PolicyScatterError``, ...) — never a hang, never an untyped crash;
* after the faults stop and the supervisor heals the cluster, every
  measured pair converges back to the oracle.

Policy churn deliberately targets queriers *outside* the measured set,
so the oracle stays valid for the whole run: a correct cluster answers
measured queries identically no matter how the churn interleaves.
That is also what gives the suite teeth — on :class:`NaiveScatterCluster`
(the deliberately reintroduced naive one-phase scatter) a detached
relay serves stale policy and the row-identity check MUST flag it
(:func:`mixed_epoch_divergence` stages exactly that bug).

Any mismatch or untyped exception lands in
:attr:`ChaosResult.divergences`; an empty list is the pass verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any

from repro.cluster import RetryPolicy, SieveCluster
from repro.common.errors import (
    DeadlineExceededError,
    ExecutionError,
    PolicyScatterError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ShardUnavailableError,
)
from repro.common.rng import make_rng
from repro.core import Sieve
from repro.db.database import connect
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.policy import GroupDirectory, ObjectCondition, Policy, PolicyStore
from repro.storage.schema import ColumnType, Schema

TABLE = "WiFi_Dataset"
PURPOSE = "analytics"
N_OWNERS = 6
#: Queriers whose answers are measured against the oracle.
MEASURED_QUERIERS = ("Prof.A", "Prof.B", "Prof.C", "Prof.D")
#: Queriers the churn writes target — never queried, so churn cannot
#: legitimately change a measured answer.
CHURN_QUERIERS = ("Aud.X", "Aud.Y")
QUERIES = (
    f"SELECT * FROM {TABLE}",
    f"SELECT * FROM {TABLE} WHERE ts_date BETWEEN 1 AND 8",
    f"SELECT * FROM {TABLE} WHERE wifiAP = 1201",
)

#: The full vocabulary of errors a chaos run may legitimately answer
#: with — anything else is a divergence.
TYPED_ERRORS = (
    DeadlineExceededError,
    ShardUnavailableError,
    PolicyScatterError,
    ServiceOverloadedError,
    ServiceStoppedError,
    ExecutionError,
)

N_SHARDS = 3
WORKERS_PER_SHARD = 2
#: Bounded attempts for post-heal convergence: late-ordinal planned
#: faults may still fire on the first convergence queries, and each
#: failed attempt gets a supervisor pass before the next.
CONVERGE_ATTEMPTS = 12


@dataclass
class ChaosResult:
    """Outcome of one seeded chaos run (one plan, one cluster)."""

    seed: int
    plan_summary: str
    queries: int = 0
    answered: int = 0
    unanswered: dict[str, int] = dataclass_field(default_factory=dict)
    writes_committed: int = 0
    writes_aborted: int = 0
    rebuilds: int = 0
    faults_fired: dict[str, int] = dataclass_field(default_factory=dict)
    divergences: list[str] = dataclass_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def row(self) -> list[Any]:
        """Markdown-table row for ``tools/chaos_report.py``."""
        return [
            self.seed,
            self.queries,
            self.answered,
            sum(self.unanswered.values()),
            self.writes_committed,
            self.writes_aborted,
            sum(self.faults_fired.values()),
            self.rebuilds,
            "ok" if self.ok else f"DIVERGED×{len(self.divergences)}",
        ]


def build_world(n_rows: int = 180):
    """A compact wifi world: measured queriers hold interval policies,
    churn queriers start empty.  Returns ``(db, store, grant)`` where
    ``grant(querier, owner, id)`` mints a policy for churn writes."""
    db = connect("mysql")
    db.create_table(
        TABLE,
        Schema.of(
            ("id", ColumnType.INT),
            ("wifiAP", ColumnType.INT),
            ("owner", ColumnType.INT),
            ("ts_time", ColumnType.TIME),
            ("ts_date", ColumnType.DATE),
        ),
    )
    db.insert(
        TABLE,
        [
            (i, 1200 + i % 5, i % N_OWNERS, 7 * 60 + (i * 11) % 720, i % 12)
            for i in range(n_rows)
        ],
    )
    for column in ("owner", "ts_date"):
        db.create_index(TABLE, column)
    db.analyze()
    store = PolicyStore(db, GroupDirectory())

    def grant(querier: Any, owner: int, policy_id: int) -> Policy:
        return Policy(
            owner=owner,
            querier=querier,
            purpose=PURPOSE,
            table=TABLE,
            object_conditions=(
                ObjectCondition("owner", "=", owner),
                ObjectCondition("ts_time", ">=", 8 * 60, "<=", 16 * 60),
            ),
            id=policy_id,
        )

    next_id = 0
    for i, querier in enumerate(MEASURED_QUERIERS):
        for owner in range(N_OWNERS):
            if (owner + i) % 2 == 0:
                next_id += 1
                store.insert(grant(querier, owner, next_id))
    return db, store, grant


def fault_free_oracle(db, store) -> dict[tuple[Any, str], list[Any]]:
    """Sorted rows per measured (querier, query) from one single-node,
    fault-free Sieve — the ground truth every answer is held to."""
    sieve = Sieve(db, store)
    return {
        (querier, sql): sorted(sieve.execute(sql, querier, PURPOSE).rows)
        for querier in MEASURED_QUERIERS
        for sql in QUERIES
    }


def run_chaos_plan(
    seed: int,
    *,
    n_ops: int = 40,
    deadline_s: float = 0.25,
    supervise_every: int = 7,
    hang_s: float = 0.05,
) -> ChaosResult:
    """One full chaos run for ``seed``; see the module docstring for
    the invariants judged.  Deterministic in ``seed`` up to thread
    timing: the plan, the op sequence, and the retry jitter all draw
    from seeded streams, so a failing seed replays."""
    db, store, grant = build_world()
    oracle = fault_free_oracle(db, store)
    plan = FaultPlan.random(
        seed,
        n_requests=n_ops,
        n_shards=N_SHARDS,
        n_writes=max(1, n_ops // 4),
        hang_s=hang_s,
    )
    injector = FaultInjector(plan)
    result = ChaosResult(seed=seed, plan_summary=plan.describe())
    retry = RetryPolicy(
        max_attempts=2,
        base_backoff_s=0.001,
        max_backoff_s=0.01,
        hedge_delay_s=0.02,
        seed=seed,
    )
    rng = make_rng(seed, "chaos-ops")
    churn_ids: list[int] = []
    next_churn_id = 10_000

    def check(querier: Any, sql: str, rows: list[Any]) -> None:
        if sorted(rows) != oracle[(querier, sql)]:
            result.divergences.append(
                f"rows diverged for {querier!r} on {sql!r} "
                f"(got {len(rows)}, oracle {len(oracle[(querier, sql)])})"
            )

    with SieveCluster.replicated(
        db,
        store,
        n_shards=N_SHARDS,
        workers_per_shard=WORKERS_PER_SHARD,
        retry_policy=retry,
        fault_injector=injector,
    ) as cluster:
        for step in range(n_ops):
            if rng.random() < 0.2:  # policy churn write
                try:
                    if churn_ids and rng.random() < 0.4:
                        cluster.delete_policy(churn_ids.pop())
                    else:
                        churn = grant(
                            rng.choice(CHURN_QUERIERS),
                            rng.randrange(N_OWNERS),
                            next_churn_id,
                        )
                        cluster.insert_policy(churn)
                        churn_ids.append(next_churn_id)
                        next_churn_id += 1
                    result.writes_committed += 1
                except PolicyScatterError:
                    result.writes_aborted += 1
            else:  # measured query
                querier = rng.choice(MEASURED_QUERIERS)
                sql = rng.choice(QUERIES)
                result.queries += 1
                try:
                    rows = cluster.execute(
                        sql, querier, PURPOSE, deadline_s=deadline_s
                    ).rows
                except TYPED_ERRORS as exc:
                    name = type(exc).__name__
                    result.unanswered[name] = result.unanswered.get(name, 0) + 1
                except Exception as exc:  # noqa: BLE001 — the verdict itself
                    result.divergences.append(
                        f"untyped {type(exc).__name__} for {querier!r}: {exc}"
                    )
                else:
                    result.answered += 1
                    check(querier, sql, rows)
            if step % supervise_every == supervise_every - 1:
                result.rebuilds += len(cluster.supervise())
        # Post-heal convergence: once the supervisor has rebuilt the
        # damage, every measured pair must answer, identically.  Late
        # planned faults can still hit the first attempts, so each
        # pair gets a bounded retry budget with healing in between.
        for (querier, sql), _expected in oracle.items():
            for attempt in range(CONVERGE_ATTEMPTS):
                result.rebuilds += len(cluster.supervise())
                try:
                    rows = cluster.execute(
                        sql, querier, PURPOSE, deadline_s=1.0
                    ).rows
                except TYPED_ERRORS:
                    continue
                check(querier, sql, rows)
                break
            else:
                result.divergences.append(
                    f"no convergence for {querier!r} on {sql!r} after "
                    f"{CONVERGE_ATTEMPTS} healed attempts"
                )
    result.faults_fired = injector.summary()
    return result


class NaiveScatterCluster(SieveCluster):
    """The deliberately broken variant: a one-phase policy scatter (no
    prepare) and routing that never checks the policy fence — the
    mixed-epoch bug the teeth test proves the differential catches."""

    def _check_fence(self, shard: Any) -> None:
        pass

    def _prepare_scatter(self, shards: Any, write_no: Any) -> None:
        pass


def mixed_epoch_divergence() -> tuple[bool, bool]:
    """Stage the mixed-epoch bug the fence gate exists to prevent, and
    report whether the differential catches it.

    On :class:`NaiveScatterCluster` a shard whose
    policy relay has silently died keeps serving while a policy
    *delete* commits under it — it answers from the stale epoch with
    rows the current policy no longer allows.  Returns
    ``(naive_diverged, fenced_refused)``:

    * ``naive_diverged`` — the gate-off run produced rows differing
      from the post-delete oracle (the teeth: this MUST be True, or
      the chaos suite could not catch a real fencing regression);
    * ``fenced_refused`` — the same scenario under the fence gate
      raised :class:`~repro.common.errors.PolicyScatterError` at
      prepare, leaving answers correct (this MUST also be True).
    """
    stale_querier = MEASURED_QUERIERS[0]
    sql = QUERIES[0]

    def stage(cluster_cls: type[SieveCluster]) -> tuple[bool, bool]:
        db, store, _ = build_world()
        with cluster_cls.replicated(
            db, store, n_shards=N_SHARDS, workers_per_shard=1
        ) as cluster:
            owner = cluster.route(stale_querier)
            victim = store.policies_for(stale_querier, PURPOSE)[0].id
            # Warm the owner's guard cache at the pre-delete epoch —
            # the staleness hazard is an epoch-validated cache entry
            # outliving the frozen partition epoch, so a cold shard
            # would (coincidentally) rebuild a correct snapshot.
            cluster.execute(sql, stale_querier, PURPOSE, timeout=10.0)
            cluster.drop_relay(owner)  # the relay dies silently
            refused = False
            try:
                cluster.delete_policy(victim)
            except PolicyScatterError:
                refused = True
            rows = sorted(
                cluster.execute(sql, stale_querier, PURPOSE, timeout=10.0).rows
            )
            oracle = sorted(
                Sieve(db, store).execute(sql, stale_querier, PURPOSE).rows
            )
            return rows != oracle, refused

    naive_diverged, naive_refused = stage(NaiveScatterCluster)
    fenced_diverged, fenced_refused = stage(SieveCluster)
    return naive_diverged and not naive_refused, fenced_refused and not fenced_diverged
