"""Policy persistence (paper Section 5.1).

Policies live in two relations, exactly as Sieve stores them:

* ``rP``  (``sieve_policies``): one row per policy —
  ``<id, owner, querier, associated_table, purpose, action, ts_inserted_at>``
* ``rOC`` (``sieve_object_conditions``): one row per object condition —
  ``<id, policy_id, attr_type, attr, op, val [, op2, val2]>`` where
  ``val`` may hold a serialized constant, IN-list, or the SQL text of a
  derived (nested-query) value.

Beside them ``sieve_protected`` holds the *declared* set of protected
relations — the objects default deny ranges over (Section 3.1).  A
relation joins it at its first policy insert or by
:meth:`PolicyStore.protect`; deleting policies never shrinks it (a
revocation must not grant), only :meth:`PolicyStore.unprotect` does,
and that is refused while a policy still names the relation.  Every
consumer reads it as the one field :attr:`PolicySnapshot.protected`.

A write-through in-memory cache keeps Policy objects indexed by
querier so that the PQM filter and the Δ operator never re-parse rows
on the hot path.  Mutation listeners let the guard store flip its
``outdated`` flags (Section 6).

Every mutation (insert/delete/update) bumps a monotonically increasing
*policy epoch* and fires the registered mutation listeners — the
session guard cache (:mod:`repro.core.cache`) uses the epoch to
validate entries and the listeners for targeted invalidation, so the
corpus is only re-filtered for queriers a mutation can actually
affect.

Concurrency (the serving tier, :mod:`repro.service`): the store is
guarded by a writer-preferring :class:`~repro.common.concurrency.RWLock`
— reads (the PQM filter, snapshots) run concurrently, mutations are
exclusive, and listeners fire *after* the outermost write hold is
released (the epoch is already bumped, and a listener may safely
re-enter the store).  :meth:`PolicyStore.snapshot` returns a cheap
copy-on-write :class:`PolicySnapshot` memoized per epoch: guard
generation and the middleware's per-request planning read one
consistent corpus view even while writers interleave (an ``update`` —
internally delete + re-insert — can never be observed half-applied
through a snapshot).

One read surface: what the corpus says is defined once, on
:class:`PolicySnapshot`; :class:`PolicyView` writes the store-shaped
reads, epoch pinning and the listener registry once over
``snapshot()``, and :class:`PolicyStore`, :class:`PolicyPartition` and
:class:`PinnedPolicyStore` add only where their snapshot comes from
and what moves their epoch.

Sharding (the cluster tier, :mod:`repro.cluster`):
:meth:`PolicyStore.partition` carves querier-scoped
:class:`PolicyPartition` views out of one corpus — each with its own
epoch, listeners, snapshots, and targeted invalidation, advanced only
by mutations that partition owns — so N shards each observe (and pay
for) only ~1/N of the corpus and its churn.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.common.concurrency import RWLock
from repro.common.errors import PolicyError
from repro.policy.groups import GroupDirectory
from repro.policy.model import ANY_PURPOSE, DerivedValue, ObjectCondition, Policy
from repro.storage.schema import ColumnType, Schema

POLICY_TABLE = "sieve_policies"
CONDITION_TABLE = "sieve_object_conditions"
PROTECTED_TABLE = "sieve_protected"


def _serialize(value: Any) -> tuple[str, str]:
    """(attr_type tag, string payload) for the rOC ``val`` column."""
    if isinstance(value, DerivedValue):
        return "derived", value.sql
    if isinstance(value, bool):
        return "bool", json.dumps(value)
    if isinstance(value, int):
        return "int", json.dumps(value)
    if isinstance(value, float):
        return "float", json.dumps(value)
    if isinstance(value, str):
        return "str", json.dumps(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return "list", json.dumps(sorted(value, key=repr))
    raise PolicyError(f"cannot serialize policy value {value!r}")


def _deserialize(tag: str, payload: str) -> Any:
    if tag == "derived":
        return DerivedValue(payload)
    if tag in ("bool", "int", "float", "str", "list"):
        return json.loads(payload)
    raise PolicyError(f"unknown value tag {tag!r}")


@dataclass(frozen=True)
class PolicySnapshot:
    """An immutable, consistent view of the corpus at one epoch.

    Produced by :meth:`PolicyStore.snapshot` under the store's read
    lock and memoized per epoch, so taking one on the query hot path
    costs a dict copy only on the first request after a mutation.
    Policy tuples are shared (policies are immutable), which is what
    makes the copy-on-write cheap.
    """

    epoch: int
    groups: GroupDirectory
    by_querier: dict[Any, tuple[Policy, ...]]
    #: The declared protected relations (lowercased) as of this epoch:
    #: a query is rewritten on exactly these, whether or not any policy
    #: is left on them.  Corpus-wide — a partition passes the base
    #: store's through rather than judging from its own share.
    protected: frozenset[str]

    def policies_for(
        self, querier: Any, purpose: str, table: str | None = None
    ) -> list[Policy]:
        """The PQM filter (Section 3.2) over this frozen corpus view:
        the querier's own policies, then each of its groups' in
        ``group_id`` order — never set order, which moves with the hash
        seed and would reach Baseline P/U's inlined OR and the order of
        SIEVE's partitions."""
        groups = self.groups
        keys = [querier, *sorted(groups.groups_of(querier), key=groups.group_id)]
        wanted = table.lower() if table is not None else None
        seen: set[int] = set()
        out: list[Policy] = []
        for key in keys:
            for policy in self.by_querier.get(key, ()):
                if policy.id in seen:
                    continue
                if purpose != policy.purpose and policy.purpose != ANY_PURPOSE:
                    continue
                if wanted is not None and policy.table.lower() != wanted:
                    continue
                seen.add(policy.id)
                out.append(policy)
        return out

    @cached_property
    def by_id(self) -> dict[int, Policy]:
        """Every policy of the view by id, in insertion order (built on
        first use; a policy is filed under exactly one querier key)."""
        policies = [p for ps in self.by_querier.values() for p in ps]
        return {p.id: p for p in sorted(policies, key=lambda p: p.inserted_at)}

    def __len__(self) -> int:
        return sum(len(ps) for ps in self.by_querier.values())


class SnapshotArchive:
    """Epoch-keyed retention of :class:`PolicySnapshot` views.

    The audit tier's epoch pinning (``tools/replay.py``): while
    retention is enabled, every snapshot the store hands out is also
    archived under its epoch, so a logged decision's corpus view can
    be recovered *after* later mutations replaced the live memo.
    Snapshots are immutable and share policy tuples, so the archive
    holds O(epochs retained) dicts, not O(epochs × policies) copies;
    ``limit`` bounds it FIFO when a long-running server wants a cap.
    """

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self._lock = threading.Lock()
        self._snapshots: dict[int, PolicySnapshot] = {}

    def record(self, snapshot: PolicySnapshot) -> None:
        with self._lock:
            self._snapshots.setdefault(snapshot.epoch, snapshot)
            if self.limit is not None:
                while len(self._snapshots) > self.limit:
                    del self._snapshots[min(self._snapshots)]

    def get(self, epoch: int) -> PolicySnapshot | None:
        with self._lock:
            return self._snapshots.get(epoch)

    def epochs(self) -> list[int]:
        with self._lock:
            return sorted(self._snapshots)


class PolicyView:
    """The read surface every policy store shares, each method written
    once over :meth:`snapshot`: the store-shaped reads, epoch pinning
    (the :class:`SnapshotArchive` wiring) and the listener registry a
    :class:`~repro.core.middleware.Sieve` hooks.  A subclass says only
    where its snapshot comes from and what moves its ``epoch``."""

    def __init__(self, db, groups: GroupDirectory):
        self.db = db
        self.groups = groups
        self._mutation_listeners: list[Callable[[str, Policy, int], None]] = []
        self._reset_listeners: list[Callable[[], None]] = []
        self._archive: SnapshotArchive | None = None
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Monotonic version of this view's corpus; bumped on every
        mutation it observes (a partition's is its own — see its class
        docstring — a pinned view's never moves).

        Read without taking the lock: the epoch is a single int whose
        torn read is impossible under CPython, and every consumer
        revalidates against it anyway (a stale read just costs one
        cache miss)."""
        return self._epoch

    def snapshot(self) -> PolicySnapshot:
        raise NotImplementedError

    def _archived(self, snap: PolicySnapshot) -> PolicySnapshot:
        """``snap``, pinned under its epoch when retention is on."""
        if self._archive is not None:
            self._archive.record(snap)
        return snap

    # --------------------------------------------------------------- reads

    def policies_for(
        self, querier: Any, purpose: str, table: str | None = None
    ) -> list[Policy]:
        """The PQM filter (Section 3.2): policies relevant to a query's
        metadata — defined for this querier directly or via any of the
        querier's groups, with a matching (or 'any') purpose.

        Delegates to the per-epoch snapshot so the filter logic exists
        once (a direct store read and a snapshot-pinned serving-tier
        read can never disagree) and repeated calls at one epoch reuse
        the memoized view.  A partition's answer is the base store's
        for any owned querier — it holds the querier's direct policies
        and every group policy whose group contains it."""
        return self.snapshot().policies_for(querier, purpose, table)

    def all_policies(self) -> list[Policy]:
        return list(self.snapshot().by_id.values())

    def queriers(self) -> list[Any]:
        """All distinct querier values with at least one policy."""
        return list(self.snapshot().by_querier)

    def get(self, policy_id: int) -> Policy:
        try:
            return self.snapshot().by_id[policy_id]
        except KeyError:
            raise PolicyError(f"unknown policy id {policy_id}") from None

    def __len__(self) -> int:
        return len(self.snapshot())

    # --------------------------------------------------------- epoch pinning

    def retain_snapshots(self, limit: int | None = None) -> None:
        """Enable epoch pinning: from now on every snapshot handed out
        is also archived by epoch for :meth:`snapshot_at` (the audit
        tier's replay anchor).  Idempotent; ``limit`` bounds retention
        FIFO (None = unbounded).  Every audited request takes a
        snapshot, so every epoch a decision record can name is
        archived.  A partition archives under *partition* epochs —
        what its shard's decision records carry; a rebalance that
        migrates queriers without an owned mutation changes membership
        at an unchanged epoch, so replay windows must not straddle
        rebalances (the coordinator quiesces shards around a move for
        the same reason)."""
        if self._archive is None:
            self._archive = SnapshotArchive(limit)
        else:
            self._archive.limit = limit
        self._archive.record(self.snapshot())

    def snapshot_at(self, epoch: int) -> PolicySnapshot:
        """The archived corpus view at ``epoch`` — its policies and the
        protected set its records saw; raises
        :class:`~repro.common.errors.PolicyError` when retention was
        not enabled or the epoch predates it / aged out."""
        archive = self._archive
        snap = archive.get(epoch) if archive is not None else None
        if snap is None:
            raise PolicyError(
                f"policy epoch {epoch} is not retained "
                f"(call retain_snapshots() before recording decisions)"
            )
        return snap

    def retained_epochs(self) -> list[int]:
        """Epochs replay can pin (empty when retention is off)."""
        return self._archive.epochs() if self._archive is not None else []

    # ------------------------------------------------------------- listeners

    def add_mutation_listener(self, fn: Callable[[str, Policy, int], None]) -> None:
        """Called as ``fn(kind, policy, epoch)`` after every mutation,
        where ``kind`` is ``"insert"``, ``"delete"`` or ``"update"``.
        ``epoch`` is the corpus version *as of that event*: a single
        ``update`` crossing queriers/tables queues two events with
        consecutive epochs, and cache hooks that re-stamp surviving
        entries need each event's own epoch, not the final one (events
        are dispatched after the write lock is released, so
        ``store.epoch`` may already be further along)."""
        self._mutation_listeners.append(fn)

    def remove_mutation_listener(self, fn: Callable[[str, Policy, int], None]) -> None:
        """Deregister fn; no-op when absent (safe for dead-ref hooks)."""
        try:
            self._mutation_listeners.remove(fn)
        except ValueError:
            pass

    def add_reset_listener(self, fn: Callable[[], None]) -> None:
        """Called (with no arguments) after a corpus-wide change —
        :meth:`PolicyStore.reload_from_database`, or a change to the
        protected set — which bumps the epoch *without* a per-policy
        mutation event to carry cached entries across it.  Partition
        views hook this to advance their own epochs; per-policy
        listeners cannot, since there is no per-policy delta to report."""
        self._reset_listeners.append(fn)

    def remove_reset_listener(self, fn: Callable[[], None]) -> None:
        """Deregister fn; no-op when absent."""
        try:
            self._reset_listeners.remove(fn)
        except ValueError:
            pass

    def _fire(self, kind: str, policy: Policy, epoch: int) -> None:
        # Iterate over a copy: dead weakref hooks deregister
        # themselves from inside the callback.
        for listener in list(self._mutation_listeners):
            listener(kind, policy, epoch)


class PolicyStore(PolicyView):
    """Policies persisted in the database plus a querier-keyed cache."""

    def __init__(self, db, groups: GroupDirectory | None = None):
        super().__init__(db, groups or GroupDirectory())
        self._by_id: dict[int, Policy] = {}
        self._by_querier: dict[Any, list[Policy]] = defaultdict(list)
        self._rowids: dict[int, tuple[int, list[int]]] = {}  # policy id -> (rP rowid, rOC rowids)
        self._protected: dict[str, int] = {}  # lowercased relation -> sieve_protected rowid
        self._insert_clock = itertools.count(1)
        self._rwlock = RWLock()
        self._pending_events: list[tuple[str, Policy, int]] = []
        self._pending_reset = False
        self._snapshot_memo: PolicySnapshot | None = None
        self._install()

    def _install(self) -> None:
        if not self.db.catalog.has_table(POLICY_TABLE):
            self.db.create_table(
                POLICY_TABLE,
                Schema.of(
                    ("id", ColumnType.INT),
                    ("owner", ColumnType.VARCHAR),
                    ("querier", ColumnType.VARCHAR),
                    ("associated_table", ColumnType.VARCHAR),
                    ("purpose", ColumnType.VARCHAR),
                    ("action", ColumnType.VARCHAR),
                    ("ts_inserted_at", ColumnType.INT),
                ),
            )
            self.db.create_index(POLICY_TABLE, "querier", kind="hash")
            self.db.create_index(POLICY_TABLE, "id", kind="hash")
            self.db.create_table(
                CONDITION_TABLE,
                Schema.of(
                    ("id", ColumnType.INT),
                    ("policy_id", ColumnType.INT),
                    ("attr_type", ColumnType.VARCHAR),
                    ("attr", ColumnType.VARCHAR),
                    ("op", ColumnType.VARCHAR),
                    ("val", ColumnType.VARCHAR),
                    ("op2", ColumnType.VARCHAR),
                    ("val2", ColumnType.VARCHAR),
                ),
            )
            self.db.create_index(CONDITION_TABLE, "policy_id", kind="hash")
        if not self.db.catalog.has_table(PROTECTED_TABLE):  # also a pre-existing policy database
            self.db.create_table(PROTECTED_TABLE, Schema.of(("relation", ColumnType.VARCHAR)))

    # -------------------------------------------------------------- writes

    @contextmanager
    def _writing(self) -> "Iterator[None]":
        """Exclusive mutation scope.  Reentrant (``update`` nests
        ``insert``); a pending :meth:`_reset` and the mutation events
        accumulated by :meth:`_mutated` fire after the *outermost* hold
        is released, so listeners run on the mutating thread but
        outside the lock — they may safely re-enter the store or take
        their own locks without ordering against readers (the
        lock-cycle this breaks: a guard build holding a
        cache/store-of-guards lock while reading policies, concurrent
        with a mutation firing into that same lock)."""
        self._rwlock.acquire_write()
        try:
            yield
        finally:
            events: list[tuple[str, Policy, int]] = []
            reset = False
            if self._rwlock.write_depth() == 1:
                # Still exclusive here, so the swap cannot steal a
                # later writer's events.
                events, self._pending_events = self._pending_events, []
                reset, self._pending_reset = self._pending_reset, False
            self._rwlock.release_write()
            if reset:
                for listener in list(self._reset_listeners):
                    listener()
            for kind, policy, epoch in events:
                self._fire(kind, policy, epoch)

    def _mutated(self, kind: str, policy: Policy) -> None:
        self._epoch += 1
        self._snapshot_memo = None
        self._pending_events.append((kind, policy, self._epoch))

    def _reset(self) -> None:
        """A corpus-wide change — a reload, or a change to the
        protected set: an epoch bump that no per-policy event carries
        cached entries across (they strand one epoch short and drop at
        their next lookup, on this store's Sieves and on every
        partition's), plus the reset listeners once the lock drops."""
        self._epoch += 1
        self._snapshot_memo = None
        self._pending_reset = True

    # ----------------------------------------------------------- protection

    def protect(self, table: str) -> None:
        """Declare ``table`` protected: from the next epoch a querier
        no policy admits reads nothing from it.  Implied by the
        relation's first policy insert; idempotent."""
        with self._writing():
            self._protect_locked(table)

    def _protect_locked(self, table: str) -> None:
        name = table.lower()
        if name not in self._protected:
            self._protected[name] = self.db.insert_row(PROTECTED_TABLE, (name,))
            self._reset()

    def unprotect(self, table: str) -> None:
        """Take ``table`` out of Sieve's control — the one operation
        that shrinks the protected set (a ``delete`` never does: a
        revocation must not grant).  Refused while any policy still
        names the relation; a no-op on an unprotected one."""
        name = table.lower()
        with self._writing():
            if any(p.table.lower() == name for p in self._by_id.values()):
                raise PolicyError(f"cannot unprotect {table!r}: policies still name it")
            rowid = self._protected.pop(name, None)
            if rowid is not None:
                self.db.delete_row(PROTECTED_TABLE, rowid)
                self._reset()

    def insert(self, policy: Policy, _event_kind: str = "insert") -> Policy:
        """Persist one policy; returns it stamped with an insert time."""
        with self._writing():
            return self._insert_locked(policy, _event_kind)

    def _insert_locked(self, policy: Policy, _event_kind: str) -> Policy:
        if policy.id in self._by_id:
            raise PolicyError(f"duplicate policy id {policy.id}")
        stamped = Policy(
            owner=policy.owner,
            querier=policy.querier,
            purpose=policy.purpose,
            table=policy.table,
            object_conditions=policy.object_conditions,
            action=policy.action,
            id=policy.id,
            inserted_at=next(self._insert_clock),
        )
        rp_rowid = self.db.insert_row(
            POLICY_TABLE,
            (
                stamped.id,
                str(stamped.owner),
                str(stamped.querier),
                stamped.table,
                stamped.purpose,
                stamped.action,
                stamped.inserted_at,
            ),
        )
        oc_rowids: list[int] = []
        cond_table = self.db.catalog.table(CONDITION_TABLE)
        next_cond_id = cond_table.slot_count + 1
        for oc in stamped.object_conditions:
            tag, payload = _serialize(oc.value)
            payload2 = ""
            if oc.op2 is not None:
                # Range bounds share the value's type; one tag covers both.
                payload2 = _serialize(oc.value2)[1]
            oc_rowids.append(
                self.db.insert_row(
                    CONDITION_TABLE,
                    (
                        next_cond_id,
                        stamped.id,
                        tag,
                        oc.attr,
                        oc.op,
                        payload,
                        oc.op2 or "",
                        payload2,
                    ),
                )
            )
            next_cond_id += 1
        self._by_id[stamped.id] = stamped
        self._by_querier[stamped.querier].append(stamped)
        self._rowids[stamped.id] = (rp_rowid, oc_rowids)
        self._protect_locked(stamped.table)  # a relation's first policy declares it
        self._mutated(_event_kind, stamped)
        return stamped

    def insert_many(self, policies: Iterable[Policy]) -> int:
        count = 0
        for policy in policies:
            self.insert(policy)
            count += 1
        return count

    def delete(self, policy_id: int) -> None:
        with self._writing():
            policy = self._by_id.pop(policy_id, None)
            if policy is None:
                raise PolicyError(f"unknown policy id {policy_id}")
            self._by_querier[policy.querier].remove(policy)
            rp_rowid, oc_rowids = self._rowids.pop(policy_id)
            self.db.delete_row(POLICY_TABLE, rp_rowid)
            for rowid in oc_rowids:
                self.db.delete_row(CONDITION_TABLE, rowid)
            self._mutated("delete", policy)

    def update(self, policy: Policy) -> Policy:
        """Replace the stored policy with the same id.

        Implemented as a delete + re-insert of the rP/rOC rows; fires
        one ``"update"`` mutation event carrying the new version (two —
        the second carrying the old version — when the update moves the
        policy to a different querier or table, since both corpus views
        must invalidate).  The updated policy gets a fresh
        ``ts_inserted_at`` — for Section 6 regeneration accounting an
        update counts as a new arrival."""
        with self._writing():
            old = self._by_id.get(policy.id)
            if old is None:
                raise PolicyError(f"unknown policy id {policy.id}")
            # Validate the replacement is persistable BEFORE destroying
            # the old version — a bad condition value must not lose the
            # policy.
            for oc in policy.object_conditions:
                _serialize(oc.value)
                if oc.op2 is not None:
                    _serialize(oc.value2)
            del self._by_id[policy.id]
            self._by_querier[old.querier].remove(old)
            rp_rowid, oc_rowids = self._rowids.pop(policy.id)
            self.db.delete_row(POLICY_TABLE, rp_rowid)
            for rowid in oc_rowids:
                self.db.delete_row(CONDITION_TABLE, rowid)
            stamped = self._insert_locked(policy, _event_kind="update")
            # The insert queued an event for the new version; if the old
            # version named a different querier/table its caches must
            # also hear.  Both events fire only once the update is fully
            # applied (the write lock is released), so no listener can
            # observe the half-applied corpus.
            if old.querier != policy.querier or old.table.lower() != policy.table.lower():
                self._mutated("update", old)
            return stamped

    # --------------------------------------------------------------- reads

    def snapshot(self) -> PolicySnapshot:
        """A consistent copy-on-write view of the corpus at the current
        epoch, memoized until the next mutation.

        The hot path (one call per served request) therefore costs a
        read-locked attribute check; only the first request after a
        mutation pays the dict copy.  Concurrent first-requests may
        each build a snapshot — they are identical, and the last memo
        write wins harmlessly."""
        with self._rwlock.read_locked():
            memo = self._snapshot_memo
            if memo is not None and memo.epoch == self._epoch:
                return memo
            snap = PolicySnapshot(
                epoch=self._epoch,
                groups=self.groups,
                by_querier={q: tuple(ps) for q, ps in self._by_querier.items() if ps},
                protected=frozenset(self._protected),
            )
            self._snapshot_memo = snap
        return self._archived(snap)

    # ---------------------------------------------------------- partitioning

    def partition(self, owns: Callable[[Any], bool], name: str = "") -> "PolicyPartition":
        """A shard-scoped live view over this corpus (cluster tier).

        ``owns(querier)`` decides which queriers the view contains; a
        group-queried policy belongs to every partition owning at least
        one member (see :class:`PolicyPartition`).  The view has its
        *own* epoch, listeners, and snapshots, all advanced only by
        mutations the partition can observe — the point of
        querier-partitioned serving is that a write for shard A's
        querier costs shard B nothing, not even a cache re-stamp."""
        return PolicyPartition(self, owns, name=name)

    # ------------------------------------------------------------ reload

    def reload_from_database(self) -> int:
        """Rebuild the cache from the rP/rOC tables and the declared
        protected set (crash-recovery path, exercised by tests to prove
        persistence round-trips) — a corpus-wide :meth:`_reset`, so
        partition views invalidate their own epochs too."""
        with self._writing():
            return self._reload_locked()

    def _reload_locked(self) -> int:
        self._by_id.clear()
        self._by_querier.clear()
        self._rowids.clear()
        self._reset()  # wholesale reload: all cached corpus views are stale
        protected_table = self.db.catalog.table(PROTECTED_TABLE)
        self._protected = {row[0]: rowid for rowid, row in protected_table.scan()}
        conditions: dict[int, list[tuple[int, ObjectCondition]]] = defaultdict(list)
        cond_rowids: dict[int, list[int]] = defaultdict(list)
        cond_table = self.db.catalog.table(CONDITION_TABLE)
        for rowid, row in cond_table.scan():
            cond_id, policy_id, tag, attr, op, val, op2, val2 = row
            value = _deserialize(tag, val)
            oc = ObjectCondition(
                attr=attr,
                op=op,
                value=value,
                op2=op2 or None,
                value2=_deserialize(tag, val2) if op2 else None,
            )
            conditions[policy_id].append((cond_id, oc))
            cond_rowids[policy_id].append(rowid)
        policy_table = self.db.catalog.table(POLICY_TABLE)
        max_clock = 0
        for rowid, row in policy_table.scan():
            pid, owner, querier, table, purpose, action, inserted_at = row
            ocs = tuple(oc for _, oc in sorted(conditions[pid], key=lambda t: t[0]))
            owner_value = self._parse_identity(owner)
            policy = Policy(
                owner=owner_value,
                querier=self._parse_identity(querier),
                purpose=purpose,
                table=table,
                object_conditions=ocs,
                action=action,
                id=pid,
                inserted_at=inserted_at,
            )
            self._by_id[pid] = policy
            self._by_querier[policy.querier].append(policy)
            self._rowids[pid] = (rowid, cond_rowids[pid])
            # Fail closed on a database written before the set was
            # persisted: a relation a policy names is a protected one.
            self._protect_locked(table)
            max_clock = max(max_clock, inserted_at)
        self._insert_clock = itertools.count(max_clock + 1)
        return len(self._by_id)

    @staticmethod
    def _parse_identity(text: str) -> Any:
        """Owner/querier columns are VARCHAR; recover ints when possible."""
        try:
            return int(text)
        except (TypeError, ValueError):
            return text


class PolicyPartition(PolicyView):
    """One shard's live view of a :class:`PolicyStore` (cluster tier).

    Created by :meth:`PolicyStore.partition`.  The partition exposes
    the :class:`PolicyView` surface a
    :class:`~repro.core.middleware.Sieve` consumes, scoped to the
    queriers an ownership predicate claims:

    * a policy whose querier ``owns()`` claims belongs to the
      partition;
    * a policy naming a *group* belongs to every partition owning at
      least one member — the fan-out that keeps a member's PQM filter
      (which consults the querier's groups) correct on its home shard.

    **Per-partition epochs.**  The partition registers one mutation
    listener with the base store and forwards only events whose policy
    it owns, bumping its *own* epoch per forwarded event.  Foreign
    mutations leave the epoch untouched, so a shard's guard/rewrite
    caches never even re-stamp for other shards' writes — corpus churn
    costs each shard O(its share), which is the scaling argument of
    the cluster tier.

    **Membership changes** (:meth:`set_ownership`, used by cluster
    rebalancing) refresh which queriers the view contains *without*
    bumping the epoch: snapshots rebuild (the memo keys on a
    membership generation), but surviving queriers' epoch-validated
    cache entries stay warm.  Invalidation for *migrated* queriers is
    the coordinator's job (targeted, per querier).

    Writes still go through the base store (single source of truth for
    rP/rOC persistence and policy ids); the coordinator routes them.
    """

    def __init__(self, base: PolicyStore, owns: Callable[[Any], bool], name: str = ""):
        super().__init__(base.db, base.groups)
        self.base = base
        self.name = name
        self._owns = owns
        self._lock = threading.Lock()
        self._membership_gen = 0
        self._snapshot_memo: tuple[tuple[int, int, int], PolicySnapshot] | None = None
        self._detached = False
        base.add_mutation_listener(self._on_base_event)
        base.add_reset_listener(self._on_base_reset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PolicyPartition(name={self.name!r}, epoch={self._epoch})"

    # ------------------------------------------------------------ membership

    def owns_querier(self, querier: Any) -> bool:
        """Does this partition serve ``querier`` (directly, or — for a
        group identity — through any owned member)?"""
        if self._owns(querier):
            return True
        if querier in self.groups:
            return any(self._owns(m) for m in self.groups.members_of(querier))
        return False

    def owns_policy(self, policy: Policy) -> bool:
        return self.owns_querier(policy.querier)

    def set_ownership(self, owns: Callable[[Any], bool]) -> None:
        """Swap the ownership predicate (cluster rebalance).

        Deliberately does *not* bump the epoch: entries cached for
        queriers owned both before and after stay valid (their policy
        sets are untouched by a routing change), which is what makes a
        hash-ring move invalidate only migrated queriers."""
        with self._lock:
            self._owns = owns
            self._membership_gen += 1
            self._snapshot_memo = None

    def detach(self) -> None:
        """Stop observing the base store (shard decommissioned).

        Also the cluster tier's *relay-failure* fault: a detached
        partition silently misses every subsequent base-store write —
        exactly the stale-policy hazard the coordinator's epoch fence
        and shard supervisor exist to catch (see
        :meth:`SieveCluster.drop_relay
        <repro.cluster.coordinator.SieveCluster.drop_relay>`)."""
        with self._lock:
            self._detached = True
        self.base.remove_mutation_listener(self._on_base_event)
        self.base.remove_reset_listener(self._on_base_reset)

    @property
    def detached(self) -> bool:
        """True once the partition stopped observing the base store —
        its view can only go stale from here.  The coordinator's
        two-phase scatter refuses to commit a write such a partition
        would miss, and its supervisor rebuilds the shard."""
        with self._lock:
            return self._detached

    # ----------------------------------------------------------- event relay

    def _on_base_reset(self) -> None:
        """Wholesale base reload, or a change to the protected set:
        every partition view is stale.  Bump the partition epoch (shard
        caches validated against it drop their entries lazily, exactly
        like a single server's do against the base epoch) without
        firing per-policy listeners — there is no per-policy delta."""
        with self._lock:
            if self._detached:
                return
            self._epoch += 1
            self._snapshot_memo = None

    def _on_base_event(self, kind: str, policy: Policy, base_epoch: int) -> None:
        del base_epoch  # partition listeners hear *partition* epochs
        if not self.owns_policy(policy):
            return
        with self._lock:
            if self._detached:
                return
            self._epoch += 1
            epoch = self._epoch
            self._snapshot_memo = None
        # Dispatch outside the partition lock, mirroring the base
        # store's contract: listeners may re-enter the partition.
        self._fire(kind, policy, epoch)

    # --------------------------------------------------------------- reads

    def snapshot(self) -> PolicySnapshot:
        """A consistent partition-scoped corpus view, memoized until
        the next owned mutation / membership change / base reload.

        Built by filtering the base store's (itself memoized) snapshot,
        so the cost is O(partition size), and the returned snapshot's
        ``epoch`` is the *partition* epoch — exactly what this shard's
        caches validate against."""
        # The stamp is read before the content: a write landing in
        # between yields new content under the old stamp (one wasted
        # miss), never old content under the new one (a stale plan
        # admitted as current).
        epoch = self._epoch
        base_snap = self.base.snapshot()
        with self._lock:
            key = (base_snap.epoch, self._membership_gen, epoch)
            memo = self._snapshot_memo
            if memo is not None and memo[0] == key:
                return memo[1]
        by_querier = {
            q: ps for q, ps in base_snap.by_querier.items() if self.owns_querier(q)
        }
        snap = PolicySnapshot(
            epoch=epoch,
            groups=base_snap.groups,
            by_querier=by_querier,
            # Whether a relation is protected is a property of the
            # corpus, not of this shard's share of it: a querier with
            # no policy must be denied here as on one server.
            protected=base_snap.protected,
        )
        with self._lock:
            # Memo only if nothing moved under us; a stale build is
            # still a correct snapshot *at its stamped epoch* (the
            # conservative-invalidation argument of the base store).
            if (base_snap.epoch, self._membership_gen, self._epoch) == key:
                self._snapshot_memo = (key, snap)
        return self._archived(snap)


class PinnedPolicyStore(PolicyView):
    """A read-only policy store frozen at one snapshot.

    The replay harness (``tools/replay.py``) builds a fresh
    :class:`~repro.core.middleware.Sieve` over one of these per logged
    policy epoch: the middleware sees the normal :class:`PolicyView`
    surface, but the corpus — policies and protected set alike — can
    never move, so a replayed request plans against byte-for-byte the
    policy view the original decision recorded, regardless of what
    happened to the live store since.  Mutation surfaces are absent and
    nothing ever fires a registered listener.
    """

    def __init__(self, db, snapshot: PolicySnapshot, groups: GroupDirectory | None = None):
        super().__init__(db, groups if groups is not None else snapshot.groups)
        self._snapshot = snapshot
        self._epoch = snapshot.epoch
        self.retain_snapshots()  # a pinned view is its own one-epoch archive

    def snapshot(self) -> PolicySnapshot:
        return self._snapshot
