"""The guard tier: one guarded expression per (querier, purpose,
relation), answered at the policy epoch (paper Sections 5.1, 6).

Three relations mirror the paper's layout:

* ``rGE`` (``sieve_guarded_expressions``):
  ``<id, querier, associated_table, purpose, action, outdated, ts_inserted_at>``
* ``rGG`` (``sieve_guards``): ``<id, guard_expression_id, attr, op, val, op2, val2>``
* ``rGP`` (``sieve_guard_partitions``): ``<guard_id, policy_id>``

Each (querier, purpose, relation) has one :class:`GuardEntry` in one
map: the querier's applicable policies on the relation (the PQM filter,
Section 3.2) and the guarded expression that enforces them — ``None``
for the default-deny outcome (Section 3.1), which gets no rGE row —
stamped with the policy epoch it answered at.  :meth:`GuardStore.resolve`
serves an entry stamped with the request's epoch without taking the
build lock; any other request maintains or builds under that lock.  A
querier with no applicable policy and no held expression — a stranger —
gets the default deny without the lock and without an entry, so the map
does not grow with the names callers make up.

A policy write reaches the store through its one listener.  An entry
the written policy can affect — its relation, and a querier the policy
names directly or through one of the querier's groups — loses its stamp
and its rGE row is flagged ``outdated``; every other entry current at
the previous epoch is re-stamped to the new one, so unrelated queriers
stay warm.  The next request for an outdated entry either *maintains*
its expression — the caller's ``maintain`` edits it to the querier's
current policies and only the rGG/rGP rows of the guards that changed
are rewritten — or rebuilds and re-persists it whole (Section 5.1 "we
generate guards during query execution using triggers in case the
current guards are outdated").  Which of the two is the caller's
decision (Section 6, :mod:`repro.core.regeneration`).  A querier whose
last policy was revoked is served the default deny while the entry
keeps its expression, so a re-grant maintains it instead of selecting
afresh.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.core.cache import CacheStats
from repro.core.guards import Guard, GuardedExpression
from repro.obs.tracing import span
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicySnapshot, PolicyStore, _deserialize, _serialize
from repro.storage.schema import ColumnType, Schema

GE_TABLE = "sieve_guarded_expressions"
GUARD_TABLE = "sieve_guards"
PARTITION_TABLE = "sieve_guard_partitions"

CacheKey = tuple[Any, str, str]  # (querier, purpose, table lowercased)

#: ``generation(querier, purpose, table, policies)`` → ``(builder,
#: maintain)``: ``builder()`` selects G(P) afresh; ``maintain(held)``
#: edits ``held`` to ``policies`` (``held`` itself when nothing changed)
#: or returns ``None`` to have it regenerated.
Generation = Callable[[Any, str, str, list], tuple[Callable, Callable]]


@dataclass(eq=False)
class _Rows:
    """The persisted state of one key: the held expression — what
    maintenance edits — and its rGE/rGG/rGP rows.  Touched only under
    the build lock."""

    expression: GuardedExpression
    ge_rowid: int
    outdated: bool = False
    #: ``Guard.key`` -> (rGG rowid, rGP rowids) of each persisted guard.
    guard_rows: dict[int, tuple[int, list[int]]] = field(default_factory=dict)


@dataclass(eq=False)
class GuardEntry:
    """One (querier, purpose, relation)'s answer at policy epoch
    ``epoch``: the querier's applicable policies on the relation and the
    guarded expression enforcing them, ``None`` when there are none.
    ``epoch`` is ``None`` once a policy write affected the entry: it
    serves no request until maintained.  Only the stamp ever changes; a
    new answer is a new entry."""

    querier: Any
    purpose: str
    table: str  # lowercased relation name
    policies: list[Policy]
    expression: GuardedExpression | None
    epoch: int | None
    rows: _Rows | None = None


class GuardStore:
    """The guard tier: resolution at the policy epoch, staleness, and
    persistence of guarded expressions."""

    def __init__(self, db, policy_store: PolicyStore):
        self.db = db
        self.policy_store = policy_store
        #: Lookups of :meth:`resolve` — the serving tier's
        #: ``guard_cache`` counts.
        self.stats = CacheStats()
        self._count_lock = threading.Lock()
        self._entries: dict[CacheKey, GuardEntry] = {}
        # The build lock: serializes every change to the map and guard
        # persistence, which writes rGE/rGG/rGP rows into the bundled
        # engine, whose heap/index internals are not safe under
        # concurrent mutation.  Never held while reading the policy
        # store (builds consume a pre-taken snapshot), so no ordering
        # against the store's RW lock can arise.
        self.lock = threading.RLock()
        self._ge_ids = itertools.count(1)
        self._guard_ids = itertools.count(1)
        self._install()
        # Weak registration, as in Sieve.__init__: a dead GuardStore
        # (and its expressions) must not be pinned by the policy store.
        self_ref = weakref.ref(self)

        def _policy_hook(kind: str, policy: Policy, epoch: int) -> None:
            live = self_ref()
            if live is None:
                policy_store.remove_mutation_listener(_policy_hook)
                return
            live._on_policy_mutation(policy, epoch)

        policy_store.add_mutation_listener(_policy_hook)

    def _install(self) -> None:
        if self.db.catalog.has_table(GE_TABLE):
            return
        self.db.create_table(
            GE_TABLE,
            Schema.of(
                ("id", ColumnType.INT),
                ("querier", ColumnType.VARCHAR),
                ("associated_table", ColumnType.VARCHAR),
                ("purpose", ColumnType.VARCHAR),
                ("action", ColumnType.VARCHAR),
                ("outdated", ColumnType.BOOL),
                ("ts_inserted_at", ColumnType.INT),
            ),
        )
        self.db.create_table(
            GUARD_TABLE,
            Schema.of(
                ("id", ColumnType.INT),
                ("guard_expression_id", ColumnType.INT),
                ("attr_type", ColumnType.VARCHAR),
                ("attr", ColumnType.VARCHAR),
                ("op", ColumnType.VARCHAR),
                ("val", ColumnType.VARCHAR),
                ("op2", ColumnType.VARCHAR),
                ("val2", ColumnType.VARCHAR),
            ),
        )
        self.db.create_table(
            PARTITION_TABLE,
            Schema.of(
                ("guard_id", ColumnType.INT),
                ("policy_id", ColumnType.INT),
            ),
        )

    # ------------------------------------------------------------ resolution

    def resolve(
        self,
        querier: Any,
        purpose: str,
        table: str,
        snapshot: PolicySnapshot,
        generation: Generation,
        force_rebuild: bool = False,
    ) -> tuple[GuardEntry, bool]:
        """The guard state of one relation at ``snapshot``'s epoch.

        An entry stamped with that epoch is served as it is, without
        the build lock.  Otherwise, under the lock, the policies
        ``snapshot`` holds for the querier are read and the held
        expression is maintained to them, or built when there is none,
        when ``maintain`` declines or on ``force_rebuild``
        (``generation`` gives both steps; see :data:`Generation`).
        Requests that waited on the lock for a build of the same key at
        the same epoch share its entry (``stats.coalesced``).  Returns
        ``(entry, regenerated?)`` — ``regenerated`` only when this call
        selected the guards afresh."""
        key: CacheKey = (querier, purpose, table.lower())
        with span("guard.resolve", table=table) as sp:
            entry = self._entries.get(key)
            hit = not force_rebuild and entry is not None and entry.epoch == snapshot.epoch
            with self._count_lock:
                if hit:
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1
            rebuilt = False
            if not hit:
                entry, rebuilt = self._build(key, snapshot, generation, force_rebuild)
            sp.set(hit=hit, rebuilt=rebuilt, policies=len(entry.policies))
        return entry, rebuilt

    def _build(
        self, key: CacheKey, snapshot: PolicySnapshot, generation: Generation, force_rebuild: bool
    ) -> tuple[GuardEntry, bool]:
        """:meth:`resolve`'s miss: the corpus and the statistics are
        read before the lock is taken, the rest runs under it."""
        querier, purpose, table = key
        epoch = snapshot.epoch
        policies = snapshot.policies_for(querier, purpose, table)
        if not policies and ((current := self._entries.get(key)) is None or current.rows is None):
            # A querier with nothing applicable and nothing held: the
            # default deny, answered without the lock and filed nowhere,
            # so a stranger's name leaves no entry behind.
            return GuardEntry(querier, purpose, table, policies, None, epoch), False
        steps = generation(querier, purpose, table, policies) if policies else None
        with self.lock:
            current = self._entries.get(key)
            if current is not None and current.epoch == epoch and not force_rebuild:
                with self._count_lock:
                    self.stats.coalesced += 1
                return current, False
            rows = current.rows if current is not None else None
            expression, rebuilt = None, False
            if steps is not None:
                expression, rows, rebuilt = self._maintain(key, rows, *steps, force_rebuild)
            entry = GuardEntry(querier, purpose, table, policies, expression, epoch, rows)
            if current is None or current.epoch is None or current.epoch <= epoch:
                self._entries[key] = entry
            elif current.rows is None and rows is not None:
                # Pinned behind an entry a newer epoch stamped: that
                # answer stays, but it takes over the rows built here.
                self._entries[key] = replace(current, rows=rows)
            return entry, rebuilt

    def _maintain(
        self,
        key: CacheKey,
        rows: _Rows | None,
        builder: Callable[[], GuardedExpression],
        maintain: Callable[[GuardedExpression], GuardedExpression | None],
        force_rebuild: bool,
    ) -> tuple[GuardedExpression, _Rows, bool]:
        """The held expression brought up to date, under the lock:
        ``maintain(held)`` is asked whatever the ``outdated`` flag says,
        so a caller pinned to another epoch's corpus than the last one
        still gets an expression exact for its own.  Returns
        ``(expression, rows, regenerated?)``."""
        if rows is not None and not force_rebuild:
            maintained = maintain(rows.expression)
            if maintained is not None:
                if maintained is not rows.expression:
                    self._persist_edit(rows, maintained)
                self._flag(rows, False)
                return maintained, rows, False
        expression = builder()
        return expression, self._persist(key, expression, rows), True

    # ------------------------------------------------------------ staleness

    def _on_policy_mutation(self, policy: Policy, epoch: int) -> None:
        """A policy was inserted, deleted or updated (``epoch`` is the
        store's epoch after *this* write): affected entries lose their
        stamp and their rows are flagged outdated, every other entry
        stamped ``epoch - 1`` is carried to ``epoch``.  What changed is
        read off the corpus when the entry is next asked for.

        Entries already stale from an *unheard* bump
        (:meth:`reload_from_database
        <repro.policy.store.PolicyStore.reload_from_database>` and a
        change to the protected set — corpus-wide, so no per-querier
        event may carry an entry across them) stay stale.  Fired by the
        policy store *after* its write lock is released, and a write's
        events may arrive after a later write's, so the event's own
        ``epoch`` is the one compared, never the live store's."""
        table = policy.table.lower()
        groups = self.policy_store.groups
        invalidated = 0
        with self.lock:
            for entry in self._entries.values():
                if entry.table == table and (
                    policy.querier == entry.querier
                    or policy.querier in groups.groups_of(entry.querier)
                ):
                    if entry.rows is not None:
                        self._flag(entry.rows, True)
                    if entry.epoch is not None:
                        entry.epoch = None
                        invalidated += 1
                elif entry.epoch == epoch - 1:
                    entry.epoch = epoch
        if invalidated:
            with self._count_lock:
                self.stats.invalidations += invalidated

    def _flag(self, rows: _Rows, outdated: bool) -> None:
        if rows.outdated != outdated:
            rows.outdated = outdated
            row = list(self.db.catalog.table(GE_TABLE).row(rows.ge_rowid))
            row[5] = outdated
            self.db.update_row(GE_TABLE, rows.ge_rowid, row)

    def is_outdated(self, querier: Any, purpose: str, table: str) -> bool:
        entry = self._entries.get((querier, purpose, table.lower()))
        return entry is None or entry.rows is None or entry.rows.outdated

    # --------------------------------------------------------------- access

    def entry(self, querier: Any, purpose: str, table: str) -> GuardEntry | None:
        """The entry held for the key, whatever its stamp."""
        return self._entries.get((querier, purpose, table.lower()))

    def peek(self, querier: Any, purpose: str, table: str) -> GuardedExpression | None:
        """The held expression — the persisted one maintenance edits."""
        entry = self._entries.get((querier, purpose, table.lower()))
        return entry.rows.expression if entry is not None and entry.rows is not None else None

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[CacheKey]:
        with self.lock:
            return list(self._entries)

    def queriers(self) -> set[Any]:
        """Distinct queriers holding an entry — what the cluster's
        rebalance and recovery sweeps consult."""
        with self.lock:
            return {key[0] for key in self._entries}

    def invalidate(self, querier: Any = None) -> int:
        """Drop every entry (and its persisted rows) for ``querier``, or
        for everyone when ``None`` — the hard reset behind
        :meth:`Sieve.invalidate_caches
        <repro.core.middleware.Sieve.invalidate_caches>` after group
        directory edits, which no policy epoch sees."""
        with self.lock:
            doomed = [key for key in self._entries if querier is None or key[0] == querier]
            for key in doomed:
                rows = self._entries.pop(key).rows
                if rows is not None:
                    self._retire(rows)
        with self._count_lock:
            self.stats.invalidations += len(doomed)
        return len(doomed)

    # ---------------------------------------------------------- persistence

    def _persist(self, key: CacheKey, expression: GuardedExpression, rows: _Rows | None) -> _Rows:
        """Persist a freshly built ``expression`` under a new rGE row,
        retiring the one ``rows`` held; returns the key's rows."""
        if rows is not None:
            self._retire(rows)
        ge_id = next(self._ge_ids)
        expression.created_at = ge_id
        ge_rowid = self.db.insert_row(
            GE_TABLE,
            (ge_id, str(key[0]), expression.table, key[1], "allow", False, ge_id),
        )
        if rows is None:
            rows = _Rows(expression, ge_rowid)
        else:
            rows.expression, rows.ge_rowid, rows.outdated = expression, ge_rowid, False
            rows.guard_rows = {}
        self._write_guards(rows, ge_id, expression.guards)
        return rows

    def _persist_edit(self, rows: _Rows, maintained: GuardedExpression) -> None:
        """``maintained`` succeeds ``rows.expression`` under the same
        rGE row.  Guards the two share by identity keep their rows and
        their compiled branches; the others' rows are rewritten, and the
        engine is told to forget the branches no expression holds any
        more and the ORs that held them."""
        held = rows.expression
        shared = {id(guard) for guard in maintained.guards}
        retired = [guard for guard in held.guards if id(guard) not in shared]
        self.db.release_compiled(held.rendered_exprs(retired))
        for guard in retired:
            self._delete_guard(rows.guard_rows.pop(guard.key))
        # created_at is the rGE id, carried through every edit.
        added = [guard for guard in maintained.guards if guard.key not in rows.guard_rows]
        self._write_guards(rows, held.created_at, added)
        rows.expression = maintained

    def _write_guards(self, rows: _Rows, ge_id: int, guards: list[Guard]) -> None:
        """Persist ``guards`` under rGE id ``ge_id``: their rGG rows in
        one batch, then their rGP rows in another (each validated
        against its schema once), in guard order — the rows and rowids
        writing them guard by guard gives."""
        guard_rows, partition_rows = [], []
        for guard in guards:
            guard_id = next(self._guard_ids)
            oc = guard.condition
            tag, payload = _serialize(oc.value)
            payload2 = _serialize(oc.value2)[1] if oc.op2 is not None else ""
            guard_rows.append((guard_id, ge_id, tag, oc.attr, oc.op, payload, oc.op2 or "", payload2))
            partition_rows.extend((guard_id, policy.id) for policy in guard.policies)
        guard_ids = iter(self.db.insert_batch(GUARD_TABLE, guard_rows))
        partition_ids = iter(self.db.insert_batch(PARTITION_TABLE, partition_rows))
        for guard in guards:
            rows.guard_rows[guard.key] = (
                next(guard_ids),
                [next(partition_ids) for _ in guard.policies],
            )

    def _delete_guard(self, rows: tuple[int, list[int]]) -> None:
        self.db.delete_row(GUARD_TABLE, rows[0])
        for rowid in rows[1]:
            self.db.delete_row(PARTITION_TABLE, rowid)

    def _retire(self, rows: _Rows) -> None:
        """A replaced or dropped expression takes its persisted rows and
        the engine's compiled predicates over its guard AST with it —
        no later rewrite can produce that AST object again, and each
        compiled predicate pins the AST plus a generated kernel."""
        self.db.release_compiled(rows.expression.rendered_exprs())
        self.db.delete_row(GE_TABLE, rows.ge_rowid)
        for guard_rows in rows.guard_rows.values():
            self._delete_guard(guard_rows)

    def load_persisted(self, querier: Any, purpose: str, table: str) -> GuardedExpression | None:
        """Rebuild a GuardedExpression from the rGE/rGG/rGP tables
        (round-trip check used by tests; the hot path reads the map)."""
        ge_table = self.db.catalog.table(GE_TABLE)
        target = None
        for _rowid, row in ge_table.scan():
            if (
                row[1] == str(querier)
                and row[2].lower() == table.lower()
                and row[3] == purpose
            ):
                target = row
        if target is None:
            return None
        ge_id = target[0]
        guards: list[Guard] = []
        guard_table = self.db.catalog.table(GUARD_TABLE)
        partition_table = self.db.catalog.table(PARTITION_TABLE)
        for _rowid, grow in guard_table.scan():
            gid, owner_ge, tag, attr, op, val, op2, val2 = grow
            if owner_ge != ge_id:
                continue
            condition = ObjectCondition(
                attr=attr,
                op=op,
                value=_deserialize(tag, val),
                op2=op2 or None,
                value2=_deserialize(tag, val2) if op2 else None,
            )
            policy_ids = [
                prow[1]
                for _r, prow in partition_table.scan()
                if prow[0] == gid
            ]
            policies = [self.policy_store.get(pid) for pid in policy_ids]
            guards.append(Guard(condition=condition, policies=policies, cardinality=0.0))
        return GuardedExpression(
            querier=querier,
            purpose=purpose,
            table=table,
            guards=guards,
        )
