"""Guarded-expression persistence (paper Sections 5.1, 6).

Three relations mirror the paper's layout:

* ``rGE`` (``sieve_guarded_expressions``):
  ``<id, querier, associated_table, purpose, action, outdated, ts_inserted_at>``
* ``rGG`` (``sieve_guards``): ``<id, guard_expression_id, attr, op, val, op2, val2>``
* ``rGP`` (``sieve_guard_partitions``): ``<guard_id, policy_id>``

Guarded expressions are brought up to date lazily: a policy write flips
the ``outdated`` flag of every affected querier's expressions (found
via the group directory); the next query by that querier either
*maintains* the expression — the caller's ``maintain`` edits it to the
querier's current policies and only the rGG/rGP rows of the guards that
changed are rewritten — or rebuilds and re-persists it whole (Section
5.1 "we generate guards during query execution using triggers in case
the current guards are outdated").  Which of the two is the caller's
decision (Section 6, :mod:`repro.core.regeneration`).

This store is the *durable* tier: it owns the rGE/rGG/rGP rows and the
staleness flags.  The fast tier —
the epoch-validated LRU the hot path actually hits — lives above it in
:mod:`repro.core.cache`; on a cache miss the middleware falls through
to :meth:`GuardStore.get_or_build` here.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.guards import Guard, GuardedExpression
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore, _deserialize, _serialize
from repro.storage.schema import ColumnType, Schema

GE_TABLE = "sieve_guarded_expressions"
GUARD_TABLE = "sieve_guards"
PARTITION_TABLE = "sieve_guard_partitions"

CacheKey = tuple[Any, str, str]  # (querier, purpose, table lowercased)


@dataclass
class _CacheEntry:
    expression: GuardedExpression
    ge_rowid: int
    outdated: bool = False
    #: ``Guard.key`` -> (rGG rowid, rGP rowids) of each persisted guard.
    guard_rows: dict[int, tuple[int, list[int]]] = field(default_factory=dict)


class GuardStore:
    """Cache + persistence for guarded expressions, with staleness."""

    def __init__(self, db, policy_store: PolicyStore):
        self.db = db
        self.policy_store = policy_store
        self._cache: dict[CacheKey, _CacheEntry] = {}
        # Serializes guard persistence: builds write rGE/rGG/rGP rows
        # into the bundled engine, whose heap/index internals are not
        # safe under concurrent mutation.  Reentrant because
        # Sieve.guarded_expression_for wraps its decide-and-build
        # sequence in the same lock.  Never held while reading the
        # policy store (builders consume a pre-taken snapshot), so no
        # ordering against the store's RW lock can arise.
        self.lock = threading.RLock()
        self._ge_ids = itertools.count(1)
        self._guard_ids = itertools.count(1)
        self._install()
        # Weak registration, as in Sieve.__init__: a dead GuardStore
        # (and its cached expressions) must not be pinned by the store.
        self_ref = weakref.ref(self)

        def _policy_hook(kind: str, policy: Policy, epoch: int) -> None:
            live = self_ref()
            if live is None:
                policy_store.remove_mutation_listener(_policy_hook)
                return
            live._on_policy_change(policy)

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

    # ------------------------------------------------------------ staleness

    def _on_policy_change(self, policy: Policy) -> None:
        """Policy inserted/deleted: flip outdated on affected queriers
        (all the store needs to hear of a write — what changed is read
        off the corpus when the expression is next asked for).

        Fired by the policy store *after* its write lock is released,
        so taking the guard-store lock here cannot form a cycle with a
        concurrent build (which holds this lock but never blocks on the
        policy store — builders read a pre-taken snapshot)."""
        with self.lock:
            for (querier, purpose, table), entry in self._cache.items():
                if table != policy.table.lower():
                    continue
                affected = policy.querier == querier or (
                    policy.querier in self.policy_store.groups.groups_of(querier)
                )
                if affected:
                    self._flag(entry, True)

    def _flag(self, entry: _CacheEntry, outdated: bool) -> None:
        if entry.outdated != outdated:
            entry.outdated = outdated
            row = list(self.db.catalog.table(GE_TABLE).row(entry.ge_rowid))
            row[5] = outdated
            self.db.update_row(GE_TABLE, entry.ge_rowid, row)

    def is_outdated(self, querier: Any, purpose: str, table: str) -> bool:
        with self.lock:
            entry = self._cache.get((querier, purpose, table.lower()))
            return entry is None or entry.outdated

    # --------------------------------------------------------------- access

    def get_or_build(
        self,
        querier: Any,
        purpose: str,
        table: str,
        builder: Callable[[], GuardedExpression],
        maintain: Callable[[GuardedExpression], GuardedExpression | None],
        force_rebuild: bool = False,
    ) -> tuple[GuardedExpression, bool]:
        """Return the cached G(P), brought up to date first.

        ``maintain(held)`` returns the held expression edited to the
        caller's corpus (``held`` itself when nothing changed), or
        ``None`` to have it regenerated; it is asked whatever the
        ``outdated`` flag says, so a caller pinned to another epoch's
        corpus than the last one still gets an expression exact for its
        own.  Returns (expression, regenerated?) — ``regenerated`` only
        when ``builder`` ran.
        """
        key: CacheKey = (querier, purpose, table.lower())
        with self.lock:
            entry = self._cache.get(key)
            if entry is not None and not force_rebuild:
                maintained = maintain(entry.expression)
                if maintained is not None:
                    if maintained is not entry.expression:
                        self._persist_edit(entry, maintained)
                    self._flag(entry, False)
                    return maintained, False
            expression = builder()
            self._persist(key, expression, replacing=entry)
            return expression, True

    def peek(self, querier: Any, purpose: str, table: str) -> GuardedExpression | None:
        with self.lock:
            entry = self._cache.get((querier, purpose, table.lower()))
            return entry.expression if entry else None

    def cached_expressions(self) -> list[GuardedExpression]:
        with self.lock:
            return [entry.expression for entry in self._cache.values()]

    def cache_size(self) -> int:
        """Number of (querier, purpose, relation) expressions held."""
        with self.lock:
            return len(self._cache)

    def drop(self, querier: Any, purpose: str, table: str) -> bool:
        """Forget one cached expression and its persisted rows
        (explicit invalidation; the next query rebuilds from scratch)."""
        with self.lock:
            entry = self._cache.pop((querier, purpose, table.lower()), None)
            if entry is None:
                return False
            self._retire(entry)
            return True

    def invalidate(self, querier: Any = None) -> int:
        """Drop every cached expression (and its persisted rows) for
        ``querier``, or for everyone when ``None`` — the hard reset
        behind :meth:`Sieve.invalidate_caches
        <repro.core.middleware.Sieve.invalidate_caches>` after group
        directory edits, which the ``outdated`` machinery cannot see."""
        with self.lock:
            doomed = [
                key for key in self._cache if querier is None or key[0] == querier
            ]
            for key in doomed:
                self._retire(self._cache.pop(key))
            return len(doomed)

    # ---------------------------------------------------------- persistence

    def _persist(
        self, key: CacheKey, expression: GuardedExpression, replacing: _CacheEntry | None
    ) -> None:
        if replacing is not None:
            self._retire(replacing)
        ge_id = next(self._ge_ids)
        expression.created_at = ge_id
        ge_rowid = self.db.insert_row(
            GE_TABLE,
            (ge_id, str(key[0]), expression.table, key[1], "allow", False, ge_id),
        )
        self._cache[key] = entry = _CacheEntry(expression, ge_rowid)
        for guard in expression.guards:
            entry.guard_rows[guard.key] = self._write_guard(ge_id, guard)

    def _persist_edit(self, entry: _CacheEntry, maintained: GuardedExpression) -> None:
        """``maintained`` succeeds ``entry.expression`` under the same
        rGE row.  Guards the two share by identity keep their rows and
        their compiled branches; the others' rows are rewritten, and the
        engine is told to forget the branches no expression holds any
        more and the ORs that held them."""
        held = entry.expression
        shared = {id(guard) for guard in maintained.guards}
        retired = [guard for guard in held.guards if id(guard) not in shared]
        self.db.release_compiled(held.rendered_exprs(retired))
        for guard in retired:
            self._delete_guard(entry.guard_rows.pop(guard.key))
        for guard in maintained.guards:
            if guard.key not in entry.guard_rows:
                # created_at is the rGE id, carried through every edit.
                entry.guard_rows[guard.key] = self._write_guard(held.created_at, guard)
        entry.expression = maintained

    def _write_guard(self, ge_id: int, guard: Guard) -> tuple[int, list[int]]:
        guard_id = next(self._guard_ids)
        oc = guard.condition
        tag, payload = _serialize(oc.value)
        payload2 = _serialize(oc.value2)[1] if oc.op2 is not None else ""
        rowid = self.db.insert_row(
            GUARD_TABLE,
            (guard_id, ge_id, tag, oc.attr, oc.op, payload, oc.op2 or "", payload2),
        )
        return rowid, [
            self.db.insert_row(PARTITION_TABLE, (guard_id, policy.id))
            for policy in guard.policies
        ]

    def _delete_guard(self, rows: tuple[int, list[int]]) -> None:
        self.db.delete_row(GUARD_TABLE, rows[0])
        for rowid in rows[1]:
            self.db.delete_row(PARTITION_TABLE, rowid)

    def _retire(self, entry: _CacheEntry) -> None:
        """A replaced or dropped expression takes its persisted rows and
        the engine's compiled predicates over its guard AST with it —
        no later rewrite can produce that AST object again, and each
        compiled predicate pins the AST plus a generated kernel."""
        self.db.release_compiled(entry.expression.rendered_exprs())
        self.db.delete_row(GE_TABLE, entry.ge_rowid)
        for rows in entry.guard_rows.values():
            self._delete_guard(rows)

    def load_persisted(self, querier: Any, purpose: str, table: str) -> GuardedExpression | None:
        """Rebuild a GuardedExpression from the rGE/rGG/rGP tables
        (round-trip check used by tests; the hot path uses the cache)."""
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
