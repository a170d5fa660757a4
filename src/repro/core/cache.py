"""Fenced caching — the middleware amortization layer.

The paper's core bet is that guarded expressions are generated *once*
and amortized over many queries (Section 5.1: "the one-time cost of
generating guards is amortized across query executions").  This module
is where the repo keeps that promise:

* :class:`FencedCache` — the one mechanism: a bounded, thread-safe LRU
  whose entries serve only at the policy epoch (and, optionally, the
  catalog/statistics version) they were built for.  Every policy
  mutation bumps the :class:`~repro.policy.store.PolicyStore` epoch;
  the mutation hook drops only the entries the mutated policy can
  affect and re-stamps the rest, so unrelated queriers stay warm.
* :class:`GuardCache` and :class:`PlanCache` — its two declarations:
  resolved ``(querier, purpose, relation)`` guard state, and the
  post-rewrite, post-plan artifact of one prepared-query binding.
* :class:`SieveSession` — the per-``(querier, purpose)`` façade
  returned by :meth:`Sieve.session <repro.core.middleware.Sieve.session>`;
  it resolves each referenced relation through the shared
  :class:`GuardCache`, so the policy corpus is filtered once per
  session (per epoch) rather than once per query.

Interplay with Section 6 regeneration: a policy mutation evicts the
affected cache entries, and the next resolve admits the guarded
expression *maintained* to the new corpus at the current epoch; when
its guards are selected afresh instead still belongs to
:class:`~repro.core.regeneration.RegenerationController` (the k̃-th
insertion, Theorem 2).

Cache traffic is charged to the deterministic counters
(``guard_cache_hits`` … ``plan_cache_misses`` in
:class:`~repro.db.counters.CounterSet`) so benches can assert hit
rates without wall clocks.  ``docs/ARCHITECTURE.md`` §3 places this
layer in the dataflow and states the memoisation rule it is held to.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from repro.common.concurrency import SingleFlight
from repro.core.guards import GuardedExpression
from repro.obs.tracing import span
from repro.policy.model import Policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (middleware imports us)
    from repro.core.middleware import Sieve, SieveExecution
    from repro.engine.executor import QueryResult
    from repro.policy.store import PolicySnapshot
    from repro.sql.ast import Query

DEFAULT_GUARD_CACHE_CAPACITY = 512
DEFAULT_PLAN_CACHE_CAPACITY = 256


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`FencedCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    #: Lookups that found a concurrent build of the same key in flight
    #: and waited for it instead of duplicating the work (service tier).
    coalesced: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        return {**asdict(self), "hit_rate": self.hit_rate}

    @staticmethod
    def merge(snapshots: Iterable[dict[str, float] | None]) -> dict[str, float]:
        """Sum :meth:`snapshot` dicts (``None`` ones skipped) — the
        cluster's cross-shard view, hit rate over the summed traffic."""
        total = CacheStats()
        for snap in snapshots:
            for name, value in (snap or {}).items():
                if name != "hit_rate":
                    setattr(total, name, getattr(total, name) + value)
        return total.snapshot()


class FencedCache:
    """A bounded LRU whose entries serve only inside their fence — the
    one place the rule "what a querier sees across policy-state
    changes" lives.

    An entry is any object carrying the ``querier`` and lowercased
    ``tables`` it was built for (what invalidation matches on) and its
    fence: the policy ``epoch`` it is valid at and a ``version`` (the
    database's ``plan_version``; ``None`` for state without that axis).
    :meth:`lookup` serves an entry only when both equal the caller's.
    Group-directory edits (and, for unversioned state, ``db.analyze()``)
    move neither — call :meth:`Sieve.invalidate_caches
    <repro.core.middleware.Sieve.invalidate_caches>` after them.

    **Thread-safe** and process-wide shareable: every public method
    holds an internal lock around the LRU dict (the seed's bare
    ``OrderedDict`` corrupted under concurrent sessions — eviction
    during another thread's iteration), never while calling out (no
    store/builder re-entry → no lock-order cycles).
    """

    #: The ``CounterSet`` fields :meth:`charge` ticks — set by each declaration.
    hit_counter = miss_counter = ""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"{type(self).__name__} capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._flights = SingleFlight()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list:
        with self._lock:
            return list(self._entries)

    def queriers(self) -> set[Any]:
        """Distinct queriers holding an entry — what the cluster's
        rebalance and recovery sweeps consult (a querier can hold plans
        but no guard state: none of its relations carried policies)."""
        with self._lock:
            return {entry.querier for entry in self._entries.values()}

    def lookup(self, key: Hashable, epoch: int, version: tuple | None = None) -> Any:
        """The entry under ``key`` if it serves at this fence, else ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and (entry.version != version or entry.epoch < epoch):
                # Version moved (catalog / stats / UDFs): the plan may
                # be arbitrarily wrong at any epoch.  Older epoch: no
                # mutation hook carried it forward (an unheard bump, or
                # admission under an older epoch after capacity churn).
                del self._entries[key]
                entry = None
            elif entry is not None and entry.epoch > epoch:
                # The caller's snapshot is pinned behind a concurrent
                # mutation that carried this entry forward.  Miss for
                # this request (it must plan against its own epoch) but
                # KEEP the entry — it is valid for live-epoch traffic.
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def admit(self, key: Hashable, entry: Any) -> Any:
        """Store ``entry`` (evicting least-recently-used ones past the
        capacity) unless a fresher-epoch one is there; returns ``entry``."""
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.epoch > entry.epoch:
                # A request pinned to an older snapshot must not
                # clobber state already valid at a newer epoch; the
                # caller still gets its own (epoch-consistent) entry.
                return entry
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return entry

    def get_or_build(self, key: Hashable, epoch: int, version: tuple | None, builder: Callable):
        """:meth:`lookup`, then *single-flight* population: N concurrent
        misses of one key at one fence run one builder; the rest wait
        and share its entry (``stats.coalesced``).  ``builder()`` runs
        outside the cache lock (it may take arbitrarily long and
        re-enter the cache), must :meth:`admit` the entry itself, and
        returns ``(entry, extra)`` — ``extra`` being whatever only the
        caller that did the work may see (it may be mutated
        downstream).  Returns ``(entry, extra, hit)``; ``extra`` is
        ``None`` on a hit and for the followers of a coalesced build."""
        entry = self.lookup(key, epoch, version)
        if entry is not None:
            return entry, None, True
        (entry, extra), leader = self._flights.do((key, epoch, version), builder)
        if not leader:
            with self._lock:
                self.stats.coalesced += 1
            extra = None
        return entry, extra, False

    def charge(self, counters, hit: bool) -> None:
        """Record a lookup on the engine's deterministic counters,
        under this cache's lock — plain ``+=`` from concurrent workers
        loses increments (the exact hazard the ``service_*`` counters
        document), and benches assert on these values."""
        name = self.hit_counter if hit else self.miss_counter
        with self._lock:
            setattr(counters, name, getattr(counters, name) + 1)

    def invalidate(self, querier: Any = None, table: str | None = None) -> int:
        """Drop entries matching the given querier and/or relation
        (``None`` matches everything).  Returns the number dropped."""
        table_lc = table.lower() if table is not None else None
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if (querier is None or entry.querier == querier)
                and (table_lc is None or table_lc in entry.tables)
            ]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def on_policy_mutation(self, kind: str, policy: Policy, epoch: int, groups) -> int:
        """Targeted invalidation after a policy insert/delete/update
        (wired to :meth:`PolicyStore.add_mutation_listener
        <repro.policy.store.PolicyStore.add_mutation_listener>`).

        Entries referencing the mutated policy's relation whose querier
        the policy names — directly or via one of the querier's groups —
        are dropped; survivors valid at the previous epoch are
        re-stamped to ``epoch`` so they keep hitting.  Entries already
        stale from an *unheard* bump (:meth:`reload_from_database
        <repro.policy.store.PolicyStore.reload_from_database>` and a
        change to the protected set — corpus-wide, so no per-querier
        event may carry an entry across them) stay stale and are
        dropped on their next lookup.  Returns the number of entries
        dropped.
        """
        del kind  # insert/delete/update all invalidate identically
        table_lc = policy.table.lower()
        dropped = 0
        with self._lock:
            for key, entry in list(self._entries.items()):
                if table_lc in entry.tables and (
                    policy.querier == entry.querier
                    or policy.querier in groups.groups_of(entry.querier)
                ):
                    del self._entries[key]
                    dropped += 1
                elif entry.epoch == epoch - 1:
                    entry.epoch = epoch
            self.stats.invalidations += dropped
        return dropped


@dataclass
class CachedGuardEntry:
    """Resolved per-``(querier, purpose, relation)`` enforcement state.

    ``expression is None`` means the querier holds no applicable
    policies on the relation — the default-deny outcome (Section 3.1)
    is cached too, so repeated denied queries stay O(1).
    """

    querier: Any
    purpose: str
    table: str  # lowercased relation name
    policies: list[Policy] = field(default_factory=list)
    expression: GuardedExpression | None = None
    epoch: int = 0
    version = None  # not a field: guard state is fenced on the epoch alone

    @property
    def tables(self) -> tuple[str]:
        return (self.table,)


class GuardCache(FencedCache):
    """The :class:`FencedCache` of resolved guard state, keyed by
    ``(querier, purpose, relation)`` and fenced on the policy epoch: a
    hit skips the PQM filter (Section 3.2) and the guard fetch."""

    hit_counter, miss_counter = "guard_cache_hits", "guard_cache_misses"

    @staticmethod
    def _key(querier: Any, purpose: str, table: str) -> tuple[Any, str, str]:
        return (querier, purpose, table.lower())

    def get(self, querier: Any, purpose: str, table: str, epoch: int) -> CachedGuardEntry | None:
        return self.lookup(self._key(querier, purpose, table), epoch)

    def peek(self, querier: Any, purpose: str, table: str) -> CachedGuardEntry | None:
        """The stored entry regardless of epoch (introspection/tests)."""
        with self._lock:
            return self._entries.get(self._key(querier, purpose, table))

    def put(
        self,
        querier: Any,
        purpose: str,
        table: str,
        epoch: int,
        policies: list[Policy],
        expression: GuardedExpression | None,
    ) -> CachedGuardEntry:
        key = self._key(querier, purpose, table)
        entry = CachedGuardEntry(querier, purpose, key[2], list(policies), expression, epoch)
        return self.admit(key, entry)

    def resolve(
        self, querier: Any, purpose: str, table: str, epoch: int, builder: Callable
    ) -> tuple[CachedGuardEntry, bool, bool]:
        """:meth:`get_or_build` for one relation.  ``builder()`` returns
        ``(entry, rebuilt)`` and is expected to :meth:`put` the entry
        itself.  Returns ``(entry, rebuilt, hit)``; followers of a
        coalesced build report ``rebuilt=False`` (they did not
        regenerate anything themselves)."""
        key = self._key(querier, purpose, table)
        entry, rebuilt, hit = self.get_or_build(key, epoch, None, builder)
        return entry, bool(rebuilt), hit


@dataclass
class CachedPlan:
    """One memoized end-of-pipeline artifact for a prepared query.

    ``rewritten`` is the enforcement rewrite's AST, ``planned`` the
    bundled engine's :class:`~repro.optimizer.planner.PlannedQuery`
    (``None`` when a backend executes the printed ``info.sql``
    instead).  Executors never mutate plan nodes, so one PlannedQuery
    is safely re-executed any number of times from any thread.
    ``info`` is the original rewrite's full bookkeeping — strategy
    decisions, guard keys, denied tables — so a hit's audit record
    (:class:`~repro.audit.DecisionRecord`) is identical to the cold
    path's (asserted by ``tests/test_prepared.py`` and the replay
    oracle).  Fenced on two axes: the policy ``epoch`` (stale guards
    must never run) and ``version``, the database's ``plan_version``
    (catalog / UDF / statistics changes re-plan).
    """

    querier: Any
    tables: frozenset[str]  # lowercased names of every relation referenced
    epoch: int
    version: tuple
    rewritten: "Query"
    planned: Any  # PlannedQuery | None (backend executions carry None)
    info: Any  # RewriteInfo (not imported: cycle with core.rewriter)
    policies_considered: int


class PlanCache(FencedCache):
    """The :class:`FencedCache` of post-rewrite, post-plan artifacts.

    Keyed by ``(querier, purpose, template_key, binding values)`` —
    the binding values are part of the key because strategy choice and
    access-path planning are *value-dependent* (selectivity estimates
    read the literals), so a plan cached per-template-only could
    diverge from what the unprepared pipeline would build for other
    values.  Keying on the values keeps the prepared path row- and
    counter-identical to the unprepared one by construction; repeated
    shapes with repeated values (the Fig. 6 serving workload — and any
    zero-literal query) skip parse → strategy → rewrite → plan
    entirely.
    """

    hit_counter, miss_counter = "plan_cache_hits", "plan_cache_misses"


class SieveSession:
    """A ``(querier, purpose)``-scoped handle on the middleware.

    Obtained via :meth:`Sieve.session
    <repro.core.middleware.Sieve.session>`; all executions share the
    middleware's :class:`GuardCache`, so the PQM filter and guard
    fetch run only on the first query per relation (per policy epoch)::

        session = sieve.session("Prof.Smith", "analytics")
        results = session.execute_many(queries)   # corpus filtered once
        print(session.cache_stats.hit_rate)

    Sessions are cheap, long-lived views — they hold no query state of
    their own, so a mutation to the policy store is picked up by every
    session at its next execution (via the epoch check).  The one
    exception is :class:`~repro.policy.groups.GroupDirectory`
    membership edits, which do not bump the policy epoch; call
    :meth:`refresh` after changing group membership mid-session.
    """

    def __init__(self, sieve: "Sieve", querier: Any, purpose: str):
        self._sieve = sieve
        self.querier = querier
        self.purpose = purpose

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SieveSession(querier={self.querier!r}, purpose={self.purpose!r})"

    def resolve(
        self, table: str, snapshot: "PolicySnapshot | None" = None
    ) -> tuple[CachedGuardEntry, bool]:
        """Guard state for one relation, from cache when warm.

        Returns ``(entry, regenerated?)`` where ``regenerated`` is True
        only when this call selected the guards afresh (mirrors
        :meth:`GuardStore.get_or_build
        <repro.core.guard_store.GuardStore.get_or_build>`).

        ``snapshot`` pins the corpus view: the middleware passes one
        :meth:`PolicyStore.snapshot
        <repro.policy.store.PolicyStore.snapshot>` per request so every
        relation resolves against the same epoch even while writers
        mutate concurrently.  Concurrent misses of one key wait for one
        build (single-flight) instead of each re-generating the guards.
        """
        sieve = self._sieve
        counters = sieve.db.counters
        snap = snapshot if snapshot is not None else sieve.policy_store.snapshot()

        def build() -> tuple[CachedGuardEntry, bool]:
            policies = snap.policies_for(self.querier, self.purpose, table)
            expression: GuardedExpression | None = None
            rebuilt = False
            if policies:
                expression, rebuilt = sieve.guarded_expression_for(
                    self.querier, self.purpose, table, snapshot=snap
                )
            entry = sieve.guard_cache.put(
                self.querier, self.purpose, table, snap.epoch, policies, expression
            )
            return entry, rebuilt

        with span("guard.resolve", table=table) as sp:
            entry, rebuilt, hit = sieve.guard_cache.resolve(
                self.querier, self.purpose, table, snap.epoch, build
            )
            sieve.guard_cache.charge(counters, hit)
            sp.set(hit=hit, rebuilt=rebuilt, policies=len(entry.policies))
        return entry, rebuilt

    def refresh(self) -> int:
        """Drop this querier's cached state in every tier
        (:meth:`Sieve.invalidate_caches
        <repro.core.middleware.Sieve.invalidate_caches>`) — e.g. after
        group directory edits, which bypass the policy epoch."""
        return self._sieve.invalidate_caches(querier=self.querier)

    @property
    def cache_stats(self) -> CacheStats:
        """Stats of the middleware-wide guard cache this session feeds."""
        return self._sieve.guard_cache.stats

    def rewrite(self, sql: "str | Query") -> "Query":
        return self._sieve.rewrite(sql, self.querier, self.purpose)

    def rewritten_sql(self, sql: "str | Query") -> str:
        return self._sieve.rewritten_sql(sql, self.querier, self.purpose)

    def prepare(self, sql: "str | Query") -> Any:
        """A :class:`~repro.core.middleware.PreparedQuery` bound to this
        session's (querier, purpose); see :meth:`Sieve.prepare
        <repro.core.middleware.Sieve.prepare>`."""
        return self._sieve.prepare(sql, self.querier, self.purpose)

    def execute(self, sql: "str | Query") -> "QueryResult":
        return self._sieve.execute(sql, self.querier, self.purpose)

    def execute_with_info(self, sql: "str | Query") -> "SieveExecution":
        return self._sieve.execute_with_info(sql, self.querier, self.purpose)

    def execute_many(self, sqls: Iterable["str | Query"]) -> "list[QueryResult]":
        """Run a batch of queries under one metadata context.

        The first query per referenced relation pays the PQM filter and
        guard fetch; the rest hit the shared cache, so middleware work
        per query is O(parse + rewrite) instead of O(policy corpus).
        """
        return [self.execute(sql) for sql in sqls]

    def execute_many_with_info(self, sqls: Iterable["str | Query"]) -> "list[SieveExecution]":
        return [self.execute_with_info(sql) for sql in sqls]
