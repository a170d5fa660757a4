"""The plan cache and the cache counts.

The paper's core bet is that enforcement work is done *once* and
amortized over many queries (Section 5.1: "the one-time cost of
generating guards is amortized across query executions").  Guarded
expressions are amortized by the guard tier,
:class:`~repro.core.guard_store.GuardStore`; this module holds what is
amortized beside them:

* :class:`PlanCache` — a bounded, thread-safe LRU of the post-rewrite,
  post-plan artifacts of a statement's template and of its bindings,
  each serving only at the policy epoch and the catalog/statistics
  version it was built for.  A policy write drops only the entries the
  written policy can affect and re-stamps the rest, so unrelated
  queriers stay warm.
* :class:`CacheStats` — the hit/miss counts of a cache, kept by the
  plan cache and by the guard tier alike, so benches and the serving
  tier assert hit rates without wall clocks.

``docs/ARCHITECTURE.md`` §3 places both tiers in the dataflow and
states the memoisation rule they are held to.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from repro.common.concurrency import SingleFlight
from repro.core.guards import GuardedExpression
from repro.policy.model import Policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sql.ast import Query

DEFAULT_PLAN_CACHE_CAPACITY = 256


@dataclass
class CacheStats:
    """Hit/miss accounting for the plan cache or the guard tier."""

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


@dataclass
class CachedPlan:
    """One memoized end-of-pipeline artifact: a binding's plan, or a
    template's rewrite.

    ``rewritten`` is the enforcement rewrite's AST, ``planned`` the
    bundled engine's :class:`~repro.optimizer.planner.PlannedQuery`
    (``None`` when a backend executes the printed ``info.sql``
    instead); for a template's rewrite, which is bound, not run, it is
    that rewrite's :class:`~repro.optimizer.planner.PlanTemplate` once
    a binding has planned it (``None`` before) — see :class:`PlanCache`.
    Executors never mutate plan nodes, so one PlannedQuery is safely
    re-executed any number of times from any thread.
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
    #: A template rewrite's guarded expressions, by table: it serves
    #: only a request that resolved these very objects.
    guards: dict[str, GuardedExpression] | None = None


class PlanCache:
    """A bounded LRU of post-rewrite, post-plan artifacts whose entries
    serve only inside their fence: the policy ``epoch`` they are valid
    at and ``version``, the database's ``plan_version``.
    :meth:`lookup` serves an entry only when both equal the caller's;
    a policy write drops the entries it can affect and re-stamps the
    rest (:meth:`on_policy_mutation`, the guard tier's rule too).
    Group-directory edits move neither — call
    :meth:`Sieve.invalidate_caches
    <repro.core.middleware.Sieve.invalidate_caches>` after them.

    Every execution consults it.  Prepared and served statements
    (:meth:`Sieve.prepare <repro.core.middleware.Sieve.prepare>`,
    :meth:`Sieve.serve <repro.core.middleware.Sieve.serve>`) keep a
    plan per binding, keyed by ``(querier, purpose, template_key,
    binding values)`` — the binding values are part of the key because
    strategy choice and access-path planning are *value-dependent*
    (selectivity estimates read the literals), so keying on them keeps
    the prepared path row- and counter-identical to the unprepared one
    by construction; repeated shapes with repeated values (the Fig. 6
    serving workload — and any zero-literal query) skip parse →
    strategy → rewrite → plan entirely.  Each value is keyed with its
    type: ``2`` and ``2.0`` are one Python key but two SQL constants.

    Beside the plans it holds each template's *rewrite* per decision
    shape (keyed ``(querier, purpose, template_key, per-table decision
    shape, denied tables)`` by :meth:`Sieve._rewritten_template
    <repro.core.middleware.Sieve._rewritten_template>`), with the
    rewrite's plan template as its ``planned``: a fresh binding whose
    plan misses — and every :meth:`Sieve.execute
    <repro.core.middleware.Sieve.execute>`, which keeps no plan per
    binding — binds both instead of rewriting and planning.  Those
    entries are fenced, evicted and invalidated like the plans, but
    :meth:`rewrite_entry` does not count in :attr:`stats`.

    **Thread-safe**: every public method holds an internal lock around
    the LRU dict, never while calling out (no builder re-entry → no
    lock-order cycles).
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("PlanCache capacity must be positive")
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

    def lookup(self, key: Hashable, epoch: int, version: tuple) -> Any:
        """The entry under ``key`` if it serves at this fence, else ``None``."""
        with self._lock:
            entry = self._serving(key, epoch, version)
            if entry is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return entry

    def _serving(self, key: Hashable, epoch: int, version: tuple) -> Any:
        """:meth:`lookup` without the count; the caller holds the lock."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.version != version or entry.epoch < epoch:
            # Version moved (catalog / stats / UDFs): the plan may
            # be arbitrarily wrong at any epoch.  Older epoch: no
            # mutation hook carried it forward (an unheard bump, or
            # admission under an older epoch after capacity churn).
            del self._entries[key]
            return None
        if entry.epoch > epoch:
            # The caller's snapshot is pinned behind a concurrent
            # mutation that carried this entry forward.  Miss for
            # this request (it must plan against its own epoch) but
            # KEEP the entry — it is valid for live-epoch traffic.
            return None
        self._entries.move_to_end(key)
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

    def get_or_build(self, key: Hashable, epoch: int, version: tuple, builder: Callable):
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

    def rewrite_entry(self, key: Hashable, epoch: int, version: tuple) -> CachedPlan | None:
        """The template rewrite under ``key`` if it serves at this
        fence, uncounted."""
        with self._lock:
            return self._serving(key, epoch, version)
