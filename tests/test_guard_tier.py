"""The guard tier and the plan cache: warm == cold, targeted
invalidation, the fence contract.

The acceptance bar for both tiers is *bit-identical* results: whatever a
cold middleware answers, a warm one must answer too — including
immediately after policy inserts, deletes and updates.
"""

import threading
import time

import pytest

from repro.core import Sieve
from repro.common.errors import PolicyError
from repro.core.cache import CachedPlan, CacheStats, PlanCache
from repro.core.guards import GuardedExpression
from repro.policy.groups import GroupDirectory
from repro.policy.model import ObjectCondition, Policy
from repro.policy.store import PolicyStore

from tests.conftest import brute_force_allowed, make_policies, make_wifi_db

QUERIES = [
    "SELECT * FROM wifi WHERE ts_date BETWEEN 10 AND 70",
    "SELECT * FROM wifi WHERE ts_time >= 300",
    "SELECT id, owner FROM wifi WHERE wifiap = 3",
    "SELECT count(*) AS n FROM wifi",
]


def build_world(n_owners=20, per_owner=2, seed=1, extra_queriers=()):
    db, rows = make_wifi_db(n_rows=3000, n_owners=n_owners, seed=seed)
    store = PolicyStore(db, GroupDirectory())
    store.insert_many(make_policies(n_owners=n_owners, per_owner=per_owner, seed=seed + 1))
    for i, querier in enumerate(extra_queriers):
        store.insert_many(
            make_policies(
                n_owners=max(2, n_owners // 2), per_owner=1,
                querier=querier, seed=seed + 2 + i,
            )
        )
    return db, rows, store, Sieve(db, store)


def fresh_reference(db, store, sql, querier, purpose="analytics"):
    """What a cold middleware (no warm cache at all) answers."""
    return Sieve(db, store).execute(sql, querier, purpose)


class TestWarmEqualsCold:
    def test_repeated_queries_bit_identical(self):
        db, rows, store, sieve = build_world()
        for sql in QUERIES:
            cold = sieve.execute(sql, "prof", "analytics")  # first touch may build
            for _ in range(3):
                warm = sieve.execute(sql, "prof", "analytics")
                assert warm.columns == cold.columns
                assert warm.rows == cold.rows

    def test_warm_path_actually_hits_cache(self):
        db, rows, store, sieve = build_world()
        sieve.execute(QUERIES[0], "prof", "analytics")
        hits_before = sieve.guard_store.stats.hits
        sieve.execute(QUERIES[0], "prof", "analytics")
        sieve.execute(QUERIES[1], "prof", "analytics")
        assert sieve.guard_store.stats.hits >= hits_before + 2
        assert sieve.guard_store.stats.hit_rate > 0

    def test_warm_path_charges_identical_enforcement_counters(self):
        """Bit-identical means the *counters* too: the cached-guard
        path must charge exactly the enforcement work a cold
        middleware charges — a cache that changed the plan (or skipped
        policy evaluation it should have done) would show up here even
        when the row sets happen to agree."""
        db, rows, store, sieve = build_world(seed=21)
        for sql in QUERIES:
            sieve.execute(sql, "prof", "analytics")  # warm the guard tier and the plan cache
        for sql in QUERIES:
            before = db.counters.snapshot()
            warm = sieve.execute(sql, "prof", "analytics")
            warm_delta = db.counters.diff(before)
            cold_sieve = Sieve(db, store)  # no warm cache at all
            before = db.counters.snapshot()
            cold = cold_sieve.execute(sql, "prof", "analytics")
            cold_delta = db.counters.diff(before)
            assert warm.rows == cold.rows
            assert warm_delta == cold_delta, (
                f"cached-guard path charged different enforcement "
                f"counters for {sql!r}"
            )

    def test_denied_querier_still_denied_and_not_held(self):
        db, _rows, store, sieve = build_world()
        assert sieve.execute(QUERIES[0], "stranger", "analytics").rows == []
        before = sieve.guard_store.stats.misses
        assert sieve.execute(QUERIES[0], "stranger", "analytics").rows == []
        assert sieve.guard_store.stats.misses == before + 1  # a stranger's denial is not held
        assert sieve.guard_store.entry("stranger", "analytics", "wifi") is None  # nor persisted


class TestMutationInvalidation:
    def test_insert_invalidates_only_affected_querier(self):
        db, rows, store, sieve = build_world(extra_queriers=("colleague",))
        sieve.execute(QUERIES[0], "prof", "analytics")
        sieve.execute(QUERIES[0], "colleague", "analytics")

        epoch_before = store.epoch
        store.insert(Policy(
            owner=0, querier="colleague", purpose="analytics", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 0),),
        ))
        assert store.epoch == epoch_before + 1

        # prof's entry survived (re-stamped, still hits) ...
        entry = sieve.guard_store.entry("prof", "analytics", "wifi")
        assert entry is not None and entry.epoch == store.epoch
        hits = sieve.guard_store.stats.hits
        sieve.execute(QUERIES[0], "prof", "analytics")
        assert sieve.guard_store.stats.hits == hits + 1
        # ... while colleague's lost its stamp and is maintained on next query.
        assert sieve.guard_store.entry("colleague", "analytics", "wifi").epoch is None
        assert sieve.guard_store.is_outdated("colleague", "analytics", "wifi")
        got = sieve.execute(QUERIES[0], "colleague", "analytics")
        want = fresh_reference(db, store, QUERIES[0], "colleague")
        assert got.rows == want.rows
        assert any(r[2] == 0 for r in got.rows)  # new policy visible

    def test_insert_for_other_table_keeps_all_entries(self):
        from repro.storage.schema import ColumnType, Schema

        db, rows, store, sieve = build_world()
        db.create_table("othertab", Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT)))
        db.analyze()
        store.protect("othertab")  # its first policy would otherwise be a corpus-wide flush
        sieve.execute(QUERIES[0], "prof", "analytics")
        store.insert(Policy(
            owner=1, querier="prof", purpose="analytics", table="othertab",
            object_conditions=(ObjectCondition("owner", "=", 1),),
        ))
        entry = sieve.guard_store.entry("prof", "analytics", "wifi")
        assert entry is not None and entry.epoch == store.epoch

    def test_delete_invalidates_and_results_track_fresh(self):
        db, rows, store, sieve = build_world(seed=9)
        sieve.execute(QUERIES[0], "prof", "analytics")
        victim = store.all_policies()[0]
        store.delete(victim.id)
        assert sieve.guard_store.entry("prof", "analytics", "wifi").epoch is None
        got = sieve.execute(QUERIES[0], "prof", "analytics")
        want = fresh_reference(db, store, QUERIES[0], "prof")
        assert got.rows == want.rows
        brute = sorted(
            r for r in brute_force_allowed(rows, store.all_policies())
            if 10 <= r[4] <= 70
        )
        assert sorted(got.rows) == brute

    def test_update_reflected_in_a_warm_sieve(self):
        db, rows, store, sieve = build_world(seed=11)
        sieve.execute(QUERIES[0], "prof", "analytics")
        victim = store.all_policies()[0]
        replacement = Policy(
            owner=victim.owner, querier="prof", purpose="analytics", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", victim.owner),),
            id=victim.id,
        )
        epoch_before = store.epoch
        store.update(replacement)
        assert store.epoch > epoch_before
        got = sieve.execute(QUERIES[0], "prof", "analytics")
        want = fresh_reference(db, store, QUERIES[0], "prof")
        assert got.rows == want.rows

    def test_group_policy_insert_invalidates_members(self):
        db, rows, _store, _sieve = build_world(n_owners=10)
        groups = GroupDirectory()
        groups.add_member("faculty", "prof.smith")
        store = PolicyStore(db, groups)
        sieve = Sieve(db, store)
        store.insert(Policy(
            owner=3, querier="faculty", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 3),),
        ))
        first = sieve.execute("SELECT * FROM wifi", "prof.smith", "analytics")
        assert sorted(first.rows) == sorted(r for r in rows if r[2] == 3)
        # A new policy on the *group* must invalidate the member's entry.
        store.insert(Policy(
            owner=5, querier="faculty", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 5),),
        ))
        assert sieve.guard_store.entry("prof.smith", "analytics", "wifi").epoch is None
        second = sieve.execute("SELECT * FROM wifi", "prof.smith", "analytics")
        assert sorted(second.rows) == sorted(r for r in rows if r[2] in (3, 5))

    def test_protected_set_grows_by_insert_and_shrinks_only_by_unprotect(self):
        _db, _rows, store, _sieve = build_world()
        assert store.snapshot().protected == {"wifi"}
        p = Policy(
            owner=1, querier="prof", purpose="any", table="Other",
            object_conditions=(ObjectCondition("owner", "=", 1),),
        )
        inserted = store.insert(p)
        assert store.snapshot().protected == {"wifi", "other"}
        with pytest.raises(PolicyError):
            store.unprotect("Other")  # a policy still names it
        store.delete(inserted.id)
        assert store.snapshot().protected == {"wifi", "other"}  # a revocation never grants
        store.unprotect("Other")
        assert store.snapshot().protected == {"wifi"}

    def test_membership_change_applied_after_invalidate_caches(self):
        """Group-directory edits bypass the epoch; the documented remedy
        (invalidate_caches) must flush BOTH tiers — a guarded expression
        built under the old membership surviving in the guard tier or a
        plan over it in the plan cache would be an access-control leak."""
        db, rows, _store, _sieve = build_world(n_owners=10)
        groups = GroupDirectory()
        groups.add_member("faculty", "alice")
        store = PolicyStore(db, groups)
        store.insert(Policy(
            owner=3, querier="faculty", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 3),),
        ))
        store.insert(Policy(
            owner=4, querier="staff", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 4),),
        ))
        sieve = Sieve(db, store)
        assert sorted(sieve.execute("SELECT * FROM wifi", "alice", "analytics").rows) == sorted(
            r for r in rows if r[2] == 3
        )
        # Grant alice staff membership: no policy mutation happens, so
        # without a full flush both tiers would keep the faculty-only view.
        groups.add_member("staff", "alice")
        sieve.invalidate_caches()
        assert sorted(sieve.execute("SELECT * FROM wifi", "alice", "analytics").rows) == sorted(
            r for r in rows if r[2] in (3, 4)
        )

    def test_invalidate_caches_by_querier_flushes_a_held_denial(self):
        db, rows, _store, _sieve = build_world(n_owners=10)
        groups = GroupDirectory()
        store = PolicyStore(db, groups)
        store.insert(Policy(
            owner=3, querier="club", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 3),),
        ))
        sieve = Sieve(db, store)
        assert sieve.execute("SELECT * FROM wifi", "bob", "analytics").rows == []
        groups.add_member("club", "bob")
        assert sieve.invalidate_caches(querier="bob") >= 1
        assert sorted(sieve.execute("SELECT * FROM wifi", "bob", "analytics").rows) == sorted(
            r for r in rows if r[2] == 3
        )

    def test_failed_update_preserves_old_policy(self):
        db, rows, store, sieve = build_world(seed=13)
        baseline = sieve.execute(QUERIES[0], "prof", "analytics")
        victim = store.all_policies()[0]
        bad = Policy(
            owner=victim.owner, querier="prof", purpose="analytics", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", object()),),  # unserializable
            id=victim.id,
        )
        from repro.common.errors import PolicyError
        with pytest.raises(PolicyError):
            store.update(bad)
        assert store.get(victim.id) is victim  # old version intact
        assert sieve.execute(QUERIES[0], "prof", "analytics").rows == baseline.rows

    def test_mutation_event_kinds(self):
        _db, _rows, store, _sieve = build_world()
        events: list[str] = []
        store.add_mutation_listener(lambda kind, policy, epoch: events.append(kind))
        p = store.insert(Policy(
            owner=1, querier="x", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 1),),
        ))
        store.update(Policy(
            owner=1, querier="x", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 2),), id=p.id,
        ))
        store.delete(p.id)
        assert events == ["insert", "update", "delete"]

    def test_dead_sieve_listeners_self_remove(self):
        """Short-lived Sieve instances over a long-lived store must not
        accumulate in its listener list after collection."""
        import gc

        db, _rows, store, _sieve = build_world()
        mutation_listeners = len(store._mutation_listeners)
        for _ in range(3):
            Sieve(db, store)
        gc.collect()
        # The first mutation lets dead hooks deregister themselves.
        p = store.insert(Policy(
            owner=1, querier="tmp", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 1),),
        ))
        store.delete(p.id)
        # Each Sieve registered two hooks: its own and its guard store's.
        assert len(store._mutation_listeners) == mutation_listeners

    def test_epoch_monotonic_across_mutations(self):
        _db, _rows, store, _sieve = build_world()
        seen = [store.epoch]
        p = store.insert(Policy(
            owner=1, querier="x", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 1),),
        ))
        seen.append(store.epoch)
        store.update(Policy(
            owner=1, querier="x", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 2),), id=p.id,
        ))
        seen.append(store.epoch)
        store.delete(p.id)
        seen.append(store.epoch)
        assert seen == sorted(seen) and len(set(seen)) == len(seen)


def _plan_entry(querier, table, epoch, version=("catalog", 1)):
    return CachedPlan(querier, frozenset({table}), epoch, version, None, None, None, 0)


class TestFenceContract:
    """The plan cache's fence: what serves, what is dropped, what is
    kept.  The guard tier keeps the same rule (:class:`TestGuardTier`)."""

    def test_stale_epoch_is_a_miss_and_dropped(self):
        cache = PlanCache(capacity=4)
        cache.admit("k", _plan_entry("a", "t", 0))
        assert cache.lookup("k", 1, ("catalog", 1)) is None
        assert cache.keys() == []
        assert (cache.stats.misses, cache.stats.hits) == (1, 0)

    def test_future_epoch_is_a_miss_but_kept_and_never_clobbered(self):
        """A request pinned to an old policy snapshot must miss without
        evicting state a concurrent mutation already carried forward —
        and must not clobber it on admit either (churn otherwise makes
        every in-flight key rebuild twice per mutation)."""
        version = ("catalog", 1)
        cache = PlanCache(capacity=8)
        fresh = cache.admit("k", _plan_entry("q", "t", 5))
        assert cache.lookup("k", 4, version) is None  # pinned behind
        assert cache.keys() == ["k"]  # ...but not evicted
        stale = _plan_entry("q", "t", 4)
        assert cache.admit("k", stale) is stale  # the pinned caller gets its own view
        assert cache.lookup("k", 5, version) is fresh  # ...without clobbering
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_version_mismatch_drops_at_any_epoch(self):
        for caller_epoch in (4, 5, 6):  # entry newer, equal, older
            cache = PlanCache(capacity=4)
            cache.admit("k", _plan_entry("q", "t", 5))
            assert cache.lookup("k", caller_epoch, ("catalog", 2)) is None
            assert cache.keys() == []

    def test_coalesced_followers_share_the_leaders_entry(self):
        version = ("catalog", 1)
        cache = PlanCache(capacity=4)
        inside, release = threading.Event(), threading.Event()
        builds = []

        def build():
            builds.append(1)
            inside.set()
            assert release.wait(timeout=10)
            return cache.admit("k", _plan_entry("q", "t", 3)), "leader-only"

        got = []

        def call():
            got.append(cache.get_or_build("k", 3, version, build))

        threads = [threading.Thread(target=call) for _ in range(4)]
        threads[0].start()
        assert inside.wait(timeout=10)  # thread 0 leads
        for t in threads[1:]:
            t.start()
        time.sleep(0.1)  # let every follower reach the flight's wait
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1 and cache.stats.coalesced == 3
        assert len({id(e) for e, _extra, _hit in got}) == 1
        assert sorted(str(extra) for _e, extra, _hit in got) == ["None"] * 3 + ["leader-only"]
        assert not any(hit for _e, _extra, hit in got)
        assert cache.get_or_build("k", 3, version, build)[1:] == (None, True)  # now a hit

    def test_targeted_invalidation_and_restamp(self):
        """Direct and group-derived drops; every survivor valid at the
        previous epoch is carried forward; one staled by an unheard
        bump (a store reload fires no events) stays stale."""
        version = ("catalog", 1)
        groups = GroupDirectory()
        groups.add_member("staff", "bob")
        cache = PlanCache(capacity=8)
        cache.admit("alice-t", _plan_entry("alice", "t", 4))
        cache.admit("alice-u", _plan_entry("alice", "u", 4))
        cache.admit("bob-t", _plan_entry("bob", "t", 4))
        cache.admit("carol-t", _plan_entry("carol", "t", 4))
        cache.admit("dave-t", _plan_entry("dave", "t", 2))  # missed 2 -> 4

        assert cache.on_policy_mutation("insert", _policy("alice", "T"), 5, groups) == 1
        assert sorted(cache.keys()) == ["alice-u", "bob-t", "carol-t", "dave-t"]
        assert cache.on_policy_mutation("delete", _policy("staff", "T"), 6, groups) == 1
        assert cache.stats.invalidations == 2
        for key in ("alice-u", "carol-t"):
            assert cache.lookup(key, 6, version) is not None
        assert cache.lookup("dave-t", 6, version) is None  # not revived

    def test_invalidate_by_querier_and_table(self):
        cache = PlanCache(capacity=8)
        cache.admit(1, _plan_entry("a", "t1", 0))
        cache.admit(2, _plan_entry("a", "t2", 0))
        cache.admit(3, _plan_entry("b", "t1", 0))
        assert cache.queriers() == {"a", "b"}
        assert cache.invalidate(querier="a", table="T1") == 1  # case-insensitive
        assert cache.invalidate(querier="b") == 1
        assert cache.keys() == [2] and cache.queriers() == {"a"}
        assert cache.invalidate() == 1 and len(cache) == 0
        assert cache.stats.invalidations == 3

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.admit(1, _plan_entry("a", "t", 0))
        cache.admit(2, _plan_entry("a", "t", 0))
        assert cache.lookup(1, 0, ("catalog", 1)) is not None  # 1 now most-recent
        cache.admit(3, _plan_entry("a", "t", 0))  # evicts 2
        assert cache.keys() == [1, 3]
        assert cache.stats.evictions == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_the_cache_counts_each_lookup_once(self):
        """A lookup's count is the cache's own: its ``CacheStats``, under
        the lookup's lock — there is no second copy to charge."""
        cache = PlanCache(capacity=1)
        cache.admit("k", _plan_entry("a", "t", 0))
        assert cache.lookup("k", 0, ("catalog", 1)) is not None
        assert cache.lookup("gone", 0, ("catalog", 1)) is None
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert not hasattr(cache, "charge")

    def test_stats_hit_rate_and_merge(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == pytest.approx(0.75)
        assert CacheStats().hit_rate == 0.0
        assert "hit_rate" in stats.snapshot()
        merged = CacheStats.merge([stats.snapshot(), None, CacheStats(misses=4).snapshot()])
        assert merged == CacheStats(hits=3, misses=5).snapshot()
        assert merged["hit_rate"] == pytest.approx(0.375)


def _policy(querier, table="wifi", owner=1):
    return Policy(
        owner=owner, querier=querier, purpose="any", table=table,
        object_conditions=(ObjectCondition("owner", "=", owner),),
    )


class _Counted:
    """A Sieve's generation steps, counting the builds and maintenances
    the tier asks for; ``gate`` (if set) runs inside each build."""

    def __init__(self, sieve, gate=None):
        self.sieve, self.gate = sieve, gate
        self.builds = self.maintains = 0

    def __call__(self, querier, purpose, table, policies):
        builder, maintain = self.sieve._generation(querier, purpose, table, policies)

        def counted_builder():
            self.builds += 1
            if self.gate is not None:
                self.gate()
            return builder()

        def counted_maintain(held):
            self.maintains += 1
            return maintain(held)

        return counted_builder, counted_maintain


class TestGuardTier:
    """The guard tier's own contract (:meth:`GuardStore.resolve
    <repro.core.guard_store.GuardStore.resolve>`): one entry per
    (querier, purpose, relation), served at the epoch it is stamped
    with; the fence cases of :class:`TestFenceContract` on the tier."""

    def _world(self):
        groups = GroupDirectory()
        groups.add_member("staff", "bob")
        db, _rows = make_wifi_db(n_rows=400, n_owners=8)
        store = PolicyStore(db, groups)
        for querier in ("alice", "bob", "carol"):
            store.insert_many(make_policies(n_owners=8, per_owner=1, querier=querier))
        sieve = Sieve(db, store)
        return store, sieve, _Counted(sieve)

    def test_stale_epoch_is_a_miss_and_replaced(self):
        store, sieve, steps = self._world()
        tier = sieve.guard_store
        first, rebuilt = tier.resolve("alice", "analytics", "wifi", store.snapshot(), steps)
        assert rebuilt and first.epoch == store.epoch
        store.protect("elsewhere")  # an unheard, corpus-wide bump
        second, rebuilt = tier.resolve("alice", "analytics", "wifi", store.snapshot(), steps)
        assert second is not first and second.epoch == store.epoch and not rebuilt
        assert second.expression is first.expression  # maintained: nothing changed
        assert tier.entry("alice", "analytics", "wifi") is second
        assert (tier.stats.misses, tier.stats.hits) == (2, 0)
        assert (steps.builds, steps.maintains) == (1, 1)

    def test_pinned_behind_is_a_miss_and_never_clobbers(self):
        """A request pinned to a snapshot older than the entry's stamp
        gets an answer exact for its own epoch without replacing the
        newer one."""
        store, sieve, steps = self._world()
        tier = sieve.guard_store
        pinned = store.snapshot()
        store.insert(_policy("alice", owner=7))
        current, _ = tier.resolve("alice", "any", "wifi", store.snapshot(), steps)
        assert current.epoch == store.epoch and len(current.policies) == 1
        behind, _ = tier.resolve("alice", "any", "wifi", pinned, steps)
        assert behind is not current and behind.epoch == pinned.epoch
        assert behind.expression is None  # alice held no "any" policy back then
        assert tier.entry("alice", "any", "wifi") is current
        again, _ = tier.resolve("alice", "any", "wifi", store.snapshot(), steps)
        assert again is current
        assert (tier.stats.misses, tier.stats.hits) == (2, 1)

    def test_coalesced_followers_share_the_leaders_entry(self):
        store, sieve, _steps = self._world()
        tier = sieve.guard_store
        inside, release = threading.Event(), threading.Event()

        def gate():
            inside.set()
            assert release.wait(timeout=10)

        steps = _Counted(sieve, gate)
        snapshot = store.snapshot()
        got = []

        def call():
            got.append(tier.resolve("alice", "analytics", "wifi", snapshot, steps))

        threads = [threading.Thread(target=call) for _ in range(4)]
        threads[0].start()
        assert inside.wait(timeout=10)  # thread 0 leads
        for t in threads[1:]:
            t.start()
        time.sleep(0.1)  # let every follower reach the build lock
        release.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert steps.builds == 1 and tier.stats.coalesced == 3
        assert len({id(entry) for entry, _rebuilt in got}) == 1
        assert sorted(rebuilt for _entry, rebuilt in got) == [False] * 3 + [True]
        assert (tier.stats.misses, tier.stats.hits) == (4, 0)

    def test_targeted_invalidation_and_restamp(self):
        """Direct and group-derived writes take the stamp of the
        entries they affect and flag their rows outdated; every other
        entry valid at the previous epoch is carried forward; one
        staled by an unheard bump stays stale."""
        store, sieve, steps = self._world()
        tier = sieve.guard_store
        snapshot = store.snapshot()
        for querier in ("alice", "bob", "carol"):
            tier.resolve(querier, "analytics", "wifi", snapshot, steps)
        denied, _ = tier.resolve("dave", "analytics", "wifi", snapshot, steps)
        assert denied.expression is None and tier.entry("dave", "analytics", "wifi") is None  # not held
        store.insert(_policy("alice"))
        assert tier.entry("alice", "analytics", "wifi").epoch is None
        assert tier.is_outdated("alice", "analytics", "wifi")
        store.insert(_policy("staff"))
        assert tier.entry("bob", "analytics", "wifi").epoch is None
        assert tier.stats.invalidations == 2
        assert tier.entry("carol", "analytics", "wifi").epoch == store.epoch
        assert not tier.is_outdated("carol", "analytics", "wifi")
        store.protect("elsewhere")  # unheard: nobody is carried across it
        store.insert(_policy("erin"))
        assert tier.entry("carol", "analytics", "wifi").epoch == store.epoch - 2

    def test_invalidate_by_querier(self):
        store, sieve, steps = self._world()
        tier = sieve.guard_store
        snapshot = store.snapshot()
        for querier in ("alice", "bob", "dave"):
            tier.resolve(querier, "analytics", "wifi", snapshot, steps)
        assert tier.queriers() == {"alice", "bob"}  # dave, denied, is not held
        held = sieve.db.catalog.table("sieve_guarded_expressions").row_count
        assert tier.invalidate(querier="alice") == 1
        assert sieve.db.catalog.table("sieve_guarded_expressions").row_count == held - 1
        assert tier.invalidate(querier="dave") == 0
        assert tier.keys() == [("bob", "analytics", "wifi")] and tier.queriers() == {"bob"}
        assert tier.invalidate() == 1 and len(tier) == 0
        assert tier.stats.invalidations == 2

    def test_the_key_spells_the_relation_in_lower_case(self):
        store, sieve, steps = self._world()
        tier = sieve.guard_store
        entry, _ = tier.resolve("alice", "analytics", "WiFi", store.snapshot(), steps)
        assert entry.table == "wifi" and tier.keys() == [("alice", "analytics", "wifi")]
        assert tier.entry("alice", "analytics", "WIFI") is entry
        assert tier.resolve("alice", "analytics", "Wifi", store.snapshot(), steps) == (entry, False)

    def test_a_revoke_to_empty_serves_denial_and_keeps_the_expression(self):
        """The last policy revoked: the entry answers deny, but keeps
        the held expression and its rows, so a re-grant is maintained
        instead of selected afresh."""
        store, sieve, steps = self._world()
        tier = sieve.guard_store
        grant = store.insert(_policy("erin", owner=3))
        granted, rebuilt = tier.resolve("erin", "any", "wifi", store.snapshot(), steps)
        assert rebuilt and isinstance(granted.expression, GuardedExpression)
        store.delete(grant.id)
        denied, rebuilt = tier.resolve("erin", "any", "wifi", store.snapshot(), steps)
        assert denied.expression is None and denied.policies == [] and not rebuilt
        assert tier.peek("erin", "any", "wifi") is granted.expression
        assert tier.is_outdated("erin", "any", "wifi")
        store.insert(_policy("erin", owner=3))
        regranted, rebuilt = tier.resolve("erin", "any", "wifi", store.snapshot(), steps)
        assert not rebuilt and regranted.expression is not None
        assert steps.builds == 1 and not tier.is_outdated("erin", "any", "wifi")

    def test_cross_querier_update_keeps_unrelated_entries_warm(self):
        """An update() that moves a policy to another querier bumps the
        epoch twice (two events); unrelated queriers' entries must be
        carried across BOTH bumps, not stranded one epoch short."""
        db, _rows, store, sieve = build_world(extra_queriers=("aud",))
        sieve.execute(QUERIES[0], "prof", "analytics")  # warm 'prof'
        moved = store.policies_for("aud", "analytics", "wifi")[0]
        store.update(
            Policy(
                owner=moved.owner,
                querier="aud2",
                purpose=moved.purpose,
                table=moved.table,
                object_conditions=moved.object_conditions,
                id=moved.id,
            )
        )
        hits_before = sieve.guard_store.stats.hits
        sieve.execute(QUERIES[0], "prof", "analytics")
        assert sieve.guard_store.stats.hits == hits_before + 1, (
            "unrelated querier lost its warm guard state across a "
            "cross-querier update"
        )


class _Forbidden:
    """A lock no caller may take."""

    def __enter__(self):
        raise AssertionError("the build lock was taken")

    def __exit__(self, *exc):
        return False


class TestStrangers:
    """A querier with no applicable policy and nothing held is denied
    without the build lock and files no entry, so made-up names do not
    grow the tier."""

    def test_strangers_file_no_entry_and_read_nothing(self):
        db, _rows, store, sieve = build_world(n_owners=10, per_owner=1)
        sieve.execute(QUERIES[0], "prof", "analytics")
        held = len(sieve.guard_store)
        lock, sieve.guard_store.lock = sieve.guard_store.lock, _Forbidden()
        try:
            for i in range(2000):
                assert sieve.execute(QUERIES[2], f"stranger-{i}", "analytics").rows == []
        finally:
            sieve.guard_store.lock = lock
        assert len(sieve.guard_store) == held
        assert sieve.guard_store.entry("stranger-7", "analytics", "wifi") is None

    def test_a_stranger_granted_a_policy_is_served_it_at_the_new_epoch(self):
        db, rows, store, sieve = build_world(n_owners=10, per_owner=1)
        sql = "SELECT * FROM wifi"
        assert sieve.serve(sql, "newcomer", "analytics").result.rows == []
        store.insert(
            Policy(
                owner=3, querier="newcomer", purpose="analytics", table="wifi",
                object_conditions=(ObjectCondition("owner", "=", 3),),
            )
        )
        got = sieve.serve(sql, "newcomer", "analytics")
        assert got.policy_epoch == store.epoch
        assert sorted(got.result.rows) == sorted(row for row in rows if row[2] == 3)
        entry = sieve.guard_store.entry("newcomer", "analytics", "wifi")
        assert entry is not None and entry.epoch == store.epoch and entry.expression is not None
