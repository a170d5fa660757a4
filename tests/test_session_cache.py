"""Session guard cache: warm == cold, targeted invalidation, LRU.

The acceptance bar for the cache layer is *bit-identical* results:
whatever a cold middleware answers, a warm session must answer too —
including immediately after policy inserts, deletes and updates.
"""

import threading
import time

import pytest

from repro.core import Sieve
from repro.common.errors import PolicyError
from repro.core.cache import CachedGuardEntry, CachedPlan, CacheStats, GuardCache, PlanCache
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
        session = sieve.session("prof", "analytics")
        for sql in QUERIES:
            cold = sieve.execute(sql, "prof", "analytics")  # first touch may build
            for _ in range(3):
                warm = session.execute(sql)
                assert warm.columns == cold.columns
                assert warm.rows == cold.rows

    def test_warm_path_actually_hits_cache(self):
        db, rows, store, sieve = build_world()
        session = sieve.session("prof", "analytics")
        session.execute(QUERIES[0])
        hits_before = sieve.guard_cache.stats.hits
        session.execute(QUERIES[0])
        session.execute(QUERIES[1])
        assert sieve.guard_cache.stats.hits >= hits_before + 2
        assert session.cache_stats.hit_rate > 0

    def test_execute_many_matches_per_query_execute(self):
        db, rows, store, sieve = build_world(seed=5)
        batch = sieve.session("prof", "analytics").execute_many(QUERIES)
        singles = [fresh_reference(db, store, sql, "prof") for sql in QUERIES]
        for got, want in zip(batch, singles):
            assert got.columns == want.columns
            assert got.rows == want.rows

    def test_session_handles_share_cache(self):
        """Handles are stateless views: two handles for the same QM pair
        share all guard state through the middleware's cache."""
        db, _rows, _store, sieve = build_world()
        first = sieve.session("prof", "analytics")
        first.execute(QUERIES[0])
        hits = sieve.guard_cache.stats.hits
        second = sieve.session("prof", "analytics")
        second.execute(QUERIES[0])
        assert sieve.guard_cache.stats.hits == hits + 1

    def test_warm_path_charges_identical_enforcement_counters(self):
        """Bit-identical means the *counters* too: the cached-guard
        path must charge exactly the enforcement work a cold
        middleware charges — a cache that changed the plan (or skipped
        policy evaluation it should have done) would show up here even
        when the row sets happen to agree."""
        db, rows, store, sieve = build_world(seed=21)
        session = sieve.session("prof", "analytics")
        for sql in QUERIES:
            session.execute(sql)  # warm the guard + rewrite caches
        for sql in QUERIES:
            before = db.counters.snapshot()
            warm = session.execute(sql)
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

    def test_denied_querier_cached_and_still_denied(self):
        db, _rows, store, sieve = build_world()
        session = sieve.session("stranger", "analytics")
        assert session.execute(QUERIES[0]).rows == []
        before = sieve.guard_cache.stats.hits
        assert session.execute(QUERIES[0]).rows == []
        assert sieve.guard_cache.stats.hits == before + 1  # denial is cached too


class TestMutationInvalidation:
    def test_insert_invalidates_only_affected_querier(self):
        db, rows, store, sieve = build_world(extra_queriers=("colleague",))
        prof = sieve.session("prof", "analytics")
        other = sieve.session("colleague", "analytics")
        prof.execute(QUERIES[0])
        other.execute(QUERIES[0])

        epoch_before = store.epoch
        store.insert(Policy(
            owner=0, querier="colleague", purpose="analytics", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 0),),
        ))
        assert store.epoch == epoch_before + 1

        # prof's entry survived (re-stamped, still hits) ...
        entry = sieve.guard_cache.peek("prof", "analytics", "wifi")
        assert entry is not None and entry.epoch == store.epoch
        hits = sieve.guard_cache.stats.hits
        prof.execute(QUERIES[0])
        assert sieve.guard_cache.stats.hits == hits + 1
        # ... while colleague's was dropped and rebuilds on next query.
        assert sieve.guard_cache.peek("colleague", "analytics", "wifi") is None
        got = other.execute(QUERIES[0])
        want = fresh_reference(db, store, QUERIES[0], "colleague")
        assert got.rows == want.rows
        assert any(r[2] == 0 for r in got.rows)  # new policy visible

    def test_insert_for_other_table_keeps_all_entries(self):
        from repro.storage.schema import ColumnType, Schema

        db, rows, store, sieve = build_world()
        db.create_table("othertab", Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT)))
        db.analyze()
        store.protect("othertab")  # its first policy would otherwise be a corpus-wide flush
        session = sieve.session("prof", "analytics")
        session.execute(QUERIES[0])
        store.insert(Policy(
            owner=1, querier="prof", purpose="analytics", table="othertab",
            object_conditions=(ObjectCondition("owner", "=", 1),),
        ))
        entry = sieve.guard_cache.peek("prof", "analytics", "wifi")
        assert entry is not None and entry.epoch == store.epoch

    def test_delete_invalidates_and_results_track_fresh(self):
        db, rows, store, sieve = build_world(seed=9)
        session = sieve.session("prof", "analytics")
        session.execute(QUERIES[0])
        victim = store.all_policies()[0]
        store.delete(victim.id)
        assert sieve.guard_cache.peek("prof", "analytics", "wifi") is None
        got = session.execute(QUERIES[0])
        want = fresh_reference(db, store, QUERIES[0], "prof")
        assert got.rows == want.rows
        brute = sorted(
            r for r in brute_force_allowed(rows, store.all_policies())
            if 10 <= r[4] <= 70
        )
        assert sorted(got.rows) == brute

    def test_update_reflected_in_warm_session(self):
        db, rows, store, sieve = build_world(seed=11)
        session = sieve.session("prof", "analytics")
        session.execute(QUERIES[0])
        victim = store.all_policies()[0]
        replacement = Policy(
            owner=victim.owner, querier="prof", purpose="analytics", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", victim.owner),),
            id=victim.id,
        )
        epoch_before = store.epoch
        store.update(replacement)
        assert store.epoch > epoch_before
        got = session.execute(QUERIES[0])
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
        session = sieve.session("prof.smith", "analytics")
        first = session.execute("SELECT * FROM wifi")
        assert sorted(first.rows) == sorted(r for r in rows if r[2] == 3)
        # A new policy on the *group* must invalidate the member's entry.
        store.insert(Policy(
            owner=5, querier="faculty", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 5),),
        ))
        assert sieve.guard_cache.peek("prof.smith", "analytics", "wifi") is None
        second = session.execute("SELECT * FROM wifi")
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
        (invalidate_caches / session.refresh) must flush BOTH cache
        tiers — a guarded expression built under the old membership
        surviving in the guard store would be an access-control leak."""
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
        session = sieve.session("alice", "analytics")
        assert sorted(session.execute("SELECT * FROM wifi").rows) == sorted(
            r for r in rows if r[2] == 3
        )
        # Grant alice staff membership: no policy mutation happens, so
        # without a full flush both tiers would keep the faculty-only view.
        groups.add_member("staff", "alice")
        sieve.invalidate_caches()
        assert sorted(session.execute("SELECT * FROM wifi").rows) == sorted(
            r for r in rows if r[2] in (3, 4)
        )

    def test_session_refresh_flushes_guard_store_tier(self):
        db, rows, _store, _sieve = build_world(n_owners=10)
        groups = GroupDirectory()
        store = PolicyStore(db, groups)
        store.insert(Policy(
            owner=3, querier="club", purpose="any", table="wifi",
            object_conditions=(ObjectCondition("owner", "=", 3),),
        ))
        sieve = Sieve(db, store)
        session = sieve.session("bob", "analytics")
        assert session.execute("SELECT * FROM wifi").rows == []
        groups.add_member("club", "bob")
        session.refresh()
        assert sorted(session.execute("SELECT * FROM wifi").rows) == sorted(
            r for r in rows if r[2] == 3
        )

    def test_failed_update_preserves_old_policy(self):
        db, rows, store, sieve = build_world(seed=13)
        session = sieve.session("prof", "analytics")
        baseline = session.execute(QUERIES[0])
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
        assert session.execute(QUERIES[0]).rows == baseline.rows

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


def _guard_entry(querier, table, epoch, version=None):
    assert version is None  # guard state has no second fence axis
    return CachedGuardEntry(querier, "p", table, [], None, epoch)


def _plan_entry(querier, table, epoch, version):
    return CachedPlan(querier, frozenset({table}), epoch, version, None, None, None, 0)


@pytest.fixture(
    params=[(GuardCache, _guard_entry, None), (PlanCache, _plan_entry, ("catalog", 1))],
    ids=["guard", "plan"],
)
def declared(request):
    """One FencedCache declaration: (class, entry factory, the version
    its entries are fenced on)."""
    return request.param


class TestFenceContract:
    """The rule every declaration of ``FencedCache`` inherits, checked
    once over both: what serves, what is dropped, what is kept."""

    def test_stale_epoch_is_a_miss_and_dropped(self, declared):
        cls, entry, version = declared
        cache = cls(capacity=4)
        cache.admit("k", entry("a", "t", 0, version))
        assert cache.lookup("k", 1, version) is None
        assert cache.keys() == []
        assert (cache.stats.misses, cache.stats.hits) == (1, 0)

    def test_future_epoch_is_a_miss_but_kept_and_never_clobbered(self, declared):
        """A request pinned to an old policy snapshot must miss without
        evicting state a concurrent mutation already carried forward —
        and must not clobber it on admit either (churn otherwise makes
        every in-flight key rebuild twice per mutation)."""
        cls, entry, version = declared
        cache = cls(capacity=8)
        fresh = cache.admit("k", entry("q", "t", 5, version))
        assert cache.lookup("k", 4, version) is None  # pinned behind
        assert cache.keys() == ["k"]  # ...but not evicted
        stale = entry("q", "t", 4, version)
        assert cache.admit("k", stale) is stale  # the pinned caller gets its own view
        assert cache.lookup("k", 5, version) is fresh  # ...without clobbering
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_version_mismatch_drops_at_any_epoch(self):
        for caller_epoch in (4, 5, 6):  # entry newer, equal, older
            cache = PlanCache(capacity=4)
            cache.admit("k", _plan_entry("q", "t", 5, ("catalog", 1)))
            assert cache.lookup("k", caller_epoch, ("catalog", 2)) is None
            assert cache.keys() == []

    def test_coalesced_followers_share_the_leaders_entry(self, declared):
        cls, entry, version = declared
        cache = cls(capacity=4)
        inside, release = threading.Event(), threading.Event()
        builds = []

        def build():
            builds.append(1)
            inside.set()
            assert release.wait(timeout=10)
            return cache.admit("k", entry("q", "t", 3, version)), "leader-only"

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

    def test_targeted_invalidation_and_restamp(self, declared):
        """Direct and group-derived drops; every survivor valid at the
        previous epoch is carried forward; one staled by an unheard
        bump (a store reload fires no events) stays stale."""
        cls, entry, version = declared
        groups = GroupDirectory()
        groups.add_member("staff", "bob")
        cache = cls(capacity=8)
        cache.admit("alice-t", entry("alice", "t", 4, version))
        cache.admit("alice-u", entry("alice", "u", 4, version))
        cache.admit("bob-t", entry("bob", "t", 4, version))
        cache.admit("carol-t", entry("carol", "t", 4, version))
        cache.admit("dave-t", entry("dave", "t", 2, version))  # missed 2 -> 4

        def policy(querier):
            return Policy(
                owner=1, querier=querier, purpose="any", table="T",
                object_conditions=(ObjectCondition("owner", "=", 1),),
            )

        assert cache.on_policy_mutation("insert", policy("alice"), 5, groups) == 1
        assert sorted(cache.keys()) == ["alice-u", "bob-t", "carol-t", "dave-t"]
        assert cache.on_policy_mutation("delete", policy("staff"), 6, groups) == 1
        assert cache.stats.invalidations == 2
        for key in ("alice-u", "carol-t"):
            assert cache.lookup(key, 6, version) is not None
        assert cache.lookup("dave-t", 6, version) is None  # not revived

    def test_invalidate_by_querier_and_table(self, declared):
        cls, entry, version = declared
        cache = cls(capacity=8)
        cache.admit(1, entry("a", "t1", 0, version))
        cache.admit(2, entry("a", "t2", 0, version))
        cache.admit(3, entry("b", "t1", 0, version))
        assert cache.queriers() == {"a", "b"}
        assert cache.invalidate(querier="a", table="T1") == 1  # case-insensitive
        assert cache.invalidate(querier="b") == 1
        assert cache.keys() == [2] and cache.queriers() == {"a"}
        assert cache.invalidate() == 1 and len(cache) == 0
        assert cache.stats.invalidations == 3

    def test_lru_eviction_order(self, declared):
        cls, entry, version = declared
        cache = cls(capacity=2)
        cache.admit(1, entry("a", "t", 0, version))
        cache.admit(2, entry("a", "t", 0, version))
        assert cache.lookup(1, 0, version) is not None  # 1 now most-recent
        cache.admit(3, entry("a", "t", 0, version))  # evicts 2
        assert cache.keys() == [1, 3]
        assert cache.stats.evictions == 1

    def test_capacity_must_be_positive(self, declared):
        with pytest.raises(ValueError):
            declared[0](capacity=0)

    def test_the_cache_counts_each_lookup_once(self, declared):
        """A lookup's count is the cache's own: its ``CacheStats``, under
        the lookup's lock — there is no second copy to charge."""
        cls, entry, version = declared
        cache = cls(capacity=1)
        cache.admit("k", entry("a", "t", 0, version))
        assert cache.lookup("k", 0, version) is not None
        assert cache.lookup("gone", 0, version) is None
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert not hasattr(cache, "charge")

    def test_guard_cache_spells_the_key_by_relation(self):
        """``GuardCache``'s own surface: (querier, purpose, relation)
        parts, relation matched case-insensitively."""
        cache = GuardCache(capacity=4)
        entry = cache.put("a", "p", "WiFi", 0, [], None)
        assert entry.table == "wifi" and cache.keys() == [("a", "p", "wifi")]
        assert cache.get("a", "p", "WIFI", 0) is cache.peek("a", "p", "wifi") is entry
        assert cache.resolve("a", "p", "Wifi", 0, None) == (entry, False, True)

    def test_stats_hit_rate_and_merge(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == pytest.approx(0.75)
        assert CacheStats().hit_rate == 0.0
        assert "hit_rate" in stats.snapshot()
        merged = CacheStats.merge([stats.snapshot(), None, CacheStats(misses=4).snapshot()])
        assert merged == CacheStats(hits=3, misses=5).snapshot()
        assert merged["hit_rate"] == pytest.approx(0.375)

    def test_cross_querier_update_keeps_unrelated_entries_warm(self):
        """An update() that moves a policy to another querier bumps the
        epoch twice (two events); unrelated queriers' entries must be
        carried across BOTH bumps, not stranded one epoch short."""
        db, _rows, store, sieve = build_world(extra_queriers=("aud",))
        session_prof = sieve.session("prof", "analytics")
        session_prof.execute(QUERIES[0])  # warm 'prof'
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
        hits_before = sieve.guard_cache.stats.hits
        session_prof.execute(QUERIES[0])
        assert sieve.guard_cache.stats.hits == hits_before + 1, (
            "unrelated querier lost its warm guard state across a "
            "cross-querier update"
        )
