"""Unit + property tests for the B+-tree, hash index, and bitmaps."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.index import BPlusTreeIndex, HashIndex, RowIdBitmap


def build_tree(pairs, order=8):
    tree = BPlusTreeIndex("ix", "t", "c", order=order)
    for key, rid in pairs:
        tree.insert(key, rid)
    return tree


class TestBPlusTree:
    def test_point_lookup(self):
        tree = build_tree([(i, i * 10) for i in range(100)])
        assert tree.search_eq(42) == [420]
        assert tree.search_eq(1000) == []

    def test_duplicates(self):
        tree = build_tree([(5, 1), (5, 2), (5, 3)])
        assert sorted(tree.search_eq(5)) == [1, 2, 3]

    def test_range_scan_inclusive(self):
        tree = build_tree([(i, i) for i in range(50)])
        assert list(tree.search_range(10, 13)) == [10, 11, 12, 13]

    def test_range_scan_exclusive(self):
        tree = build_tree([(i, i) for i in range(50)])
        assert list(tree.search_range(10, 13, lo_inclusive=False, hi_inclusive=False)) == [11, 12]

    def test_range_unbounded(self):
        tree = build_tree([(i, i) for i in range(10)])
        assert list(tree.search_range(None, 2)) == [0, 1, 2]
        assert list(tree.search_range(7, None)) == [7, 8, 9]
        assert list(tree.search_range()) == list(range(10))

    def test_delete(self):
        tree = build_tree([(i, i) for i in range(20)])
        assert tree.delete(7, 7)
        assert tree.search_eq(7) == []
        assert not tree.delete(7, 7)  # already gone
        assert len(tree) == 19

    def test_delete_one_of_duplicates(self):
        tree = build_tree([(5, 1), (5, 2)])
        tree.delete(5, 1)
        assert tree.search_eq(5) == [2]

    def test_height_grows(self):
        tree = build_tree([(i, i) for i in range(1000)], order=8)
        assert tree.height >= 3
        tree.check_invariants()

    def test_string_keys(self):
        tree = build_tree([(f"k{i:03d}", i) for i in range(100)])
        assert tree.search_eq("k050") == [50]
        assert list(tree.search_range("k010", "k012")) == [10, 11, 12]

    def test_node_visit_counter_increases(self):
        tree = build_tree([(i, i) for i in range(500)])
        before = tree.node_visits
        tree.search_eq(250)
        assert tree.node_visits > before

    def test_each_search_charges_its_own_visits(self):
        """Visits go to the counters the search was handed; the tree's
        own ``node_visits`` is only the running total."""
        from repro.db.counters import CounterSet

        tree = build_tree([(i, i) for i in range(500)])
        height = tree.height
        start = tree.node_visits
        ours, theirs = CounterSet(), CounterSet()
        assert tree.search_eq(250, ours) == [250]
        assert ours.index_node_visits == height
        assert tree.search_range(100, 140, counters=theirs) == list(range(100, 141))
        assert theirs.index_node_visits > height  # the descent, then sibling leaves
        assert ours.index_node_visits == height
        tree.search_eq(7)  # no counters: only the statistic moves
        assert tree.node_visits - start == ours.index_node_visits + theirs.index_node_visits + height
        ix = HashIndex("hx", "t", "c")
        ix.insert(1, 10)
        assert ix.search_eq(1, ours) == [10] and ix.search_in([1, 2]) == [10]
        assert ours.index_node_visits == height + 1 and ix.node_visits == 3

    def test_interleaved_probes_are_charged_apart(self):
        """Two executors probing one tree, the second running in the
        middle of the first's scan: each pays for its own descent (a
        before/after reading of the shared total charged both to one)."""
        from repro.db.counters import CounterSet
        from repro.engine.executor import Executor
        from repro.engine.plans import IndexProbe
        from repro.storage import Catalog

        tree = build_tree([(i % 50, i) for i in range(2000)])
        mine = [IndexProbe.range(3, 30), IndexProbe.point(7)]
        yours = [IndexProbe.range(None, 45), IndexProbe.point(9), IndexProbe.point(11)]

        def solo(probes):
            executor = Executor(Catalog(), CounterSet(), {})
            rowids = list(executor._probe_rowids(tree, probes))
            return rowids, executor.counters.index_node_visits

        first, second = (Executor(Catalog(), CounterSet(), {}) for _ in range(2))
        scan = iter(first._probe_rowids(tree, mine))
        head = [next(scan)]
        assert list(second._probe_rowids(tree, yours)) == solo(yours)[0]
        assert head + list(scan) == solo(mine)[0]
        assert first.counters.index_node_visits == solo(mine)[1] > 0
        assert second.counters.index_node_visits == solo(yours)[1] > 0

    def test_concurrent_probes_are_charged_apart(self):
        """Four threads on one tree under a short switch interval: a
        thread's counters hold exactly its own visits."""
        import sys
        import threading

        from repro.db.counters import CounterSet

        tree = build_tree([(i % 97, i) for i in range(3000)])
        solo = CounterSet()
        tree.search_range(10, 60, counters=solo)
        tree.search_eq(33, solo)
        rounds = 200
        counters = [CounterSet() for _ in range(4)]

        def probe(mine):
            for _ in range(rounds):
                tree.search_range(10, 60, counters=mine)
                tree.search_eq(33, mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=probe, args=(c,)) for c in counters]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [c.index_node_visits for c in counters] == [rounds * solo.index_node_visits] * 4

    def test_order_too_small(self):
        from repro.common.errors import ExecutionError

        with pytest.raises(ExecutionError):
            BPlusTreeIndex("ix", "t", "c", order=2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(0, 10_000)), max_size=400))
    def test_matches_sorted_list_oracle(self, pairs):
        tree = build_tree(pairs, order=6)
        tree.check_invariants()
        by_key = {}
        for key, rid in pairs:
            by_key.setdefault(key, []).append(rid)
        for key in list(by_key)[:20]:
            assert sorted(tree.search_eq(key)) == sorted(by_key[key])
        if pairs:
            keys = sorted(by_key)
            lo, hi = keys[0], keys[-1]
            expected = [rid for k in keys if lo <= k <= hi for rid in by_key[k]]
            assert sorted(tree.search_range(lo, hi)) == sorted(expected)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 50), st.integers(0, 1000)), min_size=1, max_size=200),
        st.integers(0, 50),
        st.integers(0, 50),
    )
    def test_random_range_oracle(self, pairs, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = build_tree(pairs, order=4)
        expected = sorted(rid for k, rid in pairs if lo <= k <= hi)
        assert sorted(tree.search_range(lo, hi)) == expected

    def test_mixed_insert_delete_stress(self):
        rng = random.Random(9)
        tree = BPlusTreeIndex("ix", "t", "c", order=4)
        shadow: dict[int, list[int]] = {}
        for step in range(2000):
            key = rng.randrange(100)
            if rng.random() < 0.7 or key not in shadow:
                tree.insert(key, step)
                shadow.setdefault(key, []).append(step)
            else:
                rid = shadow[key].pop()
                if not shadow[key]:
                    del shadow[key]
                assert tree.delete(key, rid)
        tree.check_invariants()
        for key, rids in shadow.items():
            assert sorted(tree.search_eq(key)) == sorted(rids)


def walk_range(tree, lo, hi, lo_inclusive, hi_inclusive):
    """Key-by-key reference for ``search_range``: ``(rowids, visits)``
    of a descent to ``lo``'s leaf (the leftmost for ``None``) and a walk
    along the sibling chain that ends at the first key past ``hi``."""
    import bisect

    node, visits = tree._root, 1
    while hasattr(node, "children"):
        node = node.children[bisect.bisect_right(node.keys, lo) if lo is not None else 0]
        visits += 1
    out = []
    while node is not None:
        for key, rowids in zip(node.keys, node.values):
            if lo is not None and (key < lo or (not lo_inclusive and key == lo)):
                continue
            if hi is not None and (key > hi or (not hi_inclusive and key == hi)):
                return out, visits
            out.extend(rowids)
        node = node.next
        visits += node is not None
    return out, visits


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(st.integers(0, 60), min_size=1, max_size=300),
    dropped=st.sets(st.integers(0, 60)),
    lo=st.one_of(st.none(), st.integers(-2, 62)),
    hi=st.one_of(st.none(), st.integers(-2, 62)),  # may lie below lo
    inclusive=st.tuples(st.booleans(), st.booleans()),
)
def test_range_search_slices_what_the_key_walk_finds(keys, dropped, lo, hi, inclusive):
    """Leaf slices found by bisection: the rowids, in the order, for the
    node visits of the key-by-key walk — over duplicate keys, leaves
    emptied by deletes, open, half-open and inverted ranges."""
    from repro.db.counters import CounterSet

    tree = build_tree([(key, rid) for rid, key in enumerate(keys)], order=4)
    for rid, key in enumerate(keys):
        if key in dropped:
            tree.delete(key, rid)
    counters = CounterSet()
    found = tree.search_range(lo, hi, *inclusive, counters=counters)
    assert (found, counters.index_node_visits) == walk_range(tree, lo, hi, *inclusive)


class TestHashIndex:
    def test_eq_and_in(self):
        ix = HashIndex("h", "t", "c")
        for i in range(10):
            ix.insert(i % 3, i)
        assert sorted(ix.search_eq(0)) == [0, 3, 6, 9]
        assert sorted(ix.search_in([1, 2])) == [1, 2, 4, 5, 7, 8]

    def test_delete(self):
        ix = HashIndex("h", "t", "c")
        ix.insert("a", 1)
        assert ix.delete("a", 1)
        assert not ix.delete("a", 1)
        assert ix.search_eq("a") == []

    def test_len(self):
        ix = HashIndex("h", "t", "c")
        ix.insert(1, 1)
        ix.insert(1, 2)
        assert len(ix) == 2


class TestRowIdBitmap:
    def test_or_and(self):
        a = RowIdBitmap.from_rowids([1, 5, 9])
        b = RowIdBitmap.from_rowids([5, 7])
        assert sorted((a | b).iter_sorted()) == [1, 5, 7, 9]
        assert sorted((a & b).iter_sorted()) == [5]

    def test_len_contains(self):
        bm = RowIdBitmap.from_rowids([0, 63, 64, 1000])
        assert len(bm) == 4
        assert 63 in bm and 1000 in bm and 2 not in bm

    def test_iter_sorted_is_ascending(self):
        bm = RowIdBitmap.from_rowids([9, 1, 5])
        assert list(bm.iter_sorted()) == [1, 5, 9]

    def test_pages(self):
        bm = RowIdBitmap.from_rowids([0, 1, 127, 128, 300])
        assert bm.pages(128) == [0, 1, 2]

    def test_empty(self):
        assert not RowIdBitmap()
        assert list(RowIdBitmap().iter_sorted()) == []

    @given(st.sets(st.integers(0, 5000), max_size=200), st.sets(st.integers(0, 5000), max_size=200))
    def test_matches_set_semantics(self, xs, ys):
        a = RowIdBitmap.from_rowids(xs)
        b = RowIdBitmap.from_rowids(ys)
        assert set((a | b).iter_sorted()) == xs | ys
        assert set((a & b).iter_sorted()) == xs & ys
        assert len(a) == len(xs)
