"""A B+-tree secondary index.

Classic order-``M`` B+-tree with all rowids stored in the leaves and
leaf-level sibling links for range scans.  Duplicate keys are supported
by keeping a list of rowids per key entry.  Deletion is by tombstone
removal from the leaf entry (no rebalancing on underflow — acceptable
for an append-mostly workload and keeps invariants simple; lookups stay
logarithmic because the structure only ever grows by splits).

The tree reports ``height`` and counts node visits so the execution
engine can charge a realistic index-traversal cost: a search adds the
nodes *it* visited to the ``counters`` it is handed (so two threads
probing one tree are each charged their own), and ``node_visits`` keeps
the tree's cumulative total as a statistic.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator

from repro.common.errors import ExecutionError

DEFAULT_ORDER = 64


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[list[int]] = []
        self.next: _Leaf | None = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] holds keys < keys[i]; children[-1] holds keys >= keys[-1]
        self.keys: list[Any] = []
        self.children: list[Any] = []


class BPlusTreeIndex:
    """Secondary index mapping column values to lists of rowids."""

    kind = "btree"

    def __init__(self, name: str, table: str, column: str, order: int = DEFAULT_ORDER):
        if order < 4:
            raise ExecutionError("B+-tree order must be >= 4")
        self.name = name
        self.table = table
        self.column = column
        self.order = order
        self._root: _Leaf | _Inner = _Leaf()
        self._height = 1
        self._entry_count = 0  # number of (key, rowid) pairs
        self.node_visits = 0  # cumulative traversal counter

    # ----------------------------------------------------------------- stats

    @property
    def height(self) -> int:
        return self._height

    def __len__(self) -> int:
        return self._entry_count

    # ---------------------------------------------------------------- insert

    def insert(self, key: Any, rowid: int) -> None:
        """Add one (key, rowid) entry."""
        split = self._insert(self._root, key, rowid)
        if split is not None:
            sep, right = split
            new_root = _Inner()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._entry_count += 1

    def _insert(self, node: _Leaf | _Inner, key: Any, rowid: int):
        self.node_visits += 1
        if isinstance(node, _Leaf):
            pos = bisect.bisect_left(node.keys, key)
            if pos < len(node.keys) and node.keys[pos] == key:
                node.values[pos].append(rowid)
                return None
            node.keys.insert(pos, key)
            node.values.insert(pos, [rowid])
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        pos = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[pos], key, rowid)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(pos, sep)
        node.children.insert(pos + 1, right)
        if len(node.children) > self.order:
            return self._split_inner(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_inner(self, inner: _Inner):
        mid = len(inner.keys) // 2
        sep = inner.keys[mid]
        right = _Inner()
        right.keys = inner.keys[mid + 1 :]
        right.children = inner.children[mid + 1 :]
        inner.keys = inner.keys[:mid]
        inner.children = inner.children[: mid + 1]
        return sep, right

    # ---------------------------------------------------------------- delete

    def delete(self, key: Any, rowid: int) -> bool:
        """Remove one (key, rowid) entry; returns True when found."""
        leaf, _visits = self._find_leaf(key)
        pos = bisect.bisect_left(leaf.keys, key)
        if pos >= len(leaf.keys) or leaf.keys[pos] != key:
            return False
        try:
            leaf.values[pos].remove(rowid)
        except ValueError:
            return False
        if not leaf.values[pos]:
            del leaf.keys[pos]
            del leaf.values[pos]
        self._entry_count -= 1
        return True

    # ---------------------------------------------------------------- search

    def _find_leaf(self, key: Any) -> tuple[_Leaf, int]:
        """The leaf ``key`` belongs to (the leftmost one for ``None``)
        and the number of nodes visited on the way, leaf included."""
        node = self._root
        visits = 1
        while isinstance(node, _Inner):
            visits += 1
            node = node.children[bisect.bisect_right(node.keys, key) if key is not None else 0]
        return node, visits

    def _charge(self, visits: int, counters: Any) -> None:
        self.node_visits += visits
        if counters is not None:
            counters.index_node_visits += visits

    def search_eq(self, key: Any, counters: Any = None) -> list[int]:
        """Rowids whose key equals ``key``; the nodes visited are added
        to ``counters.index_node_visits``.  A key the index cannot order
        against its keys equals none of them, as ``==`` says: no rows."""
        try:
            leaf, visits = self._find_leaf(key)
            pos = bisect.bisect_left(leaf.keys, key)
        except TypeError:
            return []
        self._charge(visits, counters)
        if pos < len(leaf.keys) and leaf.keys[pos] == key:
            return list(leaf.values[pos])
        return []

    def search_range(
        self,
        lo: Any = None,
        hi: Any = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        counters: Any = None,
    ) -> list[int]:
        """Rowids with keys in the given (possibly half-open) range, in
        key order; visits are charged as by :meth:`search_eq`.

        ``None`` bounds are unbounded on that side.  Each leaf on the
        sibling chain contributes one slice, its ends found by bisection;
        the walk stops at the first leaf holding a key beyond the range.
        """
        leaf, visits = self._find_leaf(lo)
        below = bisect.bisect_left if lo_inclusive else bisect.bisect_right
        above = bisect.bisect_right if hi_inclusive else bisect.bisect_left
        out: list[int] = []
        while True:
            keys = leaf.keys
            start = 0 if lo is None else below(keys, lo)
            stop = len(keys) if hi is None else above(keys, hi)
            for rowids in leaf.values[start:stop]:
                out += rowids
            if max(start, stop) < len(keys) or leaf.next is None:
                break  # a key past the lower bound is beyond the upper one
            leaf = leaf.next
            lo = None  # every later key is above the lower bound
            visits += 1
        self._charge(visits, counters)
        return out

    def keys(self) -> Iterator[Any]:
        """All distinct keys in order (test/debug helper)."""
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[0]
        leaf: _Leaf | None = node
        while leaf is not None:
            yield from leaf.keys
            leaf = leaf.next

    # ------------------------------------------------------------ invariants

    def check_invariants(self) -> None:
        """Validate structural invariants (used by property tests)."""
        self._check_node(self._root, None, None, depth=1)
        keys = list(self.keys())
        if keys != sorted(keys):
            raise AssertionError("leaf keys not globally sorted")

    def _check_node(self, node, lo, hi, depth) -> int:
        if isinstance(node, _Leaf):
            if depth != self._height:
                raise AssertionError("leaves at differing depths")
            for key in node.keys:
                if lo is not None and key < lo:
                    raise AssertionError(f"leaf key {key!r} below bound {lo!r}")
                if hi is not None and key >= hi:
                    raise AssertionError(f"leaf key {key!r} above bound {hi!r}")
            if node.keys != sorted(node.keys):
                raise AssertionError("leaf keys unsorted")
            return 1
        if node.keys != sorted(node.keys):
            raise AssertionError("inner keys unsorted")
        if len(node.children) != len(node.keys) + 1:
            raise AssertionError("inner fanout mismatch")
        for i, child in enumerate(node.children):
            child_lo = node.keys[i - 1] if i > 0 else lo
            child_hi = node.keys[i] if i < len(node.keys) else hi
            self._check_node(child, child_lo, child_hi, depth + 1)
        return 1
