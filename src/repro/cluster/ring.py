"""Consistent hashing — the cluster tier's querier → shard map.

The coordinator must route every request for one querier to the shard
owning that querier's policy partition, and a shard count change must
not reshuffle the whole corpus (a naive ``hash(q) % N`` moves ~all
queriers when N changes, invalidating every shard's warm guard
state).  A consistent-hash ring gives both properties:

* each shard contributes ``vnodes`` *virtual points* on a 64-bit
  ring; a querier routes to the first point clockwise of its own
  hash;
* **stability** — adding a shard moves a querier only if the *new*
  shard's points land between the querier and its old owner, so keys
  move only *onto* the added shard (never between survivors), and
  removing a shard moves only that shard's keys.  Expected movement
  is 1/N of the corpus (``tests/test_cluster.py`` pins both as
  hypothesis properties);
* **balance** — many virtual points per shard smooth the arc lengths,
  bounding max/mean shard load.

Hashing is :func:`hashlib.blake2b` over ``repr(key)`` — deterministic
across processes and runs (Python's built-in ``hash`` is salted per
process, which would make every restart a full rebalance).

:class:`HashRing` is treated as an **immutable value** by the
coordinator: :meth:`with_node` / :meth:`without_node` return new
rings, so a routing swap is one atomic reference assignment and
partition ownership predicates can safely close over the ring they
were created with.

:class:`Assignment` — the ring plus the health tier's detour map — is
the one value that answers *who holds querier q*: where its requests
go, which partitions cover it, and therefore which shards a policy
write naming it must reach.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.common.errors import ClusterError

#: Virtual points per shard.  128 keeps max/mean shard load under
#: ~1.6 for realistic querier counts while ring construction stays
#: sub-millisecond.
DEFAULT_VNODES = 128


def stable_hash(value: Any) -> int:
    """A process-independent 64-bit hash of any repr-stable value.

    ``repr`` keeps distinct types distinct (``1`` vs ``"1"``), and
    blake2b is deterministic where ``hash(str)`` is per-process
    salted.
    """
    digest = hashlib.blake2b(repr(value).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """An immutable consistent-hash ring over named shard nodes."""

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = DEFAULT_VNODES):
        if vnodes <= 0:
            raise ClusterError("vnodes must be positive")
        self.vnodes = vnodes
        self._nodes: frozenset[str] = frozenset()
        self._points: list[tuple[int, str]] = []  # sorted (hash, node)
        for node in nodes:
            self._insert(node)

    # ------------------------------------------------------------- building

    def _insert(self, node: str) -> None:
        if node in self._nodes:
            raise ClusterError(f"shard {node!r} is already on the ring")
        self._nodes = self._nodes | {node}
        for i in range(self.vnodes):
            point = (stable_hash(("vnode", node, i)), node)
            bisect.insort(self._points, point)

    def with_node(self, node: str) -> "HashRing":
        """A new ring with ``node`` added; self is unchanged."""
        ring = HashRing(vnodes=self.vnodes)
        ring._nodes = self._nodes
        ring._points = list(self._points)
        ring._insert(node)
        return ring

    def without_node(self, node: str) -> "HashRing":
        """A new ring with ``node`` removed; self is unchanged."""
        if node not in self._nodes:
            raise ClusterError(f"shard {node!r} is not on the ring")
        ring = HashRing(vnodes=self.vnodes)
        ring._nodes = self._nodes - {node}
        ring._points = [p for p in self._points if p[1] != node]
        return ring

    # -------------------------------------------------------------- routing

    def route(self, key: Any) -> str:
        """The shard owning ``key``: first ring point clockwise of the
        key's hash (wrapping past zero)."""
        if not self._points:
            raise ClusterError("cannot route on an empty ring")
        h = stable_hash(("key", key))
        # First point with hash >= h; "" sorts before any node name, so
        # an exact hash collision still routes to that point's node.
        idx = bisect.bisect_left(self._points, (h, ""))
        if idx == len(self._points):
            idx = 0
        return self._points[idx][1]

    def moved_keys(self, other: "HashRing", keys: Iterable[Any]) -> frozenset:
        """Keys whose owner differs between this ring and ``other``."""
        return frozenset(k for k in keys if self.route(k) != other.route(k))

    # -------------------------------------------------------- introspection

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def load(self, keys: Sequence[Any]) -> dict[str, int]:
        """Keys per shard — the balance metric the properties bound."""
        out = {node: 0 for node in self._nodes}
        for key in keys:
            out[self.route(key)] += 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashRing(nodes={sorted(self._nodes)}, vnodes={self.vnodes})"


class Assignment:
    """Who holds which querier: a :class:`HashRing` plus its detours.

    ``detours`` maps a flagged shard to the fallback serving in its
    place.  A detoured querier is *covered twice*: by its home shard
    (so lifting the detour, or losing the fallback, needs no handover
    back) and by the fallback (so the detour answers row-identically).
    Routing, partition coverage, the policy scatter set and the
    supervisor's rebuild all read this one immutable value, so they
    cannot disagree about it; a detour touching a shard that is not on
    the ring lapses at construction.
    """

    def __init__(self, ring: HashRing, detours: Mapping[str, str] | None = None):
        self.ring = ring
        self.detours: dict[str, str] = {
            home: fallback
            for home, fallback in (detours or {}).items()
            if home in ring and fallback in ring
        }

    def owner(self, querier: Any) -> str:
        """The shard a request from ``querier`` is admitted to."""
        home = self.ring.route(querier)
        return self.detours.get(home, home)

    def holders(self, querier: Any) -> tuple[str, ...]:
        """Every shard whose partition covers ``querier``: its home,
        plus the home's fallback while a detour is up."""
        home = self.ring.route(querier)
        fallback = self.detours.get(home)
        return (home,) if fallback is None else (home, fallback)

    def homes(self, name: str) -> frozenset[str]:
        """The ring nodes whose queriers shard ``name`` covers: itself
        and every shard detoured onto it (empty once off the ring)."""
        if name not in self.ring:
            return frozenset()
        return frozenset(
            [name, *(home for home, fb in self.detours.items() if fb == name)]
        )

    def covers(self, name: str) -> Callable[[Any], bool]:
        """The ownership predicate of shard ``name``'s partition."""
        homes, route = self.homes(name), self.ring.route
        return lambda querier: route(querier) in homes
