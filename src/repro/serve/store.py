"""Bounded keyed stores for the serve edge.

:class:`BoundedKeyedStore` is the generic building block: an
insertion-ordered mapping with the same deterministic capacity/TTL
eviction discipline as the client-side
:class:`~repro.core.transport_cookie.ClientCookieStore` (refresh moves a
key to the back; capacity always evicts the front; TTL expiry runs
oldest-insertion first).  The router's flow table and chain pins are
instances of it, so every piece of per-session state at the edge is
RSS-bounded by construction.

:class:`ShardedCookieStore` composes one bounded store per shard behind
a :class:`~repro.serve.ring.HashRing`: reads and writes route by OD key,
and :meth:`ShardedCookieStore.reshard` migrates exactly the entries
whose ring owner changed — the consistent-hash-bounded fraction, pinned
by tests — dropping only what lands on a shard past capacity.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, Optional, Tuple, TypeVar

from repro.serve.ring import HashRing

V = TypeVar("V")


class BoundedKeyedStore(Generic[V]):
    """Insertion-ordered keyed store with capacity + TTL eviction."""

    def __init__(
        self,
        max_entries: Optional[int] = None,
        ttl: Optional[float] = None,
        on_evict: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive")
        self.max_entries = max_entries
        self.ttl = ttl
        self.evicted_capacity = 0
        self.evicted_ttl = 0
        self._on_evict = on_evict
        self._entries: Dict[str, Tuple[V, float]] = {}
        # While every stamp written is at least the one before it, stamps
        # rise with insertion order and the expired entries are a prefix
        # of it.  One stamp below the newest (a reshard re-inserting old
        # entries) ends that for good.
        self._newest = float("-inf")
        self._in_order = True

    @property
    def evictions(self) -> int:
        return self.evicted_capacity + self.evicted_ttl

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> Tuple[str, ...]:
        """Keys in insertion (eviction) order."""
        return tuple(self._entries)

    def items(self) -> Iterator[Tuple[str, V, float]]:
        for key, (value, stamp) in self._entries.items():
            yield key, value, stamp

    def _evict(self, key: str, reason: str) -> None:
        del self._entries[key]
        if reason == "ttl":
            self.evicted_ttl += 1
        else:
            self.evicted_capacity += 1
        if self._on_evict is not None:
            self._on_evict(key, reason)

    def _stamp(self, now: float) -> None:
        if now < self._newest:
            self._in_order = False
        else:
            self._newest = now

    def expire(self, now: float) -> None:
        """Evict every entry older than ``ttl``, oldest insertion first.

        With stamps in insertion order this examines the expired entries
        and the first live one; otherwise it scans every entry.
        """
        ttl = self.ttl
        if ttl is None:
            return
        entries = self._entries
        if self._in_order:
            while entries:
                key = next(iter(entries))
                if now - entries[key][1] <= ttl:
                    return
                self._evict(key, "ttl")
            return
        for key in [k for k, (_, stamp) in entries.items() if now - stamp > ttl]:
            self._evict(key, "ttl")

    def put(self, key: str, value: V, now: float) -> None:
        self.expire(now)
        self._stamp(now)
        self._entries.pop(key, None)
        self._entries[key] = (value, now)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._evict(next(iter(self._entries)), "capacity")

    def get(self, key: str, now: Optional[float] = None) -> Optional[V]:
        if now is not None:
            self.expire(now)
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def touch(self, key: str, now: float) -> bool:
        """Refresh recency/stamp without changing the value."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._stamp(now)
        self._entries[key] = (entry[0], now)
        return True

    def pop(self, key: str) -> Optional[V]:
        entry = self._entries.pop(key, None)
        return entry[0] if entry is not None else None


class ShardedCookieStore(Generic[V]):
    """Ring-routed federation of per-shard bounded stores."""

    def __init__(
        self,
        ring: HashRing,
        max_entries_per_shard: Optional[int] = None,
        ttl: Optional[float] = None,
    ) -> None:
        self.ring = ring
        self.max_entries_per_shard = max_entries_per_shard
        self.ttl = ttl
        self.shards: Dict[str, BoundedKeyedStore[V]] = {
            node: BoundedKeyedStore(max_entries_per_shard, ttl) for node in ring.nodes
        }
        self.moved_on_reshard = 0

    def shard_for(self, key: str) -> str:
        return self.ring.node_for(key)

    def put(self, key: str, value: V, now: float) -> str:
        shard = self.shard_for(key)
        self.shards[shard].put(key, value, now)
        return shard

    def get(self, key: str, now: Optional[float] = None) -> Optional[V]:
        return self.shards[self.shard_for(key)].get(key, now)

    def __len__(self) -> int:
        return sum(len(store) for store in self.shards.values())

    def reshard(self, new_ring: HashRing) -> int:
        """Adopt ``new_ring``, migrating only entries whose owner moved.

        Entries on removed shards and entries whose ring owner changed
        re-insert into their new shard (subject to its capacity/TTL
        discipline, in the deterministic old-shard-order).  Returns the
        number of migrated entries and accumulates it in
        :attr:`moved_on_reshard`.
        """
        self.ring = new_ring
        for node in new_ring.nodes:
            if node not in self.shards:
                self.shards[node] = BoundedKeyedStore(self.max_entries_per_shard, self.ttl)
        moved = 0
        for node in sorted(self.shards):
            store = self.shards[node]
            for key, value, stamp in list(store.items()):
                target = new_ring.node_for(key)
                if target != node:
                    store.pop(key)
                    self.shards[target].put(key, value, stamp)
                    moved += 1
        for node in sorted(self.shards):
            if node not in new_ring.nodes and len(self.shards[node]) == 0:
                del self.shards[node]
        self.moved_on_reshard += moved
        return moved


__all__ = ["BoundedKeyedStore", "ShardedCookieStore"]
