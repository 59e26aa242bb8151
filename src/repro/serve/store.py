"""A keyed store with capacity and TTL eviction for the serve edge.

:class:`BoundedKeyedStore` is an insertion-ordered mapping: refresh
moves a key to the back, capacity evicts the front, and TTL expiry
evicts from the front while the front entry is older than ``ttl``.  The
router's flow table is one, with a TTL and no capacity.  Callers write
non-decreasing stamps (a loop clock), so insertion order is stamp order
and the expired entries are always a prefix of it.
"""

from __future__ import annotations

from typing import Dict, Generic, Optional, Tuple, TypeVar

V = TypeVar("V")


class BoundedKeyedStore(Generic[V]):
    """Insertion-ordered keyed store with capacity + TTL eviction."""

    def __init__(self, max_entries: Optional[int] = None, ttl: Optional[float] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive")
        self.max_entries = max_entries
        self.ttl = ttl
        self.evicted_capacity = 0
        self.evicted_ttl = 0
        self._entries: Dict[str, Tuple[V, float]] = {}

    def keys(self) -> Tuple[str, ...]:
        """Keys in insertion (eviction) order."""
        return tuple(self._entries)

    def _evict(self, key: str, reason: str) -> None:
        del self._entries[key]
        if reason == "ttl":
            self.evicted_ttl += 1
        else:
            self.evicted_capacity += 1

    def expire(self, now: float) -> None:
        """Evict every entry older than ``ttl``, oldest insertion first.

        Examines the expired entries and the first live one.
        """
        ttl = self.ttl
        if ttl is None:
            return
        entries = self._entries
        while entries:
            key = next(iter(entries))
            if now - entries[key][1] <= ttl:
                return
            self._evict(key, "ttl")

    def put(self, key: str, value: V, now: float) -> None:
        self.expire(now)
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


__all__ = ["BoundedKeyedStore"]
