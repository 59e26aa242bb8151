"""Tests for the bounded keyed store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.store import BoundedKeyedStore


class ScanStore(BoundedKeyedStore):
    """The reference: TTL expiry scans every entry on every call."""

    def expire(self, now):
        if self.ttl is None:
            return
        for key in [k for k, (_, stamp) in self._entries.items() if now - stamp > self.ttl]:
            self._evict(key, "ttl")


class CountedStamp(float):
    """A stamp that counts how often an expiry check reads it."""

    reads = 0

    def __rsub__(self, other):
        CountedStamp.reads += 1
        return float(other) - float(self)


KEYS = st.sampled_from([f"k{i}" for i in range(6)])
#: A clock step: stamps never decrease, as on a loop clock.
STEPS = st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.0])
STORE_OPS = st.lists(st.tuples(st.sampled_from(["put", "get"]), KEYS, STEPS), max_size=60)


class TestBoundedKeyedStore:
    def test_capacity_evicts_front_in_insertion_order(self):
        store = BoundedKeyedStore(max_entries=2)
        store.put("a", 1, 0.0)
        store.put("b", 2, 1.0)
        store.put("c", 3, 2.0)
        assert store.keys() == ("b", "c")
        assert (store.evicted_capacity, store.evicted_ttl) == (1, 0)

    def test_put_refreshes_recency(self):
        store = BoundedKeyedStore(max_entries=2)
        store.put("a", 1, 0.0)
        store.put("b", 2, 1.0)
        store.put("a", 10, 2.0)  # refresh: "a" moves to the back
        store.put("c", 3, 3.0)  # evicts "b"
        assert store.keys() == ("a", "c")
        assert store.get("a") == 10

    def test_ttl_expiry(self):
        store = BoundedKeyedStore(ttl=5.0)
        store.put("a", 1, 0.0)
        store.put("b", 2, 4.0)
        assert store.get("a", now=5.0) == 1  # exactly at ttl: kept
        assert store.get("a", now=5.5) is None
        assert store.get("b", now=5.5) == 2
        assert store.evicted_ttl == 1

    def test_eviction_sequence_deterministic(self):
        def run():
            order = []
            store = BoundedKeyedStore(max_entries=3, ttl=25.0)
            for i in range(20):
                store.put(f"k-{i % 7}", i, float(i * 3))
                order.append(store.keys())
            return order

        assert run() == run()

    @settings(max_examples=200, deadline=None)
    @given(STORE_OPS, st.sampled_from([None, 2, 4]))
    def test_expiry_evicts_what_the_full_scan_does(self, ops, max_entries):
        """Same entries in the same order, same eviction counts."""
        stores = [cls(max_entries=max_entries, ttl=5.0) for cls in (BoundedKeyedStore, ScanStore)]
        now = 0.0
        for op, key, step in ops:
            now += step
            for store in stores:
                if op == "put":
                    store.put(key, now, now)
                else:
                    store.get(key, now)
            fast, scan = stores
            assert list(fast._entries.items()) == list(scan._entries.items())
            assert (fast.evicted_ttl, fast.evicted_capacity) == (
                scan.evicted_ttl,
                scan.evicted_capacity,
            )

    def test_put_examines_only_the_expired_entries(self):
        store = BoundedKeyedStore(ttl=10_000.0)
        for i in range(10_000):
            store.put(f"k{i}", i, CountedStamp(i))
        CountedStamp.reads = 0
        store.put("new", 0, 10_004.5)  # stamps 0..4 are past the ttl
        assert store.evicted_ttl == 5
        assert CountedStamp.reads == 5 + 1  # and the first live one

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoundedKeyedStore(max_entries=0)
        with pytest.raises(ValueError):
            BoundedKeyedStore(ttl=-1.0)
