"""Tests for the bounded keyed store and the sharded cookie store."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import store as store_module
from repro.serve.ring import HashRing, moved_fraction
from repro.serve.store import BoundedKeyedStore, ShardedCookieStore


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
#: A clock step; a negative one writes an out-of-order stamp.
STEPS = st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.0, -4.0])
STORE_OPS = st.lists(
    st.tuples(st.sampled_from(["put", "get", "touch", "pop"]), KEYS, STEPS),
    max_size=60,
)
NODES = ["s0", "s1", "s2", "s3"]
SHARDED_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, STEPS),
        st.tuples(st.just("get"), KEYS, STEPS),
        st.tuples(st.just("reshard"), st.lists(st.sampled_from(NODES), min_size=1, unique=True)),
    ),
    max_size=40,
)


class TestBoundedKeyedStore:
    def test_capacity_evicts_front_in_insertion_order(self):
        evicted = []
        store = BoundedKeyedStore(
            max_entries=2, on_evict=lambda k, r: evicted.append((k, r))
        )
        store.put("a", 1, 0.0)
        store.put("b", 2, 1.0)
        store.put("c", 3, 2.0)
        assert store.keys() == ("b", "c")
        assert evicted == [("a", "capacity")]
        assert store.evicted_capacity == 1

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

    def test_touch_refreshes_stamp_without_value_change(self):
        store = BoundedKeyedStore(ttl=5.0)
        store.put("a", 1, 0.0)
        assert store.touch("a", 4.0)
        assert store.get("a", now=8.0) == 1  # age measured from the touch
        assert not store.touch("missing", 0.0)

    def test_eviction_sequence_deterministic(self):
        def run():
            order = []
            store = BoundedKeyedStore(
                max_entries=3, ttl=25.0, on_evict=lambda k, r: order.append((k, r))
            )
            for i in range(20):
                store.put(f"k-{i % 7}", i, float(i * 3))
            return order

        assert run() == run()

    @settings(max_examples=200, deadline=None)
    @given(STORE_OPS, st.sampled_from([None, 2, 4]))
    def test_expiry_evicts_what_the_full_scan_does(self, ops, max_entries):
        """Same evictions, same order, same ``on_evict`` calls — in order
        or not, since a negative step writes an out-of-order stamp."""
        logs = ([], [])
        stores = [
            cls(max_entries=max_entries, ttl=5.0, on_evict=lambda k, r, log=log: log.append((k, r)))
            for cls, log in zip((BoundedKeyedStore, ScanStore), logs)
        ]
        now = 0.0
        for op, key, step in ops:
            now += step
            for store in stores:
                if op == "put":
                    store.put(key, now, now)
                elif op == "get":
                    store.get(key, now)
                elif op == "touch":
                    store.touch(key, now)
                else:
                    store.pop(key)
            fast, scan = stores
            assert list(fast.items()) == list(scan.items())
            assert logs[0] == logs[1]
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


class TestShardedCookieStore:
    KEYS = [f"od-{i}" for i in range(600)]

    def _loaded_store(self, nodes):
        ring = HashRing(nodes)
        store = ShardedCookieStore(ring)
        for i, key in enumerate(self.KEYS):
            store.put(key, f"cookie-{i}", float(i))
        return ring, store

    def test_routes_by_ring(self):
        ring, store = self._loaded_store(["s0", "s1", "s2"])
        for key in self.KEYS:
            assert store.get(key) is not None
            assert key in store.shards[ring.node_for(key)]

    def test_reshard_add_moves_ring_bounded_fraction(self):
        """Adding a shard moves only the consistent-hash fraction of
        entries — every entry survives, none duplicated."""
        ring, store = self._loaded_store(["s0", "s1", "s2"])
        new_ring = ring.with_node("s3")
        moved = store.reshard(new_ring)
        assert moved == sum(
            1 for k in self.KEYS if ring.node_for(k) != new_ring.node_for(k)
        )
        assert moved / len(self.KEYS) <= 2.0 / 4.0  # bound with headroom
        assert moved / len(self.KEYS) == pytest.approx(
            moved_fraction(ring, new_ring, self.KEYS)
        )
        assert len(store) == len(self.KEYS)
        for key in self.KEYS:
            assert store.get(key) is not None
            assert key in store.shards[new_ring.node_for(key)]

    def test_reshard_remove_relocates_departed_shards_entries(self):
        ring, store = self._loaded_store(["s0", "s1", "s2"])
        departed = [k for k in self.KEYS if ring.node_for(k) == "s2"]
        new_ring = ring.without_node("s2")
        moved = store.reshard(new_ring)
        assert moved == len(departed)
        assert "s2" not in store.shards
        assert len(store) == len(self.KEYS)
        for key in self.KEYS:
            assert store.get(key) is not None

    def test_reshard_preserves_stamps(self):
        ring, store = self._loaded_store(["s0", "s1"])
        new_ring = ring.with_node("s2")
        store.reshard(new_ring)
        stamps = {
            key: stamp
            for shard in store.shards.values()
            for key, _, stamp in shard.items()
        }
        for i, key in enumerate(self.KEYS):
            assert stamps[key] == float(i)

    def test_reshard_is_deterministic(self):
        def run():
            ring, store = self._loaded_store(["s0", "s1", "s2"])
            store.reshard(ring.with_node("s3"))
            return {
                node: store.shards[node].keys() for node in sorted(store.shards)
            }

        assert run() == run()

    @settings(max_examples=100, deadline=None)
    @given(SHARDED_OPS)
    def test_reshards_keep_the_full_scans_evictions(self, ops):
        """A reshard re-inserts old stamps; a shard that took one
        expires exactly as the full scan does from then on."""
        ring = HashRing(["s0", "s1"])
        fast = ShardedCookieStore(ring, max_entries_per_shard=3, ttl=5.0)
        with mock.patch.object(store_module, "BoundedKeyedStore", ScanStore):
            scan = ShardedCookieStore(ring, max_entries_per_shard=3, ttl=5.0)
        now = 0.0
        for op in ops:
            if op[0] == "reshard":
                fast.reshard(HashRing(op[1]))
                with mock.patch.object(store_module, "BoundedKeyedStore", ScanStore):
                    scan.reshard(HashRing(op[1]))
            else:
                _, key, step = op
                now += step
                if op[0] == "put":
                    assert fast.put(key, now, now) == scan.put(key, now, now)
                else:
                    assert fast.get(key, now) == scan.get(key, now)
            assert sorted(fast.shards) == sorted(scan.shards)
            for node, shard in fast.shards.items():
                reference = scan.shards[node]
                assert list(shard.items()) == list(reference.items())
                assert (shard.evicted_ttl, shard.evicted_capacity) == (
                    reference.evicted_ttl,
                    reference.evicted_capacity,
                )

    def test_double_reshard_returns_home(self):
        """add then remove the same shard: every entry is back where it
        started, and the per-direction movement matched the ring."""
        ring, store = self._loaded_store(["s0", "s1", "s2"])
        out = store.reshard(ring.with_node("s3"))
        back = store.reshard(ring)
        assert out == back
        assert store.moved_on_reshard == out + back
        for key in self.KEYS:
            assert key in store.shards[ring.node_for(key)]
