"""Unit tests for the assembled KV store (index + heap)."""

import pytest

from repro.kv.slab import SlabAllocator
from repro.kv.store import KVStore


@pytest.fixture
def store():
    return KVStore(memory_bytes=8 << 20, expected_objects=8192)


class TestBasicOperations:
    def test_set_then_get(self, store):
        store.set(b"user:1", b"alice")
        assert store.get(b"user:1") == b"alice"

    def test_get_missing(self, store):
        assert store.get(b"ghost") is None

    def test_overwrite(self, store):
        store.set(b"k", b"v1")
        outcome = store.set(b"k", b"v2")
        assert outcome.replaced is not None
        assert outcome.replaced.value == b"v1"
        assert store.get(b"k") == b"v2"

    def test_overwrite_keeps_single_entry(self, store):
        store.set(b"k", b"v1")
        store.set(b"k", b"v2")
        store.set(b"k", b"v3")
        assert store.get(b"k") == b"v3"
        assert len(store) == 1

    def test_delete(self, store):
        store.set(b"k", b"v")
        assert store.delete(b"k")
        assert store.get(b"k") is None

    def test_delete_missing(self, store):
        assert not store.delete(b"nope")

    def test_len(self, store):
        for i in range(20):
            store.set(f"k{i}".encode(), b"v")
        assert len(store) == 20

    def test_binary_safe_values(self, store):
        value = bytes(range(256))
        store.set(b"bin", value)
        assert store.get(b"bin") == value


class TestPrimitives:
    def test_index_search_then_key_compare(self, store):
        store.set(b"target", b"val")
        candidates = store.index_search(b"target")
        location = store.key_compare(b"target", candidates)
        assert location is not None
        assert store.read_value(location) == b"val"

    def test_key_compare_rejects_false_candidates(self, store):
        store.set(b"real", b"v")
        # A bogus candidate list: locations that hold a different key.
        candidates = store.index_search(b"real")
        assert store.key_compare(b"other-key", candidates) is None
        assert store.stats.signature_false_positives >= 1

    def test_read_value_records_access(self, store):
        store.set(b"k", b"v")
        loc = store.key_compare(b"k", store.index_search(b"k"))
        store.read_value(loc, epoch=3)
        obj = store.heap.get(loc, touch=False)
        assert obj.sample_epoch == 3
        assert obj.access_count >= 1

    def test_allocate_reports_locations_for_deletes(self, store):
        store.set(b"k", b"v1")
        outcome = store.allocate(b"k", b"v2")
        assert outcome.replaced_location is not None
        assert outcome.index_deletes == 1


class TestEvictionIntegration:
    def test_set_on_full_store_evicts_and_cleans_index(self):
        store = KVStore(
            memory_bytes=1 << 20, expected_objects=70000, heap=SlabAllocator(1 << 20)
        )
        evictions = 0
        n = 0
        while evictions == 0 and n < 80000:
            outcome = store.set(f"key-{n:06d}".encode(), b"x" * 8)
            if outcome.evicted is not None:
                evictions += 1
                evicted_key = outcome.evicted.key
            n += 1
        assert evictions == 1
        # The evicted key is gone from both heap and index.
        assert store.get(evicted_key) is None

    def test_steady_state_insert_delete_pairing(self):
        """At steady state each SET produces one Insert and one Delete
        (the paper's Figure 6 premise)."""
        store = KVStore(
            memory_bytes=1 << 20, expected_objects=70000, heap=SlabAllocator(1 << 20)
        )
        # Fill until the first eviction.
        n = 0
        while True:
            outcome = store.set(f"key-{n:06d}".encode(), b"x" * 8)
            n += 1
            if outcome.evicted is not None:
                break
        inserts_before = store.index.stats.inserts
        deletes_before = store.index.stats.deletes
        for i in range(100):
            store.set(f"new-{i:06d}".encode(), b"x" * 8)
        assert store.index.stats.inserts - inserts_before == 100
        assert store.index.stats.deletes - deletes_before == 100


class TestStats:
    def test_hit_rate(self, store):
        store.set(b"k", b"v")
        store.get(b"k")
        store.get(b"missing")
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_counters(self, store):
        store.set(b"a", b"1")
        store.get(b"a")
        store.delete(b"a")
        assert store.stats.sets == 1
        assert store.stats.gets == 1
        assert store.stats.deletes == 1
        assert store.stats.delete_hits == 1


class TestPopulate:
    def test_populate_round_trip(self, store):
        items = [(f"k{i}".encode(), f"value-{i}".encode()) for i in range(50)]
        assert store.populate(items) == 50
        for key, value in items:
            assert store.get(key) == value

    def test_populate_stops_at_capacity(self):
        store = KVStore(memory_bytes=1 << 20, expected_objects=64)
        items = [(f"key-{i:08d}".encode(), b"x" * 8) for i in range(10000)]
        stored = store.populate(items)
        assert stored < 10000  # cuckoo index capacity bounds the load
