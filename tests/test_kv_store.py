"""Unit tests for the assembled KV store (index + heap)."""

import pytest

from repro.kv.logarena import LogValueArena
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
        assert store.set(b"k", b"v1") is False
        row = store.directory.ids[b"k"]
        assert store.set(b"k", b"v2") is True  # a replace keeps the row
        assert store.directory.ids[b"k"] == row
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
        row = store.key_compare(b"target", candidates)
        assert row == store.directory.ids[b"target"]
        assert store.read_value(row) == b"val"

    def test_key_compare_rejects_false_candidates(self, store):
        store.set(b"real", b"v")
        # A bogus candidate list: locations that hold a different key.
        candidates = store.index_search(b"real")
        assert store.key_compare(b"other-key", candidates) is None
        assert store.stats.signature_false_positives >= 1

    def test_read_value_records_access(self, store):
        store.set(b"k", b"v")
        row = store.key_compare(b"k", store.index_search(b"k"))
        store.read_value(row, epoch=3)
        store.read_value(row, epoch=3)
        assert store.directory.epoch[row] == 3
        assert store.directory.access[row] == 2
        assert store.directory.touched == [row]

    def test_allocate_reports_locations_for_deletes(self, store):
        store.set(b"k", b"v1")
        row = store.directory.ids[b"k"]
        entries = store.index.entries()
        # A replace keeps the key's row: no index Insert, no slot written.
        assert store.allocate(b"k", b"v2") == (row, False)
        assert store.index.entries() == entries
        assert store.index.stats.reassigns == 1
        assert store.allocate(b"fresh", b"v") == (store.directory.ids[b"fresh"], True)


def small_arena_store() -> KVStore:
    """A store whose 64 KiB arena (4 KiB segments) overfills after ~3,600
    SETs of an 18 B record, on an index sized never to fill."""
    return KVStore(
        memory_bytes=1 << 20,
        expected_objects=70000,
        heap=LogValueArena(1 << 16, segment_bytes=1 << 12),
    )


class TestEvictionIntegration:
    def test_set_on_full_store_evicts_and_cleans_index(self):
        """SETs past the budget never evict; the barrier does, and every
        evicted key is gone from the heap, the directory and the index."""
        store = small_arena_store()
        keys = [f"key-{n:06d}".encode() for n in range(4000)]
        for key in keys:
            store.set(key, b"x" * 8)
        assert store.heap.stats.evictions == 0
        assert store.needs_maintenance
        evictions = store.maintenance()
        assert evictions > 0
        evicted = [key for key in keys if store.get(key) is None]
        assert len(evicted) == evictions
        assert not any(key in store.directory for key in evicted)
        assert len(store) == len(store.index) == len(keys) - evictions

    def test_steady_state_insert_delete_pairing(self):
        """At steady state each SET produces one Insert and, in aggregate,
        one Delete (the paper's Figure 6 premise): the barrier settles one
        index Delete per evicted record, and a full arena evicts about as
        many records as it takes new ones."""
        store = small_arena_store()
        n = 0
        while not store.needs_maintenance:
            store.set(f"key-{n:06d}".encode(), b"x" * 8)
            n += 1
        store.maintenance()
        live_before = len(store)
        inserts_before = store.index.stats.inserts
        deletes_before = store.index.stats.deletes
        evictions_before = store.heap.stats.evictions
        for i in range(2000):
            store.set(f"new-{i:06d}".encode(), b"x" * 8)
            if store.needs_maintenance:
                store.maintenance()
        evictions = store.heap.stats.evictions - evictions_before
        assert store.index.stats.inserts - inserts_before == 2000
        assert store.index.stats.deletes - deletes_before == evictions
        # A pass evicts whole segments of 512 records (4 KiB of 8 B
        # values), so the live set moves by at most one segment's worth.
        assert abs(len(store) - live_before) <= 512
        assert len(store) == len(store.index) == live_before + 2000 - evictions


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
