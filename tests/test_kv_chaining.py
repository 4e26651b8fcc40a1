"""Tests for the chained-hash index backend and its interchangeability."""

import pytest

from repro.errors import ConfigurationError
from repro.kv.chaining import ChainedHashTable
from repro.kv.hashtable import CuckooHashTable
from repro.kv.store import KVStore


class TestChainedBasics:
    def test_insert_search(self):
        table = ChainedHashTable(64)
        table.insert(b"alpha", 7)
        candidates, touched = table.search(b"alpha")
        assert 7 in candidates
        assert touched >= 1

    def test_search_missing(self):
        table = ChainedHashTable(64)
        assert table.search(b"ghost")[0] == []

    def test_delete(self):
        table = ChainedHashTable(64)
        table.insert(b"k", 1)
        assert table.delete(b"k")
        assert table.search(b"k")[0] == []
        assert not table.delete(b"k")

    def test_delete_by_location(self):
        table = ChainedHashTable(64)
        table.insert(b"k", 1)
        table.insert(b"k", 2)
        assert table.delete(b"k", location=1)
        assert table.search(b"k")[0] == [2]

    def test_no_capacity_limit(self):
        """Chains absorb arbitrarily many entries (unlike cuckoo)."""
        table = ChainedHashTable(16)
        for i in range(2000):
            table.insert(f"key-{i}".encode(), i)
        assert len(table) == 2000

    def test_len_tracks(self):
        table = ChainedHashTable(64)
        for i in range(10):
            table.insert(f"k{i}".encode(), i)
        table.delete(b"k0")
        assert len(table) == 9

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            ChainedHashTable(0)
        with pytest.raises(ConfigurationError):
            ChainedHashTable(64).insert(b"k", -1)


class TestProbeGrowth:
    def test_search_cost_grows_with_load(self):
        """The GPU-unfriendliness the paper's cuckoo choice avoids: chained
        probe counts grow with load factor."""
        table = ChainedHashTable(64)
        light_probes = []
        for i in range(64):
            table.insert(f"k{i}".encode(), i)
        for i in range(64):
            light_probes.append(table.search(f"k{i}".encode())[1])
        for i in range(64, 1024):
            table.insert(f"k{i}".encode(), i)
        heavy_probes = [table.search(f"k{i}".encode())[1] for i in range(1024)]
        assert sum(heavy_probes) / len(heavy_probes) > sum(light_probes) / len(light_probes)

    def test_cuckoo_probes_bounded_at_same_load(self):
        """Cuckoo search touches a bounded number of buckets regardless of
        load: the key's num_hashes candidates, then (once inserts have
        kicked) their num_hashes displaced twins — and finds every key."""
        cuckoo = CuckooHashTable(num_buckets=256, num_hashes=2)
        for i in range(700):
            cuckoo.insert(f"k{i}".encode(), i)
        assert cuckoo.kicked
        for i in range(700):
            candidates, probes = cuckoo.search(f"k{i}".encode())
            assert i in candidates
            assert probes <= 4

    def test_expected_search_buckets_tracks_load(self):
        table = ChainedHashTable(64)
        before = table.expected_search_buckets()
        for i in range(640):
            table.insert(f"k{i}".encode(), i)
        assert table.expected_search_buckets() > before


class TestStoreInterchangeability:
    @pytest.mark.parametrize("index_factory", [
        lambda: CuckooHashTable(num_buckets=2048),
        lambda: ChainedHashTable(num_buckets=2048),
    ])
    def test_store_semantics_identical(self, index_factory):
        store = KVStore(8 << 20, 4096, index=index_factory())
        for i in range(300):
            store.set(f"key-{i}".encode(), f"value-{i}".encode())
        for i in range(300):
            assert store.get(f"key-{i}".encode()) == f"value-{i}".encode()
        assert store.delete(b"key-000") is False  # different key format
        assert store.delete(b"key-0")
        assert store.get(b"key-0") is None

    def test_functional_pipeline_with_chained_index(self):
        from repro.kv.protocol import Query, QueryType, ResponseStatus
        from repro.pipeline.functional import FunctionalPipeline
        from repro.pipeline.megakv import megakv_coupled_config

        store = KVStore(8 << 20, 4096, index=ChainedHashTable(2048))
        pipeline = FunctionalPipeline(store)
        config = megakv_coupled_config()
        r1 = pipeline.process_batch(
            config,
            [Query(QueryType.SET, b"k", b"v"), Query(QueryType.GET, b"k")],
        )
        assert [r.status for r in r1.responses] == [
            ResponseStatus.STORED,
            ResponseStatus.OK,
        ]
        r2 = pipeline.process_batch(config, [Query(QueryType.DELETE, b"k")])
        assert r2.responses[0].status is ResponseStatus.DELETED
