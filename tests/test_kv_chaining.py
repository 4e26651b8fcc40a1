"""Tests for the chained-hash index table and its key-level parity with cuckoo."""

import pytest

from repro.errors import ConfigurationError
from repro.kv.chaining import ChainedHashTable
from repro.kv.hashtable import CuckooHashTable


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


class TestStoreInterchangeability:
    """The index ablation drives either table through its key-level
    ``insert`` / ``search`` / ``delete``; both must agree with a dict."""

    @pytest.mark.parametrize("index_factory", [
        lambda: CuckooHashTable(num_buckets=2048),
        lambda: ChainedHashTable(num_buckets=2048),
    ])
    def test_store_semantics_identical(self, index_factory):
        table = index_factory()
        live: dict[bytes, int] = {}
        for i in range(300):
            key = f"key-{i}".encode()
            table.insert(key, i)
            live[key] = i
        for i in range(0, 300, 3):  # re-map a third, replacing each entry
            key = f"key-{i}".encode()
            assert table.delete(key, live[key])
            table.insert(key, 1000 + i)
            live[key] = 1000 + i
        for key, location in live.items():
            assert location in table.search(key)[0]
        assert not table.delete(b"key-000")  # different key format
        assert table.delete(b"key-0", live.pop(b"key-0"))
        assert table.search(b"key-0")[0] == []
        assert len(table) == len(live)
