"""Chained hash table: the conventional alternative to cuckoo indexing.

The paper (and Mega-KV before it) chose cuckoo hashing because its lookups
touch a *bounded* number of buckets — at most ``n`` for ``n`` hash
functions — which is what makes index operations GPU-friendly: every SIMT
lane does the same small number of dependent memory accesses.  A chained
table (memcached's classic design) has unbounded chains whose length grows
with load, which serialises badly on a GPU.

This module provides :class:`ChainedHashTable` with the same interface as
:class:`~repro.kv.hashtable.CuckooHashTable` (search/insert/delete plus
bucket-traffic statistics), so it can be dropped into
:class:`~repro.kv.store.KVStore` and the cost model can consume its
*measured* probe counts — the index-structure ablation benchmark shows the
cuckoo choice paying off exactly where the paper says it should.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.kv.hashtable import IndexStats
from repro.kv.objects import fnv1a64, key_signature


@dataclass
class _Node:
    signature: int
    location: int


class ChainedHashTable:
    """Separate-chaining hash index storing (signature, location) pairs.

    Interface-compatible with :class:`CuckooHashTable`: ``search`` returns
    signature-matching candidate locations plus the buckets (here: chain
    nodes) read; ``insert``/``delete`` return their traffic likewise.
    """

    def __init__(self, num_buckets: int, num_hashes: int = 1, **_ignored):
        if num_buckets <= 0:
            raise ConfigurationError("num_buckets must be positive")
        size = 1
        while size < num_buckets:
            size <<= 1
        self._mask = size - 1
        self._chains: list[list[_Node]] = [[] for _ in range(size)]
        self._count = 0
        self.stats = IndexStats()

    # ------------------------------------------------------------------ info

    @property
    def num_buckets(self) -> int:
        return self._mask + 1

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        """Chains are unbounded; report a nominal 8-per-bucket figure so
        sizing heuristics still work."""
        return self.num_buckets * 8

    @property
    def load_factor(self) -> float:
        return self._count / self.num_buckets

    def expected_search_buckets(self) -> float:
        """Expected nodes touched per search: half the average chain on a
        hit, the whole chain on a miss — approximated as 1 + load/2."""
        return 1.0 + self.load_factor / 2.0

    # ------------------------------------------------------------ operations

    def _bucket(self, key: bytes) -> list[_Node]:
        return self._chains[fnv1a64(key, seed=1) & self._mask]

    def search(self, key: bytes) -> tuple[list[int], int]:
        """Candidates by signature plus nodes traversed."""
        signature = key_signature(key)
        bucket = self._bucket(key)
        candidates = []
        touched = 0
        for node in bucket:
            touched += 1
            if node.signature == signature:
                candidates.append(node.location)
        self.stats.searches += 1
        self.stats.search_bucket_reads += max(1, touched)
        return candidates, max(1, touched)

    def insert(self, key: bytes, location: int) -> int:
        """Prepend to the chain (O(1) writes, like memcached)."""
        if location < 0:
            raise ConfigurationError("location must be non-negative")
        self._bucket(key).insert(0, _Node(key_signature(key), location))
        self._count += 1
        self.stats.inserts += 1
        self.stats.insert_bucket_writes += 1
        return 1

    def delete(self, key: bytes, location: int | None = None) -> bool:
        """Remove one matching node (walks the chain)."""
        signature = key_signature(key)
        bucket = self._bucket(key)
        self.stats.deletes += 1
        for i, node in enumerate(bucket):
            if node.signature != signature:
                continue
            if location is not None and node.location != location:
                continue
            bucket.pop(i)
            self._count -= 1
            return True
        return False

    # ------------------------------------------------------------- iteration

    def entries(self) -> list[tuple[int, int]]:
        return [
            (node.signature, node.location)
            for bucket in self._chains
            for node in bucket
        ]
