"""Hash-partitioned data plane: N independent :class:`KVStore` shards.

Mega-KV and MemC3 both partition the store so that index mutations never
contend across cores; DIDO inherits the same idea for its CPU-resident
passes.  :class:`ShardedKVStore` splits one logical store into ``N``
independent :class:`~repro.kv.store.KVStore` shards by key hash — the
same seed-0 FNV-1a hash the index derives signatures from, so the
:class:`~repro.engine.sharded.ShardedEngine` can compute the whole batch's
shard assignment with the vectorized hash kernel and get bit-identical
routing.

Because a key always lands on the same shard, the batch read-your-write
discipline (Deletes before Inserts before Searches) holds per shard
exactly as it does on the monolith: queries for different keys never
interact through the data path (only through cuckoo signature false
positives, which KC rejects), so a sharded store produces byte-identical
responses to an unsharded one — a property the sharding test suite
enforces across shard counts and mixed traces.

The facade mirrors the small surface the rest of the system touches on a
store it *holds* but does not execute on: ``get``/``set``/``delete`` and
``populate`` route per key, ``stats``/``index``/``heap`` present merged
views (summed counters, concatenated live objects) so the profiler and
reporting code work unchanged.
"""

from __future__ import annotations

from dataclasses import fields

from repro.errors import CapacityError, ConfigurationError
from repro.kv.hashtable import IndexStats
from repro.kv.objects import KVObject, fnv1a64
from repro.kv.slab import SlabAllocator
from repro.kv.store import KVStore, SetOutcome, StoreStats


def shard_of(key: bytes, num_shards: int) -> int:
    """The shard a key lives on: seed-0 FNV-1a modulo the shard count.

    This is deliberately the hash state the vectorized kernel computes in
    row 0 (:func:`repro.engine.vector.fnv_hash_columns`), so scalar and
    batched routing can never disagree.
    """
    return fnv1a64(key) % num_shards


def _merge_dataclass_counters(cls, parts):
    """Sum every integer field of ``parts`` into a fresh ``cls`` instance."""
    merged = cls()
    for part in parts:
        for f in fields(cls):
            setattr(merged, f.name, getattr(merged, f.name) + getattr(part, f.name))
    return merged


class _MergedIndexView:
    """Read-only stand-in for ``store.index`` over all shards.

    Exposes the aggregate :class:`~repro.kv.hashtable.IndexStats` (what the
    workload profiler reads) plus the structural attributes reporting code
    looks at.  It is intentionally *not* a hash table: engines never search
    through this view — they execute on the per-shard stores directly.
    """

    __slots__ = ("_shards",)

    def __init__(self, shards: list[KVStore]):
        self._shards = shards

    @property
    def stats(self) -> IndexStats:
        return _merge_dataclass_counters(
            IndexStats, (s.index.stats for s in self._shards)
        )

    @property
    def num_hashes(self) -> int:
        return self._shards[0].index.num_hashes

    @property
    def num_buckets(self) -> int:
        return sum(s.index.num_buckets for s in self._shards)

    def __len__(self) -> int:
        return sum(len(s.index) for s in self._shards)


class _MergedHeapView:
    """Read-only stand-in for ``store.heap`` over all shards."""

    __slots__ = ("_shards",)

    def __init__(self, shards: list[KVStore]):
        self._shards = shards

    def objects(self) -> list[KVObject]:
        out: list[KVObject] = []
        for shard in self._shards:
            out.extend(shard.heap.objects())
        return out

    def drain_touched(self) -> list[int]:
        out: list[int] = []
        for shard in self._shards:
            out.extend(shard.heap.drain_touched())
        return out

    @property
    def budget_bytes(self) -> int:
        return sum(s.heap.budget_bytes for s in self._shards)


class ShardedKVStore:
    """N independent :class:`KVStore` shards behind one store facade.

    Parameters
    ----------
    memory_bytes:
        Total slab budget, divided evenly across shards.
    expected_objects:
        Total index sizing hint, divided evenly across shards.
    num_shards:
        Number of partitions; 1 is legal (a degenerate single shard).
    heap:
        Per-shard value heap kind (``"log"``/``"slab"``), forwarded to
        each shard's :class:`KVStore`.
    delta_index:
        Attach a write-absorbing delta index to every shard (each merges
        into its own cuckoo table at its own barrier).
    """

    def __init__(
        self,
        memory_bytes: int,
        expected_objects: int,
        num_shards: int,
        num_hashes: int = 2,
        heap: str = "log",
        delta_index: bool = False,
    ):
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        # Every shard needs at least one slab page / log segment to hold
        # objects at all; an even split of a small budget is floored
        # rather than rejected.
        shard_budget = max(memory_bytes // num_shards, SlabAllocator.PAGE_BYTES)
        self.shards = [
            KVStore(
                shard_budget,
                max(64, expected_objects // num_shards),
                num_hashes=num_hashes,
                heap=heap,
                delta_index=delta_index,
            )
            for _ in range(num_shards)
        ]
        self._index_view = _MergedIndexView(self.shards)
        self._heap_view = _MergedHeapView(self.shards)

    def attach_delta_index(self, merge_threshold: int | None = None):
        """Attach a write-absorbing delta index to every shard; returns the list.

        Per-shard deltas merge independently — the sharded engine runs one
        inner engine per shard against that shard's store, and the shard's
        own barrier (:meth:`maintenance`) lands the merge.
        """
        return [
            shard.attach_delta_index(merge_threshold=merge_threshold)
            for shard in self.shards
        ]

    def attach_hot_cache(self, capacity: int | None = None):
        """Attach a hot-key read cache to every shard; returns the list.

        The total ``capacity`` is divided evenly (floored at 64 entries per
        shard) — a key lives on exactly one shard, so per-shard caches
        partition the hot set the same way the stores partition the data.
        """
        from repro.kv.hotcache import DEFAULT_CAPACITY, HotKeyCache

        total = capacity or DEFAULT_CAPACITY
        per_shard = max(64, total // self.num_shards)
        return [shard.attach_hot_cache(per_shard) for shard in self.shards]

    # -------------------------------------------------------------- routing

    def shard_for(self, key: bytes) -> KVStore:
        return self.shards[shard_of(key, self.num_shards)]

    # ------------------------------------------------------- store interface

    def get(self, key: bytes, *, epoch: int = 0) -> bytes | None:
        return self.shard_for(key).get(key, epoch=epoch)

    def set(self, key: bytes, value: bytes) -> SetOutcome:
        return self.shard_for(key).set(key, value)

    def delete(self, key: bytes) -> bool:
        return self.shard_for(key).delete(key)

    def populate(self, items: list[tuple[bytes, bytes]]) -> int:
        """Bulk-load items; returns count stored (mirrors KVStore.populate)."""
        stored = 0
        for key, value in items:
            try:
                self.shard_for(key).set(key, value)
            except CapacityError:
                break
            stored += 1
        return stored

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    # ----------------------------------------------------------- maintenance

    @property
    def needs_maintenance(self) -> bool:
        """True when any shard's heap wants a compaction pass."""
        return any(shard.needs_maintenance for shard in self.shards)

    def maintenance(self, force: bool = False) -> int:
        """Run each shard's heap compaction; returns total evictions."""
        return sum(shard.maintenance(force=force) for shard in self.shards)

    # --------------------------------------------------------- merged views

    @property
    def stats(self) -> StoreStats:
        return _merge_dataclass_counters(StoreStats, (s.stats for s in self.shards))

    @property
    def index(self) -> _MergedIndexView:
        return self._index_view

    @property
    def heap(self) -> _MergedHeapView:
        return self._heap_view

    def shard_sizes(self) -> list[int]:
        """Live objects per shard (imbalance telemetry reads this)."""
        return [len(shard) for shard in self.shards]
