"""The assembled key-value store: cuckoo index over a value heap.

:class:`KVStore` wires the cuckoo hash table and the value heap — the
append-only :class:`~repro.kv.logarena.LogValueArena` — into the
GET/SET/DELETE semantics of Section II-B, and reports the per-operation
cost observations (buckets touched, evictions generated) that both the
workload profiler and the cost model consume.  Tests inject other
allocators with the same interface as instances (small-segment arenas,
and :class:`~repro.kv.slab.SlabAllocator` as the parity oracle).

Beyond ``get``/``set``/``delete``/``populate``/``len``/``stats`` the
system asks three things of a store: :meth:`KVStore.keys`,
:meth:`KVStore.harvest_window`, and :attr:`KVStore.needs_maintenance`
with :meth:`KVStore.maintenance`.

The pipeline engine does not call ``get``/``set`` directly — it runs the
fine-grained tasks (IN, KC, RD, ...) separately so they can live on
different processors — but those task implementations delegate to the
primitive operations exposed here, and the convenience methods compose the
same primitives, so unit tests of the store exercise exactly the code the
pipeline runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import CapacityError
from repro.kv.hashtable import CuckooHashTable
from repro.kv.logarena import LogValueArena
from repro.kv.objects import KVObject
from repro.telemetry import get_telemetry

#: 10 us .. 1 s: a maintenance step is a barrier the next window waits on.
_MAINTENANCE_NS_BUCKETS = (1e4, 1e5, 1e6, 2.5e6, 1e7, 2.5e7, 1e8, 1e9)

#: (name, help) of the counters fed from the arena's compactions /
#: relocations / relocated_bytes stats, in that order.
_COMPACTION_COUNTERS = (
    (
        "repro_logarena_compactions_total",
        "Log-arena compaction passes that reclaimed space",
    ),
    (
        "repro_logarena_relocations_total",
        "Live records the log-arena compactor moved to the log tail",
    ),
    (
        "repro_logarena_relocated_bytes_total",
        "Value bytes the log-arena compactor copied",
    ),
)


@dataclass
class StoreStats:
    """Store-level operation counters."""

    gets: int = 0
    get_hits: int = 0
    sets: int = 0
    deletes: int = 0
    delete_hits: int = 0
    signature_false_positives: int = 0

    @property
    def hit_rate(self) -> float:
        if self.gets == 0:
            return 0.0
        return self.get_hits / self.gets


@dataclass(slots=True)
class SetOutcome:
    """What one SET did: where the object went and what it displaced.

    ``evicted`` is the LRU object pushed out by the slab allocator (paper:
    "a SET query needs to evict an existing key-value object"), and
    ``replaced`` is a previous version of the same key.  Either generates an
    index Delete; the new object generates an index Insert — the Insert +
    Delete pairing analysed in Figure 6.  The ``*_location`` fields identify
    the displaced index entries so Deletes remove exactly the stale entry
    even when a reassigned Insert has already added the new one.

    On a log-arena heap ``evicted`` is always ``None``: the arena never
    evicts inside a SET, it tombstones and settles evictions (with their
    index Deletes) in bulk at the compaction barrier — see
    :meth:`KVStore.maintenance`.  Displaced objects are
    :class:`~repro.kv.objects.KVObject` on the slab and
    :class:`~repro.kv.logarena.LogRecord` on the log arena; both expose
    ``key``/``value``.
    """

    location: int
    evicted: object | None
    replaced: object | None
    evicted_location: int | None = None
    replaced_location: int | None = None

    @property
    def index_deletes(self) -> int:
        return int(self.evicted is not None) + int(self.replaced is not None)


class KVStore:
    """A functional IMKV node body (index + heap), no networking attached.

    Parameters
    ----------
    memory_bytes:
        Heap budget for key-value objects.
    expected_objects:
        Sizing hint for the index (buckets ~ expected / slots, padded to
        keep cuckoo load factors safe).
    heap:
        ``None`` (default) for a
        :class:`~repro.kv.logarena.LogValueArena` over ``memory_bytes``
        (bump-pointer SETs, tombstoned deletes, barrier-time compaction),
        or an allocator instance with the same interface.
    """

    def __init__(
        self,
        memory_bytes: int,
        expected_objects: int,
        index=None,
        heap=None,
    ):
        buckets = max(64, int(expected_objects / 2))
        if index is None:
            index = CuckooHashTable(num_buckets=buckets)
        self.index = index
        self.heap = LogValueArena(memory_bytes) if heap is None else heap
        #: Log-arena fast paths, bound once (None on an injected slab).
        self._heap_alloc_kv = getattr(self.heap, "allocate_kv", None)
        self._heap_bulk_alloc = getattr(self.heap, "multi_allocate_kv", None)
        self._heap_compact = getattr(self.heap, "compact", None)
        self._key_location: dict[bytes, int] = {}
        self.stats = StoreStats()

    def __len__(self) -> int:
        return len(self._key_location)

    # ------------------------------------------------------------ primitives
    # These are what the pipeline's fine-grained tasks call.

    def index_search(self, key: bytes) -> list[int]:
        """IN/Search: candidate locations by signature."""
        candidates, _ = self.index.search(key)
        return candidates

    def key_compare(self, key: bytes, candidates: list[int]) -> int | None:
        """KC: verify the full key against candidate objects.

        Returns the matching location or None; counts signature false
        positives (candidates rejected by the comparison).
        """
        match: int | None = None
        for location in candidates:
            obj = self.heap.get(location, touch=False)
            if obj is not None and obj.key == key:
                match = location
            else:
                self.stats.signature_false_positives += 1
        return match

    def read_value(self, location: int, *, epoch: int = 0) -> bytes | None:
        """RD: fetch the value bytes, recording a profiler access."""
        obj = self.heap.get(location)
        if obj is None:
            return None
        obj.record_access(epoch, self.heap.touched, location)
        return obj.value

    def allocate(self, key: bytes, value: bytes) -> SetOutcome:
        """MM: place a new object, evicting/replacing as needed."""
        replaced = None
        replaced_location: int | None = None
        old_location = self._key_location.get(key)
        if old_location is not None and old_location in self.heap:
            replaced = self.heap.free(old_location)
            replaced_location = old_location
        alloc_kv = self._heap_alloc_kv
        try:
            if alloc_kv is not None:
                location, evicted = alloc_kv(key, value)
            else:
                location, evicted = self.heap.allocate(KVObject(key, value))
        except CapacityError:
            if replaced is not None:
                # The old version is already freed: drop every reference
                # to it so a later GET misses instead of resolving a
                # dangling handle through the stale mapping.
                self._key_location.pop(key, None)
                self.index_delete(key, replaced_location)
            raise
        evicted_location: int | None = None
        if evicted is not None:
            evicted_location = self._key_location.pop(evicted.key, None)
        self._key_location[key] = location
        return SetOutcome(
            location=location,
            evicted=evicted,
            replaced=replaced,
            evicted_location=evicted_location,
            replaced_location=replaced_location,
        )

    def index_insert(self, key: bytes, location: int) -> int:
        """IN/Insert: add the new entry; returns buckets written."""
        return self.index.insert(key, location)

    def index_delete(self, key: bytes, location: int | None = None) -> bool:
        """IN/Delete: drop an index entry (for evicted/replaced/deleted keys)."""
        return self.index.delete(key, location)

    # ------------------------------------------------------- bulk primitives
    # Whole-batch forms of the primitives above, used by the engine layer
    # (repro.engine): one tight loop inside the store per pipeline phase
    # instead of one cross-module call per query.  Each is semantically
    # exactly N applications of its scalar counterpart, in order.
    #
    # The index-touching bulk operations route probe specs (signature +
    # candidate buckets) through the index's persistent probe cache, so a
    # hot key is hashed once ever rather than once per operation — the
    # columnar analogue of Mega-KV computing signatures during packet
    # processing and shipping them with the job.  Alternative index
    # implementations without the prehashed interface fall back to their
    # scalar operations, so the engine works against any index.

    def multi_index_search(self, keys: list[bytes]) -> list[list[int]]:
        """Bulk IN/Search: candidate locations per key, in input order."""
        multi = getattr(self.index, "multi_search", None)
        if multi is not None:
            return multi(keys)
        search = self.index.search
        return [search(key)[0] for key in keys]

    def multi_allocate_columns(
        self, keys: list[bytes], values: list[bytes]
    ) -> tuple[list[int], list[int | None], list[bool]] | None:
        """Columnar MM over parallel key/value columns (bulk-heap fast path).

        The engine's MM pass calls this first: on a bulk-alloc heap the
        whole SET run lands with one columnar append and the replace
        bookkeeping returns as aligned columns — ``locations[i]`` for the
        new object, ``replaced[i]`` as the displaced old location (``None``
        when ``keys[i]`` was fresh or its index entry was settled here),
        and ``settled[i]`` marking items whose Insert+Delete pair was
        already applied as one in-place slot rewrite
        (:meth:`~repro.kv.hashtable.CuckooHashTable.reassign_prehashed`) —
        those need no pending index work at all.  No per-item
        :class:`SetOutcome` is built, and ``evicted`` is structurally
        ``None`` (the arena defers eviction to the compaction barrier).

        Returns ``None`` for an empty run, when the heap has no bulk
        allocator (the slab oracle), or when an item exceeds the heap
        budget: an oversized item must fail at its position with every
        earlier item placed, so the caller then allocates row by row
        through :meth:`allocate`.
        """
        bulk = self._heap_bulk_alloc
        if bulk is None or not keys:
            return None
        budget = self.heap.budget_bytes
        # The per-item check runs only when the cheap screen trips.
        if max(map(len, keys)) + max(map(len, values)) > budget and any(
            len(key) + len(value) > budget for key, value in zip(keys, values)
        ):
            return None
        locations = bulk(keys, values)
        key_location = self._key_location
        key_location_get = key_location.get
        discard = self.heap.discard
        index = self.index
        probe = getattr(index, "probe_cached", None)
        reassign = (
            getattr(index, "reassign_prehashed", None) if probe is not None else None
        )
        replaced: list[int | None] = []
        settled: list[bool] = []
        rappend = replaced.append
        sappend = settled.append
        for key, location in zip(keys, locations):
            old_location = key_location_get(key)
            if old_location is not None and discard(old_location) is not None:
                if reassign is not None and reassign(
                    *probe(key), old_location, location
                ):
                    rappend(None)
                    sappend(True)
                else:
                    rappend(old_location)
                    sappend(False)
            else:
                rappend(None)
                sappend(False)
            key_location[key] = location
        return locations, replaced, settled

    def multi_index_insert(self, entries: list[tuple[bytes, int]]) -> int:
        """Bulk IN/Insert: apply entries in order; returns buckets written."""
        index = self.index
        probe = getattr(index, "probe_cached", None)
        if probe is None:
            insert = index.insert
            return sum(insert(key, location) for key, location in entries)
        insert = index.insert_prehashed
        buckets = 0
        for key, location in entries:
            signature, candidates = probe(key)
            buckets += insert(signature, candidates, location)
        return buckets

    def multi_index_delete(self, entries: list[tuple[bytes, int | None]]) -> int:
        """Bulk IN/Delete: apply entries in order; returns entries removed."""
        index = self.index
        probe = getattr(index, "probe_cached", None)
        if probe is None:
            delete = index.delete
            return sum(bool(delete(key, location)) for key, location in entries)
        delete = index.delete_prehashed
        removed = 0
        for key, location in entries:
            signature, candidates = probe(key)
            if delete(signature, candidates, location):
                removed += 1
        return removed

    # ------------------------------------------------------- whole operations

    def get(self, key: bytes, *, epoch: int = 0) -> bytes | None:
        """Full GET: Search -> KC -> RD."""
        self.stats.gets += 1
        candidates = self.index_search(key)
        location = self.key_compare(key, candidates)
        if location is None:
            return None
        value = self.read_value(location, epoch=epoch)
        if value is not None:
            self.stats.get_hits += 1
        return value

    def set(self, key: bytes, value: bytes) -> SetOutcome:
        """Full SET: MM -> Insert (+ Delete for displaced entries)."""
        self.stats.sets += 1
        outcome = self.allocate(key, value)
        if outcome.replaced is not None:
            self.index_delete(key, outcome.replaced_location)
        if outcome.evicted is not None:
            self.index_delete(outcome.evicted.key, outcome.evicted_location)
        self.index_insert(key, outcome.location)
        return outcome

    def delete(self, key: bytes) -> bool:
        """Full DELETE: remove from heap and index."""
        self.stats.deletes += 1
        location = self._key_location.pop(key, None)
        if location is None or location not in self.heap:
            return False
        self.heap.free(location)
        self.index_delete(key, location)
        self.stats.delete_hits += 1
        return True

    # ------------------------------------------------------- store protocol
    # What DidoSystem, FunctionalPipeline and the cluster ask of a store
    # beyond the operations above.

    def keys(self) -> list[bytes]:
        """The live keys (what cluster migration scans)."""
        return [obj.key for obj in self.heap.objects()]

    def harvest_window(self) -> tuple[list[int], float]:
        """The closing profile window's harvest, drained.

        Returns the in-window access counts of the objects touched since
        the last harvest — the heap's first-touch log (bounded at two
        windows' worth; no heap scan) — and the index's running average of
        buckets written per Insert.
        """
        return self.heap.drain_touched(), self.index.stats.average_insert_buckets()

    @property
    def needs_maintenance(self) -> bool:
        """Cheap barrier gate: does the heap want compaction?

        Always ``False`` on an injected slab (it reclaims inline, per SET).
        """
        if self._heap_compact is None:
            return False
        return self.heap.needs_maintenance

    def maintenance(self) -> int:
        """Run barrier work — heap compaction; returns evictions.

        The heap has one trigger,
        :attr:`~repro.kv.logarena.LogValueArena.needs_maintenance`, shared
        by the server's idle tick and the post-batch barrier.

        Compaction is log-arena only (a no-op on an injected slab, which
        never defers work).  It evicts whole least-recently-touched segments
        while the live set exceeds the budget; every evicted record gets
        its index Delete and key-location unmapping here — the aggregate
        settlement of the paper's one-Insert-one-Delete SET accounting
        (§II-C2).
        """
        compact = self._heap_compact
        if compact is None:
            return 0
        telemetry = get_telemetry()
        registry = telemetry.registry if telemetry.enabled else None
        heap = self.heap
        if registry is not None:
            self._export_heap_balance(registry)
        if not heap.needs_maintenance:
            return 0
        started = time.perf_counter_ns()
        stats = heap.stats
        before = (stats.compactions, stats.relocations, stats.relocated_bytes)
        evicted = compact()
        for location, record in evicted:
            key = record.key
            if self._key_location.get(key) == location:
                del self._key_location[key]
            self.index_delete(key, location)
        if registry is not None and stats.compactions > before[0]:
            registry.histogram(
                "repro_maintenance_ns",
                buckets=_MAINTENANCE_NS_BUCKETS,
                help="Wall time of one maintenance step, by stream (ns)",
            ).observe(time.perf_counter_ns() - started, stream="compaction")
            after = (stats.compactions, stats.relocations, stats.relocated_bytes)
            for (name, help_text), was, now in zip(_COMPACTION_COUNTERS, before, after):
                if now > was:
                    registry.counter(name, help=help_text).inc(now - was)
            self._export_heap_balance(registry)
        return len(evicted)

    def _export_heap_balance(self, registry) -> None:
        registry.gauge(
            "repro_logarena_live_bytes",
            help="Live key+value bytes in the log arena",
        ).set(self.heap.live_bytes)
        registry.gauge(
            "repro_logarena_dead_bytes",
            help="Tombstoned log-arena bytes awaiting compaction",
        ).set(self.heap.dead_bytes)

    # ------------------------------------------------------- bulk entry points

    def populate(self, items: list[tuple[bytes, bytes]]) -> int:
        """Bulk-load ``(key, value)`` pairs in order (benchmark warm-up);
        returns the count stored.

        Stops early if the index cannot absorb more (cuckoo capacity),
        which callers treat as "store is full" rather than an error.
        """
        stored = 0
        for key, value in items:
            try:
                self.set(key, value)
            except CapacityError:
                break
            stored += 1
            if not stored % 4096 and self.needs_maintenance:
                # A bulk load on the log arena settles its memory debt
                # periodically instead of overcommitting unboundedly.
                self.maintenance()
        return stored
