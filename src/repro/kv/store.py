"""The assembled key-value store: cuckoo index over a value heap.

:class:`KVStore` wires the cuckoo hash table and the value heap — the
append-only :class:`~repro.kv.logarena.LogValueArena` — into the
GET/SET/DELETE semantics of Section II-B, and reports the per-operation
cost observations (buckets touched, evictions generated) that both the
workload profiler and the cost model consume.  Tests inject other
allocators with the same interface as instances (small-segment arenas,
and :class:`~repro.kv.slab.SlabAllocator` as the parity oracle).

The store's ``key -> location`` map is its :class:`KeyDirectory`: one row
per live key, holding the key's heap location beside its probe spec
(signature and candidate buckets) as aligned NumPy columns.  Only a SET
gives a key a row, and a key is hashed only while it holds none (one scalar
hash on the ``get``/``set``/``delete`` path, one columnar pass per window
on the engine's, :meth:`KVStore.window_specs`).  A DELETE or an eviction
retires the row onto a free list, where the key keeps it until another key
needs a row.

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
from itertools import repeat

import numpy as np

from repro.errors import CapacityError
from repro.kv.hashtable import EMPTY, CuckooHashTable
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


class KeyDirectory:
    """The store's one key directory: ``key -> id`` over id-indexed columns.

    Row ``id`` holds a key's probe spec — ``signature[id]`` and
    ``buckets[id, :]``, equal to the index's ``probe(key)`` — and its heap
    ``location[id]``; the row is live while that location is not
    :data:`~repro.kv.hashtable.EMPTY`.  Only a SET gives a key a row.  A
    DELETE or an eviction retires it: the location empties and the id joins
    the free list, and the key keeps the row until the free list hands the
    id to a key that has none — so a deleted key SET or read again takes
    its spec back without a hash.  The columns grow (doubling) only when
    every row is live, so the rows in use are exactly the live keys.  The
    scalar paths read and write the columns through flat ``memoryview``
    objects, whose items are plain Python ints; the engine gathers from the
    arrays.
    """

    def __init__(self, rows: int, num_hashes: int):
        #: Key -> id, for live keys and for keys still holding a retired row.
        self.ids: dict[bytes, int] = {}
        self._num_hashes = num_hashes
        #: Id -> the key holding it, for the ids handed out so far.
        self._holders: list[bytes] = []
        #: Retired ids, an ordered set: the most recently retired goes first.
        self._free: dict[int, None] = {}
        self._live = 0
        self._resize(max(1, rows))

    def _resize(self, rows: int) -> None:
        used = len(self._holders)
        signature = np.zeros(rows, dtype=np.uint32)
        buckets = np.zeros((rows, self._num_hashes), dtype=np.int64)
        location = np.full(rows, EMPTY, dtype=np.int64)
        if used:
            signature[:used] = self.signature[:used]
            buckets[:used] = self.buckets[:used]
            location[:used] = self.location[:used]
        self.signature = signature
        self.buckets = buckets
        self.location = location
        self._sig = memoryview(signature)
        self._bkt = memoryview(buckets.reshape(-1))
        self._loc = memoryview(location)

    def __len__(self) -> int:
        """Live keys, which are the rows in use."""
        return self._live

    def __contains__(self, key: bytes) -> bool:
        return self.location_of(key) is not None

    @property
    def rows(self) -> int:
        """Rows the columns hold (live, retired or never used)."""
        return len(self.location)

    def location_of(self, key: bytes) -> int | None:
        """``key``'s heap location, or ``None`` when it has no live row."""
        row = self.ids.get(key)
        if row is None:
            return None
        location = self._loc[row]
        return None if location == EMPTY else location

    def spec(self, row: int) -> tuple[int, list[int]]:
        """Row ``row``'s probe spec, as ``probe`` returns it."""
        width = self._num_hashes
        return self._sig[row], self._bkt[row * width : (row + 1) * width].tolist()

    def claim(self, key: bytes) -> int:
        """A live row for ``key``, which holds none: the most recently
        retired id (its holder loses it), else a new one.  The caller
        writes the row's spec and location."""
        holders = self._holders
        if self._free:
            row = self._free.popitem()[0]
            del self.ids[holders[row]]
            holders[row] = key
        else:
            row = len(holders)
            if row == len(self.location):
                self._resize(2 * row)
            holders.append(key)
        self.ids[key] = row
        self._live += 1
        return row

    def revive(self, row: int) -> None:
        """Take retired ``row`` back for the key still holding it; the
        caller writes its location."""
        del self._free[row]
        self._live += 1

    def add(self, key: bytes, signature: int, buckets, location: int) -> None:
        """Give ``key``, which holds no row, one with its spec and ``location``."""
        row = self.claim(key)
        self._sig[row] = signature
        base = row * self._num_hashes
        for offset, bucket in enumerate(buckets):
            self._bkt[base + offset] = bucket
        self._loc[row] = location

    def place(self, key: bytes, location: int) -> bool:
        """Point ``key``'s row at ``location``, reviving it if retired;
        ``False`` when ``key`` holds no row."""
        row = self.ids.get(key)
        if row is None:
            return False
        if self._loc[row] == EMPTY:
            self.revive(row)
        self._loc[row] = location
        return True

    def retire(self, key: bytes) -> int | None:
        """Retire ``key``'s live row; returns the location it held, or
        ``None`` when it had none."""
        row = self.ids.get(key)
        if row is None:
            return None
        location = self._loc[row]
        if location == EMPTY:
            return None
        self._loc[row] = EMPTY
        self._free[row] = None
        self._live -= 1
        return location


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
        #: Whether the index takes probe specs (the cuckoo table); an index
        #: without them (the chained table) hashes inside its key-level
        #: operations, and the directory then holds locations only.
        self._prehashed = hasattr(index, "probe")
        self.directory = KeyDirectory(
            expected_objects, index.num_hashes if self._prehashed else 0
        )
        self.stats = StoreStats()

    def __len__(self) -> int:
        return len(self.directory)

    # ---------------------------------------------------------- probe specs

    def spec(self, key: bytes) -> tuple[int, list[int]]:
        """``key``'s probe spec: from its directory row when it holds one,
        else hashed (and not kept)."""
        row = self.directory.ids.get(key)
        if row is None:
            return self.index.probe(key)
        return self.directory.spec(row)

    def window_specs(self, keys: list[bytes]) -> tuple[np.ndarray, np.ndarray] | None:
        """Every row's probe spec for one window, resolved once.

        Keys holding a directory row gather their specs from its columns;
        the rest — fresh SETs and misses of keys never SET alike — are
        hashed together in one columnar pass.  Returns ``(signatures, buckets)``
        aligned with ``keys``, or ``None`` for an index that takes no
        specs.
        """
        if not self._prehashed:
            return None
        directory = self.directory
        ids = list(map(directory.ids.get, keys, repeat(-1)))
        absent = [i for i, row in enumerate(ids) if row < 0] if -1 in ids else []
        if absent and len(absent) == len(keys):
            return self.index.probe_columns(keys)
        rows = np.array(ids, dtype=np.intp)
        signatures = directory.signature[rows]
        buckets = directory.buckets[rows]
        if absent:
            signatures[absent], buckets[absent] = self.index.probe_columns(
                [keys[i] for i in absent]
            )
        return signatures, buckets

    # ------------------------------------------------------------ primitives
    # These are what the pipeline's fine-grained tasks call.

    def index_search(self, key: bytes) -> list[int]:
        """IN/Search: candidate locations by signature."""
        if not self._prehashed:
            return self.index.search(key)[0]
        return self.index.search_prehashed(*self.spec(key))[0]

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
        directory = self.directory
        replaced = None
        replaced_location: int | None = None
        old_location = directory.location_of(key)
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
                self.index_delete(key, replaced_location)
                directory.retire(key)
            raise
        evicted_location: int | None = None
        if evicted is not None:
            evicted_location = directory.retire(evicted.key)
        if not directory.place(key, location):
            spec = self.index.probe(key) if self._prehashed else (0, ())
            directory.add(key, *spec, location)
        return SetOutcome(
            location=location,
            evicted=evicted,
            replaced=replaced,
            evicted_location=evicted_location,
            replaced_location=replaced_location,
        )

    def index_insert(self, key: bytes, location: int) -> int:
        """IN/Insert: add the new entry; returns buckets written."""
        if not self._prehashed:
            return self.index.insert(key, location)
        return self.index.insert_prehashed(*self.spec(key), location)

    def index_delete(self, key: bytes, location: int | None = None) -> bool:
        """IN/Delete: drop an index entry (for evicted/replaced/deleted keys)."""
        if not self._prehashed:
            return self.index.delete(key, location)
        return self.index.delete_prehashed(*self.spec(key), location)

    # ------------------------------------------------------- bulk primitives
    # Whole-batch forms of the primitives above, used by the engine layer
    # (repro.engine): one tight loop inside the store per pipeline phase
    # instead of one cross-module call per query.  Each is semantically
    # exactly N applications of its scalar counterpart, in order.
    #
    # The index-touching bulk operations take the rows' probe specs from
    # the window's one resolve (window_specs) when the engine passes them,
    # else from the key directory, hashing only absent keys — the columnar
    # analogue of Mega-KV computing signatures during packet processing and
    # shipping them with the job.  An index without the prehashed interface
    # runs its scalar operations, so the engine works against any index.

    def _specs(self, keys) -> tuple[list[int], list[list[int]]]:
        specs = list(map(self.spec, keys))
        return [signature for signature, _ in specs], [buckets for _, buckets in specs]

    def multi_index_search(
        self, keys: list[bytes], specs: tuple[list[int], list[list[int]]] | None = None
    ) -> list[list[int]]:
        """Bulk IN/Search: candidate locations per key, in input order.

        ``specs`` is ``(signatures, buckets)`` aligned with ``keys``.
        """
        if not self._prehashed:
            search = self.index.search
            return [search(key)[0] for key in keys]
        return self.index.multi_search_prehashed(*(specs or self._specs(keys)))

    def multi_allocate_columns(
        self,
        keys: list[bytes],
        values: list[bytes],
        specs: tuple[np.ndarray, np.ndarray] | None,
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

        ``specs`` are the keys' ``(signatures, buckets)`` columns from
        :meth:`window_specs` (``None`` exactly when the index takes no
        specs).  Replace detection is the directory's ``location`` column:
        a SET replaces where its key's row holds a location, revives a
        retired row, and gives a key with no row a new one, whose spec is
        written from ``specs`` in one scatter after the loop.

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
        directory = self.directory
        ids_get = directory.ids.get
        claim = directory.claim
        revive = directory.revive
        location_col = directory._loc
        discard = self.heap.discard
        if specs is None:
            reassign = None
            signatures = buckets = repeat(None)
        else:
            reassign = self.index.reassign_prehashed
            signatures, buckets = specs[0].tolist(), specs[1].tolist()
        rows: list[int] = []
        replaced: list[int | None] = []
        settled: list[bool] = []
        rowappend = rows.append
        rappend = replaced.append
        sappend = settled.append
        for key, location, signature, candidates in zip(keys, locations, signatures, buckets):
            row = ids_get(key)
            if row is None:
                row = claim(key)
                location_col = directory._loc  # a claim may grow the columns
                old_location = EMPTY
            else:
                old_location = location_col[row]
                if old_location == EMPTY:
                    revive(row)
            location_col[row] = location
            rowappend(row)
            if old_location != EMPTY and discard(old_location) is not None:
                if reassign is not None and reassign(
                    signature, candidates, old_location, location
                ):
                    rappend(None)
                    sappend(True)
                else:
                    rappend(old_location)
                    sappend(False)
            else:
                rappend(None)
                sappend(False)
        if specs is not None:
            # New rows take their specs here; every other row gets its own
            # spec again.
            directory.signature[rows] = specs[0]
            directory.buckets[rows] = specs[1]
        return locations, replaced, settled

    def multi_index_insert(
        self,
        entries: list[tuple[bytes, int]],
        specs: tuple[list[int], list[list[int]]] | None = None,
    ) -> int:
        """Bulk IN/Insert: apply entries in order; returns buckets written.

        ``specs`` is ``(signatures, buckets)`` aligned with ``entries``.
        """
        if not self._prehashed:
            insert = self.index.insert
            return sum(insert(key, location) for key, location in entries)
        signatures, buckets = specs or self._specs([key for key, _ in entries])
        insert = self.index.insert_prehashed
        written = 0
        for (_, location), signature, candidates in zip(entries, signatures, buckets):
            written += insert(signature, candidates, location)
        return written

    def multi_index_delete(self, entries: list[tuple[bytes, int | None]]) -> int:
        """Bulk IN/Delete: apply entries in order; returns entries removed."""
        if not self._prehashed:
            delete = self.index.delete
            return sum(bool(delete(key, location)) for key, location in entries)
        delete = self.index.delete_prehashed
        spec = self.spec
        removed = 0
        for key, location in entries:
            if delete(*spec(key), location):
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
        location = self.directory.retire(key)
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
        its index Delete and its directory row retired here — the aggregate
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
        directory = self.directory
        for location, record in evicted:
            key = record.key
            self.index_delete(key, location)
            if directory.location_of(key) == location:
                directory.retire(key)
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
