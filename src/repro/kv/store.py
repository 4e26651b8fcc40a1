"""The assembled key-value store: cuckoo index over a value heap.

:class:`KVStore` wires the cuckoo hash table and the value heap — the
append-only :class:`~repro.kv.logarena.LogValueArena` — into the
GET/SET/DELETE semantics of Section II-B, and reports the per-operation
cost observations (buckets touched, evictions generated) that both the
workload profiler and the cost model consume.  The store takes only these
two: tests pass them in as instances (small tables, small-segment arenas),
and check the store against a dict model that shares none of its code.

A key's one handle is its row of the :class:`KeyDirectory`.  The index
maps a key's signature to that row, and the row's NumPy columns hold the
rest of what DIDO keeps with an object (§IV-B): the probe spec (signature
and candidate buckets), where the value lives in the arena (segment,
offset, length), and the profiler's access counter and sampling epoch.
Only a SET gives a key a row, and a key is hashed only while it holds none
(one scalar hash on the ``get``/``set``/``delete`` path, one columnar pass
per window on the engine's, :meth:`KVStore.window_specs`).  A replace keeps
its row, so it writes columns and touches no index slot; it is counted as
the paper's modelled Insert+Delete pair all the same.  A DELETE or an
eviction retires the row onto a free list, where the key keeps it until
another key needs a row.

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
from repro.kv.objects import TOUCH_LOG_LIMIT
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

#: The int64 row columns beside the probe spec, each with a flat
#: ``memoryview`` named ``_<column>`` for the scalar paths.
_ROW_COLUMNS = ("segment", "offset", "vlen", "klen", "access", "epoch")


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


class KeyDirectory:
    """The store's one key directory: ``key -> row`` over row-indexed columns.

    Row ``row`` holds a key's probe spec — ``signature[row]`` and
    ``buckets[row, :]``, equal to the index's ``probe(key)`` — its value's
    place in the arena — ``segment[row]``, ``offset[row]``, ``vlen[row]``,
    plus ``klen[row]`` for the arena's accounting — and the profiler's
    ``access[row]`` / ``epoch[row]``: accesses in sampling epoch
    ``epoch[row]``, which is -1 until the value is first read.  The row is
    live while ``segment[row]`` is not :data:`~repro.kv.hashtable.EMPTY`.

    Only a SET gives a key a row.  A DELETE or an eviction retires it: the
    segment empties and the row joins the free list, and the key keeps the
    row until the free list hands it to a key that has none — so a deleted
    key SET or read again takes its spec back without a hash.  The columns
    grow (doubling) only when every row is live, so the rows in use are
    exactly the live keys.  The scalar paths read and write the columns
    through flat ``memoryview`` objects, whose items are plain Python ints;
    the engine and the compactor work on the arrays.
    """

    def __init__(self, rows: int, num_hashes: int):
        #: Key -> row, for live keys and for keys still holding a retired row.
        self.ids: dict[bytes, int] = {}
        self._num_hashes = num_hashes
        #: Row -> the key holding it, for the rows handed out so far.
        self._holders: list[bytes] = []
        #: Retired rows, an ordered set: the most recently retired goes first.
        self._free: dict[int, None] = {}
        self._live = 0
        #: Rows first read in the open profiler epoch, in read order, up to
        #: :data:`~repro.kv.objects.TOUCH_LOG_LIMIT`.
        self.touched: list[int] = []
        self._resize(max(1, rows))

    def _resize(self, rows: int) -> None:
        used = len(self._holders)
        signature = np.zeros(rows, dtype=np.uint32)
        buckets = np.zeros((rows, self._num_hashes), dtype=np.int64)
        if used:
            signature[:used] = self.signature[:used]
            buckets[:used] = self.buckets[:used]
        self.signature = signature
        self.buckets = buckets
        self._sig = memoryview(signature)
        self._bkt = memoryview(buckets.reshape(-1))
        for name in _ROW_COLUMNS:
            column = np.full(rows, EMPTY, dtype=np.int64)
            if used:
                column[:used] = getattr(self, name)[:used]
            setattr(self, name, column)
            setattr(self, "_" + name, memoryview(column))

    def __len__(self) -> int:
        """Live keys, which are the rows in use."""
        return self._live

    def __contains__(self, key: bytes) -> bool:
        return self.live_row(key) is not None

    @property
    def rows(self) -> int:
        """Rows the columns hold (live, retired or never used)."""
        return len(self.segment)

    def live_row(self, key: bytes) -> int | None:
        """``key``'s row, or ``None`` when it holds no live one."""
        row = self.ids.get(key)
        if row is None or self._segment[row] == EMPTY:
            return None
        return row

    def spec(self, row: int) -> tuple[int, list[int]]:
        """Row ``row``'s probe spec, as ``probe`` returns it."""
        width = self._num_hashes
        return self._sig[row], self._bkt[row * width : (row + 1) * width].tolist()

    def claim(self, key: bytes) -> int:
        """A live row for ``key``, which holds none: the most recently
        retired row (its holder loses it), else a new one.  The caller
        writes the row's spec and place."""
        holders = self._holders
        if self._free:
            row = self._free.popitem()[0]
            del self.ids[holders[row]]
            holders[row] = key
        else:
            row = len(holders)
            if row == self.rows:
                self._resize(2 * row)
            holders.append(key)
        self.ids[key] = row
        self._live += 1
        return row

    def revive(self, row: int) -> None:
        """Take retired ``row`` back for the key still holding it; the
        caller writes its place."""
        del self._free[row]
        self._live += 1

    def add(self, key: bytes, signature: int, buckets) -> int:
        """Give ``key``, which holds no row, one with its spec."""
        row = self.claim(key)
        self._sig[row] = signature
        base = row * self._num_hashes
        for offset, bucket in enumerate(buckets):
            self._bkt[base + offset] = bucket
        return row

    def place(self, row: int, segment: int, offset: int, vlen: int, klen: int) -> None:
        """Point ``row`` at a new value, not yet read."""
        self._segment[row] = segment
        self._offset[row] = offset
        self._vlen[row] = vlen
        self._klen[row] = klen
        self._epoch[row] = EMPTY

    def retire(self, row: int) -> None:
        """Retire live ``row``: it holds no value from now on."""
        self._segment[row] = EMPTY
        self._free[row] = None
        self._live -= 1

    def read(self, rows, epoch: int) -> tuple[list[int], list[int], list[int]]:
        """Count one access per row in sampling window ``epoch`` and gather
        the rows' ``(segments, offsets, vlens)``.

        The paper's counter+timestamp scheme: a row whose ``epoch`` differs
        restarts its count instead of needing a global reset pass, and is
        logged in :attr:`touched` so the harvest reads the touched rows
        back instead of scanning the directory.
        """
        segment, offset, vlen = self._segment, self._offset, self._vlen
        access, stamp = self._access, self._epoch
        touched = self.touched
        segments: list[int] = []
        offsets: list[int] = []
        vlens: list[int] = []
        for row in rows:
            if stamp[row] != epoch:
                stamp[row] = epoch
                access[row] = 1
                if len(touched) < TOUCH_LOG_LIMIT:
                    touched.append(row)
            else:
                access[row] += 1
            segments.append(segment[row])
            offsets.append(offset[row])
            vlens.append(vlen[row])
        return segments, offsets, vlens

    def harvest(self) -> list[int]:
        """Access counts of the values first read since the last harvest,
        the log drained.  A row retired, replaced or claimed by another key
        since its read is skipped: the value read is gone, as a scan of the
        live values would not have seen it."""
        if not self.touched:
            return []
        rows = np.fromiter(dict.fromkeys(self.touched), dtype=np.intp)
        self.touched.clear()
        kept = rows[(self.segment[rows] != EMPTY) & (self.epoch[rows] != EMPTY)]
        return self.access[kept].tolist()

    def keys(self) -> list[bytes]:
        """The live keys, in row order."""
        holders = self._holders
        live = np.flatnonzero(self.segment[: len(holders)] != EMPTY)
        return [holders[row] for row in live.tolist()]


class KVStore:
    """A functional IMKV node body (index + heap), no networking attached.

    Parameters
    ----------
    memory_bytes:
        Heap budget for key-value objects.
    expected_objects:
        Sizing hint for the index (buckets ~ expected / slots, padded to
        keep cuckoo load factors safe).
    index:
        ``None`` (default) for a
        :class:`~repro.kv.hashtable.CuckooHashTable` sized from
        ``expected_objects``, or a cuckoo table instance.
    heap:
        ``None`` (default) for a
        :class:`~repro.kv.logarena.LogValueArena` over ``memory_bytes``
        (bump-pointer SETs, tombstoned deletes, barrier-time compaction),
        or an arena instance.
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
        self.directory = KeyDirectory(expected_objects, index.num_hashes)
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

    def window_specs(self, keys: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
        """Every row's probe spec for one window, resolved once.

        Keys holding a directory row gather their specs from its columns;
        the rest — fresh SETs and misses of keys never SET alike — are
        hashed together in one columnar pass.  Returns ``(signatures, buckets)``
        aligned with ``keys``.
        """
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
        """IN/Search: candidate rows by signature."""
        return self.index.search_prehashed(*self.spec(key))[0]

    def key_compare(self, key: bytes, candidates: list[int]) -> int | None:
        """KC: the candidate that is ``key``'s live row, or None.

        One compare per candidate; every other candidate is a signature
        false positive and is counted.
        """
        live = self.directory.live_row(key)
        match: int | None = None
        for row in candidates:
            if row == live:
                match = row
            else:
                self.stats.signature_false_positives += 1
        return match

    def read_rows(self, rows, epoch: int = 0) -> list[memoryview]:
        """RD over live rows, in order: read-only views of their values,
        recording a profiler access per row."""
        return self.heap.views(*self.directory.read(rows, epoch))

    def read_value(self, row: int, *, epoch: int = 0) -> bytes:
        """RD of one live row, copied into ``bytes``."""
        return bytes(self.read_rows((row,), epoch)[0])

    def allocate(self, key: bytes, value: bytes) -> tuple[int, bool]:
        """MM: place ``key``'s new value; returns ``(row, fresh)``.

        A replace keeps the key's live row and tombstones the old value;
        ``fresh`` is True when the key had no live row and so needs an
        index Insert.  A value over the whole budget raises
        :class:`CapacityError`, and a key it would have replaced is
        dropped as by a DELETE.
        """
        directory = self.directory
        row = directory.ids.get(key)
        live = row is not None and directory._segment[row] != EMPTY
        try:
            segment, offset = self.heap.allocate_kv(key, value)
        except CapacityError:
            if live:
                self._remove(row)
            raise
        if live:
            self.heap.free(directory._segment[row], directory._klen[row] + directory._vlen[row])
            self.index.stats.count_replaces(1)
        elif row is None:
            row = directory.add(key, *self.index.probe(key))
        else:
            directory.revive(row)
        directory.place(row, segment, offset, len(value), len(key))
        return row, not live

    def index_insert(self, key: bytes, row: int) -> int:
        """IN/Insert: add ``key``'s entry; returns buckets written.  When
        the Insert fails, the row is dropped before the error propagates."""
        try:
            return self.index.insert_prehashed(*self.spec(key), row)
        except CapacityError:
            self.drop_unindexed((row,))
            raise

    def drop_unindexed(self, rows) -> None:
        """Drop the live rows among ``rows``, which hold no index entry:
        the rows a failed window gave a key and never indexed.  A live row
        without an entry would hide its key from Search for good, since a
        replace writes no slot."""
        directory = self.directory
        for row in rows:
            if directory._segment[row] != EMPTY:
                self._release(row)

    def _release(self, row: int) -> None:
        """Tombstone live ``row``'s value and retire the row."""
        directory = self.directory
        self.heap.free(directory._segment[row], directory._klen[row] + directory._vlen[row])
        directory.retire(row)

    def _remove(self, row: int) -> None:
        """Delete live ``row``'s index entry, then release it."""
        self.index.delete_prehashed(*self.directory.spec(row), row)
        self._release(row)

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
    # shipping them with the job.

    def _specs(self, keys) -> tuple[list[int], list[list[int]]]:
        specs = list(map(self.spec, keys))
        return [signature for signature, _ in specs], [buckets for _, buckets in specs]

    def multi_index_search(
        self, keys: list[bytes], specs: tuple[list[int], list[list[int]]] | None = None
    ) -> list[list[int]]:
        """Bulk IN/Search: candidate rows per key, in input order.

        ``specs`` is ``(signatures, buckets)`` aligned with ``keys``.
        """
        return self.index.multi_search_prehashed(*(specs or self._specs(keys)))

    def multi_allocate_columns(
        self,
        keys: list[bytes],
        values: list[bytes],
        specs: tuple[np.ndarray, np.ndarray],
    ) -> tuple[list[int], list[int]] | None:
        """Columnar MM over parallel key/value columns.

        The engine's MM pass calls this first: the whole SET run lands
        with one columnar arena append, and each item's place is written
        into its key's row.  Returns ``(rows, fresh)``: ``rows[i]`` is
        ``keys[i]``'s row, and ``fresh`` lists, in order, the positions
        whose SET gave its key a live row (claimed or revived) and so
        needs an index Insert.  Every other item replaced a live value in
        place: it tombstones the old one and touches no index slot, and
        the lot are counted as Insert+Delete pairs in one add
        (:meth:`~repro.kv.hashtable.IndexStats.count_replaces`).

        ``specs`` are the keys' ``(signatures, buckets)`` columns from
        :meth:`window_specs`; new rows take theirs in one scatter after
        the loop.

        Returns ``None`` for an empty run, or when an item exceeds the heap
        budget: an oversized item must fail at its position with every
        earlier item placed, so the caller then allocates row by row
        through :meth:`allocate`.
        """
        if not keys:
            return None
        budget = self.heap.budget_bytes
        # The per-item check runs only when the cheap screen trips.
        if max(map(len, keys)) + max(map(len, values)) > budget and any(
            len(key) + len(value) > budget for key, value in zip(keys, values)
        ):
            return None
        segments, offsets = self.heap.multi_allocate_kv(keys, values)
        directory = self.directory
        ids_get = directory.ids.get
        claim = directory.claim
        revive = directory.revive
        free = self.heap.free
        segment_col, offset_col, vlen_col, klen_col, epoch_col = (
            directory._segment,
            directory._offset,
            directory._vlen,
            directory._klen,
            directory._epoch,
        )
        rows: list[int] = []
        fresh: list[int] = []
        for i, (key, value, segment, offset) in enumerate(zip(keys, values, segments, offsets)):
            row = ids_get(key)
            if row is None:
                row = claim(key)
                fresh.append(i)
                if row >= len(segment_col):  # the claim grew the columns
                    segment_col, offset_col, vlen_col, klen_col, epoch_col = (
                        directory._segment,
                        directory._offset,
                        directory._vlen,
                        directory._klen,
                        directory._epoch,
                    )
            else:
                old = segment_col[row]
                if old == EMPTY:
                    revive(row)
                    fresh.append(i)
                else:
                    free(old, klen_col[row] + vlen_col[row])
            segment_col[row] = segment
            offset_col[row] = offset
            vlen_col[row] = len(value)
            klen_col[row] = len(key)
            epoch_col[row] = EMPTY
            rows.append(row)
        self.index.stats.count_replaces(len(keys) - len(fresh))
        # New rows take their specs here; every other row gets its own
        # spec again.
        directory.signature[rows] = specs[0]
        directory.buckets[rows] = specs[1]
        return rows, fresh

    def multi_index_insert(
        self,
        entries: list[tuple[bytes, int]],
        specs: tuple[list[int], list[list[int]]] | None = None,
    ) -> int:
        """Bulk IN/Insert: apply ``(key, row)`` entries in order; returns
        buckets written.

        ``specs`` is ``(signatures, buckets)`` aligned with ``entries``.
        When an Insert fails, its row and every later one are dropped
        (:meth:`drop_unindexed`) before the error propagates.
        """
        signatures, buckets = specs or self._specs([key for key, _ in entries])
        insert = self.index.insert_prehashed
        written = 0
        for done, ((_, row), signature, candidates) in enumerate(
            zip(entries, signatures, buckets)
        ):
            try:
                written += insert(signature, candidates, row)
            except CapacityError:
                self.drop_unindexed([row for _, row in entries[done:]])
                raise
        return written

    # ------------------------------------------------------- whole operations

    def get(self, key: bytes, *, epoch: int = 0) -> bytes | None:
        """Full GET: Search -> KC -> RD."""
        self.stats.gets += 1
        row = self.key_compare(key, self.index_search(key))
        if row is None:
            return None
        self.stats.get_hits += 1
        return self.read_value(row, epoch=epoch)

    def set(self, key: bytes, value: bytes) -> bool:
        """Full SET: MM, then the Insert of a key that held no live row.
        Returns True when it replaced a live value."""
        self.stats.sets += 1
        row, fresh = self.allocate(key, value)
        if fresh:
            self.index_insert(key, row)
        return not fresh

    def delete(self, key: bytes) -> bool:
        """Full DELETE: remove from heap and index."""
        self.stats.deletes += 1
        row = self.directory.live_row(key)
        if row is None:
            return False
        self._remove(row)
        self.stats.delete_hits += 1
        return True

    # ------------------------------------------------------- store protocol
    # What DidoSystem, FunctionalPipeline and the cluster ask of a store
    # beyond the operations above.

    def keys(self) -> list[bytes]:
        """The live keys (what cluster migration scans)."""
        return self.directory.keys()

    def harvest_window(self) -> tuple[list[int], float]:
        """The closing profile window's harvest, drained.

        Returns the in-window access counts of the values read since the
        last harvest — the directory's first-touch log (bounded at two
        windows' worth; no scan) — and the index's running average of
        buckets written per Insert.
        """
        return self.directory.harvest(), self.index.stats.average_insert_buckets()

    @property
    def needs_maintenance(self) -> bool:
        """Cheap barrier gate: does the heap want compaction?"""
        return self.heap.needs_maintenance

    def maintenance(self) -> int:
        """Run barrier work — heap compaction; returns evictions.

        The heap has one trigger,
        :attr:`~repro.kv.logarena.LogValueArena.needs_maintenance`, shared
        by the server's idle tick and the post-batch barrier.

        Compaction evicts whole least-recently-touched segments while the
        live set exceeds the budget; every evicted row gets its index
        Delete and is retired here — the aggregate settlement of the
        paper's one-Insert-one-Delete SET accounting (§II-C2).
        """
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
        directory = self.directory
        evicted = heap.compact(directory).tolist()
        delete = self.index.delete_prehashed
        for row in evicted:
            delete(*directory.spec(row), row)
            directory.retire(row)
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
                # A bulk load settles the arena's memory debt periodically
                # instead of overcommitting unboundedly.
                self.maintenance()
        return stored
