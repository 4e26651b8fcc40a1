"""Log-structured value arena: the store's value heap.

The slab allocator (:mod:`repro.kv.slab`) charges every SET a full round of
per-object bookkeeping — a size-class lookup, an ``OrderedDict`` LRU insert,
and (through :class:`~repro.kv.objects.KVObject`) a pure-Python FNV pass over
the key — which is why write-heavy mixes collapse to scalar speed no matter
how columnar the engine above is.  This module replaces that substrate with
an append-only log:

* a SET is a bump-pointer allocation plus one ``bytearray`` copy into the
  open *segment* (1 MiB by default; oversized values get a dedicated
  "jumbo" segment);
* a whole SET run in a batch (:meth:`LogValueArena.multi_allocate_kv`)
  becomes one offsets walk plus a single columnar copy — the same
  cumsum-and-memcpy shape as the wire plane's response framer;
* DELETE and replace write a *tombstone* (accounting only — the bytes stay
  where they are) instead of freeing in place, so **live values are never
  moved or evicted mid-batch**;
* a segment compactor (:meth:`LogValueArena.compact`) reclaims dead space
  at barriers — the server's 0.5 s maintenance tick and the pipeline's
  post-batch hook, both behind the one gate
  :attr:`LogValueArena.needs_maintenance`.

**What a compaction pass costs.**  Every segment keeps the locations ever
written into it, so a record is live in a segment exactly when
``probe(location).segment is segment``.  A pass therefore reads only the
membership lists of the segments it rewrites or evicts — never the whole
entry table — and its work is counted in :attr:`ArenaStats.scanned`.

**When it runs and what it picks.**  The gate opens when tombstoned bytes
reach :data:`DEAD_SHARE` of everything the arena holds (at least one
segment's worth), or when live bytes exceed the budget — each arm is a
state the pass itself ends, so an open gate always means work.  A pass
then (1) while live bytes alone exceed the budget, victimises whole
least-recently-touched segments — the evicted records are returned so the
store can issue the matching index Deletes: the paper's steady-state "one
Insert + one Delete per SET" (§II-C2) is preserved in aggregate, settled at
the barrier instead of inside the batch; (2) drops every wholly dead
segment and rewrites the rest *deadest first* until arena-wide dead bytes
are down to half the gate's threshold.  The band between half and full
threshold is the hysteresis: a pass buys several ticks of quiet, and the
segments it leaves alone keep ageing until rewriting them moves little.
Survivors of a rewritten segment move as runs — one join and one
slice-assign per destination segment, like a bulk SET.

Measured on the ``serving`` benchmark's ``write-heavy`` mix (K32/V256, 45 %
SET over 32768 keys; one traced run per side): upkeep fell from 8.3 to
1.1 us per query at the fixed rate, while relocations per SET *rose* from
1.02 to 1.75.  The old barrier gate (a quarter of the budget) never opened
there, so dead space grew to ~40 % between 0.5 s ticks and segments were
half dead when rewritten; this gate holds dead space under a quarter of
the arena at every barrier, and on a uniform stream the deadest segment is
then still ~70 % live when its turn comes (see ``docs/architecture.md``,
"Value storage").

Locations are stable integer handles exactly like the slab's, so the store
and every engine backend work unchanged on either heap.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress

from repro.errors import CapacityError, ConfigurationError
from repro.kv.objects import KVObject, drain_touched, key_signature

#: Default segment capacity (value bytes per segment).
DEFAULT_SEGMENT_BYTES = 1 << 20

#: Tombstoned share of the arena's accounted bytes (live + dead) that opens
#: the compaction gate; a pass rewrites down to half of it.
DEAD_SHARE = 0.25


@dataclass
class ArenaStats:
    """Allocation/reclamation counters (superset of the slab's fields)."""

    allocations: int = 0
    evictions: int = 0
    frees: int = 0
    failed_allocations: int = 0
    compactions: int = 0
    segments_dropped: int = 0
    relocations: int = 0
    #: Value bytes copied by those relocations (the compactor's write cost).
    relocated_bytes: int = 0
    bytes_reclaimed: int = 0
    #: Segment-membership entries compaction passes examined — the work a
    #: pass does, bounded by the records of the segments it rewrites/evicts.
    scanned: int = 0

    @property
    def eviction_rate(self) -> float:
        """Fraction of allocations that were later paid for by an eviction."""
        if self.allocations == 0:
            return 0.0
        return self.evictions / self.allocations


class _Segment:
    """One contiguous run of the log: a byte buffer plus accounting.

    ``acct_used``/``acct_live`` count key+value bytes (the slab's sizing
    unit) for every record ever written here / still live here; the buffer
    itself holds only value bytes — keys stay as the ``bytes`` objects the
    batch plane already materialised, referenced from the records.
    ``locations`` lists every location ever written here, so the record at
    ``loc`` is live in this segment iff ``probe(loc).segment is self``.
    """

    __slots__ = ("buf", "wpos", "acct_used", "acct_live", "last_touch", "locations")

    def __init__(self, buf: bytearray, wpos: int = 0):
        self.buf = buf
        self.wpos = wpos
        self.acct_used = 0
        self.acct_live = 0
        self.last_touch = 0
        self.locations = array("q")


class LogRecord:
    """One live (or just-tombstoned) key-value record in the arena.

    Interface-compatible with :class:`~repro.kv.objects.KVObject` where the
    store and engines touch it: ``key``/``value`` payloads, the profiler's
    ``access_count``/``sample_epoch`` counters with :meth:`record_access`,
    ``size_bytes`` and a (lazily computed) ``signature``.  Value bytes are
    cached on first materialisation; a record returned by ``free`` keeps a
    reference to its segment, so its value stays readable even after the
    compactor drops the segment from the arena.
    """

    __slots__ = (
        "key",
        "segment",
        "offset",
        "vlen",
        "access_count",
        "sample_epoch",
        "_value",
    )

    def __init__(self, key: bytes, segment: _Segment, offset: int, vlen: int):
        self.key = key
        self.segment = segment
        self.offset = offset
        self.vlen = vlen
        self.access_count = 0
        self.sample_epoch = -1
        self._value: bytes | None = None

    @property
    def value(self) -> bytes:
        value = self._value
        if value is None:
            value = bytes(
                memoryview(self.segment.buf)[self.offset : self.offset + self.vlen]
            )
            self._value = value
        return value

    @property
    def size_bytes(self) -> int:
        return len(self.key) + self.vlen

    @property
    def signature(self) -> int:
        return key_signature(self.key)

    #: Same counter+timestamp scheme, same first-touch log.
    record_access = KVObject.record_access


class LogValueArena:
    """Append-only value arena over a memory budget, compacted at barriers.

    Parameters
    ----------
    memory_bytes:
        Budget for live key+value bytes.  Allocation never evicts — the
        arena overcommits and :meth:`compact` settles the debt in bulk —
        so a single allocation fails (:class:`CapacityError`) only when
        the object alone exceeds the whole budget.
    segment_bytes:
        Capacity of one log segment (values larger than this get a
        dedicated jumbo segment).
    """

    def __init__(
        self,
        memory_bytes: int,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        if memory_bytes <= 0:
            raise ConfigurationError("memory budget must be positive")
        if segment_bytes <= 0:
            raise ConfigurationError("segment size must be positive")
        self._budget_bytes = memory_bytes
        self.segment_bytes = segment_bytes
        self._segments: list[_Segment] = []
        self._head: _Segment | None = None
        self._entries: dict[int, LogRecord] = {}
        #: Touch-free location probe (``probe(loc) -> LogRecord | None``),
        #: bound once — the entry dict is only ever mutated in place.  The
        #: vector key-compare pass calls this per candidate; the method
        #: wrapper of :meth:`get` would double its cost.
        self.probe = self._entries.get
        #: Locations first touched in the open profiler epoch, in touch
        #: order (appended by :meth:`LogRecord.record_access`).  Locations,
        #: not records: a freed record's bytes are never pinned here.
        self.touched: list[int] = []
        self._next_location = 0
        self._live_bytes = 0
        self._dead_bytes = 0
        self._claimed_bytes = 0
        self._tick = 0
        self.stats = ArenaStats()

    # ------------------------------------------------------------ accounting

    @property
    def budget_bytes(self) -> int:
        return self._budget_bytes

    @property
    def live_bytes(self) -> int:
        """Key+value bytes of live records."""
        return self._live_bytes

    @property
    def dead_bytes(self) -> int:
        """Tombstoned key+value bytes awaiting compaction."""
        return self._dead_bytes

    @property
    def claimed_bytes(self) -> int:
        """Buffer bytes currently held by segments."""
        return self._claimed_bytes

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def _dead_trigger(self) -> int:
        """Dead bytes that open the gate: the share, at least one segment."""
        held = self._live_bytes + self._dead_bytes
        return max(self.segment_bytes, int(DEAD_SHARE * held))

    @property
    def needs_maintenance(self) -> bool:
        """The one compaction gate, for tick and post-batch barrier alike:
        live bytes over budget (a pass evicts down to it), or dead bytes at
        :data:`DEAD_SHARE` of what is held (a pass rewrites down to half)."""
        return (
            self._live_bytes > self._budget_bytes
            or self._dead_bytes >= self._dead_trigger()
        )

    # ------------------------------------------------------------- segments

    def _open_segment(self) -> _Segment:
        segment = _Segment(bytearray(self.segment_bytes))
        segment.last_touch = self._tick
        self._segments.append(segment)
        self._claimed_bytes += self.segment_bytes
        self._head = segment
        return segment

    def _append(self, value: bytes, vlen: int) -> tuple[_Segment, int]:
        """Copy ``value`` onto the log tail; returns (segment, offset)."""
        if vlen > self.segment_bytes:
            # Jumbo value: a dedicated, immediately-sealed segment.
            segment = _Segment(bytearray(value), wpos=vlen)
            segment.last_touch = self._tick
            self._segments.append(segment)
            self._claimed_bytes += vlen
            return segment, 0
        head = self._head
        if head is None or len(head.buf) - head.wpos < vlen:
            head = self._open_segment()
        wpos = head.wpos
        head.buf[wpos : wpos + vlen] = value
        head.wpos = wpos + vlen
        return head, wpos

    def _drop_segment(self, segment: _Segment) -> None:
        self._dead_bytes -= segment.acct_used - segment.acct_live
        self._claimed_bytes -= len(segment.buf)
        self._segments.remove(segment)
        if segment is self._head:
            self._head = None
        self.stats.segments_dropped += 1
        self.stats.bytes_reclaimed += len(segment.buf)

    # ------------------------------------------------------------ allocation

    def allocate_kv(self, key: bytes, value: bytes) -> tuple[int, None]:
        """Place one key-value pair; returns ``(location, None)``.

        The second element is always ``None`` — the log never evicts
        synchronously (the slab returns its LRU victim here).
        """
        vlen = len(value)
        size = len(key) + vlen
        if size > self._budget_bytes:
            self.stats.failed_allocations += 1
            raise CapacityError(
                f"object of {size} B exceeds the arena budget of "
                f"{self._budget_bytes} B"
            )
        self._tick += 1
        segment, offset = self._append(value, vlen)
        record = LogRecord(key, segment, offset, vlen)
        record._value = value
        location = self._next_location
        self._next_location = location + 1
        self._entries[location] = record
        segment.locations.append(location)
        segment.acct_used += size
        segment.acct_live += size
        segment.last_touch = self._tick
        self._live_bytes += size
        self.stats.allocations += 1
        return location, None

    def allocate(self, obj) -> tuple[int, None]:
        """KVObject-compatible shim over :meth:`allocate_kv`."""
        return self.allocate_kv(obj.key, obj.value)

    def multi_allocate_kv(self, keys: list[bytes], values: list[bytes]) -> list[int]:
        """Columnar bulk SET: one offsets walk + one copy per segment run.

        Values are packed into the open segment in maximal runs — a single
        join-and-slice-assign per run instead of one copy per item — and
        records are bump-allocated in order.  Raises :class:`CapacityError`
        at the first item whose key+value exceed the whole budget, with
        every earlier item applied (callers that need the scalar loop's
        positional semantics pre-screen sizes; see
        :meth:`KVStore.multi_allocate <repro.kv.store.KVStore.multi_allocate>`).
        """
        n = len(values)
        entries = self._entries
        stats = self.stats
        budget = self._budget_bytes
        segment_bytes = self.segment_bytes
        location = self._next_location
        locations: list[int] = []
        self._tick += 1
        tick = self._tick
        live_add = 0
        i = 0
        while i < n:
            head = self._head
            if head is None:
                head = self._open_segment()
            room = len(head.buf) - head.wpos
            run_bytes = 0
            run_acct = 0
            j = i
            while j < n:
                vlen = len(values[j])
                if (
                    vlen > segment_bytes
                    or run_bytes + vlen > room
                    or len(keys[j]) + vlen > budget
                ):
                    break
                run_bytes += vlen
                run_acct += len(keys[j]) + vlen
                j += 1
            if j == i:
                # No room in the head (or a jumbo/oversized value): place
                # this one item through the scalar appender.
                key, value = keys[i], values[i]
                vlen = len(value)
                size = len(key) + vlen
                if size > budget:
                    self._next_location = location
                    self._live_bytes += live_add
                    stats.failed_allocations += 1
                    raise CapacityError(
                        f"object of {size} B exceeds the arena budget of "
                        f"{budget} B"
                    )
                segment, offset = self._append(value, vlen)
                record = LogRecord(key, segment, offset, vlen)
                record._value = value
                entries[location] = record
                locations.append(location)
                segment.locations.append(location)
                location += 1
                segment.acct_used += size
                segment.acct_live += size
                segment.last_touch = tick
                live_add += size
                stats.allocations += 1
                i += 1
                continue
            # Columnar run: one copy moves every value in [i, j); the
            # scan above already summed the run's accounting, so the
            # record loop below is pure bump allocation.
            wpos = head.wpos
            head.buf[wpos : wpos + run_bytes] = (
                values[i] if j - i == 1 else b"".join(values[i:j])
            )
            head.wpos = wpos + run_bytes
            offset = wpos
            append = locations.append
            head.locations.extend(range(location, location + j - i))
            for k in range(i, j):
                value = values[k]
                vlen = len(value)
                record = LogRecord(keys[k], head, offset, vlen)
                record._value = value
                entries[location] = record
                append(location)
                location += 1
                offset += vlen
            head.acct_used += run_acct
            head.acct_live += run_acct
            head.last_touch = tick
            live_add += run_acct
            stats.allocations += j - i
            i = j
        self._next_location = location
        self._live_bytes += live_add
        return locations

    # ------------------------------------------------------- free and reads

    def free(self, location: int) -> LogRecord:
        """Tombstone the record at ``location`` (DELETE/replace path).

        Accounting-only: the value bytes stay in their segment until the
        compactor reclaims them, so concurrent readers of this batch are
        never invalidated.
        """
        record = self._entries.pop(location, None)
        if record is None:
            raise CapacityError(f"free of unknown location {location}")
        size = record.size_bytes
        record.segment.acct_live -= size
        self._live_bytes -= size
        self._dead_bytes += size
        self.stats.frees += 1
        return record

    def discard(self, location: int) -> LogRecord | None:
        """Tombstone like :meth:`free`, tolerating unknown locations.

        The bulk SET replace path folds its membership probe and free into
        this single dict pop; returns the displaced record, or ``None`` if
        ``location`` is not live (already evicted or compacted away).
        """
        record = self._entries.pop(location, None)
        if record is None:
            return None
        size = record.size_bytes
        record.segment.acct_live -= size
        self._live_bytes -= size
        self._dead_bytes += size
        self.stats.frees += 1
        return record

    def get(self, location: int, *, touch: bool = True) -> LogRecord | None:
        """Record at ``location``; ``touch`` refreshes its segment's recency."""
        record = self._entries.get(location)
        if record is not None and touch:
            self._tick += 1
            record.segment.last_touch = self._tick
        return record

    def touch_records(self, records) -> None:
        """Refresh segment recency for already-fetched records, in order.

        The vector engine's read pass holds the records its key-compare
        pass fetched; this assigns the same per-record ticks a sequence of
        ``get(location)`` calls would, without re-probing the entry dict.
        """
        tick = self._tick
        for record in records:
            tick += 1
            record.segment.last_touch = tick
        self._tick = tick

    def __contains__(self, location: int) -> bool:
        return location in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def objects(self) -> list[LogRecord]:
        """All live records (test aid)."""
        return list(self._entries.values())

    def drain_touched(self) -> list[int]:
        """Access counts of the window's touched records (profiler harvest)."""
        return drain_touched(self.touched, self.probe)

    # ------------------------------------------------------------ compaction

    def compact(self) -> list[tuple[int, LogRecord]]:
        """Reclaim dead space and settle the memory budget in one pass.

        1. **Victimisation** — while live bytes alone exceed the budget,
           evict the least-recently-touched sealed segment wholesale (the
           open head goes last).  Evicted ``(location, record)`` pairs are
           returned so the caller can issue the matching index Deletes —
           the aggregate form of the slab's per-SET LRU eviction.
        2. **Rewrite** — sealed segments holding dead bytes are taken
           deadest first (by dead fraction): a wholly dead one is simply
           dropped, any other has its survivors moved to the log tail
           first.  The pass stops once arena-wide dead bytes are at most
           half the gate's threshold: it copies the survivors of the
           segments that pay best and of no others.  The open head is
           left alone — it seals when full, and the gate's one-segment
           floor already tolerates its dead.

        Only the membership lists of the segments it evicts or rewrites
        are read (:attr:`ArenaStats.scanned`).  Runs only at barriers
        (maintenance tick, post-batch hook), never inside a batch.
        """
        segments = self._segments
        if not segments:
            return []
        budget = self._budget_bytes
        stats = self.stats
        entries = self._entries
        evicted: list[tuple[int, LogRecord]] = []
        did_work = False
        while self._live_bytes > budget and segments:
            victims = [s for s in segments if s is not self._head] or segments
            victim = min(victims, key=lambda s: s.last_touch)
            for location in victim.locations:
                record = entries.get(location)
                if record is not None and record.segment is victim:
                    del entries[location]
                    evicted.append((location, record))
            stats.scanned += len(victim.locations)
            # Everything still live here just died with the segment.
            self._live_bytes -= victim.acct_live
            self._dead_bytes += victim.acct_live
            victim.acct_live = 0
            self._drop_segment(victim)
            did_work = True
        stats.evictions += len(evicted)
        target = self._dead_trigger() // 2
        head = self._head
        candidates = sorted(
            (s for s in segments if s.acct_used > s.acct_live and s is not head),
            key=lambda s: s.acct_live / s.acct_used,
        )
        for segment in candidates:
            if segment.acct_live:
                if self._dead_bytes <= target:
                    break
                self._move_survivors(segment)
            self._drop_segment(segment)
            did_work = True
        if did_work:
            stats.compactions += 1
        return evicted

    def _move_survivors(self, victim: _Segment) -> None:
        """Copy ``victim``'s live records to the log tail, as runs.

        One join and one slice-assign per destination segment, sizes
        summed once per run — the shape of :meth:`multi_allocate_kv`.  (A
        jumbo segment never gets here: its single record is either live,
        leaving nothing to reclaim, or dead, and the segment is dropped.)
        """
        stats = self.stats
        found = list(map(self.probe, victim.locations))
        live = [r is not None and r.segment is victim for r in found]
        records: list[LogRecord] = list(compress(found, live))
        locations = list(compress(victim.locations, live))
        stats.scanned += len(found)
        values = [record._value for record in records]
        if None in values:  # a record whose write-path cache was dropped
            source = memoryview(victim.buf)
            values = [
                source[r.offset : r.offset + r.vlen] if v is None else v
                for r, v in zip(records, values)
            ]
        # ends[k] = value bytes of survivors [0, k]; a run is a bisect away.
        ends = list(accumulate([record.vlen for record in records]))
        starts = [0, *ends[:-1]]
        n = len(records)
        i = 0
        while i < n:
            head = self._head
            base = starts[i]
            if head is None or len(head.buf) - head.wpos < ends[i] - base:
                head = self._open_segment()
            wpos = head.wpos
            j = bisect_right(ends, base + len(head.buf) - wpos, i)
            run = records[i:j]
            run_bytes = ends[j - 1] - base
            run_acct = run_bytes + sum([len(record.key) for record in run])
            head.buf[wpos : wpos + run_bytes] = b"".join(values[i:j])
            head.wpos = wpos + run_bytes
            shift = wpos - base
            for record, start in zip(run, starts[i:j]):
                record.segment = head
                record.offset = shift + start
            head.locations.extend(locations[i:j])
            head.acct_used += run_acct
            head.acct_live += run_acct
            # Survivors carry their old segment's recency forward so the
            # LRU victim order is preserved across rewrites.
            if victim.last_touch > head.last_touch:
                head.last_touch = victim.last_touch
            victim.acct_live -= run_acct
            self._dead_bytes += run_acct
            stats.relocations += j - i
            stats.relocated_bytes += run_bytes
            i = j


__all__ = [
    "ArenaStats",
    "DEAD_SHARE",
    "DEFAULT_SEGMENT_BYTES",
    "LogRecord",
    "LogValueArena",
]
