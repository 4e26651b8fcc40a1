"""Log-structured value arena: the store's value heap.

An append-only log of byte segments with their accounting, and nothing
per value.  Where a value lives — its segment id, offset and length — is
held by the store's key directory (:class:`~repro.kv.store.KeyDirectory`),
one row per key; the arena hands out ``(segment, offset)`` places and reads
and rewrites those columns only inside a compaction pass.

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

**When it runs and what it picks.**  The gate opens when tombstoned bytes
reach :data:`DEAD_SHARE` of everything the arena holds (at least one
segment's worth), or when live bytes exceed the budget — each arm is a
state the pass itself ends, so an open gate always means work.  A pass
then (1) while live bytes alone exceed the budget, victimises whole
least-recently-touched segments — the evicted rows are returned so the
store can issue the matching index Deletes: the paper's steady-state "one
Insert + one Delete per SET" (§II-C2) is preserved in aggregate, settled at
the barrier instead of inside the batch; (2) drops every wholly dead
segment and rewrites the rest *deadest first* until arena-wide dead bytes
are down to half the gate's threshold.  The band between half and full
threshold is the hysteresis: a pass buys several ticks of quiet, and the
segments it leaves alone keep ageing until rewriting them moves little.
A victim's survivors are found in one compare over the directory's
``segment`` column, and move as runs — one join and one slice-assign per
destination segment, like a bulk SET — with their new places written back
to the ``segment`` and ``offset`` columns in bulk.

Measured on the ``serving`` benchmark's ``write-heavy`` mix (K32/V256, 45 %
SET over 32768 keys; one traced run per side): upkeep fell from 8.3 to
1.1 us per query at the fixed rate, while relocations per SET *rose* from
1.02 to 1.75.  The old barrier gate (a quarter of the budget) never opened
there, so dead space grew to ~40 % between 0.5 s ticks and segments were
half dead when rewritten; this gate holds dead space under a quarter of
the arena at every barrier, and on a uniform stream the deadest segment is
then still ~70 % live when its turn comes (see ``docs/architecture.md``,
"Value storage").

**One copy per value.**  A value lives only in its segment buffer: the
read pass hands the wire framer read-only views of it (:meth:`views`) and
only the public edges copy it into ``bytes``.  Bytes below a segment's
write position are never rewritten, and a view keeps a dropped segment's
buffer alive, so a view handed out stays valid.  Segment ids are never
reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add

import numpy as np

from repro.errors import CapacityError, ConfigurationError

#: Default segment capacity (value bytes per segment).
DEFAULT_SEGMENT_BYTES = 1 << 20

#: Tombstoned share of the arena's accounted bytes (live + dead) that opens
#: the compaction gate; a pass rewrites down to half of it.
DEAD_SHARE = 0.25


@dataclass
class ArenaStats:
    """Allocation/reclamation counters."""

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
    #: Live values compaction passes found in the segments they rewrote or
    #: evicted — the per-value work of a pass.
    scanned: int = 0


class _Segment:
    """One contiguous run of the log: a byte buffer plus accounting.

    ``acct_used``/``acct_live`` count key+value bytes for every value ever
    written here / still live here; the buffer itself holds only value
    bytes.  ``view`` is a read-only ``memoryview`` of the buffer, made
    once; the read pass hands out slices of it.
    """

    __slots__ = ("sid", "buf", "view", "wpos", "acct_used", "acct_live", "last_touch")

    def __init__(self, sid: int, buf: bytearray, wpos: int = 0):
        self.sid = sid
        self.buf = buf
        self.view = memoryview(buf).toreadonly()
        self.wpos = wpos
        self.acct_used = 0
        self.acct_live = 0
        self.last_touch = 0


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
        #: Segment id -> segment, in creation order.
        self._segments: dict[int, _Segment] = {}
        self._head: _Segment | None = None
        self._next_sid = 0
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
        """Key+value bytes of live values."""
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

    def _new_segment(self, buf: bytearray, wpos: int = 0) -> _Segment:
        segment = _Segment(self._next_sid, buf, wpos)
        self._next_sid += 1
        segment.last_touch = self._tick
        self._segments[segment.sid] = segment
        self._claimed_bytes += len(buf)
        return segment

    def _open_segment(self) -> _Segment:
        self._head = self._new_segment(bytearray(self.segment_bytes))
        return self._head

    def _append(self, value: bytes, vlen: int) -> tuple[_Segment, int]:
        """Copy ``value`` onto the log tail; returns (segment, offset)."""
        if vlen > self.segment_bytes:
            # Jumbo value: a dedicated, immediately-sealed segment.
            return self._new_segment(bytearray(value), wpos=vlen), 0
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
        del self._segments[segment.sid]
        if segment is self._head:
            self._head = None
        self.stats.segments_dropped += 1
        self.stats.bytes_reclaimed += len(segment.buf)

    # ------------------------------------------------------------ allocation

    def oversized(self, size: int) -> CapacityError:
        """Count a failed allocation of ``size`` key+value bytes, over the
        whole budget, and return the error to raise."""
        self.stats.failed_allocations += 1
        return CapacityError(
            f"object of {size} B exceeds the arena budget of {self._budget_bytes} B"
        )

    def allocate_kv(self, key: bytes, value: bytes) -> tuple[int, int]:
        """Place one key-value pair; returns its ``(segment, offset)``.
        Never evicts: :meth:`compact` settles the memory debt at a barrier."""
        vlen = len(value)
        size = len(key) + vlen
        if size > self._budget_bytes:
            raise self.oversized(size)
        self._tick += 1
        segment, offset = self._append(value, vlen)
        segment.acct_used += size
        segment.acct_live += size
        segment.last_touch = self._tick
        self._live_bytes += size
        self.stats.allocations += 1
        return segment.sid, offset

    def multi_allocate_kv(
        self, keys: list[bytes], values: list[bytes]
    ) -> tuple[list[int], list[int]]:
        """Columnar bulk SET: one offsets walk + one copy per segment run.

        Values are packed into the open segment in maximal runs — a single
        join-and-slice-assign per run instead of one copy per item.
        Returns the ``(segments, offsets)`` columns aligned with ``values``.
        Raises :class:`CapacityError` before placing anything when an
        item's key+value exceed the whole budget, counted once (the engines
        reject such a window before MM:
        :func:`~repro.engine.plane.reject_oversized_sets`).
        """
        n = len(values)
        sizes = list(map(add, map(len, keys), map(len, values)))
        largest = max(sizes, default=0)
        if largest > self._budget_bytes:
            raise self.oversized(largest)
        stats = self.stats
        segment_bytes = self.segment_bytes
        segments: list[int] = []
        offsets: list[int] = []
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
                if vlen > segment_bytes or run_bytes + vlen > room:
                    break
                run_bytes += vlen
                run_acct += sizes[j]
                j += 1
            if j == i:
                # No room in the head (or a jumbo value): place this one
                # item through the scalar appender.
                value = values[i]
                size = sizes[i]
                segment, offset = self._append(value, len(value))
                segments.append(segment.sid)
                offsets.append(offset)
                segment.acct_used += size
                segment.acct_live += size
                segment.last_touch = tick
                live_add += size
                stats.allocations += 1
                i += 1
                continue
            # Columnar run: one copy moves every value in [i, j); the
            # scan above already summed the run's accounting.
            wpos = head.wpos
            head.buf[wpos : wpos + run_bytes] = (
                values[i] if j - i == 1 else b"".join(values[i:j])
            )
            head.wpos = wpos + run_bytes
            segments.extend(repeat(head.sid, j - i))
            offsets.extend(accumulate(map(len, values[i : j - 1]), initial=wpos))
            head.acct_used += run_acct
            head.acct_live += run_acct
            head.last_touch = tick
            live_add += run_acct
            stats.allocations += j - i
            i = j
        self._live_bytes += live_add
        return segments, offsets

    # ------------------------------------------------------- free and reads

    def free(self, segment: int, size: int) -> None:
        """Tombstone ``size`` key+value bytes of ``segment`` (the DELETE
        and replace path).

        Accounting-only: the value bytes stay in their segment until the
        compactor reclaims them, so concurrent readers of this batch are
        never invalidated.
        """
        self._segments[segment].acct_live -= size
        self._live_bytes -= size
        self._dead_bytes += size
        self.stats.frees += 1

    def views(self, segments, offsets, vlens) -> list[memoryview]:
        """Read-only views of the values at these places, in order; each
        read refreshes its segment's recency with its own tick."""
        by_id = self._segments
        tick = self._tick
        out: list[memoryview] = []
        append = out.append
        for sid, offset, vlen in zip(segments, offsets, vlens):
            segment = by_id[sid]
            tick += 1
            segment.last_touch = tick
            append(segment.view[offset : offset + vlen])
        self._tick = tick
        return out

    # ------------------------------------------------------------ compaction

    def compact(self, rows) -> np.ndarray:
        """Reclaim dead space and settle the memory budget in one pass.

        ``rows`` is the store's key directory: its row-indexed NumPy
        ``segment``, ``offset``, ``vlen`` and ``klen`` columns say where
        each live value is (``segment`` is negative on a row that holds
        none).

        1. **Victimisation** — while live bytes alone exceed the budget,
           evict the least-recently-touched sealed segment wholesale (the
           open head goes last).  The rows it held are returned, their
           ``segment`` still naming the dropped segment, so the caller can
           retire them and issue the matching index Deletes — the aggregate
           form of a per-SET LRU eviction.
        2. **Rewrite** — sealed segments holding dead bytes are taken
           deadest first (by dead fraction): a wholly dead one is simply
           dropped, any other has its survivors moved to the log tail
           first.  The pass stops once arena-wide dead bytes are at most
           half the gate's threshold: it copies the survivors of the
           segments that pay best and of no others.  The open head is
           left alone — it seals when full, and the gate's one-segment
           floor already tolerates its dead.

        Runs only at barriers (maintenance tick, post-batch hook), never
        inside a batch.
        """
        segments = self._segments
        if not segments:
            return np.empty(0, dtype=np.intp)
        budget = self._budget_bytes
        stats = self.stats
        evicted: list[np.ndarray] = [np.empty(0, dtype=np.intp)]
        did_work = False
        while self._live_bytes > budget and segments:
            victims = [s for s in segments.values() if s is not self._head]
            victim = min(victims or segments.values(), key=lambda s: s.last_touch)
            found = np.flatnonzero(rows.segment == victim.sid)
            evicted.append(found)
            stats.scanned += len(found)
            # Everything still live here just died with the segment.
            self._live_bytes -= victim.acct_live
            self._dead_bytes += victim.acct_live
            victim.acct_live = 0
            self._drop_segment(victim)
            did_work = True
        evicted_rows = np.concatenate(evicted)
        stats.evictions += len(evicted_rows)
        target = self._dead_trigger() // 2
        head = self._head
        candidates = sorted(
            (s for s in segments.values() if s.acct_used > s.acct_live and s is not head),
            key=lambda s: s.acct_live / s.acct_used,
        )
        for segment in candidates:
            if segment.acct_live:
                if self._dead_bytes <= target:
                    break
                self._move_survivors(segment, rows)
            self._drop_segment(segment)
            did_work = True
        if did_work:
            stats.compactions += 1
        return evicted_rows

    def _move_survivors(self, victim: _Segment, rows) -> None:
        """Copy ``victim``'s live values to the log tail, as runs, and
        write their new places into ``rows``' ``segment`` / ``offset``
        columns.

        Survivors keep their order in the victim.  One join and one
        slice-assign per destination segment, sizes summed once — the
        shape of :meth:`multi_allocate_kv` — over ``bytearray`` slices of
        the victim's buffer.  Not views: the cycle collector tracks those,
        and a segment's worth alive at once set it off often enough to
        make a pass about a third dearer in process; the slices' extra
        copy costs less than that.  (A jumbo segment never gets here: its
        single value is either live, leaving nothing to reclaim, or dead,
        and the segment is dropped.)
        """
        stats = self.stats
        found = np.flatnonzero(rows.segment == victim.sid)
        found = found[np.argsort(rows.offset[found], kind="stable")]
        stats.scanned += len(found)
        vlens = rows.vlen[found]
        buf = victim.buf
        values = [
            buf[offset : offset + vlen]
            for offset, vlen in zip(rows.offset[found].tolist(), vlens.tolist())
        ]
        # ends[k] = value bytes of survivors [0, k]; a run is a search away.
        ends = np.cumsum(vlens)
        starts = ends - vlens
        acct_ends = np.cumsum(vlens + rows.klen[found]).tolist()
        n = len(found)
        i = 0
        while i < n:
            head = self._head
            base = int(starts[i])
            if head is None or len(head.buf) - head.wpos < int(ends[i]) - base:
                head = self._open_segment()
            wpos = head.wpos
            j = int(np.searchsorted(ends, base + len(head.buf) - wpos, side="right"))
            run_bytes = int(ends[j - 1]) - base
            run_acct = acct_ends[j - 1] - (acct_ends[i - 1] if i else 0)
            head.buf[wpos : wpos + run_bytes] = b"".join(values[i:j])
            head.wpos = wpos + run_bytes
            run = found[i:j]
            rows.segment[run] = head.sid
            rows.offset[run] = starts[i:j] + (wpos - base)
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
    "LogValueArena",
]
