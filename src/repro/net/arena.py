"""Shared-memory ring arenas and columnar block codecs for the
process-per-shard data plane.

The procshard backend (:mod:`repro.engine.procshard`) moves each batch's
shard sub-batches between the router process and its shard workers through
``multiprocessing.shared_memory`` segments instead of pickled queues — the
same "columns + byte arena" shapes the zero-copy wire plane uses
(:mod:`repro.net.wire`), so nothing on the data plane ever pickles a
query or a response.  Three pieces live here:

* :class:`ShmRing` — a single-producer/single-consumer byte ring over one
  shared-memory segment.  Messages are length-prefixed and stream through
  the ring in chunks, so a message larger than the ring's capacity still
  passes (the reader consumes while the writer produces); both sides
  spin-then-sleep and can watch an ``abort`` predicate so a dead peer
  turns into an exception instead of a hang.
* :func:`encode_query_block` / :func:`decode_query_block` — one shard
  sub-batch as header columns plus a byte arena: ``opcode`` u8 column,
  ``key_len``/``value_len`` u32 columns, then every key and every value
  back to back.  Decoding reproduces the
  :class:`~repro.net.wire.QueryColumns` shape (NumPy length columns
  attached) so the worker's
  :class:`~repro.engine.plane.BatchPlane` keeps its mask fast paths.
* :func:`encode_response_block` / :func:`decode_response_block` — one
  sub-batch's responses as a WR size column followed by the exact byte
  stream :func:`~repro.net.wire.encode_response_window` produces (status
  byte + value-length header + payload per row) — the framer is *reused*,
  not reimplemented, so worker response bytes are the same bytes the
  server would put on the wire.

Memory-ordering note: the ring's head/tail counters are aligned 8-byte
words written with single ``pack_into`` stores; CPython's interpreter
overhead plus x86-TSO store ordering make the publish-after-copy
discipline safe in practice.  This is a data-plane for CPython processes
on one host, not a general lock-free library.
"""

from __future__ import annotations

import secrets
import struct
import time
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ReproError
from repro.kv.protocol import QueryType
from repro.net.wire import (
    QueryColumns,
    RESPONSE_HEADER_BYTES,
    decode_response_window,
    encode_response_window,
)

#: Opcode -> QueryType, indexable by raw opcode (mirrors the wire table).
_QTYPE_BY_OP = (None, QueryType.GET, QueryType.SET, QueryType.DELETE)

#: ``id(QueryType) -> raw opcode``.  Keying by member identity skips both
#: the enum's ``.value`` descriptor and its Python-level ``__hash__`` —
#: ``id()`` and int hashing stay in C, and enum members are singletons so
#: identity is a sound key.  The router maps a whole window's qtypes
#: every batch, so the per-row delta is the point.
_OP_BY_QTYPE_ID = {id(qtype): qtype.value for qtype in QueryType}

#: Ring header: write counter (u64 @0), read counter (u64 @16, separate
#: cache line would be nicer but 16 keeps the header compact), closed
#: flag (u8 @32), queue-depth high-water mark (u64 @40, writer-updated so
#: the depth of worker-written rings is visible to the router).  Data
#: starts at 64.
_RING_HEADER = 64
_WRITE_OFF = 0
_READ_OFF = 16
_CLOSED_OFF = 32
_HW_OFF = 40

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

#: Default per-direction ring capacity.
DEFAULT_RING_BYTES = 1 << 20

_EMPTY = b""


class RingClosedError(ReproError):
    """The peer closed the ring (or its process died) mid-transfer."""


class ShmRing:
    """A length-prefixed SPSC byte ring over one shared-memory segment.

    One side calls :meth:`send`, the other :meth:`recv`; each ring is
    unidirectional.  The creating side owns the segment (it unlinks);
    attached sides only close.  Counters are monotonically increasing
    byte offsets — ``write - read`` is the queue depth in bytes.
    """

    __slots__ = ("shm", "capacity", "_buf", "_owner", "stall_ns")

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self.shm = shm
        self.capacity = shm.size - _RING_HEADER
        self._buf = shm.buf
        self._owner = owner
        #: Nanoseconds this side spent paused while the ring was full
        #: (sender backpressure) — a local, per-process accumulator.
        self.stall_ns = 0

    # ----------------------------------------------------------- lifecycle

    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_BYTES, name: str | None = None):
        if name is None:
            name = f"repro-ring-{secrets.token_hex(6)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=_RING_HEADER + capacity
        )
        shm.buf[:_RING_HEADER] = b"\x00" * _RING_HEADER
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str):
        # CPython registers *attached* segments with the resource tracker
        # too (bpo-39959), so a spawned worker's own tracker would unlink
        # the router's arena when the worker exits.  Suppress registration
        # for the duration of the attach (3.13's ``track=False``,
        # backported by patching): the router owns the segment and is the
        # only unlinker.
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _no_track(name, rtype):  # pragma: no cover - trivial shim
            if rtype != "shared_memory":
                original(name, rtype)

        resource_tracker.register = _no_track
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
        return cls(shm, owner=False)

    @property
    def name(self) -> str:
        return self.shm.name

    def close(self) -> None:
        """Mark the ring closed and detach (unlink too when owner)."""
        try:
            self._buf[_CLOSED_OFF] = 1
        except (ValueError, TypeError):  # pragma: no cover - already detached
            pass
        self._buf = None
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover
            pass
        if self._owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - peer unlinked
                pass
            self._owner = False

    # ------------------------------------------------------------ counters

    def _read_counter(self, off: int) -> int:
        return _U64.unpack_from(self._buf, off)[0]

    def _write_counter(self, off: int, value: int) -> None:
        _U64.pack_into(self._buf, off, value)

    @property
    def closed(self) -> bool:
        buf = self._buf
        return buf is None or buf[_CLOSED_OFF] != 0

    @property
    def pending_bytes(self) -> int:
        """Bytes written but not yet consumed (the queue depth)."""
        if self._buf is None:
            return 0
        return self._read_counter(_WRITE_OFF) - self._read_counter(_READ_OFF)

    @property
    def high_water_bytes(self) -> int:
        """Deepest the queue has been since the last :meth:`take_high_water`.

        Maintained by the *writer* side inside the shared header, so the
        reader of a worker-written ring still sees the true mark.
        """
        if self._buf is None:
            return 0
        return self._read_counter(_HW_OFF)

    def take_high_water(self) -> int:
        """Read the high-water mark and re-arm it to the current depth.

        The reset races benignly with a concurrent writer update — both
        sides store whole u64 words, and a lost mark is re-established on
        the writer's next chunk.
        """
        if self._buf is None:
            return 0
        mark = self._read_counter(_HW_OFF)
        self._write_counter(_HW_OFF, self.pending_bytes)
        return mark

    # ---------------------------------------------------------------- wait

    @staticmethod
    def _pause(spins: int) -> None:
        # Spin-yield briefly for sub-100us handoffs, then sleep — and keep
        # escalating to 1 ms so a long-idle peer (a shard worker between
        # batches) costs ~1k wakeups/s, not 10k.  Busy rings reset spins on
        # every chunk, so the backoff never touches in-flight transfers.
        if spins < 200:
            time.sleep(0)
        elif spins < 2_000:
            time.sleep(0.0001)
        else:
            time.sleep(0.001)

    @staticmethod
    def _pause_idle(spins: int) -> None:
        # Deep backoff for a peer with *no work pending* (a shard worker
        # between windows).  On an oversubscribed host the default ladder's
        # 200 sched-yields per wait let every idle worker steal timeslices
        # from the router mid-split — the dominant loss on 1-core hosts —
        # so idle waits concede the core almost immediately.  The cost is
        # up to ~2 ms of wake latency on the *first* message after an idle
        # gap; double-buffered submit/collect pipelining avoids even that
        # by keeping the next window resident in the ring before the
        # worker finishes the current one.
        if spins < 4:
            time.sleep(0)
        elif spins < 64:
            time.sleep(0.0002)
        else:
            time.sleep(0.002)

    def _check(self, abort, deadline: float | None) -> None:
        if self.closed:
            raise RingClosedError("ring closed by peer")
        if abort is not None and abort():
            raise RingClosedError("ring peer died")
        if deadline is not None and time.monotonic() > deadline:
            raise RingClosedError("ring transfer timed out")

    # ---------------------------------------------------------------- send

    def send(self, *parts, timeout: float | None = None, abort=None) -> None:
        """Write one message (the concatenation of ``parts``) to the ring.

        Streams through the ring in chunks, so the message may exceed the
        ring capacity; blocks while the ring is full, raising
        :class:`RingClosedError` on close/abort/timeout.
        """
        total = sum(len(p) for p in parts)
        deadline = time.monotonic() + timeout if timeout is not None else None
        if len(parts) > 1 and total <= 0xFFFF:
            # Typical batch/reply messages are a handful of small column
            # parts; one join buys a single counter-publish ceremony
            # instead of one per part.  Large messages keep streaming so
            # they can exceed the ring capacity.
            self._write_chunked(_U32.pack(total) + b"".join(parts), abort, deadline)
            return
        self._write_chunked(_U32.pack(total), abort, deadline)
        for part in parts:
            if len(part):
                self._write_chunked(part, abort, deadline)

    def _write_chunked(self, data, abort, deadline) -> None:
        buf = self._buf
        cap = self.capacity
        mv = memoryview(data)
        if hasattr(mv, "cast") and mv.format != "B":
            mv = mv.cast("B")
        pos = 0
        n = len(mv)
        spins = 0
        write = self._read_counter(_WRITE_OFF)
        high_water = self._read_counter(_HW_OFF)
        while pos < n:
            read = self._read_counter(_READ_OFF)
            free = cap - (write - read)
            if free <= 0:
                self._check(abort, deadline)
                paused_at = time.perf_counter_ns()
                self._pause(spins)
                self.stall_ns += time.perf_counter_ns() - paused_at
                spins += 1
                continue
            spins = 0
            at = write % cap
            chunk = min(free, n - pos, cap - at)
            buf[_RING_HEADER + at : _RING_HEADER + at + chunk] = mv[pos : pos + chunk]
            pos += chunk
            write += chunk
            self._write_counter(_WRITE_OFF, write)
            depth = write - read
            if depth > high_water:
                high_water = depth
                self._write_counter(_HW_OFF, high_water)

    # ---------------------------------------------------------------- recv

    def recv(self, timeout: float | None = None, abort=None, idle: bool = False) -> bytes | None:
        """Read one message; ``None`` if no message started before timeout.

        Once a length prefix has been read the body read does not time
        out on its own (the writer is mid-message); abort/close still
        interrupt it.  ``idle=True`` waits for the *header* with the deep
        :meth:`_pause_idle` backoff — for receivers that expect long gaps
        between messages and should not poll a shared core while waiting;
        the body read always uses the hot ladder (the writer is actively
        streaming once a length prefix exists).
        """
        pause = self._pause_idle if idle else self._pause
        header = self._read_exact(4, timeout, abort, allow_timeout=True, pause=pause)
        if header is None:
            return None
        (length,) = _U32.unpack(header)
        if length == 0:
            return _EMPTY
        body = self._read_exact(length, None, abort, allow_timeout=False)
        return bytes(body)

    def _read_exact(self, n: int, timeout, abort, allow_timeout: bool, pause=None):
        buf = self._buf
        cap = self.capacity
        out = bytearray(n)
        pos = 0
        spins = 0
        deadline = time.monotonic() + timeout if timeout is not None else None
        read = self._read_counter(_READ_OFF)
        if pause is None:
            pause = self._pause
        while pos < n:
            avail = self._read_counter(_WRITE_OFF) - read
            if avail <= 0:
                if allow_timeout and pos == 0 and deadline is not None:
                    if time.monotonic() > deadline:
                        return None
                    if self.closed or (abort is not None and abort()):
                        raise RingClosedError("ring closed by peer")
                else:
                    self._check(abort, deadline if pos == 0 else None)
                pause(spins)
                spins += 1
                continue
            spins = 0
            at = read % cap
            chunk = min(avail, n - pos, cap - at)
            out[pos : pos + chunk] = buf[_RING_HEADER + at : _RING_HEADER + at + chunk]
            pos += chunk
            read += chunk
            self._write_counter(_READ_OFF, read)
        return out


# --------------------------------------------------------------- query block


def encode_query_block(qtypes, keys, values, rows=None) -> list:
    """One shard sub-batch as columns + arena; returns buffer parts.

    ``qtypes``/``keys``/``values`` are whole-batch columns (the plane's);
    ``rows`` selects the sub-batch (``None`` = all rows).  Layout::

        u32 n | u8 opcode[n] | u32 key_len[n] | u32 value_len[n]
              | keys arena | values arena

    Returned as a list of buffer parts suitable for ``ShmRing.send`` —
    the arena is never copied into one intermediate message buffer.
    """
    if rows is None:
        sub_keys = keys if isinstance(keys, list) else list(keys)
        sub_values = values if isinstance(values, list) else list(values)
        ops = bytes(q.value for q in qtypes)
    else:
        sub_keys = [keys[i] for i in rows]
        sub_values = [values[i] for i in rows]
        ops = bytes(qtypes[i].value for i in rows)
    n = len(sub_keys)
    klens = np.fromiter(map(len, sub_keys), dtype=np.uint32, count=n).tobytes()
    vlens = np.fromiter(map(len, sub_values), dtype=np.uint32, count=n).tobytes()
    return [
        _U32.pack(n),
        ops,
        klens,
        vlens,
        b"".join(sub_keys),
        b"".join(sub_values),
    ]


class QueryBlockColumns:
    """Whole-batch gather columns, precomputed once per window.

    The router splits one batch across ``num_shards`` workers; building
    per-row Python lists for every shard costs O(rows) interpreter work
    per shard.  This precomputes NumPy object/length columns for the whole
    batch so each shard's block is a handful of fancy-indexed gathers —
    :meth:`encode` with a row array is byte-identical to
    :func:`encode_query_block` with the same rows.
    """

    __slots__ = ("size", "_keys", "_values", "_ops", "_klens", "_vlens", "_no_values")

    def __init__(self, qtypes, keys, values, opcodes=None, key_lens=None, value_lens=None):
        n = len(keys)
        self.size = n
        self._keys = keys if isinstance(keys, list) else list(keys)
        if opcodes is not None:
            self._ops = np.ascontiguousarray(opcodes, dtype=np.uint8)
        else:
            self._ops = np.frombuffer(
                bytes(map(_OP_BY_QTYPE_ID.__getitem__, map(id, qtypes))),
                dtype=np.uint8,
            )
        if key_lens is not None:
            self._klens = np.ascontiguousarray(key_lens, dtype="<u4")
        else:
            self._klens = np.fromiter(map(len, keys), dtype="<u4", count=n)
        # A window with no value bytes at all (the GET-heavy common case)
        # skips the per-row value-length pass and the value-arena joins
        # outright — the zero column and empty arena are byte-identical
        # to what the general path emits.  ``any`` short-circuits on the
        # first SET row, so write-heavy windows pay almost nothing.
        self._no_values = not any(values)
        if self._no_values:
            self._values = None
            self._vlens = np.zeros(n, dtype="<u4")
        else:
            self._values = values if isinstance(values, list) else list(values)
            if value_lens is not None:
                self._vlens = np.ascontiguousarray(value_lens, dtype="<u4")
            else:
                self._vlens = np.fromiter(map(len, values), dtype="<u4", count=n)

    def encode(self, rows=None) -> list:
        """Buffer parts for one shard's sub-batch (``rows=None`` = all)."""
        if rows is None:
            return [
                _U32.pack(self.size),
                self._ops.tobytes(),
                self._klens.tobytes(),
                self._vlens.tobytes(),
                b"".join(self._keys),
                _EMPTY if self._no_values else b"".join(self._values),
            ]
        rows_l = rows.tolist() if hasattr(rows, "tolist") else list(rows)
        return [
            _U32.pack(len(rows_l)),
            self._ops[rows].tobytes(),
            self._klens[rows].tobytes(),
            self._vlens[rows].tobytes(),
            b"".join(map(self._keys.__getitem__, rows_l)),
            _EMPTY
            if self._no_values
            else b"".join(map(self._values.__getitem__, rows_l)),
        ]

    def sorted_spans(self, order) -> "SortedSpans":
        """Permute every column once for span-sliced per-shard encoding.

        ``order`` is the stable shard argsort of the whole window; each
        shard's sub-batch is then the contiguous span ``[b, e)`` of the
        sorted columns, so :meth:`SortedSpans.encode` is pure zero-copy
        slicing — byte-identical to ``encode(order[b:e])`` at a quarter
        of the gather cost.
        """
        return SortedSpans(self, order)


class SortedSpans:
    """One window's columns in shard order; see ``sorted_spans``."""

    __slots__ = ("_keys", "_values", "_ops", "_klens", "_vlens", "_no_values")

    def __init__(self, cols: QueryBlockColumns, order):
        order_l = order.tolist()
        self._keys = list(map(cols._keys.__getitem__, order_l))
        self._ops = cols._ops[order]
        self._klens = cols._klens[order]
        self._no_values = cols._no_values
        if cols._no_values:
            self._values = None
            self._vlens = cols._vlens  # all-zero: permutation-invariant
        else:
            self._values = list(map(cols._values.__getitem__, order_l))
            self._vlens = cols._vlens[order]

    def encode(self, begin: int, end: int) -> list:
        """Buffer parts for the shard owning sorted rows ``[begin, end)``."""
        return [
            _U32.pack(end - begin),
            self._ops[begin:end].tobytes(),
            self._klens[begin:end].tobytes(),
            self._vlens[begin:end].tobytes(),
            b"".join(self._keys[begin:end]),
            _EMPTY
            if self._no_values
            else b"".join(self._values[begin:end]),
        ]


def decode_query_block(buf, offset: int = 0) -> QueryColumns:
    """Decode one query block into :class:`~repro.net.wire.QueryColumns`.

    Key/value bytes are copied out of the arena (the store keeps keys far
    beyond the message's lifetime); the opcode/length columns are attached
    as NumPy arrays so the plane's mask subsets stay vectorized.
    """
    (n,) = _U32.unpack_from(buf, offset)
    ops_off = offset + 4
    klen_off = ops_off + n
    vlen_off = klen_off + 4 * n
    arena_off = vlen_off + 4 * n
    # A ``bytes`` buffer (what ShmRing.recv returns) slices straight to
    # new ``bytes`` objects — half the per-row cost of the
    # memoryview-then-copy dance, which only other buffer types need.
    direct = type(buf) is bytes
    mv = None if direct else memoryview(buf)
    klens = np.frombuffer(buf, dtype="<u4", count=n, offset=klen_off)
    vlens = np.frombuffer(buf, dtype="<u4", count=n, offset=vlen_off)
    klens_l = klens.tolist()
    vlens_l = vlens.tolist()
    keys: list[bytes] = []
    at = arena_off
    if direct:
        for length in klens_l:
            keys.append(buf[at : at + length])
            at += length
    else:
        for length in klens_l:
            keys.append(bytes(mv[at : at + length]))
            at += length
    if not any(vlens_l):
        # GET-heavy blocks carry no value bytes at all; skip the per-row
        # slice loop outright.
        values: list[bytes] = [_EMPTY] * n
    elif direct:
        values = []
        for length in vlens_l:
            values.append(buf[at : at + length] if length else _EMPTY)
            at += length
    else:
        values = []
        for length in vlens_l:
            values.append(bytes(mv[at : at + length]) if length else _EMPTY)
            at += length
    ops_b = buf[ops_off:klen_off] if direct else bytes(mv[ops_off:klen_off])
    qtypes = [_QTYPE_BY_OP[o] for o in ops_b]
    return QueryColumns(
        qtypes,
        keys,
        values,
        np.frombuffer(ops_b, dtype=np.uint8),
        klens.astype(np.int64),
        vlens.astype(np.int64),
    )


# ------------------------------------------------------------ response block


def encode_response_block(statuses, values, sizes=None) -> list:
    """One sub-batch's responses as a size column + the framer's bytes.

    Layout: ``u32 n | u32 size[n] | <encode_response_window bytes>``.
    The window bytes are produced by the wire plane's single-pass framer
    (:func:`~repro.net.wire.encode_response_window`) — byte-identical to
    what the server's TX path would emit for the same rows.
    """
    n = len(statuses)
    buffer, offsets = encode_response_window(statuses, values, sizes)
    sizes_b = np.diff(offsets).astype(np.uint32).tobytes()
    return [_U32.pack(n), sizes_b, buffer]


def decode_response_block(buf, offset: int = 0):
    """Decode a response block into ``(statuses, values, sizes)`` columns.

    ``values[i]`` is the response payload for OK rows and ``None`` for
    value-less statuses — exactly the plane's ``read_values`` convention,
    so the router can scatter the columns straight into its outer plane.
    """
    (n,) = _U32.unpack_from(buf, offset)
    sizes_off = offset + 4
    window_off = sizes_off + 4 * n
    hdr = RESPONSE_HEADER_BYTES
    mv = memoryview(buf)
    sizes = np.frombuffer(buf, dtype="<u4", count=n, offset=sizes_off).tolist()
    statuses: list[int] = []
    values: list[bytes | None] = []
    at = window_off
    for size in sizes:
        status = buf[at]
        statuses.append(status)
        if size > hdr:
            values.append(bytes(mv[at + hdr : at + size]))
        else:
            # A value-less header; OK-with-empty-value still decodes to
            # b"" because its size equals the bare header too — the
            # status distinguishes: only OK rows carry a read value.
            values.append(_EMPTY if status == 0 else None)
        at += size
    # Normalise: OK rows keep bytes (possibly b""), other rows are None.
    for i, status in enumerate(statuses):
        if status != 0:
            values[i] = None
    return statuses, values, sizes


def decode_response_columns(buf, offset: int = 0):
    """Vectorized :func:`decode_response_block`: NumPy column results.

    Returns ``(statuses, values, sizes)`` where ``statuses``/``sizes``
    are int64 arrays and ``values`` is an object array (``None`` for
    non-OK rows) — ready for fancy-indexed scatter into whole-batch
    response columns.
    """
    (n,) = _U32.unpack_from(buf, offset)
    sizes_off = offset + 4
    window_off = sizes_off + 4 * n
    sizes = np.frombuffer(buf, dtype="<u4", count=n, offset=sizes_off).astype(np.int64)
    statuses, values = decode_response_window(buf, sizes, window_off)
    return statuses, values, sizes
