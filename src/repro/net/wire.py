"""Columnar wire plane: socket bytes to BatchPlane and back without
per-query Python objects.

The reference codec (:mod:`repro.kv.protocol`) decodes every datagram
into a list of :class:`~repro.kv.protocol.Query` dataclasses — one
``struct.unpack`` plus one enum lookup plus one ``__post_init__`` per
query — and re-materialises every answer as a
:class:`~repro.kv.protocol.Response` before encoding it message by
message.  Once the index-side stages are batched (the vector engine),
that scalar wire path would dominate the serve loop.  The server runs
three columnar pieces instead:

* :func:`decode_window` — appends the queries of a poll's datagram
  payloads to one open window's list columns and reports where each
  datagram's rows stop.  Few datagrams take a scalar walk; many small
  ones take a NumPy frontier gather that decodes one query of every
  still-active datagram per round.  Validation (unknown opcodes,
  truncation, empty keys, values on non-SET queries) reports error
  messages byte-identical to the legacy decoder's
  :class:`~repro.errors.ProtocolError` texts.  A malformed datagram
  invalidates only itself — its queries are dropped from the window and
  the error is reported per datagram, exactly as if
  ``decode_queries`` had raised for that payload alone.  The window's
  NumPy columns are built once, by :meth:`QueryColumns.sealed`.
* :func:`encode_response_window` — writes an entire batch's responses
  into one buffer in a single pass: one packed header per valued row
  (value-less rows reuse a precomputed header), one join that copies
  each value once, and the per-response byte offsets from one cumulative
  sum.  Frames and datagrams are then *slices* of that buffer.
* :func:`cut_frame_bounds` / :func:`frames_for_response_columns` /
  :func:`chunk_response_payloads` — the MTU cut as one cumulative-sum
  walk (``searchsorted`` per emitted frame rather than a size check per
  message), byte-identical to the greedy first-fit of
  :func:`repro.net.packets._pack`.  A peer whose answers fit one
  datagram gets them as one join, with no cut at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ProtocolError
from repro.kv.protocol import (
    Query,
    QueryType,
    ResponseStatus,
    _QUERY_HEADER,
    _RESPONSE_HEADER,
)
from repro.net.packets import ETHERNET_MTU, Frame

#: Per-round header gather: ``u8[cur[:, None] + _HDR_OFFSETS]`` pulls
#: each active datagram's 7 header bytes in one fancy index.
_HDR_OFFSETS = np.arange(7, dtype=np.int64)
#: One matmul turns the gathered header bytes into the three fields:
#: columns are (opcode, key_len, value_len) in little-endian weights.
_HDR_WEIGHTS = np.array(
    [
        [1, 0, 0],
        [0, 1, 0],
        [0, 1 << 8, 0],
        [0, 0, 1],
        [0, 0, 1 << 8],
        [0, 0, 1 << 16],
        [0, 0, 1 << 24],
    ],
    dtype=np.int64,
)

#: Query header bytes: ``opcode:u8 | key_len:u16 | value_len:u32``.
QUERY_HEADER_BYTES = _QUERY_HEADER.size
#: Response header bytes: ``status:u8 | value_len:u32``.
RESPONSE_HEADER_BYTES = _RESPONSE_HEADER.size

#: Opcode -> QueryType, indexable by the raw wire opcode (0 is invalid).
_QTYPE_BY_OP = (None, QueryType.GET, QueryType.SET, QueryType.DELETE)
#: The encoded header of a value-less response, indexable by wire status.
_BARE_RESPONSE_HEADERS = tuple(
    _RESPONSE_HEADER.pack(status.value, 0) for status in ResponseStatus
)

_EMPTY = b""


class QueryColumns:
    """A batch of queries in struct-of-arrays form.

    The three list columns (``qtypes``, ``keys``, ``values``) are exactly
    what :class:`~repro.engine.plane.BatchPlane` keeps per batch, so a
    decoded window plugs into the engine layer without ever constructing
    :class:`~repro.kv.protocol.Query` objects.  The optional NumPy columns
    (``opcodes``, ``key_lens``, ``value_lens``) ride along once the window
    is :meth:`sealed`; the workload profiler folds whole batches with
    array sums instead of a per-query loop.  A window still open for
    appending (:meth:`open_window`) keeps its opcodes as a Python list and
    has no length columns; only the serve loop holds one, and it seals the
    window before an engine sees it.

    Supports ``len()`` and slicing so the server's batch cut / carry-over
    logic treats a columnar window exactly like a ``list[Query]``.
    """

    __slots__ = ("qtypes", "keys", "values", "opcodes", "key_lens", "value_lens")

    def __init__(
        self,
        qtypes: list[QueryType],
        keys: list[bytes],
        values: list[bytes],
        opcodes=None,
        key_lens=None,
        value_lens=None,
    ):
        self.qtypes = qtypes
        self.keys = keys
        self.values = values
        self.opcodes = opcodes
        self.key_lens = key_lens
        self.value_lens = value_lens

    def __len__(self) -> int:
        return len(self.qtypes)

    def __getitem__(self, item: slice) -> "QueryColumns":
        if not isinstance(item, slice):
            raise TypeError("QueryColumns supports slice indexing only")
        return QueryColumns(
            self.qtypes[item],
            self.keys[item],
            self.values[item],
            None if self.opcodes is None else self.opcodes[item],
            None if self.key_lens is None else self.key_lens[item],
            None if self.value_lens is None else self.value_lens[item],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, QueryColumns):
            return NotImplemented
        return (
            self.qtypes == other.qtypes
            and self.keys == other.keys
            and self.values == other.values
        )

    def to_queries(self) -> list[Query]:
        """Materialise legacy Query objects (tests and compatibility)."""
        return [
            Query(qtype, key, value)
            for qtype, key, value in zip(self.qtypes, self.keys, self.values)
        ]

    @classmethod
    def open_window(cls) -> "QueryColumns":
        """An empty window for :func:`decode_window` to append rows to;
        every column, the opcodes included, is a Python list."""
        return cls([], [], [], [])

    def sealed(self) -> "QueryColumns":
        """These rows with the opcode and length columns as NumPy arrays,
        each built in one pass over the whole window."""
        n = len(self.qtypes)
        return QueryColumns(
            self.qtypes,
            self.keys,
            self.values,
            np.fromiter(self.opcodes, dtype=np.uint8, count=n),
            np.fromiter(map(len, self.keys), dtype=np.int64, count=n),
            np.fromiter(map(len, self.values), dtype=np.int64, count=n),
        )

    @classmethod
    def from_queries(cls, queries: list[Query]) -> "QueryColumns":
        return cls(
            [q.qtype for q in queries],
            [q.key for q in queries],
            [q.value for q in queries],
        )

    @classmethod
    def concat(cls, parts: list["QueryColumns"]) -> "QueryColumns":
        if len(parts) == 1:
            return parts[0]
        qtypes: list[QueryType] = []
        keys: list[bytes] = []
        values: list[bytes] = []
        for part in parts:
            qtypes.extend(part.qtypes)
            keys.extend(part.keys)
            values.extend(part.values)
        # `all()` over no parts is true, but there is nothing to concatenate.
        if not parts or any(p.opcodes is None for p in parts):
            return cls(qtypes, keys, values)
        return cls(
            qtypes,
            keys,
            values,
            np.concatenate([p.opcodes for p in parts]),
            np.concatenate([p.key_lens for p in parts]),
            np.concatenate([p.value_lens for p in parts]),
        )


@dataclass
class WindowParseError:
    """One undecodable datagram in a decoded window."""

    #: Index of the offending payload in the window.
    datagram: int
    #: The legacy decoder's exact error message for this payload.
    message: str


def decode_payload(payload: bytes) -> QueryColumns:
    """Columnar decode of one payload; raises like ``decode_queries``.

    Byte-identical semantics to the legacy
    :func:`repro.kv.protocol.decode_queries`, including the exact
    :class:`~repro.errors.ProtocolError` messages and their precedence
    (header truncation, then unknown opcode, then body truncation, then
    the empty-key and value-on-non-SET constraints).
    """
    window, _, errors = decode_window([payload])
    if errors:
        raise ProtocolError(errors[0].message)
    return window


def decode_window(
    payloads: list[bytes],
    window: QueryColumns | None = None,
) -> tuple[QueryColumns, list[int], list[WindowParseError]]:
    """Decode datagram payloads onto the end of one open window.

    The queries of every well-formed payload are appended, in payload
    order, to the list columns of ``window``; no NumPy column is built
    here — :meth:`QueryColumns.sealed` builds them once per window.  When
    ``window`` is omitted the payloads are decoded into a fresh window
    that is returned sealed, ready for the engines.
    Returns ``(window, stops, errors)``: ``stops[d]`` is the window's row
    count after payload ``d``, so payload ``d``'s queries are the rows
    from the previous stop up to ``stops[d]`` (none for an empty or
    malformed payload).  A malformed datagram contributes *no* queries —
    even ones parsed before the error — matching the legacy
    all-or-nothing per-datagram decode.

    The implementation is picked per call: the cross-datagram NumPy
    gather parses one query per datagram per *round*, so its cost scales
    with the deepest datagram's query count no matter how many datagrams
    there are — it amortises only when the payloads are many more than
    deep (a poll that drained many small datagrams).  Otherwise the
    scalar walk appends each query straight to the window's lists.  Both
    produce identical rows and identical errors.
    """
    seal = window is None
    if seal:
        window = QueryColumns.open_window()
    total = 0
    largest = 0
    for payload in payloads:
        size = len(payload)
        total += size
        if size > largest:
            largest = size
    if largest and total >= 64 * largest:
        stops, errors = _decode_window_vector(payloads, window)
    else:
        stops, errors = _decode_window_scalar(payloads, window)
    return (window.sealed() if seal else window), stops, errors


# ------------------------------------------------------------ vector decode


def _decode_window_vector(payloads, window):
    m = len(payloads)
    arena = payloads[0] if m == 1 else b"".join(payloads)
    u8 = np.frombuffer(arena, dtype=np.uint8)
    lens = np.fromiter(map(len, payloads), dtype=np.int64, count=m)
    ends = np.cumsum(lens)
    starts = ends - lens
    cursors = starts.copy()

    errors: list[WindowParseError] = []
    errored: set[int] = set()

    def fail(ids, messages) -> None:
        for d, msg in zip(ids.tolist(), messages):
            errored.add(d)
            errors.append(WindowParseError(d, msg))

    # Per-round column chunks, concatenated (and reordered) at the end.
    chunk_dgram: list = []
    chunk_round: list = []
    chunk_op: list = []
    chunk_koff: list = []
    chunk_klen: list = []
    chunk_vlen: list = []

    active = np.nonzero(cursors < ends)[0]
    round_no = 0
    hdr = QUERY_HEADER_BYTES
    while active.size:
        cur = cursors[active]
        end = ends[active]
        base = starts[active]

        # 1. Header truncation (offset relative to the datagram start).
        bad = cur + hdr > end
        if bad.any():
            rel = (cur - base)[bad]
            fail(
                active[bad],
                [f"truncated query header at offset {o}" for o in rel.tolist()],
            )
            keep = ~bad
            active, cur, end, base = active[keep], cur[keep], end[keep], base[keep]
            if not active.size:
                break

        # One (A, 7) gather pulls every active header; one matmul against
        # the little-endian weight matrix assembles all three fields.
        fields = u8[cur[:, None] + _HDR_OFFSETS].astype(np.int64) @ _HDR_WEIGHTS
        op = fields[:, 0]
        klen = fields[:, 1]
        vlen = fields[:, 2]
        body = cur + hdr
        rel_body = body - base

        # Fast path: windows are overwhelmingly well-formed, so checks
        # 2-5 collapse into one combined mask; the ordered per-check
        # filtering below runs only when something is actually malformed
        # (error-message precedence must match the legacy decoder).
        malformed = (
            (op < 1)
            | (op > 3)
            | (body + klen + vlen > end)
            | (klen == 0)
            | ((op != 2) & (vlen > 0))
        )
        if malformed.any():
            # 2. Unknown opcode (legacy reports the offset *after* the
            # header).
            bad = (op < 1) | (op > 3)
            if bad.any():
                fail(
                    active[bad],
                    [
                        f"unknown opcode {o} at offset {r}"
                        for o, r in zip(op[bad].tolist(), rel_body[bad].tolist())
                    ],
                )
                keep = ~bad
                active, cur, end = active[keep], cur[keep], end[keep]
                op, klen, vlen = op[keep], klen[keep], vlen[keep]
                body, rel_body = body[keep], rel_body[keep]
                if not active.size:
                    break

            # 3. Body truncation.
            bad = body + klen + vlen > end
            if bad.any():
                fail(
                    active[bad],
                    [
                        f"truncated query body at offset {o}"
                        for o in rel_body[bad].tolist()
                    ],
                )
                keep = ~bad
                active, cur, end = active[keep], cur[keep], end[keep]
                op, klen, vlen, body = op[keep], klen[keep], vlen[keep], body[keep]
                if not active.size:
                    break

            # 4. The Query constraints: non-empty key, value only on SET.
            bad = klen == 0
            if bad.any():
                fail(active[bad], ["query key must be non-empty"] * int(bad.sum()))
                keep = ~bad
                active, end = active[keep], end[keep]
                op, klen, vlen, body = op[keep], klen[keep], vlen[keep], body[keep]
                if not active.size:
                    break
            bad = (op != 2) & (vlen > 0)
            if bad.any():
                fail(
                    active[bad],
                    [
                        f"{_QTYPE_BY_OP[o].name} query cannot carry a value"
                        for o in op[bad].tolist()
                    ],
                )
                keep = ~bad
                active, end = active[keep], end[keep]
                op, klen, vlen, body = op[keep], klen[keep], vlen[keep], body[keep]
                if not active.size:
                    break

        chunk_dgram.append(active)
        chunk_round.append(np.full(active.size, round_no, dtype=np.int64))
        chunk_op.append(op)
        chunk_koff.append(body)
        chunk_klen.append(klen)
        chunk_vlen.append(vlen)

        nxt = body + klen + vlen
        cursors[active] = nxt
        active = active[nxt < end]
        round_no += 1

    start = len(window)
    if not chunk_dgram:
        return [start] * m, errors

    dgram = np.concatenate(chunk_dgram)
    rounds = np.concatenate(chunk_round)
    op = np.concatenate(chunk_op)
    koff = np.concatenate(chunk_koff)
    klen = np.concatenate(chunk_klen)
    vlen = np.concatenate(chunk_vlen)

    if errored:
        mask = ~np.isin(dgram, np.fromiter(errored, dtype=np.int64))
        dgram, rounds = dgram[mask], rounds[mask]
        op, koff, klen, vlen = op[mask], koff[mask], klen[mask], vlen[mask]

    # Rounds interleave datagrams; restore datagram-major, arrival order.
    order = np.lexsort((rounds, dgram))
    dgram, op = dgram[order], op[order]
    koff, klen, vlen = koff[order], klen[order], vlen[order]

    ops = op.tolist()
    window.opcodes.extend(ops)
    window.qtypes.extend([_QTYPE_BY_OP[o] for o in ops])
    window.keys.extend(
        [arena[o : o + L] for o, L in zip(koff.tolist(), klen.tolist())]
    )
    values = [_EMPTY] * len(ops)
    has_value = np.nonzero(vlen > 0)[0]
    if has_value.size:
        voff = koff + klen
        for i in has_value.tolist():
            o = voff[i]
            values[i] = arena[o : o + vlen[i]]
    window.values.extend(values)
    stops = np.cumsum(np.bincount(dgram, minlength=m)) + start
    return stops.tolist(), errors


# ------------------------------------------------------------ scalar decode


def _decode_window_scalar(payloads, window):
    """Legacy-identical walk appending straight to the window's lists.

    One ``unpack_from`` and two slices per query, no per-query objects,
    no NumPy call.  A malformed payload's rows are truncated off again.
    """
    qtypes, keys, values, ops = window.qtypes, window.keys, window.values, window.opcodes
    stops: list[int] = []
    errors: list[WindowParseError] = []
    hdr = QUERY_HEADER_BYTES
    unpack_from = _QUERY_HEADER.unpack_from
    for d, payload in enumerate(payloads):
        start = len(qtypes)
        offset = 0
        end = len(payload)
        try:
            while offset < end:
                if end - offset < hdr:
                    raise ProtocolError(f"truncated query header at offset {offset}")
                opcode, key_len, value_len = unpack_from(payload, offset)
                offset += hdr
                if not 1 <= opcode <= 3:
                    raise ProtocolError(f"unknown opcode {opcode} at offset {offset}")
                if end - offset < key_len + value_len:
                    raise ProtocolError(f"truncated query body at offset {offset}")
                if key_len == 0:
                    raise ProtocolError("query key must be non-empty")
                qtype = _QTYPE_BY_OP[opcode]
                if value_len and opcode != 2:
                    raise ProtocolError(f"{qtype.name} query cannot carry a value")
                keys.append(payload[offset : offset + key_len])
                offset += key_len
                values.append(
                    payload[offset : offset + value_len] if value_len else _EMPTY
                )
                offset += value_len
                qtypes.append(qtype)
                ops.append(opcode)
        except ProtocolError as exc:
            del qtypes[start:], keys[start:], values[start:], ops[start:]
            errors.append(WindowParseError(d, str(exc)))
        stops.append(len(qtypes))
    return stops, errors


# --------------------------------------------------------- response framing


def encode_response_window(
    statuses: list[int],
    values: list[bytes | None],
    sizes: list[int] | None = None,
):
    """Encode a whole response batch into one buffer, single pass.

    ``statuses`` are raw wire status codes; ``values`` may contain ``None``
    for value-less responses (the plane's ``read_values`` column is used
    directly — SET/DELETE/miss rows are ``None`` there).  ``sizes`` is the
    engine's precomputed response-size column; without it sizes are
    derived in one pass.

    Returns ``(buffer, offsets)``: a ``bytes`` holding every encoded
    response back to back, and the ``len(statuses) + 1`` cumulative byte
    offsets (``buffer[offsets[i]:offsets[i+1]]`` is response ``i``).  The
    bytes are identical to ``encode_responses`` over the same responses.

    Each response is one packed header plus its value (a value-less row
    reuses its status's precomputed header), and one ``b"".join`` writes
    them all, so a window of a few dozen rows pays no NumPy dispatch
    beyond the offset sum.
    """
    pack = _RESPONSE_HEADER.pack
    bare = _BARE_RESPONSE_HEADERS
    parts: list[bytes] = []
    append = parts.append
    for status, value in zip(statuses, values):
        if value:
            append(pack(status, len(value)))
            append(value)
        else:
            append(bare[status])
    hdr = RESPONSE_HEADER_BYTES
    if sizes is None:
        sizes = [hdr + len(v) if v else hdr for v in values]
    offsets = np.zeros(len(statuses) + 1, dtype=np.int64)
    np.cumsum(np.asarray(sizes, dtype=np.int64), out=offsets[1:])
    return b"".join(parts), offsets


def decode_response_window(buffer, sizes, offset: int = 0):
    """Inverse of :func:`encode_response_window` given per-row frame sizes.

    ``sizes`` is the per-row total frame size column (header + payload,
    the WR column the procshard response block carries).  Returns
    ``(statuses, values)``: an int64 status array and an object array of
    payload bytes (``None`` for non-OK rows, ``b""`` for OK rows with an
    empty value) — the plane's ``read_values`` convention.  Status bytes
    are gathered with one fancy-indexed load over the window; only OK
    rows' payloads are copied out.
    """
    hdr = RESPONSE_HEADER_BYTES
    sz = np.asarray(sizes, dtype=np.int64)
    n = len(sz)
    ends = np.empty(n, dtype=np.int64)
    np.cumsum(sz, out=ends)
    ends += offset
    starts = ends - sz
    u8 = np.frombuffer(buffer, dtype=np.uint8, count=len(buffer))
    statuses = u8[starts].astype(np.int64) if n else np.empty(0, dtype=np.int64)
    values = np.empty(n, dtype=object)
    ok_rows = np.nonzero(statuses == 0)[0]
    if ok_rows.size:
        payload_starts = (starts[ok_rows] + hdr).tolist()
        payload_ends = ends[ok_rows].tolist()
        if type(buffer) is bytes:
            # bytes slices straight to bytes — no memoryview round trip —
            # and one fancy-indexed scatter replaces per-row assignment.
            values[ok_rows] = [
                buffer[start:end] if end > start else _EMPTY
                for start, end in zip(payload_starts, payload_ends)
            ]
        else:
            mv = memoryview(buffer)
            values[ok_rows] = [
                bytes(mv[start:end]) if end > start else _EMPTY
                for start, end in zip(payload_starts, payload_ends)
            ]
    return statuses, values


def cut_frame_bounds(offsets, limit: int) -> list[int]:
    """Greedy first-fit cut over a cumulative byte-offset column.

    Returns message indices ``[0, b1, ..., n]`` such that each
    ``[b_k, b_{k+1})`` span fits in ``limit`` payload bytes (a single
    over-limit message rides alone), matching
    :func:`repro.net.packets._pack` boundaries exactly.  One
    ``searchsorted`` per emitted frame instead of a size check per
    message.
    """
    n = len(offsets) - 1
    bounds = [0]
    i = 0
    append = bounds.append
    searchsorted = np.searchsorted
    while i < n:
        j = int(searchsorted(offsets, offsets[i] + limit, side="right")) - 1
        if j <= i:
            j = i + 1
        append(j)
        i = j
    return bounds


def frames_for_response_columns(
    statuses: list[int],
    values: list[bytes | None],
    sizes: list[int] | None = None,
    mtu: int = ETHERNET_MTU,
) -> list[Frame]:
    """Columnar replacement for ``frames_for_responses``.

    One window encode plus one cumulative-sum MTU cut; each frame payload
    is a slice of the shared buffer.  Byte-identical to the legacy
    per-``Response`` packing.
    """
    buffer, offsets = encode_response_window(statuses, values, sizes)
    bounds = cut_frame_bounds(offsets, mtu)
    mv = memoryview(buffer)
    return [
        Frame(bytes(mv[offsets[a] : offsets[b]]), query_count=b - a)
        for a, b in zip(bounds, bounds[1:])
    ]


def chunk_response_payloads(
    buffer: bytes,
    offsets,
    ranges: list[tuple[int, int]],
    max_payload: int,
) -> list[bytes]:
    """Cut one peer's responses into datagram payloads.

    ``ranges`` are ``[start, stop)`` index spans into the window's
    response columns, in the peer's arrival order (one span per datagram
    the peer sent).  When the peer's answers fit in ``max_payload`` — one
    window's answers to one peer usually do — they are one payload, a
    single join.  Otherwise payloads are cut over the concatenated span:
    greedy fill up to ``max_payload``, a single larger response rides
    alone.  Each returned payload is a join of buffer slices — responses
    are never re-encoded.
    """
    mv = memoryview(buffer)
    spans = [(offsets[a], offsets[b]) for a, b in ranges]
    total = sum(hi - lo for lo, hi in spans)
    if total <= max_payload:
        return [b"".join([mv[lo:hi] for lo, hi in spans])] if total else []
    payloads: list[bytes] = []
    parts: list[memoryview] = []
    size = 0
    for a, b in ranges:
        i = a
        while i < b:
            budget = max_payload - size
            j = int(np.searchsorted(offsets, offsets[i] + budget, side="right")) - 1
            j = min(j, b)
            if j <= i:
                if parts:
                    payloads.append(b"".join(parts))
                    parts, size = [], 0
                    continue
                j = i + 1  # single response larger than the bound
            parts.append(mv[offsets[i] : offsets[j]])
            size += int(offsets[j] - offsets[i])
            i = j
    if parts:
        payloads.append(b"".join(parts))
    return payloads
