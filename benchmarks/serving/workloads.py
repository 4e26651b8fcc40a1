"""Workload registry, wire codec and seeded request tapes for the serving benchmark.

The benchmark speaks to the server in datagrams only, so this module has its
own encoder for the layout in ``docs/protocol.md`` (all little-endian):

    query     opcode:u8 | key_len:u16 | value_len:u32 | key | value
    response  status:u8 | value_len:u32 | value

A *tape* is a list of ready-to-send request datagrams built from a seeded
NumPy generator; building happens before a phase starts, so the measured
loops only send and receive.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

GET, SET, DELETE = 1, 2, 3
OK, NOT_FOUND, STORED, DELETED = 0, 1, 2, 3  # 4=ERROR and 5=WRONG_NODE are failures

QUERY_HEADER = struct.Struct("<BHI")
RESPONSE_HEADER = struct.Struct("<BI")

#: Fits the server's default 64 MB / 65536-object store with room to spare.
NUM_KEYS = 32768
#: The paper's frame-level client batching: one Ethernet frame of queries.
MAX_DGRAM_BYTES = 1400


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``why`` is the one-line reason it is in the suite."""

    name: str
    why: str
    key_size: int
    value_size: int
    get: float
    set: float  # the remainder, 1 - get - set, is DELETE
    zipf: float  # 0 = uniform keys
    per_dgram: int  # 0 = pack datagrams greedily up to MAX_DGRAM_BYTES
    rate_qps: int  # fixed open-loop rate of the `rate` phase
    inflight: int  # queries outstanding per connection in the `sat` phase


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "read-uniform",
            "K16 95% GET uniform, full frames: "
            "engine read passes and wire decode/frame do the work",
            key_size=16, value_size=64, get=0.95, set=0.05, zipf=0.0,
            per_dgram=0, rate_qps=40000, inflight=4096,
        ),
        Workload(
            "read-skew",
            "read-uniform with Zipf 0.99 keys: "
            "only skew-keyed code (skew estimator, re-plans) may move",
            key_size=16, value_size=64, get=0.95, set=0.05, zipf=0.99,
            per_dgram=0, rate_qps=30000, inflight=4096,
        ),
        Workload(
            "write-heavy",
            "K32/V256 50% GET 45% SET 5% DELETE: "
            "allocation, index updates, log compaction, maintain tick",
            key_size=32, value_size=256, get=0.50, set=0.45, zipf=0.0,
            per_dgram=0, rate_qps=10000, inflight=4096,
        ),
        Workload(
            "small-dgram",
            "read-uniform mix at 4 queries per datagram: "
            "per-datagram and per-window fixed costs dominate",
            key_size=16, value_size=64, get=0.95, set=0.05, zipf=0.0,
            per_dgram=4, rate_qps=20000, inflight=1024,
        ),
    )
}


def walk_responses(data: bytes, value_size: int) -> tuple[int, int, int]:
    """Count the responses in one datagram: ``(responses, GET hits, bad)``.

    A response is bad when its status is ERROR/WRONG_NODE/unknown, when a GET
    hit does not carry exactly ``value_size`` bytes, or when a value-less
    status carries a value.  Trailing bytes that are not a whole response
    count as one bad response.  NOT_FOUND is an answer, not a failure.
    """
    unpack = RESPONSE_HEADER.unpack_from
    end = len(data)
    offset = count = hits = bad = 0
    while offset + 5 <= end:
        status, length = unpack(data, offset)
        offset += 5 + length
        count += 1
        if status == OK:
            hits += 1
            if length != value_size:
                bad += 1
        elif length or status > DELETED:
            bad += 1
    if offset != end:
        bad += 1
    return count, hits, bad


@dataclass
class Tape:
    payloads: list[bytes]
    counts: list[int]  # queries in each datagram
    gets: list[int]  # GETs in each datagram

    @property
    def queries(self) -> int:
        return sum(self.counts)


def key_table(key_size: int) -> np.ndarray:
    """``NUM_KEYS`` fixed-width keys: ``k`` padding, then an 8-digit id."""
    ids = np.arange(NUM_KEYS)
    digits = (ids[:, None] // 10 ** np.arange(7, -1, -1)) % 10 + ord("0")
    table = np.full((NUM_KEYS, key_size), ord("k"), dtype=np.uint8)
    table[:, key_size - 8 :] = digits
    return table


def _cut_datagrams(sizes: np.ndarray, per_dgram: int, max_bytes: int) -> np.ndarray:
    """Datagram boundaries as query indices ``[0, ..., n]``."""
    n = len(sizes)
    if per_dgram:
        return np.append(np.arange(0, n, per_dgram), n)
    ends = np.cumsum(sizes)
    bounds = [0]
    base = 0
    while bounds[-1] < n:
        stop = int(np.searchsorted(ends, base + max_bytes, side="right"))
        bounds.append(stop)
        base = int(ends[stop - 1])
    return np.asarray(bounds)


def _assemble(ops, key_ids, values, workload: Workload, max_bytes=MAX_DGRAM_BYTES) -> Tape:
    """Encode columns of queries into datagrams.  ``values`` has one row per SET."""
    ksize, vsize = workload.key_size, workload.value_size
    is_set = ops == SET
    sizes = QUERY_HEADER.size + ksize + np.where(is_set, vsize, 0)
    starts = np.cumsum(sizes) - sizes
    buf = np.zeros(int(sizes.sum()), dtype=np.uint8)
    buf[starts] = ops
    buf[starts + 1] = ksize & 0xFF
    buf[starts + 2] = ksize >> 8
    set_starts = starts[is_set]
    buf[set_starts + 3] = vsize & 0xFF
    buf[set_starts + 4] = (vsize >> 8) & 0xFF
    buf[set_starts + 5] = (vsize >> 16) & 0xFF
    buf[(starts + 7)[:, None] + np.arange(ksize)] = key_table(ksize)[key_ids]
    buf[(set_starts + 7 + ksize)[:, None] + np.arange(vsize)] = values
    bounds = _cut_datagrams(sizes, workload.per_dgram, max_bytes)
    byte_bounds = np.append(starts, len(buf))[bounds].tolist()
    data = buf.tobytes()
    gets_before = np.append(0, np.cumsum(ops == GET))
    return Tape(
        [data[a:b] for a, b in zip(byte_bounds, byte_bounds[1:])],
        np.diff(bounds).tolist(),
        np.diff(gets_before[bounds]).tolist(),
    )


def prefill_tape(workload: Workload, seed: int) -> Tape:
    """One SET per key, in id order, so every later GET hits."""
    rng = np.random.default_rng([seed, 0])
    values = rng.integers(0, 256, (NUM_KEYS, workload.value_size), dtype=np.uint8)
    ops = np.full(NUM_KEYS, SET, dtype=np.uint8)
    return _assemble(ops, np.arange(NUM_KEYS), values, workload)


def traffic_tape(
    workload: Workload, seed: int, stream: int, queries: int, max_bytes: int = MAX_DGRAM_BYTES
) -> Tape:
    """``queries`` queries of the workload's mix; ``stream`` separates the
    tapes of one run (verify, warm-up, rate, hi, sat) under one seed."""
    rng = np.random.default_rng([seed, 1, stream])
    draw = rng.random(queries)
    ops = np.where(
        draw < workload.get, GET, np.where(draw < workload.get + workload.set, SET, DELETE)
    ).astype(np.uint8)
    if workload.zipf:
        weights = 1.0 / np.arange(1, NUM_KEYS + 1) ** workload.zipf
        ranks = np.searchsorted(np.cumsum(weights) / weights.sum(), rng.random(queries))
        # Which keys are hot depends on the seed alone, not on the stream.
        key_ids = np.random.default_rng([seed, 2]).permutation(NUM_KEYS)[ranks]
    else:
        key_ids = rng.integers(0, NUM_KEYS, queries)
    values = rng.integers(
        0, 256, (int((ops == SET).sum()), workload.value_size), dtype=np.uint8
    )
    return _assemble(ops, key_ids, values, workload, max_bytes)
