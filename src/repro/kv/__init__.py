"""Functional in-memory key-value store substrate.

This package is a *working* key-value store, not a stub: queries parsed from
the simulated network really look keys up in a cuckoo hash table, really
allocate/evict through the value heap, and really produce response bytes.
The pipeline engine charges simulated time for each of those actions, but
their functional results are exact, which is what the test suite verifies.

Components mirror the paper's Section II-B description of an IMKV node:

* :mod:`repro.kv.objects` — key-value object layout including the access
  counter and sampling timestamp used by the skew estimator (Section IV-B);
* :mod:`repro.kv.hashtable` — the cuckoo hash index storing short key
  signatures plus object locations (Section II-B, [15]);
* :mod:`repro.kv.logarena` — the value heap: an append-only log arena
  with tombstoned deletes and barrier-time compaction/eviction;
* :mod:`repro.kv.slab` — slab allocation with per-SET LRU eviction (the
  paper's Figure 6 Insert+Delete pairing in its original form), kept as
  the oracle the heap-parity tests compare the log arena against;
* :mod:`repro.kv.store` — the assembled store exposing GET/SET/DELETE;
* :mod:`repro.kv.protocol` — the binary wire format, and the reference
  codec the columnar wire plane is tested against.
"""

from repro.kv.hashtable import CuckooHashTable, IndexStats
from repro.kv.objects import KVObject, key_signature
from repro.kv.protocol import (
    Query,
    QueryType,
    Response,
    ResponseStatus,
    decode_queries,
    decode_responses,
    encode_queries,
    encode_responses,
)
from repro.kv.slab import SlabAllocator, SlabStats
from repro.kv.store import KVStore, StoreStats

__all__ = [
    "CuckooHashTable",
    "IndexStats",
    "KVObject",
    "KVStore",
    "Query",
    "QueryType",
    "Response",
    "ResponseStatus",
    "SlabAllocator",
    "SlabStats",
    "StoreStats",
    "decode_queries",
    "decode_responses",
    "encode_queries",
    "encode_responses",
    "key_signature",
]
