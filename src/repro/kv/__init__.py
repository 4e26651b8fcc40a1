"""Functional in-memory key-value store substrate.

This package is a *working* key-value store, not a stub: queries parsed from
the simulated network really look keys up in a cuckoo hash table, really
allocate in (and, at barriers, evict from) the log arena, and really
produce response bytes.
The pipeline engine charges simulated time for each of those actions, but
their functional results are exact, which is what the test suite verifies.

Components mirror the paper's Section II-B description of an IMKV node:

* :mod:`repro.kv.objects` — key signatures and the FNV hash behind them;
* :mod:`repro.kv.hashtable` — the cuckoo hash index storing short key
  signatures plus each key's directory row (Section II-B, [15]);
* :mod:`repro.kv.logarena` — the value heap: an append-only log arena
  with tombstoned deletes and barrier-time compaction/eviction;
* :mod:`repro.kv.store` — the assembled store exposing GET/SET/DELETE,
  over exactly those two: the cuckoo table and the log arena, with one
  key directory row per key holding its spec, value place and counters;
* :mod:`repro.kv.chaining` — a standalone chained hash table that the
  store does not take; it serves the index ablation benchmark;
* :mod:`repro.kv.protocol` — the binary wire format, and the reference
  codec the columnar wire plane is tested against.
"""
