"""VectorEngine: NumPy batch kernels for the index-side hot passes.

The columnar :class:`~repro.engine.backends.SerialEngine` already executes
each compiled phase as one pass, but every pass is still a scalar Python
loop — per key it hashes (or probe-caches), walks bucket slot lists, and
branches per query type.  Mega-KV's throughput comes from running exactly
these passes as bulk SIMD/GPU kernels over arrays; this backend does the
same with NumPy over the :class:`~repro.engine.plane.BatchPlane` columns:

* **Hashing** — the entire key column is hashed once per batch: the keys
  are packed into a padded ``uint8`` matrix and 64-bit FNV-1a is mixed
  across byte columns for all ``num_hashes + 1`` seeds simultaneously
  (signature + every candidate bucket), with a scalar fallback for
  oversized keys.  Candidate buckets come from one mask broadcast over the
  hash columns.
* **Search** — signatures are mask-matched against the cuckoo table's
  :class:`~repro.kv.hashtable.SignatureMirror` (a struct-of-arrays copy of
  the slot state that :meth:`~repro.kv.hashtable.CuckooHashTable._write_slot`
  keeps in sync): one gather + compare per probe round, with the same
  probe-order short-circuit and bucket-read accounting as the scalar path.
* **KC / RD** — the search pass leaves its matches in columnar form, so
  key-compare and read only touch queries that actually have candidates,
  and RD only locations that passed the full-key comparison.
* **WR** — responses are filled per query-type subset (shared singletons
  bulk-assigned), and the batch's *response-size column* is computed with
  one NumPy broadcast, so SD framing and server chunking need no
  per-response ``wire_size`` property calls.

Allocation (MM) and the index Insert/Delete passes are inherited from
:class:`SerialEngine` unchanged: they mutate Python heap objects and the
authoritative cuckoo slots, which has no array form — and the flexible
index-operation analysis (paper Figure 6) is precisely that those
operations do *not* benefit from batched kernels the way Search does.

The backend degrades gracefully: when the store's index does not support
the signature mirror (e.g. the chained-hash alternative), every pass
falls back to the serial implementation and results are still correct.
"""

from __future__ import annotations

import numpy as np

from repro.engine.backends import (
    NOT_FOUND_RESPONSE,
    STORED_RESPONSE,
    SerialEngine,
    count_store_ops,
)
from repro.engine.hotpath import prepare_hot_path_vector
from repro.engine.plane import BatchPlane
from repro.kv.hashtable import EMPTY
from repro.kv.objects import _FNV_OFFSET, _FNV_PRIME, fnv1a64
from repro.kv.protocol import QueryType, Response, ResponseStatus
from repro.kv.store import KVStore

#: Keys longer than this take the scalar FNV path (the padded matrix would
#: waste cache on a few giants; production keys are tens of bytes).
MAX_VECTOR_KEY_BYTES = 128

#: Wire bytes of a value-less response (status byte + length word).
_RESPONSE_HEADER_BYTES = Response(ResponseStatus.STORED).wire_size

#: Raw wire status codes for the bulk-assigned response subsets.
_OK_CODE = ResponseStatus.OK.value
_NOT_FOUND_CODE = ResponseStatus.NOT_FOUND.value
_STORED_CODE = ResponseStatus.STORED.value

_MASK64 = (1 << 64) - 1
_SIG_MASK32 = (1 << 32) - 1


def fnv_hash_columns(keys: list[bytes], num_states: int, lens=None):
    """64-bit FNV-1a of every key under seeds ``0..num_states-1``, batched.

    Returns a ``(num_states, len(keys))`` uint64 array where row ``s``
    equals ``fnv1a64(key, seed=s)`` for every key — bit-exact with the
    scalar hash, which the vector kernel tests assert.  All seed states mix
    the same byte column per step, so the whole batch costs one pass over
    ``max_key_len`` byte columns regardless of how many hash functions the
    index uses.  Keys longer than :data:`MAX_VECTOR_KEY_BYTES` are hashed
    scalar and patched into the result.  ``lens`` may carry a precomputed
    per-key byte-length column (any integer dtype) so callers that already
    built one don't pay a second pass over the keys.
    """
    n = len(keys)
    prime = np.uint64(_FNV_PRIME)
    states = np.empty((num_states, n), dtype=np.uint64)
    for seed in range(num_states):
        states[seed, :] = np.uint64(_FNV_OFFSET ^ (seed * _FNV_PRIME & _MASK64))
    if n == 0:
        return states
    if lens is None:
        lens = np.fromiter(map(len, keys), dtype=np.intp, count=n)
    else:
        lens = np.asarray(lens, dtype=np.intp)
    max_len = int(lens.max())
    uniform = bool((lens == max_len).all())
    if uniform and max_len <= MAX_VECTOR_KEY_BYTES:
        matrix = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(n, max_len)
        for j in range(max_len):
            states = (states ^ matrix[:, j].astype(np.uint64)) * prime
        return states
    # Ragged or oversized keys: pad in-bound keys into a zero matrix and
    # mask each mixing step by key length; hash oversized keys scalar.
    bounded = min(max_len, MAX_VECTOR_KEY_BYTES)
    oversized = lens > MAX_VECTOR_KEY_BYTES
    matrix = np.zeros((n, bounded), dtype=np.uint8)
    for i, key in enumerate(keys):
        if not oversized[i]:
            matrix[i, : lens[i]] = np.frombuffer(key, dtype=np.uint8)
    for j in range(bounded):
        mixed = (states ^ matrix[:, j].astype(np.uint64)) * prime
        states = np.where(lens > j, mixed, states)
    if oversized.any():
        for i in np.nonzero(oversized)[0].tolist():
            for seed in range(num_states):
                states[seed, i] = fnv1a64(keys[i], seed=seed)
    return states


class _VectorScratch:
    """Per-batch columnar state the vector passes hand to each other."""

    __slots__ = ("hit_rows", "hit_locs", "multi_hits", "rd_rows", "rd_locs", "rd_objs", "value_rows", "value_lens")

    def __init__(self) -> None:
        #: Plane indices whose Search matched exactly one candidate, and
        #: the candidate location, aligned.
        self.hit_rows: list[int] = []
        self.hit_locs: list[int] = []
        #: Plane index -> candidate locations, for the rare multi-match.
        self.multi_hits: dict[int, list[int]] = {}
        #: Plane indices (and locations) that survived key-compare, plus
        #: the fetched records so RD never re-probes the heap.
        self.rd_rows: list[int] = []
        self.rd_locs: list[int] = []
        self.rd_objs: list = []
        #: Plane indices (and value byte lengths) of GET hits, for the
        #: response-size column.
        self.value_rows: list[int] = []
        self.value_lens: list[int] = []


class VectorEngine(SerialEngine):
    """Whole-batch execution with NumPy kernels for the index-side passes."""

    name = "vector"

    def run(
        self,
        store: KVStore,
        plan,
        plane: BatchPlane,
        *,
        epoch: int = 0,
        task_times=None,
    ) -> dict[str, int]:
        index = getattr(store, "index", None)
        if hasattr(index, "ensure_mirror"):
            index.ensure_mirror()
            plane.scratch = _VectorScratch()
            if plane.hotpath is None and (self.dedup or self.use_hot_cache):
                plane.hotpath = prepare_hot_path_vector(
                    store,
                    plane,
                    dedup=self.dedup,
                    use_cache=self.use_hot_cache,
                )
        return super().run(store, plan, plane, epoch=epoch, task_times=task_times)

    def _count_store_ops(self, store: KVStore, plane: BatchPlane) -> None:
        scratch = plane.scratch
        # The RD/WR passes already listed every GET hit: no per-row work.
        count_store_ops(
            store, plane, None if scratch is None else len(scratch.value_rows)
        )

    # --------------------------------------------------------------- search

    def _pass_search(self, store: KVStore, plane: BatchPlane, indices) -> None:
        scratch = plane.scratch
        if scratch is None:
            SerialEngine._pass_search(store, plane, indices)
            return
        if not indices:
            return
        index = store.index
        mirror = index.mirror
        num_hashes = index.num_hashes
        keys = plane.keys
        states = fnv_hash_columns([keys[i] for i in indices], num_hashes + 1)
        signatures = (states[0] & np.uint64(_SIG_MASK32)).astype(np.uint32)
        bucket_mask = np.uint64(index.num_buckets - 1)
        n = len(indices)
        plane_rows = np.asarray(indices, dtype=np.intp)
        remaining = np.arange(n, dtype=np.intp)
        reads = np.full(n, num_hashes, dtype=np.int64)
        hit_rows = scratch.hit_rows
        hit_locs = scratch.hit_locs
        qtypes = plane.qtypes
        get_type = QueryType.GET
        # Columnar batches carry the wire opcode column; one boolean mask
        # replaces the per-hit ``qtypes[row] is GET`` interpreter branch.
        opcodes = plane.opcodes
        get_mask = opcodes == 1 if opcodes is not None else None
        # One round per candidate bucket; once any insert has kicked, rows
        # they all miss get one more round over the buckets' displaced twins.
        slots = index.slots_per_bucket
        for probe in range(num_hashes + index.kicked):
            if remaining.size == 0:
                break
            if probe < num_hashes:
                buckets = (states[probe + 1][remaining] & bucket_mask).astype(np.intp)
            else:
                twins = index.displaced_buckets
                candidates = (states[1:, remaining] & bucket_mask).T.tolist()
                buckets = np.array(
                    [
                        twins(signature, row)
                        for signature, row in zip(
                            signatures[remaining].tolist(), candidates
                        )
                    ],
                    dtype=np.intp,
                )
                reads[remaining] = 2 * num_hashes
            sig_slots = mirror.signatures[buckets].reshape(remaining.size, -1)
            loc_slots = mirror.locations[buckets].reshape(remaining.size, -1)
            match = (loc_slots != EMPTY) & (sig_slots == signatures[remaining][:, None])
            matched = match.any(axis=1)
            if matched.any():
                local = np.nonzero(matched)[0]
                resolved = remaining[local]
                counts = match[local].sum(axis=1)
                first_slot = match[local].argmax(axis=1)
                reads[resolved] = probe + 1 + first_slot // slots
                first_locs = loc_slots[local, first_slot]
                single = counts == 1
                resolved_planes = plane_rows[resolved]
                if get_mask is not None:
                    single_rows = resolved_planes[single]
                    keep = get_mask[single_rows]
                    hit_rows.extend(single_rows[keep].tolist())
                    hit_locs.extend(first_locs[single][keep].tolist())
                else:
                    for row, loc in zip(
                        resolved_planes[single].tolist(), first_locs[single].tolist()
                    ):
                        if qtypes[row] is get_type:
                            hit_rows.append(row)
                            hit_locs.append(loc)
                for li in np.nonzero(~single)[0].tolist():
                    row = int(resolved_planes[li])
                    locs = loc_slots[local[li]][match[local[li]]].tolist()
                    if qtypes[row] is get_type:
                        scratch.multi_hits[row] = locs
                remaining = remaining[~matched]
        stats = index.stats
        stats.searches += n
        stats.search_bucket_reads += int(reads.sum())

    # ------------------------------------------------------------------- KC

    def _pass_kc(self, store: KVStore, plane: BatchPlane, indices) -> None:
        scratch = plane.scratch
        if scratch is None:
            SerialEngine._pass_kc(store, plane, indices)
            return
        heap = store.heap
        probe = getattr(heap, "probe", None)
        if probe is None:
            heap_get = heap.get
            probe = lambda loc: heap_get(loc, touch=False)  # noqa: E731
        keys = plane.keys
        locations = plane.locations
        rd_rows = scratch.rd_rows
        rd_locs = scratch.rd_locs
        rd_objs = scratch.rd_objs
        false_positives = 0
        for row, loc in zip(scratch.hit_rows, scratch.hit_locs):
            obj = probe(loc)
            if obj is not None and obj.key == keys[row]:
                locations[row] = loc
                rd_rows.append(row)
                rd_locs.append(loc)
                rd_objs.append(obj)
            else:
                false_positives += 1
        for row, candidates in scratch.multi_hits.items():
            match = None
            match_obj = None
            for loc in candidates:
                obj = probe(loc)
                if obj is not None and obj.key == keys[row]:
                    match = loc
                    match_obj = obj
                else:
                    false_positives += 1
            if match is not None:
                locations[row] = match
                rd_rows.append(row)
                rd_locs.append(match)
                rd_objs.append(match_obj)
        store.stats.signature_false_positives += false_positives

    # ------------------------------------------------------------------- RD

    def _pass_rd(self, store: KVStore, plane: BatchPlane, indices, epoch: int) -> None:
        scratch = plane.scratch
        if scratch is None:
            SerialEngine._pass_rd(store, plane, indices, epoch)
            return
        read_values = plane.read_values
        value_rows = scratch.value_rows
        value_lens = scratch.value_lens
        # KC already fetched every surviving record; re-fetching by location
        # here would repeat the dict probe per row.  Heaps that expose a bulk
        # recency refresh take it in one call (same tick order the per-row
        # gets would assign); others re-fetch to keep their touch semantics.
        rd_objs = scratch.rd_objs
        touch_records = getattr(store.heap, "touch_records", None)
        if touch_records is not None:
            touch_records(rd_objs)
        else:
            heap_get = store.heap.get
            rd_objs = [heap_get(loc) for loc in scratch.rd_locs]
        touched = store.heap.touched
        hotpath = plane.hotpath
        if hotpath is not None and hotpath.dups:
            dup_lookup = hotpath.dups.get
            for row, loc, obj in zip(scratch.rd_rows, scratch.rd_locs, rd_objs):
                if obj is None:
                    continue
                # One read answers the whole run; credit its multiplicity.
                obj.record_access(epoch, 1 + len(dup_lookup(row, ())), touched, loc)
                value = obj.value
                read_values[row] = value
                value_rows.append(row)
                value_lens.append(len(value))
            return
        for row, loc, obj in zip(scratch.rd_rows, scratch.rd_locs, rd_objs):
            if obj is None:
                continue
            obj.record_access(epoch, 1, touched, loc)
            value = obj.value
            read_values[row] = value
            value_rows.append(row)
            value_lens.append(len(value))

    # ------------------------------------------------------------------- WR

    def _pass_wr(self, plane: BatchPlane, indices) -> None:
        scratch = plane.scratch
        if scratch is None:
            SerialEngine._pass_wr(plane, indices)
            return
        hotpath = plane.hotpath
        if hotpath is not None:
            hotpath.finish(plane)
        responses = plane.responses
        read_values = plane.read_values
        ok = ResponseStatus.OK
        # Consumers that only read the status/size/value columns (the
        # procshard worker wire path) opt out of per-row Response objects;
        # the columns below are computed either way.
        wants_responses = plane.wants_responses
        if wants_responses:
            for i in plane.set_indices:
                responses[i] = STORED_RESPONSE
        if hotpath is not None and hotpath.prefilled:
            # Hot-path rows (cache-served runs and scattered duplicates)
            # already carry their shared Response; extend the value
            # row/length lists so the status and size columns cover them.
            value_rows = scratch.value_rows
            value_lens = scratch.value_lens
            for rows, value, _resp in hotpath.cache_groups:
                value_rows.extend(rows)
                value_lens.extend([len(value)] * len(rows))
            for rep, dup_rows in hotpath.dups.items():
                value = read_values[rep]
                if value is not None:
                    value_rows.extend(dup_rows)
                    value_lens.extend([len(value)] * len(dup_rows))
            # Every excluded row was prefilled by finish(); only the live
            # subset can still need a Response object.
            if wants_responses:
                get_rows = (
                    hotpath.get_live
                    if hotpath.get_live is not None
                    else plane.get_indices
                )
                for i in get_rows:
                    if responses[i] is None:
                        value = read_values[i]
                        if value is None:
                            responses[i] = NOT_FOUND_RESPONSE
                        else:
                            responses[i] = Response(ok, value)
        elif wants_responses:
            for i in plane.get_indices:
                value = read_values[i]
                if value is None:
                    responses[i] = NOT_FOUND_RESPONSE
                else:
                    responses[i] = Response(ok, value)
        # The raw status-code column mirrors the Response column so the
        # wire framer never needs the objects: NOT_FOUND everywhere, then
        # bulk-corrected per subset (SETs stored, GET hits OK, DELETEs
        # copied from the answers the Delete pass already wrote) — fancy
        # indexing instead of per-row list stores.
        status_col = np.full(plane.size, _NOT_FOUND_CODE, dtype=np.int64)
        if plane.set_indices:
            status_col[plane.set_indices] = _STORED_CODE
        if scratch.value_rows:
            status_col[scratch.value_rows] = _OK_CODE
        # Column-only consumers keep the ndarray (the wire framer casts it
        # for free); Response consumers get the documented plain list.
        statuses = status_col.tolist() if wants_responses else status_col
        for i in plane.delete_indices:
            response = responses[i]
            if response is not None:
                statuses[i] = response.status.value
        plane.response_statuses = statuses
        # The response-size column: header bytes everywhere, plus the value
        # bytes of each GET hit, in one broadcast.
        sizes = np.full(plane.size, _RESPONSE_HEADER_BYTES, dtype=np.int64)
        if scratch.value_rows:
            sizes[np.asarray(scratch.value_rows, dtype=np.intp)] += np.asarray(
                scratch.value_lens, dtype=np.int64
            )
        plane.response_sizes = sizes.tolist() if wants_responses else sizes
