"""VectorEngine: NumPy batch kernels where they pay, placed by a cost model.

DIDO places each task on the processor a cost model predicts cheapest for
the profiled workload, because a GPU's efficiency depends on batch size.
This host has the same curve between its two "processors": a **scalar**
kernel (a Python row loop: no fixed cost, microseconds per row) and a
**columnar** kernel (NumPy over the :class:`~repro.engine.plane.BatchPlane`
columns: a fixed cost per call — tens of small-array dispatches, three per
key *byte* for the hash — and a fraction of the per-row cost).  For Search
the two cross inside the window sizes the server sees (columnar loses
40-query windows and wins 1,000-query ones), so each window's Search runs
on the kernel a fitted :class:`~repro.core.profiler.HostCostModel` predicts
cheaper at that window's row count; the pass times the kernel it ran (two
clock reads) and feeds the fit.

The passes, in plan order, and what they hand each other on the plane's
:class:`_VectorScratch`:

* **MM / Insert / Delete** — inherited from
  :class:`~repro.engine.backends.SerialEngine` unchanged: they mutate
  Python heap objects and the authoritative cuckoo slots, which have no
  array form (paper Figure 6: these operations do not benefit from batched
  kernels the way Search does).
* **Search** — two kernels, one hand-off.  *Scalar*: the probe-cache walk
  :class:`SerialEngine` does.
  *Columnar*: the key column hashed in one pass (keys packed into a
  ``uint8`` matrix, 64-bit FNV-1a mixed across byte columns for all
  ``num_hashes + 1`` seeds at once, a scalar fallback for oversized
  keys), then one gather + compare per probe round against the cuckoo
  table's :class:`~repro.kv.hashtable.SignatureMirror`, with the scalar
  path's probe-order short-circuit.  Both leave GET rows with one
  candidate on ``hit_rows`` / ``hit_locs`` and the rare multi-match in
  ``multi_hits``, and account ``IndexStats.searches`` /
  ``search_bucket_reads`` identically.  An index without a mirror (the
  chained-hash alternative) has only the scalar kernel.
* **KC / RD** — one row loop each over the hits: key-compare touches only
  rows with candidates, RD only locations that passed it.
* **WR** — responses are filled per query-type subset (shared singletons
  bulk-assigned), and the batch's status and *response-size* columns are
  filled next to them, so SD framing and server chunking need no
  per-response ``wire_size`` property calls.  One kernel, a row loop: the
  consumer wants Python lists, and NumPy broadcasts plus ``tolist`` were
  measured slower at 40-query windows and no faster at 2,000.

Either Search kernel is byte-identical to
:class:`~repro.engine.reference.ReferenceEngine` with equal store and
index statistics (``tests/test_vector_engine.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.profiler import SCALAR, SEARCH_PASS, HostCostModel
from repro.engine.backends import (
    NOT_FOUND_RESPONSE,
    STORED_RESPONSE,
    SerialEngine,
    count_store_ops,
)
from repro.engine.plane import BatchPlane
from repro.kv.hashtable import EMPTY
from repro.kv.objects import _FNV_OFFSET, _FNV_PRIME, fnv1a64
from repro.kv.protocol import QueryType, Response, ResponseStatus
from repro.kv.store import KVStore
from repro.telemetry import get_telemetry

#: Keys longer than this take the scalar FNV path (the padded matrix would
#: waste cache on a few giants; production keys are tens of bytes).
MAX_VECTOR_KEY_BYTES = 128

#: Wire bytes of a value-less response (status byte + length word).
_RESPONSE_HEADER_BYTES = Response(ResponseStatus.STORED).wire_size

#: Raw wire status codes for the bulk-assigned response subsets.
_OK_CODE = ResponseStatus.OK.value
_NOT_FOUND_CODE = ResponseStatus.NOT_FOUND.value
_STORED_CODE = ResponseStatus.STORED.value

#: ``repro_cost_model_error`` buckets (a ratio, not microseconds).
_MODEL_ERROR_BUCKETS = (0.05, 0.1, 0.2, 0.35, 0.5, 1.0, 2.0)

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
    """Whole-batch execution; Search on the kernel the host cost model picks."""

    name = "vector"

    def __init__(self) -> None:
        #: Fitted kernel costs, fed by this engine's Search timer and asked
        #: for each window's placement.  ``DidoSystem`` swaps in its
        #: profiler's model so the controller audits the same fits; a
        #: standalone engine (a procshard worker's) fits its own windows.
        self.costs = HostCostModel()

    def run(
        self,
        store: KVStore,
        plan,
        plane: BatchPlane,
        *,
        epoch: int = 0,
        task_times=None,
    ) -> dict[str, int]:
        index = store.index
        if hasattr(index, "ensure_mirror"):
            index.ensure_mirror()
        plane.scratch = _VectorScratch()
        return super().run(store, plan, plane, epoch=epoch, task_times=task_times)

    def _count_store_ops(self, store: KVStore, plane: BatchPlane) -> None:
        # The RD/WR passes already listed every GET hit: no per-row work.
        count_store_ops(store, plane, len(plane.scratch.value_rows))

    # --------------------------------------------------------------- search

    def _pass_search(self, store: KVStore, plane: BatchPlane, indices) -> None:
        n = len(indices)
        if not n:
            return
        if getattr(store.index, "mirror", None) is None:
            # Nothing to gather from: the probe-cache walk is the only
            # Search kernel this index has, so there is nothing to place.
            self._search_scalar(store, plane, indices)
            return
        costs = self.costs
        kernel = costs.choose(SEARCH_PASS, n)
        t0 = time.perf_counter()
        if kernel == SCALAR:
            self._search_scalar(store, plane, indices)
        else:
            self._search_columnar(store, plane, indices)
        elapsed_us = (time.perf_counter() - t0) * 1e6
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.counter(
                "repro_pass_kernel_total",
                help="Windows each placed engine pass ran, by the kernel it ran on",
            ).inc(**{"pass": SEARCH_PASS, "kernel": kernel})
            error = costs.relative_error(SEARCH_PASS, kernel, n, elapsed_us)
            if error is not None:
                telemetry.registry.histogram(
                    "repro_cost_model_error",
                    buckets=_MODEL_ERROR_BUCKETS,
                    help="|predicted - measured| / measured pass time per window",
                ).observe(error, **{"pass": SEARCH_PASS})
        costs.observe(SEARCH_PASS, kernel, n, elapsed_us)

    @staticmethod
    def _search_scalar(store: KVStore, plane: BatchPlane, indices) -> None:
        """The scalar Search kernel: :meth:`SerialEngine._pass_search`'s
        probe-cache walk (:meth:`KVStore.multi_index_search`, which
        accounts ``IndexStats`` itself), with the candidates left where
        the columnar kernel leaves them.  DELETE rows are probed (the
        Search op covers them) and dropped — the Delete pass answers them.
        """
        scratch = plane.scratch
        keys = plane.keys
        qtypes = plane.qtypes
        get_type = QueryType.GET
        hit_rows = scratch.hit_rows
        hit_locs = scratch.hit_locs
        found = store.multi_index_search([keys[i] for i in indices])
        for i, candidates in zip(indices, found):
            if candidates and qtypes[i] is get_type:
                if len(candidates) == 1:
                    hit_rows.append(i)
                    hit_locs.append(candidates[0])
                else:
                    scratch.multi_hits[i] = candidates

    @staticmethod
    def _search_columnar(store: KVStore, plane: BatchPlane, indices) -> None:
        """The columnar Search kernel: hash the key column, then one mirror
        gather + signature compare per probe round."""
        scratch = plane.scratch
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
        for row, loc, obj in zip(scratch.rd_rows, scratch.rd_locs, rd_objs):
            if obj is None:
                continue
            obj.record_access(epoch, touched, loc)
            value = obj.value
            read_values[row] = value
            value_rows.append(row)
            value_lens.append(len(value))

    # ------------------------------------------------------------------- WR

    def _pass_wr(self, plane: BatchPlane, indices) -> None:
        scratch = plane.scratch
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
            for i in plane.get_indices:
                value = read_values[i]
                if value is None:
                    responses[i] = NOT_FOUND_RESPONSE
                else:
                    responses[i] = Response(ok, value)
        # The raw status-code and wire-size columns mirror the Response
        # column so the wire framer never needs the objects: NOT_FOUND and
        # a bare header everywhere, then SETs stored, GET hits OK plus
        # their value bytes, DELETEs copied from the answers the Delete
        # pass already wrote.  Filled per row: Response consumers want
        # plain lists, and in the serve loop the fill costs a third of
        # NumPy broadcasts plus ``tolist`` at 40-query windows and no more
        # at 2,000-query ones.
        size = plane.size
        statuses = [_NOT_FOUND_CODE] * size
        sizes = [_RESPONSE_HEADER_BYTES] * size
        for i in plane.set_indices:
            statuses[i] = _STORED_CODE
        for i, value_len in zip(scratch.value_rows, scratch.value_lens):
            statuses[i] = _OK_CODE
            sizes[i] = _RESPONSE_HEADER_BYTES + value_len
        for i in plane.delete_indices:
            response = responses[i]
            if response is not None:
                statuses[i] = response.status.value
        if not wants_responses:
            # Column-only consumers get ndarrays (the wire framer casts
            # them for free).
            statuses = np.array(statuses, dtype=np.int64)
            sizes = np.array(sizes, dtype=np.int64)
        plane.response_statuses = statuses
        plane.response_sizes = sizes
