"""VectorEngine: NumPy batch kernels where they pay, placed by a cost model.

DIDO places each task on the processor a cost model predicts cheapest for
the profiled workload, because a GPU's efficiency depends on batch size.
This host has the same curve between its two "processors": a **scalar**
kernel (a Python row loop: no fixed cost, microseconds per row) and a
**columnar** kernel (NumPy over the :class:`~repro.engine.plane.BatchPlane`
columns: a fixed cost per call — tens of small-array dispatches — and a
fraction of the per-row cost).  For Search the two cross inside the window
sizes the server sees (columnar loses the smallest windows and wins
1,000-query ones), so each window's Search runs
on the kernel a fitted :class:`~repro.core.profiler.HostCostModel` predicts
cheaper at that window's row count; the pass times the kernel it ran (two
clock reads) and feeds the fit.

This is the one batch engine: ``run`` walks the compiled
:class:`~repro.engine.plan.StagePlan` and applies each phase to every row
it covers before the next phase starts, exactly as Mega-KV's staged
kernels do.  Before the first phase it resolves every row's probe spec
once (:meth:`~repro.kv.store.KVStore.window_specs`, credited to IN): keys
holding a row of the store's key directory gather theirs from its columns,
and the rest — fresh SETs and misses — are hashed together in one columnar
pass, so no pass below hashes a key.  The passes, in plan order, and what they hand
each other on the plane's :class:`_VectorScratch`:

* **MM / Insert / Delete** — scalar row loops: they mutate Python heap
  objects and walk the cuckoo table's kick chains slot by slot, through
  the table's one slot writer (paper Figure 6: these operations do not
  benefit from batched kernels the way Search does).  MM places a SET
  run with one columnar arena append
  (:meth:`~repro.kv.store.KVStore.multi_allocate_columns`, which detects
  replaces from the directory's ``location`` column and gives fresh keys
  their rows), or row by row through
  :meth:`~repro.kv.store.KVStore.allocate` on a heap without a bulk
  allocator or when one item exceeds the heap budget.
* **Search** — two kernels, one hand-off.  *Scalar*: the walk over the
  rows' specs (:meth:`~repro.kv.store.KVStore.multi_index_search`).
  *Columnar*: the rows' bucket columns, then one gather + compare per
  probe round from the cuckoo table's own ``signatures`` / ``locations``
  arrays — the memory the scalar walk reads too — with the scalar path's
  probe-order short-circuit.  Both leave GET rows with one candidate on
  ``hit_rows`` / ``hit_locs`` and the rare multi-match in
  ``multi_hits``, and account ``IndexStats.searches`` /
  ``search_bucket_reads`` identically.  An index without slot arrays (the
  chained-hash alternative) has only the scalar kernel.
* **KC / RD** — one row loop each over the hits: key-compare touches only
  rows with candidates, RD only locations that passed it.  RD copies no
  value: each record's ``view`` (a read-only slice of its log segment)
  goes in ``read_values``, and the framer's one join copies it.
* **WR** — the status-code column filled per query-type subset, next to
  the ``read_values`` column RD filled; the wire framer reads those two
  columns.  One kernel, a row loop: the consumer wants Python lists, and
  NumPy broadcasts plus ``tolist`` were measured slower at 40-query
  windows and no faster at 2,000.

Either Search kernel is byte-identical to
:class:`~repro.engine.reference.ReferenceEngine` with equal store and
index statistics (``tests/test_vector_engine.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.profiler import SCALAR, SEARCH_PASS, HostCostModel
from repro.core.tasks import IndexOp, Task
from repro.engine.plan import PhaseKind, PlanPhase, StagePlan
from repro.engine.plane import (
    DELETED_CODE,
    NOT_FOUND_CODE,
    OK_CODE,
    STORED_CODE,
    BatchPlane,
    count_store_ops,
    credit_time,
)
from repro.errors import ConfigurationError
from repro.kv.hashtable import EMPTY
from repro.kv.protocol import QueryType
from repro.kv.store import KVStore
from repro.telemetry import get_telemetry

#: ``repro_cost_model_error`` buckets (a ratio, not microseconds).
_MODEL_ERROR_BUCKETS = (0.05, 0.1, 0.2, 0.35, 0.5, 1.0, 2.0)


class _VectorScratch:
    """Per-batch columnar state the vector passes hand to each other."""

    __slots__ = (
        "specs",
        "hit_rows",
        "hit_locs",
        "multi_hits",
        "rd_rows",
        "rd_locs",
        "rd_objs",
        "value_rows",
    )

    def __init__(self) -> None:
        #: Every row's probe spec, ``(signatures, buckets)`` columns
        #: (:meth:`KVStore.window_specs`); ``None`` on an index without specs.
        self.specs = None
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
        #: Plane indices of GET hits, answered OK by WR.
        self.value_rows: list[int] = []


class VectorEngine:
    """Whole-batch execution, one pass per phase; Search on the kernel the
    host cost model picks."""

    name = "vector"

    def __init__(self) -> None:
        #: Fitted kernel costs, fed by this engine's Search timer and asked
        #: for each window's placement.  ``DidoSystem`` swaps in its
        #: profiler's model so the controller audits the same fits; a
        #: standalone engine fits its own windows.
        self.costs = HostCostModel()

    def run(
        self,
        store: KVStore,
        plan: StagePlan,
        plane: BatchPlane,
        *,
        epoch: int = 0,
        task_times: dict[Task, float] | None = None,
    ) -> None:
        """Execute every non-boundary phase, crediting each task's time to
        ``task_times`` when given."""
        plane.scratch = scratch = _VectorScratch()
        # Every row's spec resolved once, ahead of every pass that probes
        # it; an IN cost, like the hashing it replaces.
        t0 = time.perf_counter() if task_times is not None else 0.0
        scratch.specs = store.window_specs(plane.keys)
        credit_time(task_times, Task.IN, t0)
        for phase in plan.phases:
            if phase.kind is PhaseKind.BOUNDARY:
                continue
            t0 = time.perf_counter() if task_times is not None else 0.0
            self._execute(store, plane, phase, epoch)
            credit_time(task_times, phase.task, t0)
        # The RD pass already listed every GET hit: no per-row count.
        count_store_ops(store, plane, len(plane.scratch.value_rows))

    def _execute(self, store: KVStore, plane: BatchPlane, phase: PlanPhase, epoch: int) -> None:
        """Run one phase over the rows it applies to (ascending order)."""
        if phase.kind is PhaseKind.INDEX_OP:
            if phase.op is IndexOp.SEARCH:
                self._pass_search(store, plane, plane.search_indices)
            elif phase.op is IndexOp.INSERT:
                self._pass_insert(store, plane, plane.set_indices)
            else:
                self._pass_delete(store, plane, plane.mutation_indices)
        elif phase.task is Task.MM:
            self._pass_mm(store, plane, plane.set_indices)
        elif phase.task is Task.KC:
            self._pass_kc(store, plane)
        elif phase.task is Task.RD:
            self._pass_rd(store, plane, epoch)
        elif phase.task is Task.WR:
            self._pass_wr(plane)
        else:
            raise ConfigurationError(f"phase {phase.label} is not executable")

    # ------------------------------------------------------------ MM / IN

    @staticmethod
    def _row_specs(plane: BatchPlane, rows):
        """The probe specs of plane ``rows`` as ``(signatures, buckets)``
        lists, or ``None`` on an index without specs."""
        specs = plane.scratch.specs
        if specs is None:
            return None
        signatures, buckets = specs
        rows = np.asarray(rows, dtype=np.intp)
        return signatures[rows].tolist(), buckets[rows].tolist()

    @staticmethod
    def _displaced(plane: BatchPlane, index: int, key: bytes, location: int | None) -> None:
        """Record index cleanup for an object displaced by query ``index``.

        If the displaced version was itself SET earlier in this batch, its
        Insert has not executed yet — cancel it instead of queueing a
        Delete for an entry that will never exist.
        """
        earlier = plane.batch_inserts.pop(key, None)
        if earlier is not None and plane.pending_inserts[earlier] is not None:
            plane.pending_inserts[earlier] = None
        else:
            deletes = plane.pending_deletes[index]
            if deletes is None:
                deletes = plane.pending_deletes[index] = []
            deletes.append((key, location))

    def _pass_mm(self, store: KVStore, plane: BatchPlane, indices) -> None:
        if not indices:
            return
        keys = plane.keys
        values = plane.set_values
        locations = plane.locations
        pending = plane.pending_inserts
        batch_inserts = plane.batch_inserts
        displaced = self._displaced
        specs = plane.scratch.specs
        if len(indices) == len(keys):
            # All-SET batch: the phase covers every row in order, so the
            # plane's own columns go straight through without a gather.
            columns = store.multi_allocate_columns(keys, values, specs)
        else:
            if specs is not None:
                rows = np.asarray(indices, dtype=np.intp)
                specs = (specs[0][rows], specs[1][rows])
            columns = store.multi_allocate_columns(
                [keys[i] for i in indices], [values[i] for i in indices], specs
            )
        if columns is None:
            # No bulk allocator (the slab oracle), or an item exceeds the
            # heap budget: place row by row, so an oversized item fails at
            # its position with every earlier item placed.
            allocate = store.allocate
            for i in indices:
                key = keys[i]
                outcome = allocate(key, values[i])
                locations[i] = outcome.location
                pending[i] = (key, outcome.location)
                if outcome.replaced is not None:
                    displaced(plane, i, key, outcome.replaced_location)
                if outcome.evicted is not None:
                    displaced(plane, i, outcome.evicted.key, outcome.evicted_location)
                batch_inserts[key] = i
            return
        # One arena append for the run, replace locations as a parallel
        # column, no eviction outcomes to unpack.  Settled items had their
        # Insert+Delete pair applied in place at MM time, so they queue no
        # pending index work (and need no batch_inserts entry — there is no
        # pending Insert a later displacement would have to cancel).
        new_locations, replaced, settled = columns
        for i, location, old_location, done in zip(
            indices, new_locations, replaced, settled
        ):
            key = keys[i]
            locations[i] = location
            if done:
                pending[i] = None
                continue
            pending[i] = (key, location)
            if old_location is not None:
                displaced(plane, i, key, old_location)
            batch_inserts[key] = i

    def _pass_insert(self, store: KVStore, plane: BatchPlane, indices) -> None:
        pending = plane.pending_inserts
        entries: list[tuple[bytes, int]] = []
        live: list[int] = []
        for i in indices:
            entry = pending[i]
            if entry is not None:
                entries.append(entry)
                live.append(i)
        if entries:
            store.multi_index_insert(entries, self._row_specs(plane, live))
            for i in live:
                pending[i] = None

    @staticmethod
    def _pass_delete(store: KVStore, plane: BatchPlane, indices) -> None:
        qtypes = plane.qtypes
        keys = plane.keys
        statuses = plane.statuses
        pending_deletes = plane.pending_deletes
        batch_inserts = plane.batch_inserts
        pending_inserts = plane.pending_inserts
        delete = store.delete
        delete_qtype = QueryType.DELETE
        for i in indices:
            if qtypes[i] is delete_qtype:
                # Cancel any not-yet-executed Insert for this key from
                # earlier in the batch (its entry must never appear).
                earlier = batch_inserts.pop(keys[i], None)
                if earlier is not None:
                    pending_inserts[earlier] = None
                removed = delete(keys[i])
                statuses[i] = DELETED_CODE if removed else NOT_FOUND_CODE
            else:
                stale = pending_deletes[i]
                if stale:
                    store.multi_index_delete(stale)
                    pending_deletes[i] = None

    # --------------------------------------------------------------- search

    def _pass_search(self, store: KVStore, plane: BatchPlane, indices) -> None:
        n = len(indices)
        if not n:
            return
        if getattr(store.index, "signatures", None) is None:
            # No slot arrays to gather from (the chained table): the
            # scalar walk is its only Search kernel, so nothing to place.
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

    def _search_scalar(self, store: KVStore, plane: BatchPlane, indices) -> None:
        """The scalar Search kernel: the walk over the rows' probe specs
        (:meth:`KVStore.multi_index_search`, which accounts ``IndexStats``
        itself), with the candidates left where the columnar kernel leaves
        them.  DELETE rows are probed (the
        Search op covers them) and dropped — the Delete pass answers them.
        """
        scratch = plane.scratch
        keys = plane.keys
        qtypes = plane.qtypes
        get_type = QueryType.GET
        hit_rows = scratch.hit_rows
        hit_locs = scratch.hit_locs
        found = store.multi_index_search(
            [keys[i] for i in indices], self._row_specs(plane, indices)
        )
        for i, candidates in zip(indices, found):
            if candidates and qtypes[i] is get_type:
                if len(candidates) == 1:
                    hit_rows.append(i)
                    hit_locs.append(candidates[0])
                else:
                    scratch.multi_hits[i] = candidates

    @staticmethod
    def _search_columnar(store: KVStore, plane: BatchPlane, indices) -> None:
        """The columnar Search kernel: the rows' specs gathered from the
        window's columns, then one slot array gather + signature compare
        per probe round."""
        scratch = plane.scratch
        index = store.index
        num_hashes = index.num_hashes
        plane_rows = np.asarray(indices, dtype=np.intp)
        window_signatures, window_buckets = scratch.specs
        signatures = window_signatures[plane_rows]
        row_buckets = window_buckets[plane_rows]
        n = len(indices)
        remaining = np.arange(n, dtype=np.intp)
        reads = np.full(n, num_hashes, dtype=np.int64)
        hit_rows = scratch.hit_rows
        hit_locs = scratch.hit_locs
        # One boolean mask over the wire opcode column keeps the GET rows.
        get_mask = plane.opcodes == 1
        # One round per candidate bucket; once any insert has kicked, rows
        # they all miss get one more round over the buckets' displaced twins.
        slots = index.slots_per_bucket
        for probe in range(num_hashes + index.kicked):
            if remaining.size == 0:
                break
            if probe < num_hashes:
                buckets = row_buckets[remaining, probe]
            else:
                buckets = index.displaced_bucket_columns(
                    signatures[remaining], row_buckets[remaining]
                )
                reads[remaining] = 2 * num_hashes
            sig_slots = index.signatures[buckets].reshape(remaining.size, -1)
            loc_slots = index.locations[buckets].reshape(remaining.size, -1)
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
                single_rows = resolved_planes[single]
                keep = get_mask[single_rows]
                hit_rows.extend(single_rows[keep].tolist())
                hit_locs.extend(first_locs[single][keep].tolist())
                for li in np.nonzero(~single)[0].tolist():
                    row = int(resolved_planes[li])
                    if get_mask[row]:
                        locs = loc_slots[local[li]][match[local[li]]].tolist()
                        scratch.multi_hits[row] = locs
                remaining = remaining[~matched]
        stats = index.stats
        stats.searches += n
        stats.search_bucket_reads += int(reads.sum())

    # ------------------------------------------------------------------- KC

    @staticmethod
    def _pass_kc(store: KVStore, plane: BatchPlane) -> None:
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

    @staticmethod
    def _pass_rd(store: KVStore, plane: BatchPlane, epoch: int) -> None:
        scratch = plane.scratch
        read_values = plane.read_values
        value_rows = scratch.value_rows
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
            read_values[row] = obj.view
            value_rows.append(row)

    # ------------------------------------------------------------------- WR

    @staticmethod
    def _pass_wr(plane: BatchPlane) -> None:
        # DELETE rows were answered by the Delete pass; GET rows start
        # NOT_FOUND and the hits RD listed turn OK.
        statuses = plane.statuses
        for i in plane.set_indices:
            statuses[i] = STORED_CODE
        for i in plane.get_indices:
            statuses[i] = NOT_FOUND_CODE
        for i in plane.scratch.value_rows:
            statuses[i] = OK_CODE
