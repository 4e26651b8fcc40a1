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

* **MM / Insert / Delete** — scalar row loops: they write the key
  directory's row columns and walk the cuckoo table's kick chains slot by
  slot, through the table's one slot writer (paper Figure 6: these
  operations do not benefit from batched kernels the way Search does).
  MM places a SET run with one columnar arena append
  (:meth:`~repro.kv.store.KVStore.multi_allocate_columns`: a replace
  keeps its key's row and touches no index slot, a fresh key gets a row
  and a pending Insert), or row by row through
  :meth:`~repro.kv.store.KVStore.allocate` when one item exceeds the heap
  budget, so it fails at its position.  Before MM, the DELETEs that a
  later SET of their key overrides are answered
  (:func:`~repro.engine.plane.answer_overridden_deletes`).
* **Search** — two kernels, one hand-off.  *Scalar*: the walk over the
  rows' specs (:meth:`~repro.kv.store.KVStore.multi_index_search`).
  *Columnar*: the rows' bucket columns, then one gather + compare per
  probe round from the cuckoo table's own ``signatures`` / ``locations``
  arrays — the memory the scalar walk reads too — with the scalar path's
  probe-order short-circuit.  Both leave GET rows with one candidate on
  ``hit_rows`` / ``hit_locs`` and the rare multi-match in
  ``multi_hits``, and account ``IndexStats.searches`` /
  ``search_bucket_reads`` identically.
* **KC / RD** — one row loop each over the hits: key-compare is one
  compare per candidate, against the key's live row resolved after MM
  (which gives fresh keys their rows); RD reads only the rows that passed
  it.  RD copies no value: a read-only slice of each value's log segment
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
    answer_overridden_deletes,
    count_store_ops,
    credit_time,
    drop_pending_inserts,
)
from repro.errors import CapacityError, ConfigurationError
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
        "rd_ids",
    )

    def __init__(self) -> None:
        #: Every row's probe spec, ``(signatures, buckets)`` columns
        #: (:meth:`KVStore.window_specs`).
        self.specs = None
        #: Plane indices whose Search matched exactly one candidate, and
        #: the candidate directory row, aligned.
        self.hit_rows: list[int] = []
        self.hit_locs: list[int] = []
        #: Plane index -> candidate rows, for the rare multi-match.
        self.multi_hits: dict[int, list[int]] = {}
        #: Plane indices of the GET hits that survived key-compare (read
        #: by RD, answered OK by WR), and their directory rows.
        self.rd_rows: list[int] = []
        self.rd_ids: list[int] = []


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
        answer_overridden_deletes(store, plane)
        credit_time(task_times, Task.IN, t0)
        try:
            for phase in plan.phases:
                if phase.kind is PhaseKind.BOUNDARY:
                    continue
                t0 = time.perf_counter() if task_times is not None else 0.0
                self._execute(store, plane, phase, epoch)
                credit_time(task_times, phase.task, t0)
        except CapacityError:
            drop_pending_inserts(store, plane)
            raise
        # KC already listed every GET hit: no per-row count.
        count_store_ops(store, plane, len(scratch.rd_rows))

    def _execute(self, store: KVStore, plane: BatchPlane, phase: PlanPhase, epoch: int) -> None:
        """Run one phase over the rows it applies to (ascending order)."""
        if phase.kind is PhaseKind.INDEX_OP:
            if phase.op is IndexOp.SEARCH:
                self._pass_search(store, plane, plane.search_indices)
            elif phase.op is IndexOp.INSERT:
                self._pass_insert(store, plane, plane.set_indices)
            else:
                self._pass_delete(store, plane, plane.delete_indices)
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
        lists."""
        signatures, buckets = plane.scratch.specs
        rows = np.asarray(rows, dtype=np.intp)
        return signatures[rows].tolist(), buckets[rows].tolist()

    def _pass_mm(self, store: KVStore, plane: BatchPlane, indices) -> None:
        if not indices:
            return
        keys = plane.keys
        values = plane.set_values
        pending = plane.pending_inserts
        specs = plane.scratch.specs
        if len(indices) == len(keys):
            # All-SET batch: the phase covers every row in order, so the
            # plane's own columns go straight through without a gather.
            columns = store.multi_allocate_columns(keys, values, specs)
        else:
            rows = np.asarray(indices, dtype=np.intp)
            specs = (specs[0][rows], specs[1][rows])
            columns = store.multi_allocate_columns(
                [keys[i] for i in indices], [values[i] for i in indices], specs
            )
        if columns is None:
            # An item exceeds the heap budget: place row by row, so it
            # fails at its position with every earlier item placed.
            allocate = store.allocate
            for i in indices:
                row, fresh = allocate(keys[i], values[i])
                if fresh:
                    pending[i] = (keys[i], row)
            return
        # Replaces kept their rows and queue nothing; each key given a
        # live row queues its Insert.
        rows, fresh = columns
        for j in fresh:
            i = indices[j]
            pending[i] = (keys[i], rows[j])

    def _pass_insert(self, store: KVStore, plane: BatchPlane, indices) -> None:
        pending = plane.pending_inserts
        live = store.directory._segment
        entries: list[tuple[bytes, int]] = []
        queued: list[int] = []
        for i in indices:
            entry = pending[i]
            if entry is not None:
                pending[i] = None
                # A later DELETE of the window may have retired the row.
                if live[entry[1]] != EMPTY:
                    entries.append(entry)
                    queued.append(i)
        if entries:
            store.multi_index_insert(entries, self._row_specs(plane, queued))

    @staticmethod
    def _pass_delete(store: KVStore, plane: BatchPlane, indices) -> None:
        keys = plane.keys
        statuses = plane.statuses
        delete = store.delete
        for i in indices:
            # Rows already answered were overridden by a later SET.
            if statuses[i] is None:
                statuses[i] = DELETED_CODE if delete(keys[i]) else NOT_FOUND_CODE

    # --------------------------------------------------------------- search

    def _pass_search(self, store: KVStore, plane: BatchPlane, indices) -> None:
        n = len(indices)
        if not n:
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
        """A candidate passes iff it is its key's live row, resolved now:
        MM has run, and may have given the row to another key."""
        scratch = plane.scratch
        ids_get = store.directory.ids.get
        segment = store.directory._segment
        keys = plane.keys
        rd_rows = scratch.rd_rows
        rd_ids = scratch.rd_ids
        false_positives = 0
        for row, candidate in zip(scratch.hit_rows, scratch.hit_locs):
            if candidate == ids_get(keys[row]) and segment[candidate] != EMPTY:
                rd_rows.append(row)
                rd_ids.append(candidate)
            else:
                false_positives += 1
        for row, candidates in scratch.multi_hits.items():
            own = ids_get(keys[row])
            match = None
            for candidate in candidates:
                if candidate == own and segment[candidate] != EMPTY:
                    match = candidate
                else:
                    false_positives += 1
            if match is not None:
                rd_rows.append(row)
                rd_ids.append(match)
        store.stats.signature_false_positives += false_positives

    # ------------------------------------------------------------------- RD

    @staticmethod
    def _pass_rd(store: KVStore, plane: BatchPlane, epoch: int) -> None:
        scratch = plane.scratch
        read_values = plane.read_values
        for row, value in zip(scratch.rd_rows, store.read_rows(scratch.rd_ids, epoch)):
            read_values[row] = value

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
        for i in plane.scratch.rd_rows:
            statuses[i] = OK_CODE
