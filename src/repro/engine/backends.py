"""Engine backends: whole-batch columnar execution of a compiled StagePlan.

An engine takes a :class:`~repro.engine.plan.StagePlan` and a
:class:`~repro.engine.plane.BatchPlane` and runs each compiled phase as one
bulk pass over the store — :meth:`~repro.kv.store.KVStore.multi_index_search`,
:meth:`~repro.kv.store.KVStore.multi_key_compare` and friends — instead of
one Python call per query per phase.  Batch semantics match GPU batch
processing: a phase is applied to every applicable query before the next
phase starts, exactly as in Mega-KV's staged kernels.

Two backends:

* :class:`SerialEngine` — each phase is one pass over the phase's
  applicable index subset, in query order;
* :class:`StealingEngine` — phases of a GPU stage (when the config enables
  work stealing) are split into wavefront-sized claim sets through the
  :class:`~repro.core.work_stealing.TagArray`: a "gpu" owner claims sets
  from the head and a "cpu" helper steals from the tail, demonstrating the
  exactly-once claim discipline functionally.  Chunking happens *within* a
  phase — every claim set of one phase completes before the next phase
  starts — so stealing cannot reorder passes and results are identical to
  the unstolen execution.

A third backend, :class:`~repro.engine.reference.ReferenceEngine`,
preserves the pre-engine per-query execution path for equivalence testing
and as the benchmark baseline.
"""

from __future__ import annotations

import time

from repro.core.tasks import IndexOp, Task
from repro.core.work_stealing import TagArray
from repro.engine.plan import PhaseKind, PlanPhase, StagePlan
from repro.engine.plane import BatchPlane, indices_between
from repro.errors import ConfigurationError
from repro.hardware.specs import ProcessorKind
from repro.kv.protocol import QueryType, Response, ResponseStatus
from repro.kv.store import KVStore

#: Shared immutable response singletons for the value-less statuses; GET
#: hits still allocate (they carry the value).  Nothing in the pipeline or
#: the wire encoder mutates responses, so sharing is safe and saves one
#: object construction per SET/DELETE/miss.
STORED_RESPONSE = Response(ResponseStatus.STORED)
DELETED_RESPONSE = Response(ResponseStatus.DELETED)
NOT_FOUND_RESPONSE = Response(ResponseStatus.NOT_FOUND)


def _credit(task_times: dict[Task, float] | None, task: Task, t0: float) -> None:
    """Add the elapsed time since ``t0`` to ``task``'s running total."""
    if task_times is not None:
        elapsed_us = (time.perf_counter() - t0) * 1e6
        task_times[task] = task_times.get(task, 0.0) + elapsed_us


def count_store_ops(store: KVStore, plane: BatchPlane, get_hits: int | None = None) -> None:
    """Add a finished batch's GET/SET counts to ``store.stats``, once.

    DELETEs are not counted here: the Delete pass answers them through
    :meth:`KVStore.delete`, which counts ``deletes``/``delete_hits`` itself.
    ``get_hits`` may be passed by an engine that already knows it (the
    vector engine does); the per-row engines read it off the batch's value
    column.
    """
    get_rows = plane.get_indices
    if get_hits is None:
        read_values = plane.read_values
        get_hits = sum(1 for i in get_rows if read_values[i] is not None)
    stats = store.stats
    stats.gets += len(get_rows)
    stats.get_hits += get_hits
    stats.sets += len(plane.set_indices)


class SerialEngine:
    """Whole-batch columnar execution, one pass per phase."""

    name = "serial"

    # ------------------------------------------------------------------ run

    def run(
        self,
        store: KVStore,
        plan: StagePlan,
        plane: BatchPlane,
        *,
        epoch: int = 0,
        task_times: dict[Task, float] | None = None,
    ) -> dict[str, int]:
        """Execute every non-boundary phase; returns steal-claim counts."""
        for phase in plan.phases:
            if phase.kind is PhaseKind.BOUNDARY:
                continue
            t0 = time.perf_counter() if task_times is not None else 0.0
            self._execute(store, plane, phase, self.phase_indices(plane, phase), epoch)
            _credit(task_times, phase.task, t0)
        self._count_store_ops(store, plane)
        return {}

    def _count_store_ops(self, store: KVStore, plane: BatchPlane) -> None:
        count_store_ops(store, plane)

    # ----------------------------------------------------------- dispatch

    @staticmethod
    def phase_indices(plane: BatchPlane, phase: PlanPhase):
        """The query indices a phase applies to (sorted ascending)."""
        if phase.kind is PhaseKind.INDEX_OP:
            if phase.op is IndexOp.SEARCH:
                return plane.search_indices
            if phase.op is IndexOp.INSERT:
                return plane.set_indices
            return plane.mutation_indices
        task = phase.task
        if task is Task.MM:
            return plane.set_indices
        if task in (Task.KC, Task.RD):
            return plane.get_indices
        if task is Task.WR:
            return plane.all_indices
        raise ConfigurationError(f"phase {phase.label} is not executable")

    def _execute(self, store, plane, phase: PlanPhase, indices, epoch: int) -> None:
        if phase.kind is PhaseKind.INDEX_OP:
            if phase.op is IndexOp.SEARCH:
                self._pass_search(store, plane, indices)
            elif phase.op is IndexOp.INSERT:
                self._pass_insert(store, plane, indices)
            else:
                self._pass_delete(store, plane, indices)
        elif phase.task is Task.MM:
            self._pass_mm(store, plane, indices)
        elif phase.task is Task.KC:
            self._pass_kc(store, plane, indices)
        elif phase.task is Task.RD:
            self._pass_rd(store, plane, indices, epoch)
        else:
            self._pass_wr(plane, indices)

    # --------------------------------------------------------------- passes

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
        mm_columns = getattr(store, "multi_allocate_columns", None)
        if mm_columns is None:
            columns = None
        elif len(indices) == len(keys):
            # All-SET batch: the phase covers every row in order, so the
            # plane's own columns go straight through without a gather.
            columns = mm_columns(keys, values)
        else:
            columns = mm_columns(
                [keys[i] for i in indices], [values[i] for i in indices]
            )
        if columns is not None:
            # Columnar fast path (bulk-alloc heaps): one arena append for
            # the run, replace locations as a parallel column, no eviction
            # outcomes to unpack.  Settled items had their Insert+Delete
            # pair applied in place at MM time, so they queue no pending
            # index work (and need no batch_inserts entry — there is no
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
            return
        outcomes = store.multi_allocate([(keys[i], values[i]) for i in indices])
        for i, outcome in zip(indices, outcomes):
            key = keys[i]
            locations[i] = outcome.location
            pending[i] = (key, outcome.location)
            if outcome.replaced is not None:
                displaced(plane, i, key, outcome.replaced_location)
            if outcome.evicted is not None:
                displaced(plane, i, outcome.evicted.key, outcome.evicted_location)
            batch_inserts[key] = i

    @staticmethod
    def _pass_search(store: KVStore, plane: BatchPlane, indices) -> None:
        if not indices:
            return
        keys = plane.keys
        found = store.multi_index_search([keys[i] for i in indices])
        candidates = plane.candidates
        for i, candidate_list in zip(indices, found):
            candidates[i] = candidate_list

    @staticmethod
    def _pass_insert(store: KVStore, plane: BatchPlane, indices) -> None:
        pending = plane.pending_inserts
        entries: list[tuple[bytes, int]] = []
        live: list[int] = []
        for i in indices:
            entry = pending[i]
            if entry is not None:
                entries.append(entry)
                live.append(i)
        if entries:
            store.multi_index_insert(entries)
            for i in live:
                pending[i] = None

    @staticmethod
    def _pass_delete(store: KVStore, plane: BatchPlane, indices) -> None:
        qtypes = plane.qtypes
        keys = plane.keys
        responses = plane.responses
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
                responses[i] = DELETED_RESPONSE if removed else NOT_FOUND_RESPONSE
            else:
                stale = pending_deletes[i]
                if stale:
                    store.multi_index_delete(stale)
                    pending_deletes[i] = None

    @staticmethod
    def _pass_kc(store: KVStore, plane: BatchPlane, indices) -> None:
        if not indices:
            return
        keys = plane.keys
        candidates = plane.candidates
        matches = store.multi_key_compare(
            [keys[i] for i in indices], [candidates[i] for i in indices]
        )
        locations = plane.locations
        for i, location in zip(indices, matches):
            locations[i] = location

    @staticmethod
    def _pass_rd(store: KVStore, plane: BatchPlane, indices, epoch: int) -> None:
        if not indices:
            return
        locations = plane.locations
        values = store.multi_read_value([locations[i] for i in indices], epoch=epoch)
        read_values = plane.read_values
        for i, value in zip(indices, values):
            read_values[i] = value

    @staticmethod
    def _pass_wr(plane: BatchPlane, indices) -> None:
        qtypes = plane.qtypes
        responses = plane.responses
        read_values = plane.read_values
        get_qtype, set_qtype = QueryType.GET, QueryType.SET
        ok = ResponseStatus.OK
        for i in indices:
            if responses[i] is not None:
                continue  # the Delete pass already answered a DELETE
            qtype = qtypes[i]
            if qtype is get_qtype:
                value = read_values[i]
                if value is None:
                    responses[i] = NOT_FOUND_RESPONSE
                else:
                    responses[i] = Response(ok, value)
            elif qtype is set_qtype:
                responses[i] = STORED_RESPONSE
            else:
                responses[i] = NOT_FOUND_RESPONSE


class StealingEngine(SerialEngine):
    """Dual-executor engine: GPU-stage phases split via the TagArray.

    The GPU-eligible span of a stage is executed by two logical executors
    ("gpu" owner claiming sets from the head, "cpu" helper from the tail)
    through the :class:`~repro.core.work_stealing.TagArray`'s exactly-once
    claim discipline.  Non-GPU stages (and everything when stealing is off)
    fall back to the serial passes.
    """

    name = "stealing"

    def run(
        self,
        store: KVStore,
        plan: StagePlan,
        plane: BatchPlane,
        *,
        epoch: int = 0,
        task_times: dict[Task, float] | None = None,
    ) -> dict[str, int]:
        claims: dict[str, int] = {}
        config = plan.config
        for stage_index, stage in enumerate(config.stages):
            steal = (
                config.work_stealing
                and stage.processor is ProcessorKind.GPU
                and plane.size > 0
            )
            for phase in plan.stage_phases(stage_index):
                if phase.kind is PhaseKind.BOUNDARY:
                    continue
                indices = self.phase_indices(plane, phase)
                t0 = time.perf_counter() if task_times is not None else 0.0
                if steal:
                    self._run_phase_stolen(store, plane, phase, indices, epoch, claims)
                else:
                    self._execute(store, plane, phase, indices, epoch)
                _credit(task_times, phase.task, t0)
        self._count_store_ops(store, plane)
        return claims

    def _run_phase_stolen(
        self, store, plane, phase: PlanPhase, indices, epoch: int, claims: dict[str, int]
    ) -> None:
        """Split one phase's queries between owner and helper via tags.

        Deterministic interleave: the owner takes two sets for each one the
        helper steals (a stand-in for the runtime race; correctness does
        not depend on the split).
        """
        tags = TagArray(plane.size)
        turn = 0
        while True:
            if turn % 3 == 2:
                claimed = tags.claim_next("cpu", reverse=True)
                owner = "cpu"
            else:
                claimed = tags.claim_next("gpu")
                owner = "gpu"
            if claimed is None:
                break
            claims[owner] = claims.get(owner, 0) + 1
            chunk = indices_between(indices, claimed.start, claimed.stop)
            if chunk:
                self._execute(store, plane, phase, chunk, epoch)
            turn += 1
