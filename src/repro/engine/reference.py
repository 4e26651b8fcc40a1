"""ReferenceEngine: the pre-engine per-query execution path.

Before the batch-columnar engine existed, the functional pipeline executed
one Python method call per query per phase.  This backend preserves that
path exactly — same store-call sequence, same bookkeeping — but driven by
the same compiled :class:`~repro.engine.plan.StagePlan`, so stage semantics
still live in exactly one module.  It serves two purposes:

* **ground truth** for the engine-equivalence property tests: every legal
  configuration must produce byte-identical response frames through the
  columnar engines and through this per-query path;
* **verifier** for ``benchmarks/serving``, which replays every run's
  traffic through this path and requires the served bytes to match.
"""

from __future__ import annotations

import time

from repro.core.tasks import IndexOp, Task
from repro.core.work_stealing import TagArray
from repro.engine.backends import (
    DELETED_RESPONSE,
    NOT_FOUND_RESPONSE,
    STORED_RESPONSE,
    _credit,
    count_store_ops,
)
from repro.engine.plan import PhaseKind, PlanPhase, StagePlan
from repro.engine.plane import BatchPlane
from repro.hardware.specs import ProcessorKind
from repro.kv.protocol import QueryType, Response, ResponseStatus
from repro.kv.store import KVStore


class ReferenceEngine:
    """Per-query scalar execution of a StagePlan (one call per query)."""

    name = "reference"

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
                step = self._step_for(phase)
                t0 = time.perf_counter() if task_times is not None else 0.0
                if steal:
                    self._run_phase_stolen(store, plane, step, claims, epoch)
                else:
                    for i in range(plane.size):
                        step(store, plane, i, epoch)
                _credit(task_times, phase.task, t0)
        count_store_ops(store, plane)
        return claims

    def _run_phase_stolen(self, store, plane, step, claims, epoch) -> None:
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
            for i in claimed:
                step(store, plane, i, epoch)
            turn += 1

    # ------------------------------------------------------- per-query steps

    def _step_for(self, phase: PlanPhase):
        if phase.kind is PhaseKind.INDEX_OP:
            return {
                IndexOp.SEARCH: self._op_search,
                IndexOp.INSERT: self._op_insert,
                IndexOp.DELETE: self._op_delete,
            }[phase.op]
        return {
            Task.MM: self._task_mm,
            Task.KC: self._task_kc,
            Task.RD: self._task_rd,
            Task.WR: self._task_wr,
        }[phase.task]

    @staticmethod
    def _displaced(plane: BatchPlane, index: int, key: bytes, location: int | None) -> None:
        earlier = plane.batch_inserts.pop(key, None)
        if earlier is not None and plane.pending_inserts[earlier] is not None:
            plane.pending_inserts[earlier] = None
        else:
            deletes = plane.pending_deletes[index]
            if deletes is None:
                deletes = plane.pending_deletes[index] = []
            deletes.append((key, location))

    def _task_mm(self, store, plane, i, epoch) -> None:
        if plane.qtypes[i] is not QueryType.SET:
            return
        key = plane.keys[i]
        outcome = store.allocate(key, plane.set_values[i])
        plane.locations[i] = outcome.location
        plane.pending_inserts[i] = (key, outcome.location)
        if outcome.replaced is not None:
            self._displaced(plane, i, key, outcome.replaced_location)
        if outcome.evicted is not None:
            self._displaced(plane, i, outcome.evicted.key, outcome.evicted_location)
        plane.batch_inserts[key] = i

    @staticmethod
    def _op_search(store, plane, i, epoch) -> None:
        if plane.qtypes[i] is not QueryType.SET:
            plane.candidates[i] = store.index_search(plane.keys[i])

    @staticmethod
    def _op_insert(store, plane, i, epoch) -> None:
        entry = plane.pending_inserts[i]
        if entry is None:
            return
        key, location = entry
        store.index_insert(key, location)
        plane.pending_inserts[i] = None

    @staticmethod
    def _op_delete(store, plane, i, epoch) -> None:
        if plane.qtypes[i] is QueryType.DELETE:
            key = plane.keys[i]
            earlier = plane.batch_inserts.pop(key, None)
            if earlier is not None:
                plane.pending_inserts[earlier] = None
            removed = store.delete(key)
            plane.responses[i] = DELETED_RESPONSE if removed else NOT_FOUND_RESPONSE
            return
        stale = plane.pending_deletes[i]
        if stale:
            for key, location in stale:
                store.index_delete(key, location)
            plane.pending_deletes[i] = None

    @staticmethod
    def _task_kc(store, plane, i, epoch) -> None:
        if plane.qtypes[i] is not QueryType.GET:
            return
        plane.locations[i] = store.key_compare(plane.keys[i], plane.candidates[i])

    @staticmethod
    def _task_rd(store, plane, i, epoch) -> None:
        if plane.qtypes[i] is not QueryType.GET or plane.locations[i] is None:
            return
        plane.read_values[i] = store.read_value(plane.locations[i], epoch=epoch)

    @staticmethod
    def _task_wr(store, plane, i, epoch) -> None:
        if plane.responses[i] is not None:
            return  # DELETE already answered
        qtype = plane.qtypes[i]
        if qtype is QueryType.GET:
            value = plane.read_values[i]
            if value is None:
                plane.responses[i] = NOT_FOUND_RESPONSE
            else:
                plane.responses[i] = Response(ResponseStatus.OK, value)
        elif qtype is QueryType.SET:
            plane.responses[i] = STORED_RESPONSE
        else:
            plane.responses[i] = NOT_FOUND_RESPONSE
