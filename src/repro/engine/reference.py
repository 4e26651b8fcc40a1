"""ReferenceEngine: the pre-engine per-query execution path.

Before the batch-columnar engine existed, the functional pipeline executed
one Python method call per query per phase.  This backend preserves that
path exactly — same store-call sequence, same bookkeeping — but driven by
the same compiled :class:`~repro.engine.plan.StagePlan`, so stage semantics
still live in exactly one module.  It serves two purposes:

* **ground truth** for the engine-equivalence property tests: every legal
  configuration must produce byte-identical response frames through the
  batch engine (:class:`~repro.engine.vector.VectorEngine`) and through
  this per-query path;
* **verifier** for ``benchmarks/serving``, which replays every run's
  traffic through this path and requires the served bytes to match.
"""

from __future__ import annotations

import time

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
from repro.errors import CapacityError
from repro.kv.hashtable import EMPTY
from repro.kv.protocol import QueryType
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
    ) -> None:
        answer_overridden_deletes(store, plane)
        try:
            for phase in plan.phases:
                if phase.kind is PhaseKind.BOUNDARY:
                    continue
                step = self._step_for(phase)
                t0 = time.perf_counter() if task_times is not None else 0.0
                for i in range(plane.size):
                    step(store, plane, i, epoch)
                credit_time(task_times, phase.task, t0)
        except CapacityError:
            drop_pending_inserts(store, plane)
            raise
        count_store_ops(store, plane)

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
    def _task_mm(store, plane, i, epoch) -> None:
        if plane.qtypes[i] is not QueryType.SET:
            return
        key = plane.keys[i]
        row, fresh = store.allocate(key, plane.set_values[i])
        if fresh:
            plane.pending_inserts[i] = (key, row)

    @staticmethod
    def _op_search(store, plane, i, epoch) -> None:
        if plane.qtypes[i] is not QueryType.SET:
            plane.candidates[i] = store.index_search(plane.keys[i])

    @staticmethod
    def _op_insert(store, plane, i, epoch) -> None:
        pending = plane.pending_inserts
        entry = pending[i]
        if entry is None:
            return
        pending[i] = None
        key, row = entry
        if store.directory.segment[row] != EMPTY:  # else a DELETE retired it
            store.index_insert(key, row)

    @staticmethod
    def _op_delete(store, plane, i, epoch) -> None:
        # Rows already answered were overridden by a later SET.
        if plane.qtypes[i] is QueryType.DELETE and plane.statuses[i] is None:
            removed = store.delete(plane.keys[i])
            plane.statuses[i] = DELETED_CODE if removed else NOT_FOUND_CODE

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
        if plane.statuses[i] is not None:
            return  # DELETE already answered
        qtype = plane.qtypes[i]
        if qtype is QueryType.GET and plane.read_values[i] is not None:
            plane.statuses[i] = OK_CODE
        elif qtype is QueryType.SET:
            plane.statuses[i] = STORED_CODE
        else:
            plane.statuses[i] = NOT_FOUND_CODE
