"""StagePlan: the single compiled form of a pipeline's stage semantics.

The paper's central claim is that the *same* eight tasks can be regrouped
arbitrarily across processors.  This module is where that regrouping is
decided — once, for both execution planes.  :func:`compile_stage_plan`
turns a :class:`~repro.core.pipeline_config.PipelineConfig` into an ordered
list of whole-batch *phases*: each phase is one pass of one task (or one
index operation) over the batch, in the exact order the pipeline executes
them.  The functional plane's engines (:mod:`repro.engine.vector`,
:mod:`repro.engine.reference`) run the phases against real data
structures; the analytical plane's
:class:`~repro.core.cost_model.PipelineAnalyzer` derives its per-stage task
demands from the same phases — so the phase-ordering and
index-op-priority rules exist in exactly one place.

The ordering rules compiled here (formerly buried in
``FunctionalPipeline._stage_phases``):

* RV, PP and SD are *boundary* phases: the functional plane performs them
  at batch entry/exit (frame parsing, context build, response framing),
  the analytical plane costs them like any other task;
* within a stage, index operations run stale-entry Deletes first, then
  Inserts, then Searches — so a GET in the same batch as its SET observes
  the new entry (batch read-your-write);
* Insert/Delete operations reassigned to the CPU prefix stage (flexible
  index-operation assignment, paper Section III-B2) run right after their
  producer MM and are attributed to it; Search never lives in a stage
  without the IN task.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.pipeline_config import PipelineConfig
from repro.core.tasks import IndexOp, Task

#: Execution order of index operations within a stage (Deletes, Inserts,
#: Searches) — the batch read-your-write discipline.
INDEX_OP_PRIORITY: dict[IndexOp, int] = {
    IndexOp.DELETE: 0,
    IndexOp.INSERT: 1,
    IndexOp.SEARCH: 2,
}

#: Tasks handled at batch entry/exit on the functional plane.
BOUNDARY_TASKS: frozenset[Task] = frozenset({Task.RV, Task.PP, Task.SD})


class PhaseKind(enum.Enum):
    """What a compiled phase does on the functional plane."""

    #: Batch entry/exit work (RV/PP/SD); timing-only for the engines.
    BOUNDARY = "boundary"
    #: A whole-batch pass of one task (MM, KC, RD, WR).
    TASK = "task"
    #: A whole-batch pass of one index operation (Search/Insert/Delete).
    INDEX_OP = "index_op"


@dataclass(frozen=True)
class PlanPhase:
    """One whole-batch pass.

    ``task`` is the task the phase's time is attributed to (telemetry spans
    and the cost model's per-task demands): index-op phases hosted by the
    CPU prefix stage are attributed to MM, their producer; index-op phases
    in an IN-bearing stage are attributed to IN.
    """

    task: Task
    kind: PhaseKind
    stage_index: int
    op: IndexOp | None = None

    @property
    def label(self) -> str:
        if self.op is not None:
            return f"{self.task.name}/{self.op.value}"
        return self.task.name


@dataclass(frozen=True)
class StagePlan:
    """A compiled pipeline: the config plus its ordered phases."""

    config: PipelineConfig
    phases: tuple[PlanPhase, ...]

    def stage_phases(self, stage_index: int) -> tuple[PlanPhase, ...]:
        """The phases belonging to one stage, in execution order."""
        return tuple(p for p in self.phases if p.stage_index == stage_index)

    def batch_phases(self) -> tuple[PlanPhase, ...]:
        """The phases an engine executes (everything but the boundaries)."""
        return tuple(p for p in self.phases if p.kind is not PhaseKind.BOUNDARY)

    @property
    def label(self) -> str:
        return self.config.label


#: Compiled plans keyed by config; configs are frozen dataclasses, so a
#: plan is immutable and safely shared across batches and engines.
_PLAN_CACHE: dict[PipelineConfig, StagePlan] = {}


def compile_stage_plan(config: PipelineConfig) -> StagePlan:
    """Compile (and memoise) the phase list for ``config``."""
    cached = _PLAN_CACHE.get(config)
    if cached is not None:
        return cached
    phases: list[PlanPhase] = []
    for stage_index, stage in enumerate(config.stages):
        ordered_ops = sorted(stage.index_ops, key=INDEX_OP_PRIORITY.__getitem__)
        for task in stage.tasks:
            if task in BOUNDARY_TASKS:
                phases.append(PlanPhase(task, PhaseKind.BOUNDARY, stage_index))
            elif task is Task.MM:
                phases.append(PlanPhase(task, PhaseKind.TASK, stage_index))
                if Task.IN not in stage.tasks:
                    # Insert/Delete reassigned to this CPU stage run right
                    # after their producer (MM); Search never lives here
                    # without the IN task.
                    for op in ordered_ops:
                        if op is not IndexOp.SEARCH:
                            phases.append(
                                PlanPhase(task, PhaseKind.INDEX_OP, stage_index, op)
                            )
            elif task is Task.IN:
                for op in ordered_ops:
                    phases.append(PlanPhase(task, PhaseKind.INDEX_OP, stage_index, op))
            else:  # KC, RD, WR
                phases.append(PlanPhase(task, PhaseKind.TASK, stage_index))
    plan = StagePlan(config=config, phases=tuple(phases))
    if len(_PLAN_CACHE) > 512:
        _PLAN_CACHE.clear()
    _PLAN_CACHE[config] = plan
    return plan
