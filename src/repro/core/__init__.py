"""DIDO's core: fine-grained tasks, profiling, cost model, and adaptation.

This package implements the paper's primary contribution (Sections III-IV):

* :mod:`repro.core.tasks` — the eight fine-grained tasks (RV..SD), the three
  index operations, task ordering/affinity, and the calibrated per-task
  instruction/memory parameters;
* :mod:`repro.core.profiler` — the lightweight workload profiler (GET
  ratio, average key/value size, Zipf-skew sampling estimator);
* :mod:`repro.core.cost_model` — the APU-aware cost model (Equations 1-3)
  with task affinity, key popularity, and interference terms;
* :mod:`repro.core.config_search` — exhaustive enumeration of pipeline
  partitioning schemes and index-operation assignment policies;
* :mod:`repro.core.work_stealing` — the tag-array chunked work-stealing
  protocol (64-query sets, matching the APU wavefront);
* :mod:`repro.core.controller` — the runtime adaptation loop (re-plan on
  >10 % workload-counter change, one-batch apply delay);
* :mod:`repro.core.dido` — the assembled :class:`DidoSystem` facade.
"""

from repro.core.config_search import ConfigurationSearch, enumerate_configs
from repro.core.controller import AdaptationController, AdaptationEvent
from repro.core.cost_model import CostModel, PipelineEstimate
from repro.core.dido import DidoSystem, SystemReport
from repro.core.profiler import ProfileDelta, WorkloadProfile, WorkloadProfiler
from repro.core.tasks import (
    CPU_ONLY_TASKS,
    GPU_ELIGIBLE_TASKS,
    TASK_ORDER,
    CalibrationConstants,
    IndexOp,
    Task,
    TaskModel,
)
from repro.core.work_stealing import StealOutcome, plan_steal

__all__ = [
    "AdaptationController",
    "AdaptationEvent",
    "CPU_ONLY_TASKS",
    "CalibrationConstants",
    "ConfigurationSearch",
    "CostModel",
    "DidoSystem",
    "GPU_ELIGIBLE_TASKS",
    "IndexOp",
    "PipelineEstimate",
    "ProfileDelta",
    "StealOutcome",
    "SystemReport",
    "TASK_ORDER",
    "Task",
    "TaskModel",
    "WorkloadProfile",
    "WorkloadProfiler",
    "enumerate_configs",
    "plan_steal",
]
