"""The execution engine: one substrate beneath both planes.

This package is the single home of pipeline *stage semantics*:

* :mod:`repro.engine.plan` — the :class:`StagePlan` compiler turning a
  :class:`~repro.core.pipeline_config.PipelineConfig` into an ordered list
  of whole-batch phases, consumed by the functional engines *and* by the
  analytical :class:`~repro.core.cost_model.PipelineAnalyzer`;
* :mod:`repro.engine.plane` — the columnar :class:`BatchPlane`
  (struct-of-arrays query state) engines execute over;
* :mod:`repro.engine.backends` — :class:`SerialEngine` (whole-batch
  passes) and :class:`StealingEngine` (dual-executor tag-array chunk
  claiming over the same passes);
* :mod:`repro.engine.reference` — the per-query :class:`ReferenceEngine`,
  kept as equivalence ground truth and benchmark baseline;
* :mod:`repro.engine.vector` — :class:`VectorEngine`, the production
  engine: one definition of each pass, a scalar and a columnar (NumPy)
  kernel for Search, and a fitted host cost model placing each window's
  Search on the cheaper one;
* :mod:`repro.engine.procshard` — :class:`ProcShardEngine`, the only
  backend that executes across partitions: it splits each batch by the
  seed-0 FNV shard hash and fans it out to one worker process per shard
  over shared-memory rings (imported lazily by :func:`resolve_engine`).
"""

from __future__ import annotations

from repro.engine.backends import SerialEngine, StealingEngine
from repro.engine.plan import (
    BOUNDARY_TASKS,
    INDEX_OP_PRIORITY,
    PhaseKind,
    PlanPhase,
    StagePlan,
    compile_stage_plan,
)
from repro.engine.plane import BatchPlane, indices_between
from repro.engine.reference import ReferenceEngine
from repro.engine.vector import VectorEngine
from repro.errors import ConfigurationError

#: Engines selectable by name (CLI flags, DidoSystem's ``engine=`` knob).
ENGINE_NAMES = (
    "auto",
    "serial",
    "stealing",
    "reference",
    "vector",
    "procshard",
)


def resolve_engine(engine):
    """Map an engine selector to a backend instance.

    ``None``/"auto" returns None: no backend pinned.  (``DidoSystem``
    never passes that on — it resolves unset to "vector", or "procshard"
    when sharded, first; a standalone ``FunctionalPipeline`` picks per
    batch: stealing when the config wants it, serial otherwise.)  A backend
    instance passes through unchanged; a known name constructs the backend
    ("procshard" lazily: its module pulls in multiprocessing machinery
    nothing else needs).
    """
    if engine is None or engine == "auto":
        return None
    if isinstance(engine, str):
        if engine == "procshard":
            from repro.engine.procshard import ProcShardEngine

            return ProcShardEngine()
        factory = {
            "serial": SerialEngine,
            "stealing": StealingEngine,
            "reference": ReferenceEngine,
            "vector": VectorEngine,
        }.get(engine)
        if factory is None:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
            )
        return factory()
    if hasattr(engine, "run"):
        return engine
    raise ConfigurationError(f"engine must be a name or a backend, got {engine!r}")


__all__ = [
    "BOUNDARY_TASKS",
    "BatchPlane",
    "ENGINE_NAMES",
    "INDEX_OP_PRIORITY",
    "PhaseKind",
    "PlanPhase",
    "ReferenceEngine",
    "SerialEngine",
    "StagePlan",
    "StealingEngine",
    "VectorEngine",
    "compile_stage_plan",
    "indices_between",
    "resolve_engine",
]
