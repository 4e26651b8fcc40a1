"""The execution engine: one substrate beneath both planes.

This package is the single home of pipeline *stage semantics*:

* :mod:`repro.engine.plan` — the :class:`StagePlan` compiler turning a
  :class:`~repro.core.pipeline_config.PipelineConfig` into an ordered list
  of whole-batch phases, consumed by the functional engines *and* by the
  analytical :class:`~repro.core.cost_model.PipelineAnalyzer`;
* :mod:`repro.engine.plane` — the columnar :class:`BatchPlane`
  (struct-of-arrays query state) engines execute over;
* :mod:`repro.engine.vector` — :class:`VectorEngine`, the one batch
  engine: one definition of each pass, a scalar and a columnar (NumPy)
  kernel for Search, and a fitted host cost model placing each window's
  Search on the cheaper one;
* :mod:`repro.engine.reference` — the per-query :class:`ReferenceEngine`,
  kept as equivalence ground truth and the benchmark's verifier.
"""

from __future__ import annotations

from repro.engine.plan import (
    BOUNDARY_TASKS,
    INDEX_OP_PRIORITY,
    PhaseKind,
    PlanPhase,
    StagePlan,
    compile_stage_plan,
)
from repro.engine.plane import BatchPlane
from repro.engine.reference import ReferenceEngine
from repro.engine.vector import VectorEngine
from repro.errors import ConfigurationError

#: Engines selectable by name (CLI flags, DidoSystem's ``engine=`` knob).
ENGINE_NAMES = ("reference", "vector")


def resolve_engine(engine):
    """Map an engine selector to a backend instance.

    ``None`` is the production engine, a :class:`VectorEngine`.  A
    backend instance passes through unchanged; a known name constructs the
    backend.
    """
    if engine is None:
        return VectorEngine()
    if isinstance(engine, str):
        factory = {
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
    "StagePlan",
    "VectorEngine",
    "compile_stage_plan",
    "resolve_engine",
]
