"""DIDO's core: fine-grained tasks, profiling, cost model, and adaptation.

This package implements the paper's primary contribution (Sections III-IV):

* :mod:`repro.core.tasks` — the eight fine-grained tasks (RV..SD), the three
  index operations, task ordering/affinity, and the calibrated per-task
  instruction/memory parameters;
* :mod:`repro.core.profiler` — the lightweight workload profiler (GET
  ratio, average key/value size, Zipf-skew sampling estimator);
* :mod:`repro.core.cost_model` — the APU-aware cost model (Equations 1-3)
  with task affinity, key popularity, and interference terms;
* :mod:`repro.core.pipeline_config` — :class:`StageSpec` /
  :class:`PipelineConfig`, a pipeline partitioning scheme plus its
  index-operation assignment (paper Figure 8's notation);
* :mod:`repro.core.config_search` — exhaustive enumeration of pipeline
  partitioning schemes and index-operation assignment policies;
* :mod:`repro.core.controller` — the runtime adaptation loop (re-plan on
  >10 % workload-counter change, one-batch apply delay);
* :mod:`repro.core.dido` — the assembled :class:`DidoSystem` facade.
"""
