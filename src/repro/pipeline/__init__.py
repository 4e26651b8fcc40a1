"""Pipeline engine: timing simulator, functional execution, baselines.

* :mod:`repro.pipeline.executor` — the detailed timing simulator that plays
  the role of the paper's measured system (periodic scheduling, batch
  sizing, interference fixed point, chunked work stealing);
* :mod:`repro.pipeline.functional` — functional batch execution through the
  real KV store (a thin adapter over the :mod:`repro.engine` backends),
  used to verify that every pipeline configuration computes identical
  results;
* :mod:`repro.pipeline.megakv` — the static Mega-KV baseline (coupled and
  discrete).
"""
