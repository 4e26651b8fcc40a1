"""Analysis helpers: metrics, paper-style reporting, and the figure harness.

* :mod:`repro.analysis.metrics` — derived metrics (speedups, error rates,
  price-performance, energy efficiency);
* :mod:`repro.analysis.reporting` — fixed-width tables matching the rows the
  paper's figures plot;
* :mod:`repro.analysis.experiments` — one function per paper figure, shared
  by the benchmark suite and EXPERIMENTS.md generation.
"""
