"""Hardware substrate: analytical models of coupled and discrete CPU-GPU platforms.

The paper evaluates DIDO on an AMD A10-7850K Kaveri APU (four CPU cores and
eight GPU compute units sharing DDR3 memory through hUMA) and compares
against Mega-KV on a discrete dual-Xeon / dual-GTX780 testbed.  Neither
platform is available here, so this package models them analytically:

* :mod:`repro.hardware.specs` — frozen dataclasses describing each platform
  (clock rates, core counts, latencies, bandwidth, price, TDP);
* :mod:`repro.hardware.processor` — per-task execution-time models for CPU
  cores and GPU compute units, including the GPU's small-batch inefficiency;
* :mod:`repro.hardware.memory` — cache/memory access-cost model with
  prefetch and hot-set (Zipf) caching effects;
* :mod:`repro.hardware.interference` — the CPU/GPU shared-memory
  interference factor ``mu``;
* :mod:`repro.hardware.pcie` — PCIe transfer model for the discrete
  baseline.

Every quantity DIDO's cost model consumes (paper Section IV) is produced by
these modules, so the adaptation mechanics are exercised end to end.
"""
