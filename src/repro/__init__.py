"""repro — a full reproduction of DIDO (ICDE 2017).

DIDO is an in-memory key-value store with *dynamic pipeline execution* on
coupled CPU-GPU architectures (Zhang, Hu, He, Hua — ICDE 2017).  This
package implements the complete system in Python: the KV store substrate
(cuckoo index, log-arena heap, wire protocol), a calibrated analytical model of
the AMD A10-7850K APU (and the discrete Mega-KV testbed for comparison),
the eight-task pipeline engine, the workload profiler, the APU-aware cost
model, exhaustive configuration search, work stealing, and the adaptation
controller — plus the Mega-KV static-pipeline baseline and the YCSB-style
workload generators the paper evaluates with.

Quickstart::

    from repro.core.dido import DidoSystem
    from repro.workloads.ycsb import QueryStream, standard_workload

    system = DidoSystem(memory_bytes=64 << 20, expected_objects=50_000)
    spec = standard_workload("K16-G95-S")
    stream = QueryStream(spec, num_keys=10_000, seed=7)
    result = system.process(stream.next_batch(2048))
    print(system.report())

See DESIGN.md for the module map and EXPERIMENTS.md for the paper-figure
reproduction results.
"""

__version__ = "1.0.0"
