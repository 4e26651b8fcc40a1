#!/usr/bin/env python3
"""Quickstart: stand up a DIDO key-value store and talk to it.

Runs a small YCSB-B-style workload (95 % GET, Zipf-skewed keys) through the
full functional pipeline — log-arena allocation, cuckoo index, responses
out — while the controller plans the pipeline with the cost model.  Then
asks the cost model and the detailed simulator, apart from the serving
system, what the best configuration for that workload achieves on the
modelled APU.

Run:  python examples/quickstart.py
"""

from repro import (
    APU_A10_7850K,
    DidoSystem,
    PipelineExecutor,
    QueryStream,
    best_config_for,
    standard_workload,
)
from repro.core.profiler import WorkloadProfile
from repro.kv.protocol import Query, QueryType, ResponseStatus


def main() -> None:
    # A store sized for a demo (the default uses the APU's full 1.9 GB).
    system = DidoSystem(memory_bytes=64 << 20, expected_objects=50_000)

    # --- individual queries -------------------------------------------------
    result = system.process(
        [
            Query(QueryType.SET, b"user:42", b'{"name": "alice"}'),
            Query(QueryType.GET, b"user:42"),
            Query(QueryType.GET, b"user:missing"),
            Query(QueryType.DELETE, b"user:42"),
        ]
    )
    for query, response in zip(
        ("SET", "GET", "GET miss", "DELETE"), result.responses
    ):
        print(f"{query:9s} -> {response.status.name:9s} {response.value!r}")

    # --- engine cross-check -------------------------------------------------
    # The functional plane executes batches on a columnar engine; pinning
    # engine="reference" replays the same queries on the preserved
    # per-query path, which must agree byte-for-byte.
    reference = DidoSystem(
        memory_bytes=64 << 20, expected_objects=50_000, engine="reference"
    )
    ref_result = reference.process(
        [
            Query(QueryType.SET, b"user:42", b'{"name": "alice"}'),
            Query(QueryType.GET, b"user:42"),
            Query(QueryType.GET, b"user:missing"),
            Query(QueryType.DELETE, b"user:42"),
        ]
    )
    statuses = [r.status for r in result.responses]
    assert statuses == [r.status for r in ref_result.responses]
    print("reference engine agrees:", [s.name for s in statuses])

    # --- a realistic batch workload ----------------------------------------
    spec = standard_workload("K16-G95-S")  # 16 B keys, 95 % GET, Zipf 0.99
    stream = QueryStream(spec, num_keys=10_000, seed=7)
    for _ in range(5):
        batch = stream.next_batch(4096)
        result = system.process(batch)
        hits = sum(1 for r in result.responses if r.status is ResponseStatus.OK)
        print(
            f"batch of {len(batch)}: {hits} GET hits, "
            f"pipeline = {result.config_label}"
        )

    print()
    print("system report:", system.report())

    # --- analytical steady state --------------------------------------------
    profile = WorkloadProfile.from_spec(spec)
    config = best_config_for(APU_A10_7850K, profile)
    measurement = PipelineExecutor(APU_A10_7850K).measure(config, profile)
    print(
        f"modelled steady state on the APU: {measurement.throughput_mops:.1f} MOPS "
        f"(batch {measurement.batch_size}, "
        f"GPU {measurement.gpu_utilization:.0%} / CPU {measurement.cpu_utilization:.0%} busy)"
    )


if __name__ == "__main__":
    main()
