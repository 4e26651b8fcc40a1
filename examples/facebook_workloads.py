#!/usr/bin/env python3
"""DIDO on Facebook-shaped Memcached traffic (USR and ETC).

The paper motivates dynamic pipelines with the Facebook workload analysis:
GET ratios from 18 % to 99 % and value sizes from two bytes to tens of
kilobytes.  This example runs approximations of two published traces — USR
(user-account status: 2-byte values, 99 % GET) and ETC (general cache: a
wide value-size mixture) — through a DIDO instance, showing how the
profiler characterises them and which pipeline the cost model picks for
each.

Run:  python examples/facebook_workloads.py
"""

from repro import APU_A10_7850K, DidoSystem, PipelineExecutor, best_config_for
from repro.core.profiler import WorkloadProfile
from repro.workloads.facebook import (
    FACEBOOK_ETC,
    FACEBOOK_USR,
    FacebookQueryStream,
)


def run_trace(system: DidoSystem, workload, batches: int = 8) -> None:
    stream = FacebookQueryStream(workload, num_keys=20_000, seed=1)
    for _ in range(batches):
        system.process(stream.next_batch(3000))

    report = system.report()
    key_size, value_size = stream.average_sizes()
    print(f"--- {workload.name} ---")
    print(f"  trace shape : {workload.get_ratio:.0%} GET, "
          f"~{value_size:.0f} B average value, Zipf {workload.zipf_skew}")
    print(f"  chosen plan : {report.current_pipeline}")
    print(f"  model est.  : {report.estimated_mops:.1f} MOPS on the APU")

    # Analytical cross-check: what the detailed simulator measures for the
    # cost model's pick on the same traffic shape (asked apart from the
    # serving system, so its plan stays the one it served with).
    profile = WorkloadProfile(
        get_ratio=workload.get_ratio,
        avg_key_size=key_size,
        avg_value_size=value_size,
        zipf_skew=workload.zipf_skew,
    )
    config = best_config_for(APU_A10_7850K, profile)
    measured = PipelineExecutor(APU_A10_7850K).measure(config, profile)
    print(f"  simulated   : {measured.throughput_mops:.1f} MOPS "
          f"(GPU {measured.gpu_utilization:.0%} busy)")
    print()


def main() -> None:
    print("USR: the tiny-value, read-everything workload")
    system = DidoSystem(memory_bytes=64 << 20, expected_objects=60_000)
    run_trace(system, FACEBOOK_USR)

    print("ETC: the everything-at-once cache tier")
    system = DidoSystem(memory_bytes=256 << 20, expected_objects=60_000)
    run_trace(system, FACEBOOK_ETC)

    print(
        "Note how the two traces end up with different pipelines — exactly\n"
        "the diversity argument of the paper's introduction."
    )


if __name__ == "__main__":
    main()
