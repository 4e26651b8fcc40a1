#!/usr/bin/env python3
"""Explore DIDO's configuration space for any workload.

Ranks every legal pipeline configuration with the cost model, measures the
top candidates with the detailed simulator, and prints both — showing what
the paper's Figure 10 quantifies: the model's favourite is (nearly) the
measured optimum, and the bottom of the table is an order of magnitude
slower than the top.

Run:  python examples/cost_model_explorer.py [WORKLOAD]
      python examples/cost_model_explorer.py K8-G95-U
"""

import sys

from repro.analysis.reporting import Table
from repro.core.config_search import ConfigurationSearch
from repro.core.cost_model import CostModel
from repro.core.profiler import WorkloadProfile
from repro.hardware.specs import APU_A10_7850K
from repro.pipeline.executor import PipelineExecutor
from repro.workloads.ycsb import standard_workload


def main() -> None:
    label = sys.argv[1] if len(sys.argv) > 1 else "K16-G95-S"
    spec = standard_workload(label)
    profile = WorkloadProfile.from_spec(spec)

    planner = ConfigurationSearch(CostModel(APU_A10_7850K))
    simulator = PipelineExecutor(APU_A10_7850K)

    ranked = planner.rank(profile)
    print(f"workload {label}: {len(ranked)} configurations evaluated\n")

    table = Table(
        f"Cost-model ranking for {label} (top 8 + worst, with measurements)",
        ["rank", "est_MOPS", "meas_MOPS", "pipeline"],
    )
    for i, entry in enumerate(ranked[:8], start=1):
        measured = simulator.measure(entry.config, profile)
        table.add(i, entry.throughput_mops, measured.throughput_mops, entry.config.label)
    worst = ranked[-1]
    measured_worst = simulator.measure(worst.config, profile)
    table.add(
        len(ranked), worst.throughput_mops, measured_worst.throughput_mops,
        worst.config.label,
    )
    print(table.render())

    best = ranked[0]
    best_measured = simulator.measure(best.config, profile)
    error = (best_measured.throughput_mops - best.throughput_mops) / best_measured.throughput_mops
    print()
    print(f"chosen plan    : {best.config.label}")
    print(f"model error    : {error:+.1%} (paper Figure 9 band: +-14 %)")
    print(
        f"spread         : best measured {best_measured.throughput_mops:.1f} MOPS vs "
        f"worst {measured_worst.throughput_mops:.1f} MOPS "
        f"({best_measured.throughput_mops / measured_worst.throughput_mops:.1f}x)"
    )


if __name__ == "__main__":
    main()
