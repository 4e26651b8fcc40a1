"""Calibration report: Fig 4/5/6 analogues for Mega-KV (Coupled) plus DIDO speedups."""

from repro.core.config_search import ConfigurationSearch, enumerate_configs
from repro.core.cost_model import CostModel
from repro.core.profiler import WorkloadProfile
from repro.hardware.specs import APU_A10_7850K
from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.megakv import megakv_coupled_config, megakv_executor
from repro.workloads.ycsb import standard_workload


def main():
    mkex = megakv_executor(APU_A10_7850K)   # Mega-KV (Coupled): port overhead
    ex = PipelineExecutor(APU_A10_7850K)    # DIDO: native implementation
    mk = megakv_coupled_config()

    print("== Fig 4/5: Mega-KV (Coupled) stage times (us) & GPU util, G95-S ==")
    for name in ("K8", "K16", "K32", "K128"):
        prof = WorkloadProfile.from_spec(standard_workload(f"{name}-G95-S"))
        m = mkex.measure(mk, prof)
        times = [round(t/1000, 1) for t in m.estimate.stage_times_ns]
        print(f"{name:5s} batch={m.batch_size:6d} NP={times[0]:7.1f} IN={times[1]:7.1f} RSV={times[2]:7.1f} "
              f"gpu={m.gpu_utilization:.2f} cpu={m.cpu_utilization:.2f} thr={m.throughput_mops:6.2f} MOPS")

    print()
    print("== Fig 6: GPU index-op time shares (K8-G95-S, Mega-KV) ==")
    prof = WorkloadProfile.from_spec(standard_workload("K8-G95-S"))
    m = mkex.measure(mk, prof)
    ops = m.estimate.index_op_times_ns
    tot = sum(ops.values())
    for op, t in ops.items():
        print(f"  {op.value:7s} {t/1000:8.1f} us  share={t/tot:.2%}")

    print()
    print("== DIDO vs Mega-KV (Coupled) speedups ==")
    cm_search = ConfigurationSearch(CostModel(APU_A10_7850K))
    for label in ("K8-G95-U", "K8-G95-S", "K8-G100-U", "K8-G50-U", "K16-G95-S", "K32-G95-S",
                  "K128-G95-S", "K128-G50-S"):
        prof = WorkloadProfile.from_spec(standard_workload(label))
        base = mkex.measure(mk, prof)
        best = cm_search.best(prof)
        dido = ex.measure(best.config, prof)
        print(f"{label:11s} mega={base.throughput_mops:7.2f} dido={dido.throughput_mops:7.2f} "
              f"speedup={dido.throughput_mops/base.throughput_mops:5.2f}  pipeline={best.config.label}")

    print()
    print("== Technique ablations (paper Figs 13-15 shape) ==")
    mk_steal = mk.with_work_stealing(True)
    for label in ("K8-G95-U", "K16-G95-S", "K32-G95-S", "K128-G95-S", "K8-G50-U", "K128-G50-S"):
        prof = WorkloadProfile.from_spec(standard_workload(label))
        base = ex.measure(mk, prof).throughput_mops
        # Fig 13: flexible index assignment only (fixed Mega-KV partitioning, no steal)
        flex_cfgs = enumerate_configs(4, work_stealing=False, fixed_pipeline=mk)
        flex = max(ex.measure(c, prof).throughput_mops for c in flex_cfgs)
        # Fig 15: work stealing only
        steal = ex.measure(mk_steal, prof).throughput_mops
        print(f"{label:11s} base={base:7.2f} flexIdx={flex/base:5.2f}x steal={steal/base:5.2f}x")


if __name__ == "__main__":
    main()
