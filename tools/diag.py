"""Stage-time diagnostics for candidate configs on selected workloads."""

import sys

from repro.core.config_search import ConfigurationSearch
from repro.core.cost_model import CostModel
from repro.core.pipeline_config import PipelineConfig
from repro.core.profiler import WorkloadProfile
from repro.core.tasks import Task
from repro.hardware.specs import APU_A10_7850K
from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.megakv import megakv_coupled_config, megakv_executor
from repro.workloads.ycsb import standard_workload


def show(tag, ex_, cfg, prof):
    m = ex_.measure(cfg, prof)
    ts = " ".join(f"{t/1000:6.1f}" for t in m.estimate.stage_times_ns)
    st = m.estimate.steal
    steal = f" steal->{st.new_tmax_ns/1000:6.1f}us" if st else ""
    print(f"  {tag:34s} N={m.batch_size:6d} [{ts}]us thr={m.throughput_mops:6.2f}{steal}  {cfg.label}")


def main(labels):
    ex = PipelineExecutor(APU_A10_7850K)
    mkex = megakv_executor(APU_A10_7850K)
    search = ConfigurationSearch(CostModel(APU_A10_7850K))
    for label in labels or ["K8-G95-S", "K8-G95-U", "K128-G95-S"]:
        prof = WorkloadProfile.from_spec(standard_workload(label))
        print(label)
        show("megakv 2/2", mkex, megakv_coupled_config(), prof)
        for pc in (1, 2):
            cfg = PipelineConfig.assemble((Task.IN,), total_cpu_cores=4, prefix_cores=pc,
                                          insert_on_cpu=True, delete_on_cpu=True)
            show(f"[IN]G+ID@CPU pc={pc}", ex, cfg, prof)
            cfg = PipelineConfig.assemble((Task.IN, Task.KC, Task.RD), total_cpu_cores=4,
                                          prefix_cores=pc, insert_on_cpu=True, delete_on_cpu=True)
            show(f"[IN,KC,RD]G+ID@CPU pc={pc}", ex, cfg, prof)
        show("DIDO choice", ex, search.best(prof).config, prof)


if __name__ == "__main__":
    main(sys.argv[1:])
