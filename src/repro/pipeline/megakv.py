"""The Mega-KV baseline: a static pipeline, coupled and discrete variants.

Mega-KV's fixed pipeline (paper Figure 3 and Section V-C) is

    [RV, PP, MM]CPU -> [IN]GPU -> [KC, RD, WR, SD]CPU

with every index operation on the GPU, no index-operation reassignment, no
dynamic repartitioning, and no work stealing.  The coupled variant runs it
on the APU (sharing memory, no PCIe); the discrete variant runs the same
pipeline on the dual-Xeon / dual-GTX780 platform where every GPU kernel
pays PCIe transfers — evaluated for Figures 16-18.
"""

from __future__ import annotations

from repro.core.profiler import WorkloadProfile
from repro.core.tasks import Task
from repro.hardware.specs import PlatformSpec
from repro.pipeline.executor import PipelineExecutor, PipelineMeasurement
from repro.core.pipeline_config import PipelineConfig


#: CPU-side overhead of the Mega-KV OpenCL port relative to DIDO's native
#: implementation (paper Section II-C ports CUDA Mega-KV to OpenCL 2.0 to
#: run it on the APU).  Applied to Mega-KV (Coupled) measurements only; the
#: GPU kernels are the same cuckoo code in both systems.
MEGAKV_PORT_OVERHEAD = 1.35


def megakv_coupled_config(total_cpu_cores: int = 4) -> PipelineConfig:
    """Mega-KV (Coupled): the static pipeline on the APU.

    Receiver and sender thread groups split the CPU cores evenly, as in the
    original multi-pipeline design.
    """
    return PipelineConfig.assemble(
        gpu_tasks=(Task.IN,),
        total_cpu_cores=total_cpu_cores,
        prefix_cores=total_cpu_cores // 2,
        insert_on_cpu=False,
        delete_on_cpu=False,
        work_stealing=False,
    )


def megakv_discrete_config(total_cpu_cores: int = 16) -> PipelineConfig:
    """Mega-KV (Discrete): the same static pipeline on the Xeon/GTX platform."""
    return PipelineConfig.assemble(
        gpu_tasks=(Task.IN,),
        total_cpu_cores=total_cpu_cores,
        prefix_cores=total_cpu_cores // 2,
        insert_on_cpu=False,
        delete_on_cpu=False,
        work_stealing=False,
    )


def megakv_executor(platform: PlatformSpec) -> PipelineExecutor:
    """Executor configured for measuring Mega-KV on ``platform``.

    The coupled variant carries the OpenCL-port CPU overhead; the discrete
    variant is the original native CUDA implementation, no overhead.
    """
    from repro.core.tasks import DEFAULT_CALIBRATION

    if platform.coupled:
        constants = DEFAULT_CALIBRATION.with_cpu_overhead(MEGAKV_PORT_OVERHEAD)
    else:
        constants = DEFAULT_CALIBRATION
    return PipelineExecutor(platform, constants=constants)


def measure_megakv(
    platform: PlatformSpec,
    profile: WorkloadProfile,
    latency_budget_ns: float = 1_000_000.0,
) -> PipelineMeasurement:
    """Measure Mega-KV on ``platform`` (selects the matching static config)."""
    executor = megakv_executor(platform)
    if platform.coupled:
        config = megakv_coupled_config(platform.cpu.cores)
    else:
        config = megakv_discrete_config(platform.cpu.cores)
    return executor.measure(config, profile, latency_budget_ns)
