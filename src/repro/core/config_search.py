"""Exhaustive enumeration and search of the pipeline configuration space.

"In DIDO, we search the entire configuration space to obtain the optimal
configuration plan.  Since we only have a limited number of pipeline
partitioning schemes for the eight fine-grained tasks and a limited number
of index operation assignment policies, the cost model estimates the system
throughput for all the configurations and chooses the one with the highest
throughput." (paper Section IV-B)

The space enumerated here:

* every contiguous GPU segment over the GPU-eligible tasks (IN, KC, RD),
  including the empty segment (CPU-only pipeline);
* for GPU segments containing IN: all four Insert/Delete placement policies;
* for three-stage pipelines: every split of the CPU cores between the
  prefix and suffix stages.

With the APU's four cores this is 37 configurations — small enough to
evaluate exhaustively per re-plan, as the paper reports ("the runtime
overhead of this cost estimation is very small").  What keeps it small here
is the batch sizing inside each evaluation
(:meth:`~repro.core.cost_model.PipelineAnalyzer.estimate`): about six
``evaluate_batch`` calls per configuration, so a cold search is some 200
calls and 20-30 ms of pure Python (``docs/cost_model.md`` has the measured
figures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.cost_model import CostModel, PipelineAnalyzer, PipelineEstimate
from repro.core.profiler import WorkloadProfile
from repro.core.tasks import Task
from repro.hardware.specs import PlatformSpec
from repro.core.pipeline_config import PipelineConfig, gpu_segments


def enumerate_configs(
    total_cpu_cores: int,
    *,
    work_stealing: bool = True,
    include_cpu_only: bool = True,
    fixed_pipeline: PipelineConfig | None = None,
) -> list[PipelineConfig]:
    """All legal configurations for a CPU with ``total_cpu_cores`` cores.

    ``fixed_pipeline`` restricts the search to index-operation assignment
    only (used by the Figure 13 ablation, which pins Mega-KV's partitioning
    and varies just the Insert/Delete placement).
    """
    if fixed_pipeline is not None:
        return _index_policies_for(fixed_pipeline, work_stealing)
    configs: list[PipelineConfig] = []
    for segment in gpu_segments():
        if not segment:
            if include_cpu_only:
                configs.append(
                    PipelineConfig.assemble(
                        (),
                        total_cpu_cores=total_cpu_cores,
                        work_stealing=work_stealing,
                    )
                )
            continue
        search_on_gpu = Task.IN in segment
        policies = (
            [(False, False), (True, False), (False, True), (True, True)]
            if search_on_gpu
            else [(False, False)]
        )
        for prefix_cores in range(1, total_cpu_cores):
            for insert_cpu, delete_cpu in policies:
                configs.append(
                    PipelineConfig.assemble(
                        segment,
                        total_cpu_cores=total_cpu_cores,
                        prefix_cores=prefix_cores,
                        insert_on_cpu=insert_cpu,
                        delete_on_cpu=delete_cpu,
                        work_stealing=work_stealing,
                    )
                )
    return configs


def _index_policies_for(
    pipeline: PipelineConfig, work_stealing: bool
) -> list[PipelineConfig]:
    """The four Insert/Delete placements over a fixed partitioning."""
    gpu_stage = pipeline.gpu_stage
    if gpu_stage is None or Task.IN not in gpu_stage.tasks:
        return [pipeline.with_work_stealing(work_stealing)]
    total = sum(s.cores for s in pipeline.stages)
    prefix_cores = pipeline.stages[0].cores
    out = []
    for insert_cpu in (False, True):
        for delete_cpu in (False, True):
            out.append(
                PipelineConfig.assemble(
                    gpu_stage.tasks,
                    total_cpu_cores=total,
                    prefix_cores=prefix_cores,
                    insert_on_cpu=insert_cpu,
                    delete_on_cpu=delete_cpu,
                    work_stealing=work_stealing,
                )
            )
    return out


@dataclass(frozen=True)
class RankedConfig:
    """A configuration with its estimated throughput."""

    config: PipelineConfig
    estimate: PipelineEstimate

    @property
    def throughput_mops(self) -> float:
        return self.estimate.throughput_mops


class ConfigurationSearch:
    """Evaluates the configuration space under a given analyzer.

    Instantiated with the planner's :class:`CostModel` inside DIDO; the
    benchmarks also instantiate it with the detailed executor to find the
    *true* optimum for the Figure 10 comparison.
    """

    def __init__(self, analyzer: PipelineAnalyzer):
        self.analyzer = analyzer
        #: The platform's full configuration space per work-stealing flag.
        #: Enumerated once: the same config objects then key the analyzer's
        #: caches on every search, with their hashes already computed.
        self._spaces: dict[bool, tuple[PipelineConfig, ...]] = {}

    @property
    def platform(self) -> PlatformSpec:
        return self.analyzer.platform

    def rank(
        self,
        profile: WorkloadProfile,
        latency_budget_ns: float = 1_000_000.0,
        *,
        work_stealing: bool = True,
        configs: Iterable[PipelineConfig] | None = None,
    ) -> list[RankedConfig]:
        """All configurations ranked by estimated throughput (best first)."""
        if configs is None:
            configs = self._spaces.get(work_stealing)
            if configs is None:
                configs = self._spaces[work_stealing] = tuple(
                    enumerate_configs(
                        self.platform.cpu.cores, work_stealing=work_stealing
                    )
                )
        ranked = [
            RankedConfig(config, self.analyzer.estimate(config, profile, latency_budget_ns))
            for config in configs
        ]
        ranked.sort(key=lambda r: r.throughput_mops, reverse=True)
        return ranked

    def best(
        self,
        profile: WorkloadProfile,
        latency_budget_ns: float = 1_000_000.0,
        *,
        work_stealing: bool = True,
        configs: Iterable[PipelineConfig] | None = None,
    ) -> RankedConfig:
        """The highest-throughput configuration for ``profile``."""
        ranked = self.rank(
            profile,
            latency_budget_ns,
            work_stealing=work_stealing,
            configs=configs,
        )
        return ranked[0]


def best_config_for(
    platform: PlatformSpec,
    profile: WorkloadProfile,
    latency_budget_ns: float = 1_000_000.0,
) -> PipelineConfig:
    """One-call helper: the cost-model-optimal configuration for a workload."""
    search = ConfigurationSearch(CostModel(platform))
    return search.best(profile, latency_budget_ns).config
