"""The APU-aware cost model (paper Section IV) and the shared pipeline analyzer.

The same analytical machinery — Equation 1 (per-task time from instruction
and memory counts), Equation 2 (stage time with interference factor ``mu``),
Equation 3 (work stealing), and Equation 4 (throughput ``S = N / Tmax``) —
serves two roles in this reproduction:

* :class:`CostModel` is DIDO's *internal* planner: it runs the analyzer with
  ``IDEAL_FIDELITY`` (microbenchmarked kernel overhead, calibrated-but-low
  cuckoo probe counts, a single Equation-2 interference pass, continuous
  Equation-3 stealing);
* the pipeline executor (:mod:`repro.pipeline.executor`) runs the same
  analyzer with ``DETAILED_FIDELITY`` (higher measured probe inflation, an
  interference fixed point, wavefront-quantized batches, chunk-quantized
  stealing with synchronisation costs) and plays the role of the measured
  system.

The structural gap between the two fidelity levels is what produces the
cost-model error the paper reports in Figure 9 and the occasional suboptimal
configuration choice of Figure 10 — the error is *earned*, not injected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.profiler import WorkloadProfile
from repro.core.tasks import (
    GPU_ELIGIBLE_TASKS,
    CalibrationConstants,
    DEFAULT_CALIBRATION,
    IndexOp,
    StageContext,
    Task,
    TaskDemand,
    TaskModel,
)
from repro.engine.plan import PhaseKind, compile_stage_plan
from repro.hardware.interference import InterferenceModel
from repro.hardware.memory import MemorySystem
from repro.hardware.pcie import PCIeLink
from repro.hardware.processor import cpu_task_time_ns, gpu_task_time_ns
from repro.hardware.specs import PlatformSpec, ProcessorKind
from repro.core.pipeline_config import PipelineConfig, StageSpec

#: Per-index-op PCIe job descriptor sizes for discrete GPUs (Mega-KV ships
#: compact jobs: key signature + location in, location out).
_PCIE_JOB_IN_BYTES = 16.0
_PCIE_JOB_OUT_BYTES = 8.0

#: Smallest batch the scheduler will use (one GPU wavefront).
MIN_BATCH = 64
#: Upper bound for the batch-size search.
MAX_BATCH = 8_000_000
#: Where the interpolating batch-size search starts: the order of the
#: batches the planner ends up choosing, so the first secant is short.
_FIRST_PROBE = 4096
#: Bracket width at which that search stops interpolating and bisects.
_BISECT_BELOW = 8

#: Average pipeline latency is roughly (stages + batch assembly) periods;
#: with the paper's 3-stage pipeline and 1,000 us latency budget this yields
#: the 300 us per-stage interval of Figure 4.
_ASSEMBLY_FRACTION = 0.33


@dataclass(frozen=True)
class FidelityOptions:
    """Fidelity switches separating the planner from the simulator.

    Attributes
    ----------
    kernel_overhead:
        Charge the fixed GPU kernel-launch cost per index-op kernel / task
        kernel.  Both fidelities charge it (the planner microbenchmarks unit
        costs per Section IV-B); the switch exists for ablations.
    interference_iterations:
        Fixed-point iterations for the mutual CPU/GPU slowdown (planner: one
        corrective pass after the initial mu=1 estimate, i.e. Equation 2
        applied once; simulator: iterate to convergence).
    chunked_stealing:
        Quantize work stealing into wavefront-sized chunks with per-chunk
        synchronisation overhead (planner uses continuous Equation 3).
    probe_inflation:
        Multiplier on theoretical cuckoo probe counts representing measured
        effects (bucket fill, signature false positives) the planner's
        theoretical ``(sum i)/n`` misses.
    batch_quantum:
        Batch sizes are rounded down to a multiple of this (the simulator
        schedules whole wavefronts).
    steal_sync_ns:
        Synchronisation cost per stolen chunk (tag-array atomics).
    steal_chunk:
        Queries per stolen chunk (the APU wavefront width, Section III-B3).
    gpu_steal_inefficiency:
        Slowdown of the GPU when acting as the stealing *helper*: stolen
        work arrives in wavefront-sized claims, so the device runs at a
        small fraction of its big-batch rate (partial occupancy, divergent
        fronts).  A CPU helper has no such penalty.
    """

    kernel_overhead: bool
    interference_iterations: int
    chunked_stealing: bool
    probe_inflation: float = 1.0
    batch_quantum: int = 1
    steal_sync_ns: float = 450.0
    steal_chunk: int = 64
    gpu_steal_inefficiency: float = 4.0


#: What DIDO's planner assumes (paper Equations 1-3, idealised parameters).
IDEAL_FIDELITY = FidelityOptions(
    kernel_overhead=True,
    interference_iterations=2,
    chunked_stealing=False,
    probe_inflation=1.10,
    gpu_steal_inefficiency=2.2,
)

#: What the measured system exhibits.
DETAILED_FIDELITY = FidelityOptions(
    kernel_overhead=True,
    interference_iterations=4,
    chunked_stealing=True,
    probe_inflation=1.18,
    batch_quantum=MIN_BATCH,
    gpu_steal_inefficiency=2.2,
)


@dataclass
class StageTime:
    """Computed execution profile of one stage for a batch."""

    stage: StageSpec
    time_ns: float
    memory_accesses: float
    #: GPU index-op kernel times, for the Figure 6 breakdown.
    index_op_times: dict[IndexOp, float] = field(default_factory=dict)
    #: Portion of ``time_ns`` attributable to GPU-eligible tasks (stealable).
    stealable_ns: float = 0.0
    #: Time the *other* processor would need for the stealable portion.
    helper_time_ns: float = math.inf


@dataclass(frozen=True)
class StealPlan:
    """Outcome of applying work stealing to one batch."""

    applied: bool
    bottleneck_stage: int
    helper_stage: int
    stolen_fraction: float
    new_tmax_ns: float


class SizedBatch(NamedTuple):
    """One probe of the batch-size search: a batch, its period, and the
    full :meth:`PipelineAnalyzer.evaluate_batch` result behind it."""

    batch: int
    tmax_ns: float
    evaluation: tuple


@dataclass(frozen=True)
class PipelineEstimate:
    """Full evaluation of one pipeline configuration on one workload.

    Produced by both the planner and the simulator; ``throughput_mops`` is
    Equation 4's ``S = N / Tmax`` in million operations per second.
    """

    config: PipelineConfig
    batch_size: int
    stage_times_ns: tuple[float, ...]
    tmax_ns: float
    throughput_mops: float
    cpu_utilization: float
    gpu_utilization: float
    mu_cpu: float
    mu_gpu: float
    index_op_times_ns: dict[IndexOp, float]
    steal: StealPlan | None
    latency_ns: float

    @property
    def stage_times_us(self) -> tuple[float, ...]:
        return tuple(t / 1000.0 for t in self.stage_times_ns)


class PipelineAnalyzer:
    """Shared Equation 1-4 engine, parameterised by fidelity.

    Parameters
    ----------
    platform:
        Hardware being modelled.
    fidelity:
        :data:`IDEAL_FIDELITY` for the planner, :data:`DETAILED_FIDELITY`
        for the simulator.
    constants:
        Task calibration constants (shared between fidelities; the paper's
        instruction counting applies to both).
    """

    def __init__(
        self,
        platform: PlatformSpec,
        fidelity: FidelityOptions,
        constants: CalibrationConstants = DEFAULT_CALIBRATION,
    ):
        self.platform = platform
        self.fidelity = fidelity
        self.task_model = TaskModel(constants)
        self.memory = MemorySystem(platform)
        self.interference = InterferenceModel(platform)
        self.pcie = PCIeLink(platform)
        self._template_cache: dict = {}
        self._estimate_cache: dict = {}

    # -------------------------------------------------------------- demands

    def _stage_context(self, stage: StageSpec, profile: WorkloadProfile) -> StageContext:
        proc = self.platform.processor(stage.processor)
        hot = self.memory.hot_fraction(
            stage.processor,
            int(profile.avg_key_size),
            int(profile.avg_value_size),
            profile.zipf_skew,
        )
        return StageContext(
            cache_line_bytes=proc.cache_line_bytes,
            with_kc=Task.KC in stage,
            with_rd=Task.RD in stage,
            rd_feeds_buffer=Task.RD in stage and Task.WR not in stage,
            hot_fraction=hot,
        )

    def stage_demands(
        self, config: PipelineConfig, profile: WorkloadProfile, batch: int
    ) -> list[list[TaskDemand]]:
        """Per-stage task demands for a batch of ``batch`` queries.

        Per-execution costs are batch-independent, so a unit-batch template
        is cached per ``(config, profile)`` and only the counts are scaled —
        the batch-size binary search calls this once per probe.
        """
        template = self._demand_template(config, profile)
        return [
            [replace_count(demand, multiplier * batch) for demand, multiplier in stage]
            for stage in template
        ]

    def _demand_template(
        self, config: PipelineConfig, profile: WorkloadProfile
    ) -> list[list[tuple[TaskDemand, float]]]:
        """Unit-batch demands per stage, derived from the compiled StagePlan.

        The plan (shared with the functional engines) decides which phases a
        stage executes and in what order; this method only attaches costs:
        whole-task phases get :meth:`TaskModel.demand`, index-op phases get
        :meth:`TaskModel.index_demand` scaled by the fraction of queries
        that trigger the operation.
        """
        key = (config, profile)
        cached = self._template_cache.get(key)
        if cached is not None:
            return cached
        plan = compile_stage_plan(config)
        search_buckets = self._search_buckets(config)
        insert_buckets = profile.insert_buckets * self.fidelity.probe_inflation
        multipliers = {
            IndexOp.SEARCH: profile.get_ratio,
            IndexOp.INSERT: profile.set_ratio,
            IndexOp.DELETE: profile.set_ratio,
        }
        per_stage: list[list[tuple[TaskDemand, float]]] = []
        for stage_index, stage in enumerate(config.stages):
            context = self._stage_context(stage, profile)
            demands: list[tuple[TaskDemand, float]] = []
            for phase in plan.stage_phases(stage_index):
                if phase.kind is PhaseKind.INDEX_OP:
                    demand = self.task_model.index_demand(
                        phase.op,
                        1.0,
                        search_buckets=search_buckets,
                        insert_buckets=insert_buckets,
                    )
                    demands.append((demand, multipliers[phase.op]))
                else:
                    demand = self.task_model.demand(
                        phase.task,
                        1,
                        key_size=profile.avg_key_size,
                        value_size=profile.avg_value_size,
                        get_ratio=profile.get_ratio,
                        context=context,
                    )
                    demands.append((demand, demand.count))
            per_stage.append(demands)
        if len(self._template_cache) > 512:
            self._template_cache.clear()
        self._template_cache[key] = per_stage
        return per_stage

    def _search_buckets(self, config: PipelineConfig) -> float:
        """Average buckets per Search/Delete: theoretical (sum i)/n for two
        hash functions, inflated per fidelity."""
        theoretical = 1.5
        return theoretical * self.fidelity.probe_inflation

    # ---------------------------------------------------------- stage times

    def _stage_time(
        self,
        stage: StageSpec,
        demands: list[TaskDemand],
        mu_cpu: float,
        mu_gpu: float,
        batch: int,
    ) -> StageTime:
        proc = self.platform.processor(stage.processor)
        mu = mu_cpu if stage.processor is ProcessorKind.CPU else mu_gpu
        total_ns = 0.0
        accesses = 0.0
        stealable_ns = 0.0
        index_times: dict[IndexOp, float] = {}
        for demand in demands:
            count = int(round(demand.count))
            if count <= 0:
                if demand.op is not None:
                    index_times[demand.op] = 0.0
                continue
            if stage.processor is ProcessorKind.CPU:
                time_ns = cpu_task_time_ns(
                    proc,
                    count,
                    demand.instructions,
                    demand.pattern,
                    cores=stage.cores,
                    interference=mu,
                )
            else:
                time_ns = gpu_task_time_ns(
                    _without_launch(proc) if not self.fidelity.kernel_overhead else proc,
                    count,
                    demand.instructions,
                    demand.pattern,
                    interference=mu,
                    atomic=demand.atomic,
                )
                time_ns += self._pcie_time(demand, count)
            total_ns += time_ns
            accesses += demand.total_memory_accesses
            if demand.task in GPU_ELIGIBLE_TASKS or demand.task is Task.IN:
                stealable_ns += time_ns
            if demand.op is not None:
                index_times[demand.op] = time_ns
        return StageTime(
            stage=stage,
            time_ns=total_ns,
            memory_accesses=accesses,
            index_op_times=index_times,
            stealable_ns=stealable_ns,
        )

    def _pcie_time(self, demand: TaskDemand, count: int) -> float:
        """PCIe round trip for shipping one kernel's jobs (discrete only)."""
        if self.pcie.coupled:
            return 0.0
        return self.pcie.round_trip_ns(
            count * _PCIE_JOB_IN_BYTES, count * _PCIE_JOB_OUT_BYTES
        )

    def _helper_time(
        self,
        stage: StageSpec,
        demands: list[TaskDemand],
        helper: ProcessorKind,
        helper_cores: int,
        mu_cpu: float,
        mu_gpu: float,
    ) -> float:
        """Time the helper processor would need for the stage's stealable work.

        Only GPU-eligible tasks can move: a CPU helper can execute anything,
        but a GPU helper can only take IN/KC/RD work.
        """
        proc = self.platform.processor(helper)
        mu = mu_cpu if helper is ProcessorKind.CPU else mu_gpu
        total = 0.0
        any_work = False
        for demand in demands:
            stealable = demand.task in GPU_ELIGIBLE_TASKS or demand.task is Task.IN
            if not stealable:
                continue
            count = int(round(demand.count))
            if count <= 0:
                continue
            any_work = True
            if helper is ProcessorKind.CPU:
                total += cpu_task_time_ns(
                    proc, count, demand.instructions, demand.pattern,
                    cores=helper_cores, interference=mu,
                )
            else:
                total += (
                    gpu_task_time_ns(
                        _without_launch(proc) if not self.fidelity.kernel_overhead else proc,
                        count,
                        demand.instructions,
                        demand.pattern,
                        interference=mu,
                        atomic=demand.atomic,
                    )
                    * self.fidelity.gpu_steal_inefficiency
                )
        return total if any_work else math.inf

    # ---------------------------------------------------------- full batch

    def evaluate_batch(
        self, config: PipelineConfig, profile: WorkloadProfile, batch: int
    ) -> tuple[list[StageTime], float, float, StealPlan | None]:
        """Stage times, interference factors and steal plan for one batch size."""
        demands = self.stage_demands(config, profile, batch)
        mu_cpu = mu_gpu = 1.0
        stage_times: list[StageTime] = []
        for _ in range(max(1, self.fidelity.interference_iterations)):
            stage_times = [
                self._stage_time(stage, stage_demands, mu_cpu, mu_gpu, batch)
                for stage, stage_demands in zip(config.stages, demands)
            ]
            tmax = max(st.time_ns for st in stage_times)
            if tmax <= 0:
                break
            cpu_rate, gpu_rate = self._access_rates(stage_times, tmax)
            mu_cpu = self.interference.mu(ProcessorKind.CPU, cpu_rate, gpu_rate)
            mu_gpu = self.interference.mu(ProcessorKind.GPU, cpu_rate, gpu_rate)
        steal = None
        if config.work_stealing:
            steal = self._plan_steal(config, demands, stage_times, mu_cpu, mu_gpu, batch)
        return stage_times, mu_cpu, mu_gpu, steal

    def _access_rates(self, stage_times: list[StageTime], tmax: float) -> tuple[float, float]:
        """(CPU, GPU) random-access rates in accesses/second over the period."""
        cpu = sum(
            st.memory_accesses
            for st in stage_times
            if st.stage.processor is ProcessorKind.CPU
        )
        gpu = sum(
            st.memory_accesses
            for st in stage_times
            if st.stage.processor is ProcessorKind.GPU
        )
        seconds = tmax * 1e-9
        return cpu / seconds, gpu / seconds

    def _plan_steal(
        self,
        config: PipelineConfig,
        demands: list[list[TaskDemand]],
        stage_times: list[StageTime],
        mu_cpu: float,
        mu_gpu: float,
        batch: int,
    ) -> StealPlan | None:
        """Work stealing between the bottleneck stage and the most idle
        other-processor stage (Equation 3, generalised to partially
        stealable stages and optionally chunk-quantized)."""
        if len(stage_times) < 2:
            return None
        times = [st.time_ns for st in stage_times]
        bottleneck = max(range(len(times)), key=times.__getitem__)
        owner_proc = stage_times[bottleneck].stage.processor
        candidates = [
            i
            for i, st in enumerate(stage_times)
            if st.stage.processor is not owner_proc
        ]
        if not candidates:
            return None
        helper_idx = min(candidates, key=times.__getitem__)
        helper_stage = stage_times[helper_idx].stage
        helper_proc = helper_stage.processor
        t_own_total = times[bottleneck]
        t_helper_own = times[helper_idx]
        if t_helper_own >= t_own_total:
            return None
        stealable = stage_times[bottleneck].stealable_ns
        fixed = t_own_total - stealable
        if stealable <= 0:
            return None
        helper_cores = helper_stage.cores if helper_proc is ProcessorKind.CPU else 0
        t_helper_for_work = self._helper_time(
            stage_times[bottleneck].stage,
            demands[bottleneck],
            helper_proc,
            helper_cores,
            mu_cpu,
            mu_gpu,
        )
        if not math.isfinite(t_helper_for_work) or t_helper_for_work <= 0:
            return None
        # Generalised Equation 3 (reduces exactly to the paper's form when
        # the whole stage is stealable): owner processes fixed work plus a
        # (1-s) share of stealable work; helper joins after its own stage.
        t_new = (
            t_helper_own * stealable + t_helper_for_work * (fixed + stealable)
        ) / (stealable + t_helper_for_work)
        t_new = max(t_new, fixed, t_helper_own)
        if self.fidelity.chunked_stealing:
            t_new = self._quantize_steal(
                t_new, t_own_total, stealable, t_helper_for_work, batch
            )
        # Stealing cannot push the period below the other stages' times.
        others = max(
            (t for i, t in enumerate(times) if i != bottleneck), default=0.0
        )
        t_new = max(t_new, others)
        if t_new >= t_own_total:
            return None
        stolen_fraction = min(1.0, max(0.0, (t_own_total - t_new) / max(stealable, 1e-9)))
        return StealPlan(
            applied=True,
            bottleneck_stage=bottleneck,
            helper_stage=helper_idx,
            stolen_fraction=stolen_fraction,
            new_tmax_ns=t_new,
        )

    def _quantize_steal(
        self,
        t_new: float,
        t_own_total: float,
        stealable: float,
        t_helper_for_work: float,
        batch: int,
    ) -> float:
        """Degrade the continuous steal estimate for chunk effects.

        The helper claims wavefront-sized (64-query) chunks through the tag
        array; each claim pays a synchronisation cost, and on average half a
        chunk of work straggles past the continuous finish time.
        """
        stolen_time = max(0.0, t_own_total - t_new)
        if stolen_time <= 0 or batch <= 0:
            return t_new
        fraction = stolen_time / max(stealable, 1e-9)
        total_chunks = max(1.0, batch / self.fidelity.steal_chunk)
        helper_chunks = fraction * total_chunks
        # Helper's serial time per chunk (its whole-work time split evenly).
        chunk_time = t_helper_for_work / total_chunks
        overhead = helper_chunks * self.fidelity.steal_sync_ns
        straggle = 0.5 * chunk_time
        return t_new + overhead + straggle

    # ------------------------------------------------------------- sizing

    def interval_ns(self, config: PipelineConfig, latency_budget_ns: float) -> float:
        """Per-stage scheduling interval ``I`` for a latency budget."""
        return latency_budget_ns / (config.num_stages + _ASSEMBLY_FRACTION)

    def estimate(
        self,
        config: PipelineConfig,
        profile: WorkloadProfile,
        latency_budget_ns: float = 1_000_000.0,
    ) -> PipelineEstimate:
        """Evaluate a configuration: pick the batch size and compute Eq. 4.

        Finds the largest batch ``N`` whose slowest stage stays within the
        interval ``I`` (the paper's periodical scheduling), then reports
        ``S = N / Tmax``.  The analyzer is deterministic, so results are
        memoised per ``(config, profile, budget)`` — time-stepped dynamic
        simulations re-evaluate the same operating points constantly.
        """
        cache_key = (config, profile, latency_budget_ns)
        cached = self._estimate_cache.get(cache_key)
        if cached is not None:
            return cached
        interval = self.interval_ns(config, latency_budget_ns)
        batch, tmax, evaluation = self._max_batch_within(config, profile, interval)
        stage_times, mu_cpu, mu_gpu, steal = evaluation
        times = [st.time_ns for st in stage_times]
        throughput = batch / tmax * 1000.0  # queries/ns -> MOPS
        cpu_util, gpu_util = self._utilizations(config, stage_times, tmax, steal)
        estimate = PipelineEstimate(
            config=config,
            batch_size=batch,
            stage_times_ns=tuple(times),
            tmax_ns=tmax,
            throughput_mops=throughput,
            cpu_utilization=cpu_util,
            gpu_utilization=gpu_util,
            mu_cpu=mu_cpu,
            mu_gpu=mu_gpu,
            index_op_times_ns=self._collect_index_times(stage_times),
            steal=steal,
            latency_ns=tmax * (config.num_stages + _ASSEMBLY_FRACTION),
        )
        if len(self._estimate_cache) > 4096:
            self._estimate_cache.clear()
        self._estimate_cache[cache_key] = estimate
        return estimate

    def _sized(
        self, config: PipelineConfig, profile: WorkloadProfile, batch: int
    ) -> SizedBatch:
        evaluation = self.evaluate_batch(config, profile, batch)
        stage_times, _, _, steal = evaluation
        tmax = max(st.time_ns for st in stage_times)
        if steal is not None and steal.new_tmax_ns < tmax:
            tmax = steal.new_tmax_ns
        return SizedBatch(batch, tmax, evaluation)

    def _max_batch_within(
        self, config: PipelineConfig, profile: WorkloadProfile, interval_ns: float
    ) -> SizedBatch:
        """Largest batch whose Tmax fits in the interval, with its evaluation.

        The ``N`` with ``Tmax(N) <= interval < Tmax(N + 1)`` (``MIN_BATCH``
        when even that does not fit), rounded down to the fidelity's batch
        quantum.  ``Tmax`` is monotone and close to affine in ``N`` (a fixed
        launch cost plus per-query work, the maximum over a few stages), so
        the crossing is bracketed by interpolation — a handful of
        evaluations where doubling and bisection took twenty — and then
        pinned down by evaluating both of its neighbours.
        """
        # Bracket invariant: ``floor`` fits and ``ceiling`` does not.  Both ends
        # start virtual: MIN_BATCH is evaluated only if nothing above it
        # fits, MAX_BATCH never (as in the bisection).
        low = None
        floor, ceiling = MIN_BATCH, MAX_BATCH
        older = None
        latest = self._sized(config, profile, _FIRST_PROBE)
        while True:
            if latest.tmax_ns <= interval_ns:
                low, floor = latest, latest.batch
            else:
                ceiling = latest.batch
            if ceiling - floor <= 1:
                break
            if ceiling - floor <= _BISECT_BELOW:
                # Tmax moves in small steps (rounded per-task counts), which
                # a secant this close to the crossing would chase.
                root = (floor + ceiling) // 2
            elif older is not None and latest.tmax_ns != older.tmax_ns:
                # Secant through the two latest probes.
                root = latest.batch + (interval_ns - latest.tmax_ns) * (
                    (latest.batch - older.batch) / (latest.tmax_ns - older.tmax_ns)
                )
            else:
                # One point: scale through the origin (the fixed launch
                # cost makes this fall short of the crossing, never past).
                root = latest.batch * interval_ns / latest.tmax_ns
            batch = min(max(int(root), floor + 1), ceiling - 1)
            older, latest = latest, self._sized(config, profile, batch)
        if low is None:
            low = self._sized(config, profile, floor)
        quantum = self.fidelity.batch_quantum
        whole = (low.batch // quantum) * quantum
        return low if whole == low.batch else self._sized(config, profile, whole)

    def _utilizations(
        self,
        config: PipelineConfig,
        stage_times: list[StageTime],
        tmax: float,
        steal: StealPlan | None,
    ) -> tuple[float, float]:
        """(CPU, GPU) utilisation over one period of length ``tmax``."""
        total_cores = self.platform.cpu.cores
        cpu_busy_core_ns = 0.0
        gpu_busy_ns = 0.0
        for st in stage_times:
            if st.stage.processor is ProcessorKind.CPU:
                cpu_busy_core_ns += st.time_ns * st.stage.cores
            else:
                gpu_busy_ns += st.time_ns
        if steal is not None and steal.applied:
            bottleneck = stage_times[steal.bottleneck_stage]
            helper = stage_times[steal.helper_stage]
            stolen_ns = steal.stolen_fraction * bottleneck.stealable_ns
            if bottleneck.stage.processor is ProcessorKind.CPU:
                cpu_busy_core_ns -= stolen_ns * bottleneck.stage.cores
                gpu_busy_ns += tmax - helper.time_ns  # helper busy to the end
            else:
                gpu_busy_ns -= stolen_ns
                cpu_busy_core_ns += (tmax - helper.time_ns) * helper.stage.cores
        cpu_util = min(1.0, cpu_busy_core_ns / (total_cores * tmax)) if tmax > 0 else 0.0
        gpu_util = min(1.0, gpu_busy_ns / tmax) if tmax > 0 else 0.0
        return cpu_util, gpu_util

    @staticmethod
    def _collect_index_times(stage_times: list[StageTime]) -> dict[IndexOp, float]:
        out: dict[IndexOp, float] = {}
        for st in stage_times:
            out.update(st.index_op_times)
        return out


class CostModel(PipelineAnalyzer):
    """DIDO's planner: the analyzer locked to :data:`IDEAL_FIDELITY`.

    This is the component the adaptation controller queries; its estimates
    deliberately omit the second-order effects the detailed simulator
    models, reproducing the paper's measured prediction error.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        constants: CalibrationConstants = DEFAULT_CALIBRATION,
    ):
        super().__init__(platform, IDEAL_FIDELITY, constants)


def replace_count(demand: TaskDemand, count: float) -> TaskDemand:
    """Copy of a demand with a scaled execution count (template expansion)."""
    return TaskDemand(
        task=demand.task,
        count=count,
        instructions=demand.instructions,
        pattern=demand.pattern,
        atomic=demand.atomic,
        op=demand.op,
    )


def _without_launch(proc):
    """GPU spec copy with zero kernel-launch overhead (planner fidelity)."""
    from dataclasses import replace

    if proc.kernel_launch_ns == 0.0:
        return proc
    return replace(proc, kernel_launch_ns=0.0)
