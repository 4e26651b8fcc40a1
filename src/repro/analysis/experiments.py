"""One function per paper figure: the experiment harness.

Each ``figNN_*`` function runs the corresponding experiment of the paper's
Section V and returns structured rows; the benchmark suite times and prints
them, and ``tools/make_experiments_md.py`` renders EXPERIMENTS.md from the
same source, so the repository's claims and its benchmarks can never drift
apart.

All ``figNN_*`` functions are deterministic (the simulator is analytic and
the generators are seeded).  :func:`host_kernel_choice` is Figures 9 and 10
on the substrate the server actually runs on, so it measures wall time.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from repro.analysis.metrics import (
    energy_efficiency_kops_per_watt,
    error_rate,
    price_performance_kops_per_usd,
)
from repro.core.config_search import ConfigurationSearch, enumerate_configs
from repro.core.controller import AdaptationController
from repro.core.cost_model import CostModel, PipelineEstimate
from repro.core.profiler import KERNELS, HostCostModel, WorkloadProfile
from repro.core.tasks import IndexOp
from repro.engine import BatchPlane, VectorEngine, compile_stage_plan
from repro.hardware.specs import APU_A10_7850K, DISCRETE_MEGAKV, PlatformSpec
from repro.kv.protocol import Query, QueryType, encode_queries
from repro.kv.store import KVStore
from repro.net.wire import decode_payload
from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.megakv import (
    megakv_coupled_config,
    megakv_discrete_config,
    megakv_executor,
)
from repro.core.pipeline_config import PipelineConfig
from repro.workloads.dynamic import AlternatingWorkload
from repro.workloads.ycsb import STANDARD_WORKLOADS, WorkloadSpec, standard_workload

#: The paper's default latency budget (Section V-A).
LATENCY_BUDGET_NS = 1_000_000.0

#: Mega-KV (Discrete) is compared on the 12 workloads shared with the
#: original Mega-KV paper (Section V-E: no 50 % GET, no K32).
DISCRETE_COMPARISON_LABELS = (
    "K8-G100-U", "K8-G95-U", "K8-G100-S", "K8-G95-S",
    "K16-G100-U", "K16-G95-U", "K16-G100-S", "K16-G95-S",
    "K128-G100-U", "K128-G95-U", "K128-G100-S", "K128-G95-S",
)


@dataclass
class Harness:
    """Shared executors/searchers so repeated figures reuse warm objects."""

    platform: PlatformSpec = APU_A10_7850K
    latency_budget_ns: float = LATENCY_BUDGET_NS

    def __post_init__(self) -> None:
        self.executor = PipelineExecutor(self.platform)
        self.megakv_exec = megakv_executor(self.platform)
        self.cost_model = CostModel(self.platform)
        self.planner = ConfigurationSearch(self.cost_model)
        self.oracle = ConfigurationSearch(self.executor)
        self._dido_cache: dict[str, tuple[PipelineConfig, PipelineEstimate]] = {}

    # ------------------------------------------------------------- helpers

    def profile(self, spec: WorkloadSpec) -> WorkloadProfile:
        return WorkloadProfile.from_spec(spec)

    def megakv_measure(self, spec: WorkloadSpec):
        """Mega-KV (Coupled) measurement (static pipeline, port overhead)."""
        return self.megakv_exec.measure(
            megakv_coupled_config(self.platform.cpu.cores),
            self.profile(spec),
            self.latency_budget_ns,
        )

    def dido_plan(self, spec: WorkloadSpec) -> tuple[PipelineConfig, PipelineEstimate]:
        """DIDO's cost-model-chosen configuration and its estimate (cached)."""
        key = spec.label
        if key not in self._dido_cache:
            best = self.planner.best(self.profile(spec), self.latency_budget_ns)
            self._dido_cache[key] = (best.config, best.estimate)
        return self._dido_cache[key]

    def dido_measure(self, spec: WorkloadSpec):
        """Measured performance of DIDO's chosen configuration."""
        config, _ = self.dido_plan(spec)
        return self.executor.measure(config, self.profile(spec), self.latency_budget_ns)


# --------------------------------------------------------------- Figure 4/5


@dataclass
class StageTimeRow:
    dataset: str
    np_us: float
    in_us: float
    rsv_us: float
    gpu_utilization: float
    cpu_utilization: float
    batch: int


def fig04_stage_times(harness: Harness | None = None) -> list[StageTimeRow]:
    """Figure 4 (+5): Mega-KV (Coupled) per-stage times and utilisation.

    Workloads: the four datasets at 95 % GET, Zipf 0.99 — the setup of the
    paper's Figure 4 caption.
    """
    h = harness or Harness()
    rows = []
    for name in ("K8", "K16", "K32", "K128"):
        spec = standard_workload(f"{name}-G95-S")
        m = h.megakv_measure(spec)
        times = m.estimate.stage_times_us
        rows.append(
            StageTimeRow(
                dataset=name,
                np_us=times[0],
                in_us=times[1],
                rsv_us=times[2],
                gpu_utilization=m.gpu_utilization,
                cpu_utilization=m.cpu_utilization,
                batch=m.batch_size,
            )
        )
    return rows


# ----------------------------------------------------------------- Figure 6


@dataclass
class IndexOpShareRow:
    insert_batch: int
    search_share: float
    insert_share: float
    delete_share: float


def fig06_index_op_shares(harness: Harness | None = None) -> list[IndexOpShareRow]:
    """Figure 6: share of GPU time per index operation vs Insert batch size.

    95 % GET / 5 % SET: an insert batch of ``n`` implies ``n`` deletes and
    ``19 n`` searches.  The paper's claim: although Insert+Delete are <10 %
    of operations, they consume 35-56 % of GPU execution time.
    """
    h = harness or Harness()
    from repro.hardware.processor import gpu_task_time_ns

    model = h.executor.task_model
    gpu = h.platform.gpu
    rows = []
    for inserts in (1000, 2000, 3000, 4000, 5000):
        searches = inserts * 19
        t = {}
        for op, count in ((IndexOp.SEARCH, searches), (IndexOp.INSERT, inserts), (IndexOp.DELETE, inserts)):
            demand = model.index_demand(op, count, search_buckets=1.77, insert_buckets=2.36)
            t[op] = gpu_task_time_ns(
                gpu, count, demand.instructions, demand.pattern, atomic=demand.atomic
            )
        total = sum(t.values())
        rows.append(
            IndexOpShareRow(
                insert_batch=inserts,
                search_share=t[IndexOp.SEARCH] / total,
                insert_share=t[IndexOp.INSERT] / total,
                delete_share=t[IndexOp.DELETE] / total,
            )
        )
    return rows


# ----------------------------------------------------------------- Figure 9


@dataclass
class ErrorRateRow:
    workload: str
    estimated_mops: float
    measured_mops: float
    error: float


def fig09_cost_model_error(harness: Harness | None = None) -> list[ErrorRateRow]:
    """Figure 9: cost-model error rate over the 24 standard workloads.

    ``error = (T_DIDO - T_Model) / T_DIDO`` with T_DIDO the measured
    throughput of DIDO's chosen configuration.
    """
    h = harness or Harness()
    rows = []
    for spec in STANDARD_WORKLOADS:
        config, estimate = h.dido_plan(spec)
        measured = h.dido_measure(spec)
        rows.append(
            ErrorRateRow(
                workload=spec.label,
                estimated_mops=estimate.throughput_mops,
                measured_mops=measured.throughput_mops,
                error=error_rate(measured.throughput_mops, estimate.throughput_mops),
            )
        )
    return rows


# ---------------------------------------------------------------- Figure 10


@dataclass
class OptimalityRow:
    workload: str
    dido_mops: float
    optimal_mops: float
    worst_mops: float
    dido_config: str
    optimal_config: str

    @property
    def mismatch(self) -> bool:
        return self.dido_config != self.optimal_config

    @property
    def optimal_gap(self) -> float:
        return self.optimal_mops / self.dido_mops


def fig10_optimality(harness: Harness | None = None) -> list[OptimalityRow]:
    """Figure 10: DIDO's choice vs the exhaustively measured optimum.

    Every configuration is measured with the detailed simulator; the row
    records DIDO's measured throughput, the true optimum, and the worst
    configuration (the paper's error bars span best..worst normalised to
    DIDO).
    """
    h = harness or Harness()
    rows = []
    for spec in STANDARD_WORKLOADS:
        profile = h.profile(spec)
        config, _ = h.dido_plan(spec)
        measured = h.executor.measure(config, profile, h.latency_budget_ns)
        ranked = h.oracle.rank(profile, h.latency_budget_ns)
        rows.append(
            OptimalityRow(
                workload=spec.label,
                dido_mops=measured.throughput_mops,
                optimal_mops=ranked[0].throughput_mops,
                worst_mops=ranked[-1].throughput_mops,
                dido_config=config.label,
                optimal_config=ranked[0].config.label,
            )
        )
    return rows


# ---------------------------------------------------------------- Figure 11


@dataclass
class SpeedupRow:
    workload: str
    baseline_mops: float
    dido_mops: float
    dido_config: str

    @property
    def speedup(self) -> float:
        return self.dido_mops / self.baseline_mops


def fig11_throughput(harness: Harness | None = None) -> list[SpeedupRow]:
    """Figure 11: DIDO over Mega-KV (Coupled) on all 24 workloads."""
    h = harness or Harness()
    rows = []
    for spec in STANDARD_WORKLOADS:
        base = h.megakv_measure(spec)
        dido = h.dido_measure(spec)
        config, _ = h.dido_plan(spec)
        rows.append(
            SpeedupRow(
                workload=spec.label,
                baseline_mops=base.throughput_mops,
                dido_mops=dido.throughput_mops,
                dido_config=config.label,
            )
        )
    return rows


# ---------------------------------------------------------------- Figure 12


@dataclass
class UtilizationRow:
    workload: str
    dido_gpu: float
    megakv_gpu: float
    dido_cpu: float
    megakv_cpu: float


def fig12_utilization(harness: Harness | None = None) -> list[UtilizationRow]:
    """Figure 12: CPU and GPU utilisation, DIDO vs Mega-KV (Coupled)."""
    h = harness or Harness()
    rows = []
    for name in ("K8", "K16", "K32", "K128"):
        spec = standard_workload(f"{name}-G95-S")
        base = h.megakv_measure(spec)
        dido = h.dido_measure(spec)
        rows.append(
            UtilizationRow(
                workload=spec.label,
                dido_gpu=dido.gpu_utilization,
                megakv_gpu=base.gpu_utilization,
                dido_cpu=dido.cpu_utilization,
                megakv_cpu=base.cpu_utilization,
            )
        )
    return rows


# ---------------------------------------------------------------- Figure 13


@dataclass
class TechniqueRow:
    workload: str
    baseline_mops: float
    technique_mops: float
    detail: str = ""

    @property
    def speedup(self) -> float:
        return self.technique_mops / self.baseline_mops


def fig13_flexible_index(harness: Harness | None = None) -> list[TechniqueRow]:
    """Figure 13: flexible index-operation assignment, pipeline fixed.

    Partitioning pinned to Mega-KV's; baseline = all index ops on the GPU;
    technique = the best of the four Insert/Delete placements.  G95 and G50
    workloads, no work stealing (isolating the one technique).
    """
    h = harness or Harness()
    fixed = megakv_coupled_config(h.platform.cpu.cores)
    policies = enumerate_configs(
        h.platform.cpu.cores, work_stealing=False, fixed_pipeline=fixed
    )
    baseline_config = fixed.with_work_stealing(False)
    rows = []
    for spec in STANDARD_WORKLOADS:
        if spec.get_ratio not in (0.95, 0.50):
            continue
        profile = h.profile(spec)
        base = h.executor.measure(baseline_config, profile, h.latency_budget_ns)
        best = max(
            (h.executor.measure(c, profile, h.latency_budget_ns) for c in policies),
            key=lambda m: m.throughput_mops,
        )
        rows.append(
            TechniqueRow(
                workload=spec.label,
                baseline_mops=base.throughput_mops,
                technique_mops=best.throughput_mops,
            )
        )
    return rows


# ---------------------------------------------------------------- Figure 14


def fig14_dynamic_pipeline(harness: Harness | None = None) -> list[TechniqueRow]:
    """Figure 14: dynamic pipeline partitioning for the workloads where
    DIDO's plan differs from Mega-KV's partitioning.

    Baseline = Mega-KV's partitioning with the best index policy (so the
    delta is attributable to repartitioning alone); both sides without work
    stealing.
    """
    h = harness or Harness()
    fixed = megakv_coupled_config(h.platform.cpu.cores)
    policies = enumerate_configs(
        h.platform.cpu.cores, work_stealing=False, fixed_pipeline=fixed
    )
    rows = []
    for spec in STANDARD_WORKLOADS:
        profile = h.profile(spec)
        planned = h.planner.best(
            profile, h.latency_budget_ns, work_stealing=False
        ).config
        same_partition = tuple(s.tasks for s in planned.stages) == tuple(
            s.tasks for s in fixed.stages
        )
        if same_partition:
            continue
        base = max(
            (h.executor.measure(c, profile, h.latency_budget_ns) for c in policies),
            key=lambda m: m.throughput_mops,
        )
        dyn = h.executor.measure(planned, profile, h.latency_budget_ns)
        rows.append(
            TechniqueRow(
                workload=spec.label,
                baseline_mops=base.throughput_mops,
                technique_mops=dyn.throughput_mops,
                detail=planned.label,
            )
        )
    return rows


# ---------------------------------------------------------------- Figure 15


def fig15_work_stealing(harness: Harness | None = None) -> list[TechniqueRow]:
    """Figure 15: work stealing on top of DIDO's chosen configuration.

    Baseline = the configuration the planner picks when stealing is off;
    technique = the same configuration with stealing enabled (the paper
    applies stealing after the other two techniques are configured).
    """
    h = harness or Harness()
    rows = []
    for spec in STANDARD_WORKLOADS:
        profile = h.profile(spec)
        best_no_steal = h.planner.best(
            profile, h.latency_budget_ns, work_stealing=False
        )
        base = h.executor.measure(
            best_no_steal.config, profile, h.latency_budget_ns
        )
        stealing = h.executor.measure(
            best_no_steal.config.with_work_stealing(True), profile, h.latency_budget_ns
        )
        rows.append(
            TechniqueRow(
                workload=spec.label,
                baseline_mops=base.throughput_mops,
                technique_mops=stealing.throughput_mops,
            )
        )
    return rows


# ------------------------------------------------------------ Figures 16-18


@dataclass
class PlatformComparisonRow:
    workload: str
    dido_mops: float
    megakv_discrete_mops: float
    megakv_coupled_mops: float

    def price_performance(self) -> tuple[float, float]:
        """(DIDO, Mega-KV discrete) in KOPS/USD."""
        return (
            price_performance_kops_per_usd(self.dido_mops, APU_A10_7850K.price_usd),
            price_performance_kops_per_usd(
                self.megakv_discrete_mops, DISCRETE_MEGAKV.price_usd
            ),
        )

    def energy_efficiency(self) -> tuple[float, float]:
        """(DIDO, Mega-KV discrete) in KOPS/W."""
        return (
            energy_efficiency_kops_per_watt(self.dido_mops, APU_A10_7850K.tdp_watts),
            energy_efficiency_kops_per_watt(
                self.megakv_discrete_mops, DISCRETE_MEGAKV.tdp_watts
            ),
        )


def fig16_discrete_comparison(harness: Harness | None = None) -> list[PlatformComparisonRow]:
    """Figures 16-18: DIDO (APU) vs Mega-KV (Discrete) on 12 workloads.

    Section V-E omits network I/O for these comparisons; we keep the NIC
    cost model (it is small) and compare throughputs directly — the paper's
    conclusions are about ratios across an order-of-magnitude gap.
    """
    h = harness or Harness()
    discrete_exec = megakv_executor(DISCRETE_MEGAKV)
    discrete_cfg = megakv_discrete_config(DISCRETE_MEGAKV.cpu.cores)
    rows = []
    for label in DISCRETE_COMPARISON_LABELS:
        spec = standard_workload(label)
        profile = h.profile(spec)
        dido = h.dido_measure(spec)
        coupled = h.megakv_measure(spec)
        discrete = discrete_exec.measure(discrete_cfg, profile, h.latency_budget_ns)
        rows.append(
            PlatformComparisonRow(
                workload=label,
                dido_mops=dido.throughput_mops,
                megakv_discrete_mops=discrete.throughput_mops,
                megakv_coupled_mops=coupled.throughput_mops,
            )
        )
    return rows


# ---------------------------------------------------------------- Figure 19


@dataclass
class LatencyRow:
    workload: str
    latency_us: float
    baseline_mops: float
    dido_mops: float

    @property
    def improvement(self) -> float:
        return self.dido_mops / self.baseline_mops - 1.0


def fig19_latency_budgets(harness: Harness | None = None) -> list[LatencyRow]:
    """Figure 19: DIDO's improvement at 600/800/1000 us latency budgets."""
    h = harness or Harness()
    rows = []
    for label in ("K8-G50-U", "K16-G100-S", "K32-G95-S", "K32-G50-U"):
        spec = standard_workload(label)
        profile = h.profile(spec)
        for latency_us in (600.0, 800.0, 1000.0):
            budget = latency_us * 1000.0
            base = h.megakv_exec.measure(
                megakv_coupled_config(h.platform.cpu.cores), profile, budget
            )
            best = h.planner.best(profile, budget)
            dido = h.executor.measure(best.config, profile, budget)
            rows.append(
                LatencyRow(
                    workload=label,
                    latency_us=latency_us,
                    baseline_mops=base.throughput_mops,
                    dido_mops=dido.throughput_mops,
                )
            )
    return rows


# ------------------------------------------------------------ Figures 20-21


@dataclass
class AdaptationTimeline:
    times_ms: list[float]
    throughput_mops: list[float]
    configs: list[str]
    replans: int


def fig20_adaptation_timeline(
    harness: Harness | None = None,
    cycle_ms: float = 6.0,
    duration_ms: float = 15.0,
) -> AdaptationTimeline:
    """Figure 20: throughput under alternating K8-G50-U / K16-G95-S traffic.

    The schedule switches every ``cycle_ms / 2`` (the paper alternates every
    3 ms).  The controller sees each batch's profile and re-plans on the
    >10 % change; in-flight batches run under the old configuration, so the
    throughput dips and recovers within about a millisecond.
    """
    h = harness or Harness()
    spec_a = standard_workload("K8-G50-U")
    spec_b = standard_workload("K16-G95-S")
    workload = AlternatingWorkload(
        spec_a, spec_b, cycle_ns=cycle_ms * 1e6, num_keys=100_000
    )
    controller = AdaptationController(h.platform, h.latency_budget_ns)

    def schedule(now_ns: float):
        spec = workload.spec_at(now_ns)
        profile = WorkloadProfile.from_spec(spec)
        # One-batch apply delay: the batch assembled now still runs under
        # the previously planned configuration (pipeline info is embedded
        # per batch); the profile observed now shapes the *next* plan.
        previous = controller.current_config
        planned = controller.config_for(profile)
        return (previous or planned), profile

    points = h.executor.run_timeline(
        schedule, duration_ns=duration_ms * 1e6, sample_every_ns=300_000.0
    )
    return AdaptationTimeline(
        times_ms=[p.time_ns / 1e6 for p in points],
        throughput_mops=[p.throughput_mops for p in points],
        configs=[p.config_label for p in points],
        replans=controller.replan_count,
    )


@dataclass
class FluctuationRow:
    cycle_ms: float
    dido_mops: float
    megakv_mops: float

    @property
    def speedup(self) -> float:
        return self.dido_mops / self.megakv_mops


def fig21_fluctuation(
    harness: Harness | None = None,
    cycles_ms: tuple[float, ...] = (2, 4, 8, 16, 32, 64, 128, 256),
) -> list[FluctuationRow]:
    """Figure 21: speedup vs workload alternate cycle (2-256 ms).

    Shorter cycles waste more time in the ~1 ms re-adaptation window, so the
    speedup over static Mega-KV grows with the cycle length and saturates.
    """
    h = harness or Harness()
    spec_a = standard_workload("K8-G50-U")
    spec_b = standard_workload("K16-G95-S")
    mk_cfg = megakv_coupled_config(h.platform.cpu.cores)
    rows = []
    for cycle_ms in cycles_ms:
        duration_ns = max(4.0, 2 * cycle_ms) * 1e6
        workload = AlternatingWorkload(
            spec_a, spec_b, cycle_ns=cycle_ms * 1e6, num_keys=100_000
        )
        controller = AdaptationController(h.platform, h.latency_budget_ns)

        def dido_schedule(now_ns: float):
            spec = workload.spec_at(now_ns)
            profile = WorkloadProfile.from_spec(spec)
            previous = controller.current_config
            planned = controller.config_for(profile)
            return (previous or planned), profile

        def megakv_schedule(now_ns: float):
            spec = workload.spec_at(now_ns)
            return mk_cfg, WorkloadProfile.from_spec(spec)

        dido_points = h.executor.run_timeline(dido_schedule, duration_ns)
        mk_points = h.megakv_exec.run_timeline(megakv_schedule, duration_ns)
        dido_avg = sum(p.throughput_mops for p in dido_points) / len(dido_points)
        mk_avg = sum(p.throughput_mops for p in mk_points) / len(mk_points)
        rows.append(
            FluctuationRow(cycle_ms=cycle_ms, dido_mops=dido_avg, megakv_mops=mk_avg)
        )
    return rows


# ------------------------------------------- Figures 9 and 10 on the host


#: ``name: (key bytes, value bytes, GET share, SET share)`` — the rest are
#: DELETEs.  The serving benchmark's ``write-heavy`` mix and its 95 %-GET
#: read mix.
HOST_MIXES = {
    "write-heavy": (32, 256, 0.50, 0.45),
    "read-95": (16, 64, 0.95, 0.05),
}

#: Queries per window: the fixed rates' window sizes (40, 160) and one the
#: columnar kernels were built for.
HOST_WINDOWS = (40, 160, 1024)

_HOST_KEYS = 8192
_HOST_WARMUP_WINDOWS = 36
_HOST_MEASURED_WINDOWS = 60


@dataclass
class HostKernelRow:
    """One (mix, window size) cell: both Search kernels measured, and what
    the fitted model did with it."""

    mix: str
    window: int
    #: Median engine time per window (us) with Search forced onto each
    #: kernel.
    forced_us: dict[str, float]
    #: The Search kernel the chooser ran most once bootstrapped, and its
    #: own median time per window (us), exploration windows included.
    picked: str
    chooser_us: float
    #: Mean ``|predicted - measured| / measured`` of the Search pass over
    #: the chooser run's measured windows (Figure 9 on the host).
    model_error: float

    @property
    def best(self) -> str:
        return min(self.forced_us, key=self.forced_us.get)

    @property
    def gap(self) -> float:
        """Chooser time over the measured optimum's, minus one."""
        return self.chooser_us / self.forced_us[self.best] - 1.0

    @property
    def near_optimal(self) -> bool:
        """Figure 10 on the host: the pick is within 10 % of the optimum."""
        return self.gap <= 0.10


class _AuditedCosts(HostCostModel):
    """A host cost model that records what it chose and how wrong it was;
    with ``forced`` set it places nothing itself."""

    def __init__(self, forced: str | None = None):
        super().__init__()
        self.forced = forced
        self.picks: list[str] = []
        self.errors: list[float] = []

    def choose(self, pass_name, n):
        kernel = self.forced or super().choose(pass_name, n)
        self.picks.append(kernel)
        return kernel

    def observe(self, pass_name, kernel, n, elapsed_us):
        error = self.relative_error(pass_name, kernel, n, elapsed_us)
        if error is not None:
            self.errors.append(error)
        super().observe(pass_name, kernel, n, elapsed_us)


def _host_windows(rng: random.Random, keys, mix: str, size: int, count: int):
    """``count`` windows of ``size`` queries, decoded off the wire like the
    server's (so the opcode column rides along)."""
    _, value_bytes, get_share, set_share = HOST_MIXES[mix]
    value = b"v" * value_bytes
    windows = []
    for _ in range(count):
        queries = []
        for _ in range(size):
            draw = rng.random()
            key = rng.choice(keys)
            if draw < get_share:
                queries.append(Query(QueryType.GET, key))
            elif draw < get_share + set_share:
                queries.append(Query(QueryType.SET, key, value))
            else:
                queries.append(Query(QueryType.DELETE, key))
        windows.append(decode_payload(encode_queries(queries)))
    return windows


def _host_cell(mix: str, size: int, rng: random.Random) -> HostKernelRow:
    """Measure one cell: the two forced kernels and the chooser each serve
    the same windows on their own identically prefilled store, interleaved
    window by window (rotating who goes first) so drift in the host's
    state lands on all three alike."""
    key_bytes, value_bytes, _, _ = HOST_MIXES[mix]
    keys = [b"k" * (key_bytes - 8) + b"%08d" % i for i in range(_HOST_KEYS)]
    items = [(key, b"v" * value_bytes) for key in keys]
    plan = compile_stage_plan(megakv_coupled_config())
    runs = []
    for forced in (*KERNELS, None):  # None: the chooser
        store = KVStore(64 << 20, 65536)
        store.populate(items)
        engine = VectorEngine()
        engine.costs = _AuditedCosts(forced)
        runs.append((forced, store, engine, []))
    windows = _host_windows(
        rng, keys, mix, size, _HOST_WARMUP_WINDOWS + _HOST_MEASURED_WINDOWS
    )
    chooser = runs[-1][2].costs
    for index, window in enumerate(windows):
        if index == _HOST_WARMUP_WINDOWS:
            del chooser.picks[:], chooser.errors[:]
        turn = index % len(runs)
        for _forced, store, engine, times in runs[turn:] + runs[:turn]:
            plane = BatchPlane(window)
            started = time.perf_counter()
            engine.run(store, plan, plane)
            times.append((time.perf_counter() - started) * 1e6)
            if store.needs_maintenance:
                store.maintenance()
    medians = {
        forced: statistics.median(times[_HOST_WARMUP_WINDOWS:])
        for forced, _store, _engine, times in runs
    }
    return HostKernelRow(
        mix=mix,
        window=size,
        forced_us={kernel: medians[kernel] for kernel in KERNELS},
        picked=statistics.mode(chooser.picks),
        chooser_us=medians[None],
        model_error=statistics.fmean(chooser.errors),
    )


def host_kernel_choice(seed: int = 7) -> list[HostKernelRow]:
    """Figures 9 and 10 on the host substrate: is the fitted Search cost
    model right, and is the kernel it picks the measured optimum?

    Over {``write-heavy``, 95 %-GET} x {40, 160, 1024}-query windows: time
    :class:`VectorEngine` with Search forced onto each kernel in process
    (median of 60 windows after 36 of warm-up) next to a fresh
    :class:`HostCostModel` placing the same windows itself, and record its
    pick, its time, and its per-window prediction error.
    """
    rng = random.Random(seed)
    return [_host_cell(mix, size, rng) for mix in HOST_MIXES for size in HOST_WINDOWS]
