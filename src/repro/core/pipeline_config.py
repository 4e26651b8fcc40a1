"""Pipeline partitioning schemes and index-operation assignment policies.

(Defined inside ``repro.core`` so the cost model can depend on these types
without a package-level import cycle.)

A :class:`PipelineConfig` captures one point of DIDO's configuration space
(Section III): a contiguous partition of the eight tasks into stages mapped
to processors, which index operations run where, how CPU cores are split
between CPU stages, and whether work stealing is enabled.

Structural constraints (and where they come from):

* stages are contiguous slices of the canonical task order — queries flow
  forward through the pipeline;
* the first and last stages run on the CPU (RV/SD talk to the NIC), and
  only IN/KC/RD are GPU-eligible, so a pipeline is
  ``CPU prefix -> optional GPU segment -> CPU suffix`` (this spans every
  pipeline the paper exhibits, including Mega-KV's and both of Figure 8's);
* Insert and Delete may be reassigned to the CPU prefix stage (which hosts
  MM, their producer) when Search runs on the GPU — the paper's flexible
  index-operation assignment;
* CPU cores are split between the prefix and suffix stages; a CPU-only
  pipeline is a single stage owning every core.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tasks import (
    CPU_ONLY_TASKS,
    GPU_ELIGIBLE_TASKS,
    TASK_ORDER,
    IndexOp,
    Task,
    contiguous_in_order,
)
from repro.errors import ConfigurationError
from repro.hardware.specs import ProcessorKind


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: an ordered task set bound to a processor.

    ``cores`` is meaningful for CPU stages only (the GPU is always used
    whole).  ``index_ops`` lists which index operations this stage executes
    (only stages containing IN, or the CPU prefix when Insert/Delete are
    pulled back, have any).
    """

    tasks: tuple[Task, ...]
    processor: ProcessorKind
    cores: int = 0
    index_ops: tuple[IndexOp, ...] = ()

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ConfigurationError("a stage must contain at least one task")
        if not contiguous_in_order(self.tasks):
            raise ConfigurationError(f"stage tasks {self.tasks} are not contiguous in order")
        if self.processor is ProcessorKind.GPU:
            illegal = set(self.tasks) & CPU_ONLY_TASKS
            if illegal:
                raise ConfigurationError(f"tasks {illegal} cannot run on the GPU")
            if self.cores:
                raise ConfigurationError("GPU stages do not take a core allocation")
        elif self.cores <= 0:
            raise ConfigurationError("a CPU stage needs at least one core")

    def __contains__(self, task: Task) -> bool:
        return task in self.tasks

    @property
    def label(self) -> str:
        """Paper-style rendering, e.g. ``[IN, KC, RD]GPU``."""
        names = ", ".join(t.name for t in self.tasks)
        return f"[{names}]{self.processor.value.upper()}"


@dataclass(frozen=True)
class PipelineConfig:
    """A complete pipeline configuration (partitioning + index assignment).

    Build via :meth:`assemble` which enforces all structural constraints and
    derives per-stage index-operation placement.
    """

    stages: tuple[StageSpec, ...]
    insert_on_cpu: bool = False
    delete_on_cpu: bool = False
    work_stealing: bool = True

    def __post_init__(self) -> None:
        tasks = tuple(t for stage in self.stages for t in stage.tasks)
        if tasks != TASK_ORDER:
            raise ConfigurationError(
                f"stages must cover all eight tasks exactly once in order, got {tasks}"
            )
        if self.stages[0].processor is not ProcessorKind.CPU:
            raise ConfigurationError("the first stage (RV) must run on the CPU")
        if self.stages[-1].processor is not ProcessorKind.CPU:
            raise ConfigurationError("the last stage (SD) must run on the CPU")
        gpu_stages = [s for s in self.stages if s.processor is ProcessorKind.GPU]
        if len(gpu_stages) > 1:
            raise ConfigurationError("at most one GPU stage (a single GPU device)")

    def __hash__(self) -> int:
        # A config keys every planner cache (compiled plans, demand
        # templates, estimates) and is looked up per batch; hashing it
        # walks three stages of enum members, whose ``__hash__`` is a
        # Python-level call.  Frozen, so hash once.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                (self.stages, self.insert_on_cpu, self.delete_on_cpu, self.work_stealing)
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # Enum hashes differ between interpreter processes (string hash
        # randomisation), so the cached hash must not travel in a pickle.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # ------------------------------------------------------------- assembly

    @classmethod
    def assemble(
        cls,
        gpu_tasks: tuple[Task, ...] = (),
        *,
        total_cpu_cores: int,
        prefix_cores: int | None = None,
        insert_on_cpu: bool = False,
        delete_on_cpu: bool = False,
        work_stealing: bool = True,
    ) -> "PipelineConfig":
        """Build a config from its degrees of freedom.

        ``gpu_tasks`` is the contiguous GPU segment (empty for CPU-only).
        ``prefix_cores`` allocates CPU cores to the prefix stage, remainder
        to the suffix; defaults to an even split.
        """
        if total_cpu_cores <= 0:
            raise ConfigurationError("total_cpu_cores must be positive")
        if not gpu_tasks:
            if insert_on_cpu or delete_on_cpu:
                raise ConfigurationError(
                    "index reassignment is meaningless without a GPU stage"
                )
            stage = StageSpec(
                TASK_ORDER,
                ProcessorKind.CPU,
                cores=total_cpu_cores,
                index_ops=tuple(IndexOp),
            )
            return cls(stages=(stage,), work_stealing=work_stealing)

        if not contiguous_in_order(gpu_tasks):
            raise ConfigurationError(f"GPU segment {gpu_tasks} must be contiguous")
        if not set(gpu_tasks) <= GPU_ELIGIBLE_TASKS:
            raise ConfigurationError(f"GPU segment {gpu_tasks} contains CPU-only tasks")
        first, last = gpu_tasks[0].value, gpu_tasks[-1].value
        prefix_tasks = TASK_ORDER[:first]
        suffix_tasks = TASK_ORDER[last + 1 :]
        if total_cpu_cores < 2:
            raise ConfigurationError("two CPU stages need at least two cores")
        if prefix_cores is None:
            prefix_cores = total_cpu_cores // 2
        if not 1 <= prefix_cores <= total_cpu_cores - 1:
            raise ConfigurationError(
                f"prefix_cores={prefix_cores} must leave >=1 core for the suffix"
            )

        search_on_gpu = Task.IN in gpu_tasks
        if (insert_on_cpu or delete_on_cpu) and not search_on_gpu:
            raise ConfigurationError(
                "Insert/Delete reassignment applies only when IN runs on the GPU"
            )
        prefix_ops: list[IndexOp] = []
        gpu_ops: list[IndexOp] = []
        if search_on_gpu:
            gpu_ops.append(IndexOp.SEARCH)
            (prefix_ops if insert_on_cpu else gpu_ops).append(IndexOp.INSERT)
            (prefix_ops if delete_on_cpu else gpu_ops).append(IndexOp.DELETE)
        else:
            # IN stayed in the CPU prefix (e.g. GPU segment = [KC, RD]).
            prefix_ops.extend(IndexOp)

        stages = (
            StageSpec(
                prefix_tasks,
                ProcessorKind.CPU,
                cores=prefix_cores,
                index_ops=tuple(prefix_ops),
            ),
            StageSpec(gpu_tasks, ProcessorKind.GPU, index_ops=tuple(gpu_ops)),
            StageSpec(
                suffix_tasks,
                ProcessorKind.CPU,
                cores=total_cpu_cores - prefix_cores,
                index_ops=(),
            ),
        )
        return cls(
            stages=stages,
            insert_on_cpu=insert_on_cpu,
            delete_on_cpu=delete_on_cpu,
            work_stealing=work_stealing,
        )

    # -------------------------------------------------------------- queries

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def gpu_stage(self) -> StageSpec | None:
        for stage in self.stages:
            if stage.processor is ProcessorKind.GPU:
                return stage
        return None

    def with_work_stealing(self, enabled: bool) -> "PipelineConfig":
        """Copy of this config with work stealing toggled."""
        return PipelineConfig(
            stages=self.stages,
            insert_on_cpu=self.insert_on_cpu,
            delete_on_cpu=self.delete_on_cpu,
            work_stealing=enabled,
        )

    @property
    def label(self) -> str:
        """Paper-style pipeline notation with index-op annotations."""
        # Every executed window names its config on its BatchResult;
        # frozen, so build the string once (like the hash above).
        text = self.__dict__.get("_label")
        if text is None:
            text = " -> ".join(stage.label for stage in self.stages)
            notes = []
            if self.insert_on_cpu:
                notes.append("Insert@CPU")
            if self.delete_on_cpu:
                notes.append("Delete@CPU")
            if notes:
                text += " (" + ", ".join(notes) + ")"
            object.__setattr__(self, "_label", text)
        return text


def gpu_segments() -> tuple[tuple[Task, ...], ...]:
    """All legal contiguous GPU segments, including the empty one.

    Derived from :data:`GPU_ELIGIBLE_TASKS` (IN, KC, RD).  Every GPU
    segment starts at IN — the paper's pipelines (Figure 8, Section V-C)
    always offload the index together with any downstream tasks, because
    IN's output (candidate locations) is what the GPU stage consumes.
    """
    eligible = sorted(GPU_ELIGIBLE_TASKS, key=lambda t: t.value)
    segments: list[tuple[Task, ...]] = [()]
    for end in range(1, len(eligible) + 1):
        segment = tuple(eligible[:end])
        if contiguous_in_order(segment):
            segments.append(segment)
    return tuple(segments)
