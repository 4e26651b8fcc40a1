"""The assembled DIDO system (paper Figure 7).

:class:`DidoSystem` wires the serving components together: the functional
pipeline executes each batch of real queries against the real store under
the currently planned configuration and returns real responses, the
workload profiler watches each batch, and the cost-model-guided controller
re-plans the pipeline on substantial workload change.  The UDP server
(:mod:`repro.server`) feeds it decoded windows.

What a configuration achieves on the modelled APU is asked of
:func:`~repro.core.config_search.best_config_for` and
:class:`~repro.pipeline.executor.PipelineExecutor` directly (as
``repro plan`` / ``repro measure`` do), never of a serving system.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller import AdaptationController
from repro.core.profiler import WorkloadProfiler
from repro.engine import resolve_engine
from repro.errors import ConfigurationError, WorkloadError
from repro.hardware.specs import APU_A10_7850K, PlatformSpec
from repro.kv.store import KVStore
from repro.pipeline.functional import BatchResult, FunctionalPipeline
from repro.core.pipeline_config import PipelineConfig


@dataclass
class SystemReport:
    """Summary of a :class:`DidoSystem` run."""

    batches: int
    queries: int
    replans: int
    current_pipeline: str
    estimated_mops: float

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        return (
            f"batches={self.batches} queries={self.queries} "
            f"replans={self.replans} pipeline={self.current_pipeline} "
            f"est={self.estimated_mops:.1f} MOPS"
        )


class DidoSystem:
    """An in-memory key-value store with dynamic pipeline execution.

    Parameters
    ----------
    platform:
        Hardware model (defaults to the paper's A10-7850K APU).
    memory_bytes:
        Heap budget for objects; defaults to the platform's shareable region.
    expected_objects:
        Index sizing hint.
    latency_budget_ns:
        The periodical scheduler's latency limit (paper: 1,000 us).
    work_stealing:
        Enable work stealing in planned configurations.
    engine:
        Functional execution backend ("serial", "stealing", "reference",
        "vector", "procshard", or a backend instance).  Unset/"auto" is
        the production engine: "vector" — Search on the kernel the
        fitted host cost model picks — or "procshard" when ``shards > 1``.
    shards:
        Hash-partition the store across this many shard worker processes
        (a :class:`~repro.engine.procshard.ProcShardStore`), served by
        "procshard" — the only backend that executes across partitions;
        any other engine raises :class:`~repro.errors.ConfigurationError`.

    Whichever store is built, the system reaches it through the same
    store protocol (see :mod:`repro.kv.store`); which one it holds is
    decided here in the constructor and asked nowhere else.
    """

    def __init__(
        self,
        platform: PlatformSpec = APU_A10_7850K,
        *,
        memory_bytes: int | None = None,
        expected_objects: int = 1 << 16,
        latency_budget_ns: float = 1_000_000.0,
        work_stealing: bool = True,
        engine=None,
        shards: int = 1,
    ):
        self.platform = platform
        budget = memory_bytes if memory_bytes is not None else platform.shared_memory_bytes
        if engine is None or engine == "auto":
            # The system decides: the engine that places Search by the
            # fitted host costs, behind the shard router when partitioned.
            engine = "procshard" if shards > 1 else "vector"
        engine = resolve_engine(engine)
        procshard = engine.name == "procshard"
        if shards > 1 and not procshard:
            raise ConfigurationError(
                f"engine {engine.name!r} cannot execute across {shards} "
                "shards; use engine='procshard' (or shards=1)"
            )
        if procshard:
            # Process-per-shard: the store owns one worker process per shard.
            from repro.engine.procshard import ProcShardStore

            self.store = ProcShardStore(budget, expected_objects, max(shards, 1))
        else:
            self.store = KVStore(budget, expected_objects)
        self.profiler = WorkloadProfiler()
        if hasattr(engine, "costs"):
            # One host cost model per system: the engine feeds and asks it,
            # the profiler resets it on a key-size shift, the controller
            # audits it.  (Procshard workers each fit their own.)
            engine.costs = self.profiler.host_costs
        self.controller = AdaptationController(
            platform,
            latency_budget_ns,
            work_stealing=work_stealing,
            host_costs=self.profiler.host_costs,
        )
        self.pipeline = FunctionalPipeline(
            self.store,
            epoch_source=lambda: self.profiler.epoch,
            engine=engine,
        )
        self._batches = 0
        self._queries = 0

    # ------------------------------------------------------------ functional

    def process(self, queries) -> BatchResult:
        """Process one batch of queries under the adaptive pipeline.

        ``queries`` is a ``list[Query]`` or a columnar
        :class:`~repro.net.wire.QueryColumns` batch straight off the wire
        decoder (the UDP server's hot path — no per-query objects exist
        anywhere on it).

        Folds the batch into the open profile window and executes it
        functionally under the current configuration; only when that
        window closes (see :mod:`repro.core.profiler`) are the observed
        object frequencies harvested for the skew estimator and the
        controller asked whether to re-plan.
        """
        config = self._plan_batch(queries)
        result = self.pipeline.process_batch(config, queries)
        self._batches += 1
        self._queries += len(queries)
        return result

    def _plan_batch(self, queries):
        """Per-batch pre-work: profile, and pick the config.

        Between window closes this is ``observe_batch`` plus an O(1)
        readiness test; the current configuration stands.
        """
        if not queries:
            raise WorkloadError("cannot process an empty batch")
        profiler = self.profiler
        controller = self.controller
        profiler.observe_batch(queries)
        if not profiler.window_ready(controller.planned_profile):
            return controller.current_config
        return self._close_window()

    def _close_window(self) -> PipelineConfig:
        """Close the profile window: harvest the skew sample, snapshot,
        and let the controller decide."""
        profiler = self.profiler
        # The real system reads counters as objects are accessed; here the
        # store logs the objects first touched in the open epoch and hands
        # that log over now — no heap scan.
        counts, insert_buckets = self.store.harvest_window()
        profiler.observe_insert_buckets(insert_buckets)
        profiler.observe_frequencies(counts)
        return self.controller.config_for(profiler.snapshot())

    @property
    def supports_pipelining(self) -> bool:
        """Whether :meth:`process_submit` actually overlaps windows."""
        return self.pipeline.supports_pipelining

    def process_submit(self, queries):
        """Pipelined entry: plan and submit one window without merging.

        Returns a :class:`~repro.pipeline.functional.PendingBatch` to pass
        to :meth:`process_collect` (in submission order).  On a
        non-pipelining configuration the window runs synchronously here
        and collect just unwraps it — callers never need to special-case.
        All profiler/controller pre-work happens at submit time, reading
        only router-side cached worker counters (no ring round trips that
        would interleave with in-flight windows).
        """
        config = self._plan_batch(queries)
        return self.pipeline.submit_batch(config, queries)

    def process_collect(self, pending) -> BatchResult:
        """Finish a window submitted with :meth:`process_submit`."""
        result = self.pipeline.collect_batch(pending)
        self._batches += 1
        self._queries += pending.num_queries
        return result

    # ------------------------------------------------------------- lifecycle

    def maintain(self) -> int | list[int]:
        """Periodic idle-tick work, a barrier the UDP server reaches every
        0.5 s between windows: the store's :meth:`maintenance`.

        In-process that compacts the log arena if its one gate — the same
        the post-batch barrier reads — is open, and returns the number of
        records evicted.  A procshard store respawns dead shard workers
        (compaction happens inside the workers, at their own idle ticks)
        and returns the respawned shard ids; a respawned worker starts
        empty — same durability contract as a rebooted cache node.
        """
        return self.store.maintenance()

    def close(self) -> None:
        """Release process-backed resources (worker processes + arenas)."""
        self.store.close()

    # -------------------------------------------------------------- reporting

    def report(self) -> SystemReport:
        config = self.controller.current_config
        estimate = self.controller.current_estimate
        return SystemReport(
            batches=self._batches,
            queries=self._queries,
            replans=self.controller.replan_count,
            current_pipeline=config.label if config else "<unplanned>",
            estimated_mops=estimate.throughput_mops if estimate else 0.0,
        )
