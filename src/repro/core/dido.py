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
from repro.errors import WorkloadError
from repro.hardware.specs import APU_A10_7850K
from repro.kv.store import KVStore
from repro.net.wire import QueryColumns
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
    memory_bytes:
        Heap budget for objects; defaults to the modelled APU's (the
        paper's A10-7850K) shareable region.
    expected_objects:
        Index sizing hint.
    engine:
        Functional execution backend ("reference", "vector", or a backend
        instance).  Unset is the production engine, "vector": Search on
        the kernel the fitted host cost model picks.

    The system builds one :class:`~repro.kv.store.KVStore` and reaches it
    through the store protocol (see :mod:`repro.kv.store`).  The
    controller plans for the A10-7850K under the paper's 1,000 us latency
    limit, with work stealing credited (the functional engines run every
    phase over every row either way).
    """

    def __init__(
        self,
        *,
        memory_bytes: int | None = None,
        expected_objects: int = 1 << 16,
        engine=None,
    ):
        if memory_bytes is None:
            memory_bytes = APU_A10_7850K.shared_memory_bytes
        engine = resolve_engine(engine)
        self.store = KVStore(memory_bytes, expected_objects)
        self.profiler = WorkloadProfiler()
        if hasattr(engine, "costs"):
            # One host cost model per system: the engine feeds and asks it,
            # the profiler resets it on a key-size shift, the controller
            # audits it.
            engine.costs = self.profiler.host_costs
        # The controller's defaults: the paper's 1,000 us latency limit,
        # work stealing on.
        self.controller = AdaptationController(
            APU_A10_7850K, host_costs=self.profiler.host_costs
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

        ``queries`` is a sealed :class:`~repro.net.wire.QueryColumns`
        batch straight off the wire decoder (the UDP server's hot path —
        no per-query objects exist anywhere on it), or a ``list[Query]``,
        sealed into columns here once.

        Folds the batch into the open profile window and executes it
        functionally under the current configuration; only when that
        window closes (see :mod:`repro.core.profiler`) are the observed
        object frequencies harvested for the skew estimator and the
        controller asked whether to re-plan.
        """
        if not isinstance(queries, QueryColumns):
            queries = QueryColumns.from_queries(queries)
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

    # ------------------------------------------------------------- lifecycle

    def maintain(self) -> int:
        """Periodic idle-tick work, a barrier the UDP server reaches every
        0.5 s between windows: the store's :meth:`maintenance`.

        That compacts the log arena if its one gate — the same the
        post-batch barrier reads — is open, and returns the number of
        records evicted.
        """
        return self.store.maintenance()

    def close(self) -> None:
        """Nothing to release: the store lives in this process's memory."""

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
