"""The assembled DIDO system (paper Figure 7).

:class:`DidoSystem` wires every component together: the simulated NIC feeds
frames to the functional pipeline, the workload profiler watches each batch,
the cost-model-guided controller re-plans the pipeline on substantial
workload change, and the detailed executor measures what the chosen
configuration achieves on the modelled APU.

Two usage styles:

* **functional** — :meth:`process` / :meth:`process_frames` push real
  queries through the real store under the currently planned pipeline and
  return real responses (what the correctness tests and examples use);
* **analytical** — :meth:`measure_steady_state` evaluates the planned
  configuration's throughput/utilisation on the hardware model (what the
  benchmark harness uses to regenerate the paper's figures).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.controller import AdaptationController
from repro.core.profiler import WorkloadProfile, WorkloadProfiler
from repro.errors import ConfigurationError, WorkloadError
from repro.hardware.specs import APU_A10_7850K, PlatformSpec
from repro.kv.protocol import Query, decode_queries
from repro.kv.store import KVStore
from repro.net.nic import SimulatedNIC
from repro.net.packets import Frame, frames_for_queries
from repro.pipeline.executor import PipelineExecutor, PipelineMeasurement
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
        Slab budget for objects; defaults to the platform's shareable region.
    expected_objects:
        Index sizing hint.
    latency_budget_ns:
        The periodical scheduler's latency limit (paper: 1,000 us).
    work_stealing:
        Enable work stealing in planned configurations.
    engine:
        Functional execution backend ("auto"/None, "serial", "stealing",
        "reference", "vector", "procshard", or a backend instance);
        forwarded to :class:`~repro.pipeline.functional.FunctionalPipeline`.
    shards:
        Hash-partition the store across this many shard worker processes
        (a :class:`~repro.engine.procshard.ProcShardStore`).  With
        ``shards > 1`` an unset/auto ``engine`` resolves to "procshard" —
        the only backend that executes across partitions; any other
        engine raises :class:`~repro.errors.ConfigurationError`.
    dedup:
        Collapse each batch's duplicate GET runs to one index probe per
        key between write barriers (the skew-aware hot path; see
        :mod:`repro.engine.hotpath`).
    hot_cache:
        Attach a versioned hot-key read cache to the store (per worker on a
        procshard store).  The cache starts inactive; each profiler window
        the estimated Zipf skew gates it on (>= 0.5) or off (< 0.2), and
        its measured hit rate feeds the cost model's hot-fraction input.
    hot_cache_keys:
        Cache capacity in keys (total across shards); default 1024.
    heap:
        Value heap kind for every store this system creates: ``"log"``
        (default — append-only arena, compacted from :meth:`maintain`) or
        ``"slab"`` (size-classed allocator with per-SET LRU eviction).
    delta_index:
        Absorb index Insert/Delete/Reassign traffic in a per-store
        :class:`~repro.kv.deltaindex.DeltaIndex` and merge it into the
        cuckoo table in bulk at write barriers and :meth:`maintain` ticks
        (per worker on a procshard store).
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
        dedup: bool = False,
        hot_cache: bool = False,
        hot_cache_keys: int | None = None,
        heap: str = "log",
        delta_index: bool = False,
    ):
        self.platform = platform
        budget = memory_bytes if memory_bytes is not None else platform.shared_memory_bytes
        if shards > 1 and (engine is None or engine == "auto"):
            engine = "procshard"
        self._procshard = engine == "procshard" or (
            getattr(engine, "name", None) == "procshard"
        )
        if shards > 1 and not self._procshard:
            raise ConfigurationError(
                f"engine {engine!r} cannot execute across {shards} shards; "
                "use engine='procshard' (or shards=1)"
            )
        if self._procshard:
            # Process-per-shard: the store facade owns one worker process
            # per shard; dedup and the hot cache live *inside* the workers
            # (each sees its shard's full runs), so the parent attaches
            # nothing and the flags travel in the worker config.
            from repro.engine.procshard import ProcShardStore

            self.store = ProcShardStore(
                budget,
                expected_objects,
                max(shards, 1),
                dedup=dedup,
                hot_cache=hot_cache,
                hot_cache_keys=hot_cache_keys,
                # Caches start cold and inactive, exactly like the
                # in-process path; each batch header carries the skew
                # gate once the profiler has seen a window.
                hot_cache_active=False,
                heap=heap,
                delta_index=delta_index,
            )
        else:
            self.store = KVStore(
                budget, expected_objects, heap=heap, delta_index=delta_index
            )
        self._hot_cache = None
        if hot_cache and not self._procshard:
            # The cache starts cold and inactive; the per-window skew gate in
            # process() switches it on once the estimator sees real skew.
            self._hot_cache = self.store.attach_hot_cache(hot_cache_keys)
            self._hot_cache.active = False
        self._cache_hits_seen = 0
        self._cache_total_seen = 0
        self._last_measured: float | None = None
        self.nic = SimulatedNIC()
        self.profiler = WorkloadProfiler()
        self.controller = AdaptationController(
            platform, latency_budget_ns, work_stealing=work_stealing
        )
        self.executor = PipelineExecutor(platform)
        self.pipeline = FunctionalPipeline(
            self.store,
            epoch_source=lambda: self.profiler.epoch,
            engine=engine,
            dedup=dedup,
            hot_cache=hot_cache,
        )
        self.latency_budget_ns = latency_budget_ns
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
        feed the caches, and let the controller decide."""
        profiler = self.profiler
        profiler.observe_insert_buckets(self.store.index.stats.average_insert_buckets())
        self._harvest_frequencies()
        profile = profiler.snapshot()
        if self._procshard:
            profile = self._feed_procshard(profile)
        elif self._hot_cache is not None:
            profile = self._feed_hot_cache(profile)
        return self.controller.config_for(profile)

    @property
    def supports_pipelining(self) -> bool:
        """Whether :meth:`process_submit` actually overlaps windows."""
        return self._procshard and self.pipeline.supports_pipelining

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

    def process_frames(self, frames: list[Frame]) -> BatchResult:
        """NIC entry point: deliver frames, drain the RX ring, process."""
        self.nic.deliver(frames)
        pending = self.nic.receive()
        queries: list[Query] = []
        for frame in pending:
            queries.extend(decode_queries(frame.payload))
        result = self.process(queries)
        self.nic.send(result.frames)
        return result

    def submit(self, queries: list[Query]) -> BatchResult:
        """Client-style entry: pack queries into frames and go through the NIC."""
        return self.process_frames(frames_for_queries(queries))

    def _feed_hot_cache(self, profile: WorkloadProfile) -> WorkloadProfile:
        """Gate the cache on the closed window's skew and attach its
        measured hit rate to the profile for the cost model.

        The skew estimate gates the cache (hysteresis inside
        :meth:`~repro.kv.hotcache.HotKeyCache.gate_on_skew`).  The
        measured hot fraction is the hit rate over this window's cache
        lookups (carried forward through idle windows so brief all-write
        windows don't zero the cost model's input).
        """
        cache = self._hot_cache
        cache.gate_on_skew(profile.zipf_skew)
        return self._with_measured_hot_fraction(
            profile, cache.hits, cache.hits + cache.misses
        )

    def _feed_procshard(self, profile: WorkloadProfile):
        """Procshard counterpart of :meth:`_feed_hot_cache`.

        The caches live inside the shard workers, so the router records
        the window's skew on the store facade (each batch header then
        carries it to the workers, whose caches run the same
        ``gate_on_skew`` hysteresis) and derives the measured hot fraction
        from the hit/miss totals the workers piggyback on batch replies —
        no extra round trips.
        """
        store = self.store
        store.note_skew(profile.zipf_skew)
        hits, misses = store.hot_cache_totals()
        return self._with_measured_hot_fraction(profile, hits, hits + misses)

    def _with_measured_hot_fraction(
        self, profile: WorkloadProfile, hits: int, total: int
    ) -> WorkloadProfile:
        """``profile`` with the window's cache hit rate (lifetime totals in)."""
        window_hits = hits - self._cache_hits_seen
        window_total = total - self._cache_total_seen
        self._cache_hits_seen = hits
        self._cache_total_seen = total
        if window_total > 0:
            self._last_measured = window_hits / window_total
        if self._last_measured is None:
            return profile
        return replace(profile, measured_hot_fraction=self._last_measured)

    def _harvest_frequencies(self) -> None:
        """Feed the closing window's per-object access counts to the profiler.

        The real system reads counters as objects are accessed; here each
        heap logs the objects first touched in the open epoch (a log
        bounded at two windows' worth), and that log — plus the keys the hot
        cache served — is read back at window close; no heap scan.  With
        a procshard store the same harvest runs *inside* each worker when
        it sees the epoch advance, shipped back on the batch reply; the
        heap view hands over what has arrived.
        """
        if self._hot_cache is not None:
            self.profiler.observe_frequencies(self._hot_cache.drain_window_hits())
        self.profiler.observe_frequencies(self.store.heap.drain_touched())

    # ------------------------------------------------------------- lifecycle

    def maintain(self) -> list[int]:
        """Periodic idle-tick work: heap compaction + worker health checks.

        For in-process stores this is a maintenance barrier the UDP server
        reaches every 0.5 s between windows: a pending delta merges now
        (that is all ``force=True`` asks for), and the log arena compacts
        if its one gate — the same the post-batch barrier reads — is open.
        A slab-heap store without a delta makes this a no-op.

        For procshard stores it additionally respawns dead shard workers
        (compaction happens inside the workers, at their own idle ticks)
        and returns the respawned shard ids; a respawned worker starts
        empty — same durability contract as a rebooted cache node.
        """
        if self._procshard:
            return self.store.ensure_workers()
        maintenance = getattr(self.store, "maintenance", None)
        if maintenance is not None:
            maintenance(force=True)
        return []

    def close(self) -> None:
        """Release process-backed resources (worker processes + arenas)."""
        if self._procshard:
            self.store.close()

    # ------------------------------------------------------------ analytical

    def measure_steady_state(self, profile: WorkloadProfile) -> PipelineMeasurement:
        """Measured performance of the plan DIDO would choose for ``profile``."""
        config = self.controller.config_for(profile)
        return self.executor.measure(config, profile, self.latency_budget_ns)

    def plan_for(self, profile: WorkloadProfile) -> PipelineConfig:
        """The configuration the controller selects for ``profile``."""
        return self.controller.config_for(profile)

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
