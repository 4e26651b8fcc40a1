"""Functional batch execution: every pipeline config computes real results.

The timing simulator answers "how fast"; this module answers "is it still
correct".  A :class:`FunctionalPipeline` takes a
:class:`~repro.core.pipeline_config.PipelineConfig` and pushes a batch of
queries through the *actual* store — MM really allocates and evicts, IN
really mutates the cuckoo table, KC really compares keys, RD/WR really
produce response bytes — stage by stage in the configured order.  Because the pipeline information is carried with the batch (the
paper embeds it per batch), two consecutive batches may run under different
configurations and still produce correct results; the test suite asserts
that every legal configuration produces byte-identical responses.

Since the engine refactor this class is a thin adapter: stage semantics are
compiled once by :func:`~repro.engine.plan.compile_stage_plan` (the same
plan the analytical cost model consumes), batch state lives in a columnar
:class:`~repro.engine.plane.BatchPlane`, and execution is delegated to an
engine backend — :class:`~repro.engine.backends.StealingEngine` when the
config wants work stealing on a GPU stage,
:class:`~repro.engine.backends.SerialEngine` otherwise, or whatever the
caller pinned via the ``engine`` parameter.  The pipeline itself only does
the batch boundaries: batch intake (RV), response framing (SD), and
telemetry emission.  Wire parsing (PP) happens upstream, in the UDP
server's window decode.
"""

from __future__ import annotations

import time

from repro.core.pipeline_config import PipelineConfig
from repro.core.tasks import Task
from repro.engine import (
    BatchPlane,
    SerialEngine,
    StealingEngine,
    compile_stage_plan,
    resolve_engine,
)
from repro.kv.protocol import Response, ResponseStatus
from repro.net.packets import Frame
from repro.net.wire import frames_for_response_columns
from repro.telemetry import get_telemetry, stage_span, steal_event

_ERROR_CODE = ResponseStatus.ERROR.value


class BatchResult:
    """Outcome of one functional batch.

    ``frames`` (the SD task's MTU-packed output) is materialised lazily:
    the UDP server sends datagrams straight from the response columns and
    never reads it, so per-batch frame packing would be pure overhead
    there.  First access builds the frames through the columnar wire
    framer and caches them.

    The status/size/value columns are always present: an engine that
    builds only :class:`Response` objects (serial, stealing, reference)
    gets them derived from ``responses`` here, so framing, ``ok_count``
    and the server's TX read columns whatever engine ran.
    """

    __slots__ = (
        "responses",
        "config_label",
        "steal_claims",
        "response_sizes",
        "response_statuses",
        "response_values",
        "_frames",
    )

    def __init__(
        self,
        responses: list[Response],
        config_label: str,
        steal_claims: dict[str, int] | None = None,
        frames: list[Frame] | None = None,
        response_sizes: list[int] | None = None,
        response_statuses: list[int] | None = None,
        response_values: list[bytes | None] | None = None,
    ):
        self.responses = responses
        self.config_label = config_label
        self.steal_claims = steal_claims if steal_claims is not None else {}
        if response_statuses is None:
            response_statuses = [r.status.value for r in responses]
            response_values = [r.value for r in responses]
            response_sizes = [r.wire_size for r in responses]
        #: Wire size per response.
        self.response_sizes = response_sizes
        #: Raw wire status codes per response.
        self.response_statuses = response_statuses
        #: Per-response value bytes (None or empty for value-less
        #: responses) — the plane's read-value column when the engine
        #: filled the status column.
        self.response_values = response_values
        self._frames = frames

    @property
    def frames(self) -> list[Frame]:
        if self._frames is None:
            self._frames = frames_for_response_columns(
                self.response_statuses, self.response_values, self.response_sizes
            )
        return self._frames

    @property
    def ok_count(self) -> int:
        return sum(1 for s in self.response_statuses if s != _ERROR_CODE)


class PendingBatch:
    """A batch submitted to a pipelined engine but not yet merged.

    Produced by :meth:`FunctionalPipeline.submit_batch`, finished by
    :meth:`FunctionalPipeline.collect_batch`.  When the pipeline does not
    split windows, the batch ran synchronously at submit time and
    ``result`` is already populated — collect just returns it.
    """

    __slots__ = ("ticket", "plane", "config", "engine", "num_queries", "result")

    def __init__(
        self,
        *,
        ticket=None,
        plane=None,
        config=None,
        engine=None,
        num_queries: int = 0,
        result: BatchResult | None = None,
    ):
        self.ticket = ticket
        self.plane = plane
        self.config = config
        self.engine = engine
        self.num_queries = num_queries
        self.result = result


class FunctionalPipeline:
    """Executes batches against a store.

    Parameters
    ----------
    store:
        The store to operate on (shared across batches and reconfigurations,
        as on the real shared-memory APU): a
        :class:`~repro.kv.store.KVStore`, or the
        :class:`~repro.engine.procshard.ProcShardStore` the "procshard"
        engine routes to.  The pipeline itself asks it only for the
        post-batch barrier (``needs_maintenance`` / ``maintenance()``).
    epoch_source:
        Callable returning the profiler's current sampling epoch, used to
        stamp object access counters; defaults to a constant 0.
    engine:
        Execution backend: ``None``/"auto" picks per batch (stealing when
        the config enables it on a GPU stage, serial otherwise — what a
        pipeline built standalone does; ``DidoSystem`` always names one);
        "serial", "stealing", "reference", "vector" or "procshard" pins a
        backend; an object with a ``run`` method is used as-is (and keeps
        whatever cost model it was handed).  "procshard" needs the
        store to be a :class:`~repro.engine.procshard.ProcShardStore` and
        raises :class:`~repro.errors.ConfigurationError` here otherwise.
    """

    def __init__(self, store, epoch_source=None, engine=None):
        self.store = store
        self._epoch_source = epoch_source or (lambda: 0)
        self._engine = resolve_engine(engine)
        #: Whether submit/collect overlap windows.  Only the procshard
        #: engine splits a window, and only against the worker fleet it
        #: routes to — checked here, once, so nothing downstream asks.
        self.supports_pipelining = (
            self._engine is not None and self._engine.name == "procshard"
        )
        if self.supports_pipelining:
            self._engine.check_store(store)
        self._serial = SerialEngine()
        self._stealing = StealingEngine()
        self._batch_counter = 0

    # ------------------------------------------------------------ execution

    def _engine_for(self, config: PipelineConfig):
        """The backend for one batch: pinned engine, else by config."""
        if self._engine is not None:
            return self._engine
        if config.work_stealing and config.gpu_stage is not None:
            return self._stealing
        return self._serial

    def process_batch(self, config: PipelineConfig, queries) -> BatchResult:
        """Run one batch through every stage of ``config`` in order.

        ``queries`` is a ``list[Query]`` or a columnar
        :class:`~repro.net.wire.QueryColumns` batch from the wire
        decoder; both produce identical results.
        """
        telemetry = get_telemetry()
        collect = telemetry.enabled
        plan = compile_stage_plan(config)
        engine = self._engine_for(config)
        task_times: dict[Task, float] | None = {} if collect else None
        t0 = time.perf_counter() if collect else 0.0
        plane = BatchPlane(queries)
        if collect:
            # Batch intake (building the columnar plane) is RV's footprint
            # on this plane; PP ran upstream, so its span reads zero.
            task_times[Task.RV] = (time.perf_counter() - t0) * 1e6
        steal_claims = engine.run(
            self.store,
            plan,
            plane,
            epoch=self._epoch_source(),
            task_times=task_times,
        )
        result = self._finish_batch(config, plane, steal_claims)
        if collect:
            # Frame eagerly under telemetry so the SD span stays a real
            # measurement of response framing; otherwise frames build
            # lazily on first access (the UDP server never needs them).
            t_send = time.perf_counter()
            result.frames  # noqa: B018 - builds and caches the frames
            task_times[Task.SD] = (time.perf_counter() - t_send) * 1e6
            self._emit_batch(
                telemetry, config, engine, task_times, steal_claims, len(queries)
            )
        return result

    # --------------------------------------------------- pipelined windows

    def submit_batch(self, config: PipelineConfig, queries) -> PendingBatch:
        """Hand one window to the engine without waiting for its merge.

        The returned :class:`PendingBatch` must be finished with
        :meth:`collect_batch` (in submission order — the engine enforces
        FIFO anyway).  Falls back to a synchronous :meth:`process_batch`
        unless :attr:`supports_pipelining`, so callers can use the
        submit/collect pair unconditionally.
        """
        if not self.supports_pipelining:
            return PendingBatch(
                result=self.process_batch(config, queries),
                num_queries=len(queries),
            )
        engine = self._engine
        plan = compile_stage_plan(config)
        plane = BatchPlane(queries)
        ticket = engine.submit(self.store, plan, plane, epoch=self._epoch_source())
        return PendingBatch(
            ticket=ticket,
            plane=plane,
            config=config,
            engine=engine,
            num_queries=len(queries),
        )

    def collect_batch(self, pending: PendingBatch) -> BatchResult:
        """Merge a submitted window into a :class:`BatchResult`."""
        if pending.result is not None:
            return pending.result
        steal_claims = pending.engine.collect(pending.ticket)
        plane = pending.plane
        result = self._finish_batch(pending.config, plane, steal_claims)
        pending.result = result
        telemetry = get_telemetry()
        if telemetry.enabled:
            # No per-task spans for a split window: the engine's per-stage
            # ring timers (encode/send/wait/decode/scatter) carry the
            # breakdown.  Batch/query counters stay honest.
            telemetry.registry.counter(
                "repro_pipeline_batches_total", help="Functional batches executed"
            ).inc()
            telemetry.registry.counter(
                "repro_pipeline_queries_total",
                help="Queries through the functional pipeline",
            ).inc(pending.num_queries)
            telemetry.registry.counter(
                "repro_engine_batches_total",
                help="Functional batches executed, by engine backend",
            ).inc(engine=pending.engine.name)
        return result

    def _finish_batch(
        self, config: PipelineConfig, plane: BatchPlane, steal_claims
    ) -> BatchResult:
        """What every executed window ends with: take the responses, run
        the post-batch barrier, count the batch, assemble the result."""
        responses = plane.take_responses()
        # The store does its upkeep only between batches (the log arena
        # never moves live values under a running engine); the gate is one
        # cheap property read.
        store = self.store
        if store.needs_maintenance:
            store.maintenance()
        self._batch_counter += 1
        return BatchResult(
            responses=responses,
            config_label=config.label,
            steal_claims=steal_claims,
            response_sizes=plane.response_sizes,
            response_statuses=plane.response_statuses,
            response_values=plane.read_values
            if plane.response_statuses is not None
            else None,
        )

    def _emit_batch(
        self,
        telemetry,
        config: PipelineConfig,
        engine,
        task_times: dict[Task, float],
        steal_claims: dict[str, int],
        num_queries: int,
    ) -> None:
        """Append this batch's spans, steal summary, and counters."""
        batch = self._batch_counter
        for stage in config.stages:
            for task in stage.tasks:
                duration = task_times.get(task, 0.0)
                telemetry.events.append(
                    stage_span(
                        stage=stage.label,
                        task=task.name,
                        processor=stage.processor.value,
                        duration_us=duration,
                        batch=batch,
                    )
                )
                telemetry.registry.histogram(
                    "repro_task_time_us", help="Wall-clock task time per batch"
                ).observe(duration, task=task.name)
        if steal_claims:
            gpu_stage = config.gpu_stage
            telemetry.events.append(
                steal_event(
                    stage=gpu_stage.label if gpu_stage else "<none>",
                    claims=steal_claims,
                    batch=batch,
                )
            )
        telemetry.registry.counter(
            "repro_pipeline_batches_total", help="Functional batches executed"
        ).inc()
        telemetry.registry.counter(
            "repro_pipeline_queries_total", help="Queries through the functional pipeline"
        ).inc(num_queries)
        telemetry.registry.counter(
            "repro_engine_batches_total",
            help="Functional batches executed, by engine backend",
        ).inc(engine=engine.name)
