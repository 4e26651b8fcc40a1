"""Functional batch execution: every pipeline config computes real results.

The timing simulator answers "how fast"; this module answers "is it still
correct".  A :class:`FunctionalPipeline` takes a
:class:`~repro.core.pipeline_config.PipelineConfig` and pushes a batch of
queries through the *actual* store — MM really allocates and evicts, IN
really mutates the cuckoo table, KC really compares keys, RD/WR really
produce response bytes — stage by stage in the configured order.  Because
the pipeline information is carried with the batch (the paper embeds it
per batch), two consecutive batches may run under different
configurations and still produce correct results; the test suite asserts
that every legal configuration produces byte-identical responses.

Since the engine refactor this class is a thin adapter: stage semantics are
compiled once by :func:`~repro.engine.plan.compile_stage_plan` (the same
plan the analytical cost model consumes), batch state lives in a columnar
:class:`~repro.engine.plane.BatchPlane`, and execution is delegated to an
engine backend — :class:`~repro.engine.vector.VectorEngine` unless the
caller pinned another via the ``engine`` parameter.  The pipeline itself
only does the batch boundaries: batch intake (RV) and telemetry
emission.  Wire parsing (PP) and response framing (SD) happen in the UDP
server, in its window decode and response encode.
"""

from __future__ import annotations

import time

from repro.core.pipeline_config import PipelineConfig
from repro.core.tasks import Task
from repro.engine import BatchPlane, compile_stage_plan, resolve_engine
from repro.kv.protocol import Response, ResponseStatus
from repro.net.wire import QueryColumns
from repro.telemetry import get_telemetry, stage_span

_ERROR_CODE = ResponseStatus.ERROR.value


class BatchResult:
    """Outcome of one functional batch: one raw wire status code and one
    value (None on a value-less row) per query, in batch order.

    ``responses`` (one :class:`Response` per row, values copied into
    ``bytes``) is built on first access and cached: the UDP server frames
    its datagrams straight from the two columns and never reads it.
    """

    __slots__ = (
        "response_statuses",
        "response_values",
        "config_label",
        "_responses",
    )

    def __init__(
        self,
        response_statuses: list[int],
        response_values: list[bytes | memoryview | None],
        config_label: str,
    ):
        #: Raw wire status codes per response.
        self.response_statuses = response_statuses
        #: Per-response values (None or empty on value-less rows): an engine
        #: batch's read-value column, so a hit may be a ``memoryview``.
        self.response_values = response_values
        self.config_label = config_label
        self._responses: list[Response] | None = None

    @property
    def responses(self) -> list[Response]:
        if self._responses is None:
            self._responses = [
                Response(ResponseStatus(status), b"" if value is None else bytes(value))
                for status, value in zip(self.response_statuses, self.response_values)
            ]
        return self._responses

    @property
    def ok_count(self) -> int:
        return sum(1 for s in self.response_statuses if s != _ERROR_CODE)


class FunctionalPipeline:
    """Executes batches against a store.

    Parameters
    ----------
    store:
        The :class:`~repro.kv.store.KVStore` to operate on (shared across
        batches and reconfigurations, as on the real shared-memory APU).
        The pipeline itself asks it only for the post-batch barrier
        (``needs_maintenance`` / ``maintenance()``).
    epoch_source:
        Callable returning the profiler's current sampling epoch, used to
        stamp object access counters; defaults to a constant 0.
    engine:
        Execution backend: ``None`` or "vector" is the production
        :class:`~repro.engine.vector.VectorEngine`; "reference" pins that
        backend; an object with a ``run`` method is used as-is (and keeps
        whatever cost model it was handed).
    """

    def __init__(self, store, epoch_source=None, engine=None):
        self.store = store
        self._epoch_source = epoch_source or (lambda: 0)
        self._engine = resolve_engine(engine)
        self._batch_counter = 0

    # ------------------------------------------------------------ execution

    def process_batch(self, config: PipelineConfig, queries) -> BatchResult:
        """Run one batch through every stage of ``config`` in order.

        ``queries`` is a sealed :class:`~repro.net.wire.QueryColumns`
        batch (the wire decoder's) or a ``list[Query]``, which is sealed
        into columns here first.
        """
        if not isinstance(queries, QueryColumns):
            queries = QueryColumns.from_queries(queries)
        telemetry = get_telemetry()
        collect = telemetry.enabled
        plan = compile_stage_plan(config)
        engine = self._engine
        task_times: dict[Task, float] | None = {} if collect else None
        t0 = time.perf_counter() if collect else 0.0
        plane = BatchPlane(queries)
        if collect:
            # Batch intake (building the columnar plane) is RV's footprint
            # on this plane; PP and SD run in the server, so their spans
            # read zero.
            task_times[Task.RV] = (time.perf_counter() - t0) * 1e6
        engine.run(
            self.store,
            plan,
            plane,
            epoch=self._epoch_source(),
            task_times=task_times,
        )
        statuses = plane.take_responses()
        # The store does its upkeep only between batches (the log arena
        # never moves live values under a running engine); the gate is one
        # cheap property read.
        store = self.store
        if store.needs_maintenance:
            store.maintenance()
        self._batch_counter += 1
        result = BatchResult(statuses, plane.read_values, config.label)
        if collect:
            self._emit_batch(telemetry, config, engine, task_times, len(queries))
        return result

    def _emit_batch(
        self,
        telemetry,
        config: PipelineConfig,
        engine,
        task_times: dict[Task, float],
        num_queries: int,
    ) -> None:
        """Append this batch's spans and counters."""
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
