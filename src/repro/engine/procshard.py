"""ProcShardEngine: true shared-nothing process-per-shard execution.

Sub-batches run on a thread pool cannot overlap under CPython's GIL, so
partitioned execution here is DINOMO-shaped: each shard is a
:class:`ShardWorker` **process** owning its own
:class:`~repro.kv.store.KVStore`, fed columnar sub-batches through
``multiprocessing.shared_memory`` ring arenas
(:class:`~repro.net.arena.ShmRing`) — header columns + byte arena in, WR
size columns + response-payload arena out, no pickling anywhere on the
data plane.

The split/merge shape:

* the router (:class:`ProcShardEngine`) computes the batch's shard
  assignment with the seed-0 FNV hash
  (:func:`~repro.kv.sharding.shard_of` == the vector kernel's row 0), so
  batched and per-key routing are bit-identical;
* each worker runs a full :class:`~repro.engine.vector.VectorEngine`
  against its private store and answers with the single-pass response
  framer's bytes;
* the router scatters the returned status/size/value columns back into
  batch row order, so the merged stream is byte-identical to
  :class:`~repro.engine.reference.ReferenceEngine` — enforced by the
  procshard test suite.

Workers piggyback their store/index counters and a bounded
frequency-harvest sample on every batch reply, so the router-side
:class:`ProcShardStore` answers the store protocol (see
:mod:`repro.kv.store`) — merged ``stats``, the window harvest — without
extra round trips.  A dead worker never wedges the serve loop: its rows
are answered with ``ERROR`` responses for that batch, the next
maintenance barrier respawns it (empty, like a rebooted cache node), and
every arena is unlinked on close/``atexit``/SIGTERM even when a worker
died mid-batch.
"""

from __future__ import annotations

import atexit
import logging
import os
import struct
import time
import traceback
import weakref
from functools import partial

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.kv.logarena import DEFAULT_SEGMENT_BYTES
from repro.kv.protocol import QueryType, Response, ResponseStatus
from repro.kv.sharding import shard_of
from repro.kv.store import KVStore, StoreStats
from repro.net.arena import (
    DEFAULT_RING_BYTES,
    QueryBlockColumns,
    RingClosedError,
    ShmRing,
    decode_query_block,
    decode_response_block,
    decode_response_columns,
    encode_query_block,
    encode_response_block,
)
from repro.telemetry import get_telemetry

logger = logging.getLogger("repro.procshard")

# --------------------------------------------------------------- wire types

MSG_BATCH = 1
MSG_POPULATE = 2
MSG_DUMP = 3
MSG_STATS = 4
MSG_RESET = 5
MSG_SHUTDOWN = 8

MSG_OK = 64
MSG_RESULT = 65
MSG_ERROR = 66

_U32 = struct.Struct("<I")
#: Per-batch header: profiler epoch, per-worker sequence number.  The
#: sequence number is echoed back in the reply head so the router can
#: detect a desynchronized ring (a reply surviving from a window the
#: router already gave up on) instead of merging the wrong window.
_BATCH_HEAD = struct.Struct("<qI")

#: Piggybacked counters: StoreStats(6) + IndexStats(7) + store len, as
#: little-endian i64s.
_STATS_FIELDS = 6 + 7 + 1
_STATS_STRUCT = struct.Struct(f"<{_STATS_FIELDS}q")
_RESULT_HEAD = struct.Struct("<IIQ")  # n, freq_count, seq echo

#: How long the router waits for one worker's batch reply before giving
#: up on it (liveness failures surface much sooner via the abort probe).
REPLY_TIMEOUT_S = 60.0

#: Double-buffer bound: how many windows may be resident per worker.  Two
#: is the pipelining sweet spot — window N+1 streams into the inbound
#: ring while the worker crunches window N — and keeps the ring-sizing
#: rule simple (each ring must hold one full window plus one reply, which
#: the doubled default capacity covers for 4096-row batches).
MAX_INFLIGHT_WINDOWS = 2

_STORED = Response(ResponseStatus.STORED)
_DELETED = Response(ResponseStatus.DELETED)
_NOT_FOUND = Response(ResponseStatus.NOT_FOUND)
_WORKER_DOWN = Response(ResponseStatus.ERROR)
#: Merge-side materialization table: fill-down rows carry ERROR, which the
#: engine itself only ever produces for dead-worker rows.
_MERGE_BY_CODE = {
    ResponseStatus.STORED.value: _STORED,
    ResponseStatus.DELETED.value: _DELETED,
    ResponseStatus.NOT_FOUND.value: _NOT_FOUND,
    ResponseStatus.ERROR.value: _WORKER_DOWN,
}


class WorkerDiedError(ReproError):
    """A shard worker process exited (or hung) mid-request."""


class WorkerFailedError(ReproError):
    """A shard worker raised while handling a request (its traceback rides
    along so the failure debugs like an in-process one)."""


def _pack_stats(store: KVStore) -> bytes:
    s = store.stats
    ix = store.index.stats
    return _STATS_STRUCT.pack(
        s.gets, s.get_hits, s.sets, s.deletes, s.delete_hits,
        s.signature_false_positives,
        ix.searches, ix.inserts, ix.deletes, ix.search_bucket_reads,
        ix.insert_bucket_writes, ix.insert_kicks, ix.failed_inserts,
        len(store),
    )


def _unpack_stats(buf, offset: int = 0) -> tuple:
    return _STATS_STRUCT.unpack_from(buf, offset)


# ------------------------------------------------------------- worker child


class _WorkerState:
    """Everything one shard worker owns: store, engine, plan."""

    def __init__(self, config: dict):
        self.config = config
        self.store = KVStore(config["memory_bytes"], config["expected_objects"])
        # Workers import the engine lazily so this module never drags the
        # pipeline package in at import time.
        from repro.engine.vector import VectorEngine

        self.engine = VectorEngine()
        from repro.engine.plan import compile_stage_plan
        from repro.pipeline.megakv import megakv_coupled_config

        # Batch results are configuration-invariant (the equivalence suite's
        # core claim), so workers execute one canonical compiled plan.
        self.plan = compile_stage_plan(megakv_coupled_config())
        #: Profiler epoch of the last batch served (None before the first).
        self.epoch: int | None = None


def _handle_batch(state: _WorkerState, payload, offset: int = 0) -> list:
    from repro.engine.plane import BatchPlane

    epoch, seq = _BATCH_HEAD.unpack_from(payload, offset)
    freq: list[int] = []
    if epoch != state.epoch:
        # The router closed a profile window: ship what this shard's
        # objects counted during it — the same harvest the in-process
        # system runs.
        state.epoch = epoch
        freq = state.store.harvest_window()[0]
    columns = decode_query_block(payload, offset + _BATCH_HEAD.size)
    plane = BatchPlane(columns)
    # The worker only ever ships the status/size/value columns; per-row
    # Response objects would be built and immediately discarded.
    plane.wants_responses = False
    state.engine.run(state.store, state.plan, plane, epoch=epoch)
    # Post-batch barrier (the worker-side mirror of FunctionalPipeline's):
    # settle the log arena's memory debt before the next batch arrives.
    if state.store.needs_maintenance:
        state.store.maintenance()
    head = _RESULT_HEAD.pack(plane.size, len(freq), seq)
    freq_b = np.fromiter(freq, dtype=np.uint32, count=len(freq)).tobytes()
    block = encode_response_block(
        plane.response_statuses, plane.read_values, plane.response_sizes
    )
    return [bytes([MSG_RESULT]), head, freq_b, _pack_stats(state.store), *block]


def _handle_dump(state: _WorkerState) -> list:
    keys = state.store.keys()
    n = len(keys)
    lens = np.fromiter(map(len, keys), dtype=np.uint32, count=n).tobytes()
    return [bytes([MSG_OK]), _U32.pack(n), lens, b"".join(keys)]


def _worker_main(in_name: str, out_name: str, config: dict) -> None:
    """Child entry point: serve ring messages until shutdown/orphaned."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    inbound = ShmRing.attach(in_name)
    outbound = ShmRing.attach(out_name)
    state = _WorkerState(config)
    orphaned = lambda: os.getppid() != parent  # noqa: E731

    try:
        while True:
            try:
                # idle=True: between windows the worker concedes the core
                # fast instead of yield-polling — on oversubscribed hosts
                # the router needs those timeslices for split/encode.
                msg = inbound.recv(timeout=0.2, abort=orphaned, idle=True)
            except RingClosedError:
                break
            if msg is None:
                # Idle tick: the worker owns its shard outright, so this
                # is a free barrier — compact the log arena if its gate is
                # open.
                state.store.maintenance()
                continue
            mtype = msg[0]
            if mtype == MSG_SHUTDOWN:
                try:
                    outbound.send(bytes([MSG_OK]), timeout=1.0)
                except RingClosedError:  # pragma: no cover - parent gone
                    pass
                break
            try:
                if mtype == MSG_BATCH:
                    # Pass the raw bytes + offset (not a memoryview slice)
                    # so the block decoder's direct bytes-slicing path
                    # applies to every key/value copied out of the arena.
                    reply = _handle_batch(state, msg, 1)
                elif mtype == MSG_POPULATE:
                    columns = decode_query_block(msg, 1)
                    stored = state.store.bulk_set_columns(
                        columns.keys, columns.values
                    )
                    reply = [bytes([MSG_OK]), _U32.pack(stored)]
                elif mtype == MSG_DUMP:
                    reply = _handle_dump(state)
                elif mtype == MSG_STATS:
                    reply = [bytes([MSG_OK]), _pack_stats(state.store)]
                elif mtype == MSG_RESET:
                    state = _WorkerState(state.config)
                    reply = [bytes([MSG_OK])]
                else:
                    raise ConfigurationError(f"unknown message type {mtype}")
            except Exception:
                reply = [bytes([MSG_ERROR]), traceback.format_exc().encode()]
            outbound.send(*reply, abort=orphaned)
    finally:
        inbound.close()
        outbound.close()


# ------------------------------------------------------------ parent handle


class ShardWorker:
    """Router-side handle on one shard worker process and its two rings."""

    def __init__(self, shard_id: int, config: dict, ctx, ring_bytes: int):
        self.shard_id = shard_id
        self.config = config
        self._ctx = ctx
        self._ring_bytes = ring_bytes
        self.generation = 0
        self.seq = 0
        self.process = None
        self.to_worker: ShmRing | None = None
        self.from_worker: ShmRing | None = None
        self.spawn()

    def spawn(self) -> None:
        self.to_worker = ShmRing.create(self._ring_bytes)
        self.from_worker = ShmRing.create(self._ring_bytes)
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(self.to_worker.name, self.from_worker.name, self.config),
            daemon=True,
            name=f"repro-shard-{self.shard_id}",
        )
        self.process.start()
        self.generation += 1
        self.seq = 0

    def next_seq(self) -> int:
        """Per-worker batch sequence number (u32, wraps; resets on spawn)."""
        self.seq = (self.seq + 1) & 0xFFFFFFFF
        return self.seq

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def _dead(self) -> bool:
        return not self.alive()

    @property
    def queue_depth_bytes(self) -> int:
        ring = self.to_worker
        return ring.pending_bytes if ring is not None else 0

    def take_high_water_bytes(self) -> int:
        """Deepest either ring direction has been since the last take.

        Both marks are writer-maintained inside the shared headers, so the
        outbound (worker-written) direction's depth is as honest as the
        inbound one — the old sampling only saw the inbound ring at send
        time and missed every reply-side backlog.
        """
        mark = 0
        for ring in (self.to_worker, self.from_worker):
            if ring is not None:
                mark = max(mark, ring.take_high_water())
        return mark

    def take_ring_stall_ns(self) -> int:
        """Router-side send backpressure accumulated since the last take."""
        ring = self.to_worker
        if ring is None:
            return 0
        total = ring.stall_ns
        ring.stall_ns = 0
        return total

    def send(self, *parts) -> None:
        try:
            self.to_worker.send(*parts, abort=self._dead, timeout=REPLY_TIMEOUT_S)
        except RingClosedError as exc:
            raise WorkerDiedError(
                f"shard worker {self.shard_id} unavailable: {exc}"
            ) from exc

    def recv_reply(self, timeout: float = REPLY_TIMEOUT_S):
        try:
            msg = self.from_worker.recv(timeout=timeout, abort=self._dead)
        except RingClosedError as exc:
            raise WorkerDiedError(
                f"shard worker {self.shard_id} died mid-request: {exc}"
            ) from exc
        if msg is None:
            raise WorkerDiedError(
                f"shard worker {self.shard_id} reply timed out after {timeout}s"
            )
        if msg[0] == MSG_ERROR:
            raise WorkerFailedError(
                f"shard worker {self.shard_id} failed:\n"
                + bytes(msg[1:]).decode(errors="replace")
            )
        return memoryview(msg)[1:]

    def request(self, *parts):
        self.send(*parts)
        return self.recv_reply()

    def respawn(self) -> None:
        """Replace a dead (or wedged) worker with a fresh, empty one."""
        self.terminate()
        self.spawn()

    def terminate(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - stuck child
                self.process.kill()
                self.process.join(timeout=2.0)
        self.process = None
        for ring in (self.to_worker, self.from_worker):
            if ring is not None:
                ring.close()
        self.to_worker = None
        self.from_worker = None

    def shutdown(self, timeout: float = 2.0) -> None:
        """Graceful stop: drain, ack, join; falls back to terminate."""
        if self.process is not None and self.process.is_alive():
            try:
                self.to_worker.send(
                    bytes([MSG_SHUTDOWN]), abort=self._dead, timeout=timeout
                )
                self.from_worker.recv(timeout=timeout, abort=self._dead)
            except RingClosedError:
                pass
            self.process.join(timeout=timeout)
        self.terminate()


# -------------------------------------------------------------------- store


class ProcShardStore:
    """N shard-worker processes behind the store protocol.

    The memory/index budget is split evenly and keys route by the seed-0
    FNV hash (:func:`~repro.kv.sharding.shard_of`); every shard is a
    separate process holding a :class:`~repro.kv.store.KVStore`, reached
    over shared-memory rings.  Scalar ``get``/``set``/``delete`` ride the
    batch plane as one-row windows (the control path — migration, tests);
    the engine fan-out is the hot path.  :meth:`keys`,
    :meth:`harvest_window`, :attr:`needs_maintenance`/:meth:`maintenance`
    and :meth:`close` are the same four jobs
    :class:`~repro.kv.store.KVStore` does in-process.

    Every arena is unlinked on :meth:`close`, which is also registered
    with ``atexit`` so segments cannot outlive the router even on an
    unclean exit; a SIGKILLed worker leaves no orphan either, because the
    router owns (and unlinks) both of its rings.
    """

    def __init__(
        self,
        memory_bytes: int,
        expected_objects: int,
        num_shards: int = 1,
        *,
        ring_bytes: int | None = None,
    ):
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        if ring_bytes is None:
            # Double-buffered default: each direction holds two full
            # windows (window N+1 streams in while window N is resident),
            # so pipelined submits never stall on a healthy worker.
            ring_bytes = MAX_INFLIGHT_WINDOWS * DEFAULT_RING_BYTES
        import multiprocessing as mp

        ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self.num_shards = num_shards
        shard_budget = max(memory_bytes // num_shards, DEFAULT_SEGMENT_BYTES)
        config = {
            "memory_bytes": shard_budget,
            "expected_objects": max(64, expected_objects // num_shards),
        }
        self.workers = [
            ShardWorker(i, config, ctx, ring_bytes) for i in range(num_shards)
        ]
        #: Profiler epoch of the last submitted window; scalar operations
        #: carry it so a worker does not take one for a window boundary.
        self._epoch = 0
        self._stats_cache: list[tuple] = [
            (0,) * _STATS_FIELDS for _ in range(num_shards)
        ]
        self._freq_pending: list[int] = []
        #: In-flight pipelined windows (ProcShardTicket, FIFO): every
        #: control-plane round-trip drains these first so a stats/populate
        #: reply is never interleaved with a pending batch reply.
        self._inflight: list = []
        self._closed = False
        self.respawns = 0
        # atexit must not keep the store alive; close through a weakref.
        ref = weakref.ref(self)
        def _cleanup(ref=ref):
            store = ref()
            if store is not None:
                store.close()
        self._atexit_hook = _cleanup
        atexit.register(_cleanup)

    # ------------------------------------------------------------ lifecycle

    def drain_inflight(self) -> None:
        """Collect every pending pipelined window (control-plane barrier).

        The worker rings are strict FIFOs, so a stats/dump/populate
        request sent while a batch reply is pending would consume that
        reply as its own.  Every control-plane round-trip calls this first;
        collection is idempotent, so racing an explicit ``collect`` is
        safe.
        """
        while self._inflight:
            ticket = self._inflight[0]
            ticket.engine.collect(ticket)
            if self._inflight and self._inflight[0] is ticket:
                # Defensive: collect always dequeues its ticket; never
                # spin if a broken ticket failed to.
                self._inflight.pop(0)

    def close(self) -> None:
        """Stop every worker and unlink every shared-memory arena."""
        if self._closed:
            return
        self._closed = True
        try:
            self.drain_inflight()
        except Exception:  # pragma: no cover - teardown best-effort
            self._inflight.clear()
        for worker in self.workers:
            try:
                worker.shutdown()
            except Exception:  # pragma: no cover - teardown best-effort
                worker.terminate()
        atexit.unregister(self._atexit_hook)

    def __del__(self):  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass

    @property
    def needs_maintenance(self) -> bool:
        """Whether a worker is dead (one liveness poll per worker)."""
        return not self._closed and not all(w.alive() for w in self.workers)

    def maintenance(self) -> list[int]:
        """Respawn any dead worker, fresh and empty — same durability
        contract as a rebooted cache node; returns their shard ids.
        Compaction needs no router: each worker runs it at its own
        post-batch barrier and idle tick."""
        if self._closed:
            return []
        respawned = []
        for worker in self.workers:
            if not worker.alive():
                logger.warning(
                    "shard worker %d died; respawning empty", worker.shard_id
                )
                worker.respawn()
                self._stats_cache[worker.shard_id] = (0,) * _STATS_FIELDS
                respawned.append(worker.shard_id)
        if respawned:
            self.respawns += len(respawned)
            telemetry = get_telemetry()
            if telemetry.enabled:
                telemetry.registry.counter(
                    "repro_procshard_respawns_total",
                    help="Dead shard workers replaced by the router",
                ).inc(len(respawned))
        return respawned

    def reset(self) -> None:
        """Rebuild every worker's store fresh (tests; keeps processes)."""
        self.drain_inflight()
        for worker in self.workers:
            worker.request(bytes([MSG_RESET]))
        self._stats_cache = [(0,) * _STATS_FIELDS for _ in range(self.num_shards)]
        self._freq_pending.clear()

    # ------------------------------------------------------- profiler feeds

    def harvest_window(self) -> tuple[list[int], float]:
        """The closing profile window's harvest, drained.

        The workers run the in-process harvest themselves when they see
        the epoch advance and ship it on the batch reply; this hands over
        what has arrived, with the fleet's average buckets written per
        Insert from the last piggybacked counters.
        """
        counts, self._freq_pending = self._freq_pending, []
        rows = self._stats_cache
        inserts = sum(r[7] for r in rows)
        writes = sum(r[10] for r in rows)
        return counts, writes / inserts if inserts else 0.0

    def _note_stats(self, shard: int, row: tuple) -> None:
        self._stats_cache[shard] = row

    def _note_reply(self, shard: int, reply) -> int:
        """Take a batch reply's piggyback — the harvest of a window the
        worker saw close, its counters — and return where the response
        block starts."""
        at = _RESULT_HEAD.size
        freq_count = _RESULT_HEAD.unpack_from(reply, 0)[1]
        if freq_count:
            self._freq_pending.extend(
                struct.unpack_from(f"<{freq_count}I", reply, at)
            )
            at += 4 * freq_count
        self._note_stats(shard, _unpack_stats(reply, at))
        return at + _STATS_STRUCT.size

    def refresh_stats(self) -> None:
        """Round-trip every worker for fresh counters (``stats``/``len``)."""
        self.drain_inflight()
        for worker in self.workers:
            reply = worker.request(bytes([MSG_STATS]))
            self._note_stats(worker.shard_id, _unpack_stats(reply))

    # --------------------------------------------------------- merged views

    @property
    def stats(self) -> StoreStats:
        self.refresh_stats()
        merged = StoreStats()
        for row in self._stats_cache:
            merged.gets += row[0]
            merged.get_hits += row[1]
            merged.sets += row[2]
            merged.deletes += row[3]
            merged.delete_hits += row[4]
            merged.signature_false_positives += row[5]
        return merged

    def __len__(self) -> int:
        self.refresh_stats()
        return sum(row[13] for row in self._stats_cache)

    def keys(self) -> list[bytes]:
        """The live keys of every shard (what cluster migration scans)."""
        out: list[bytes] = []
        self.drain_inflight()
        for worker in self.workers:
            reply = worker.request(bytes([MSG_DUMP]))
            (n,) = _U32.unpack_from(reply, 0)
            lens = struct.unpack_from(f"<{n}I", reply, 4)
            at = 4 + 4 * n
            for length in lens:
                out.append(bytes(reply[at : at + length]))
                at += length
        return out

    # -------------------------------------------------------------- routing

    def shard_for(self, key: bytes) -> int:
        return shard_of(key, self.num_shards)

    def _scalar(self, qtype: QueryType, key: bytes, value: bytes):
        self.drain_inflight()
        worker = self.workers[self.shard_for(key)]
        head = _BATCH_HEAD.pack(self._epoch, worker.next_seq())
        block = encode_query_block([qtype], [key], [value])
        reply = worker.request(bytes([MSG_BATCH]), head, *block)
        at = self._note_reply(worker.shard_id, reply)
        statuses, values, _sizes = decode_response_block(reply, at)
        return statuses[0], values[0]

    def get(self, key: bytes, *, epoch: int = 0) -> bytes | None:
        status, value = self._scalar(QueryType.GET, key, b"")
        return value if status == ResponseStatus.OK.value else None

    def set(self, key: bytes, value: bytes) -> None:
        """Route one SET; returns ``None`` (the worker's SetOutcome stays
        in its process — callers needing displacement detail run in the
        worker, not through the router)."""
        self._scalar(QueryType.SET, key, value)

    def delete(self, key: bytes) -> bool:
        status, _ = self._scalar(QueryType.DELETE, key, b"")
        return status == ResponseStatus.DELETED.value

    def populate(self, items: list[tuple[bytes, bytes]]) -> int:
        """Bulk-load via per-worker columnar SET blocks."""
        self.drain_inflight()
        by_shard: list[tuple[list[bytes], list[bytes]]] = [
            ([], []) for _ in range(self.num_shards)
        ]
        for key, value in items:
            keys, values = by_shard[self.shard_for(key)]
            keys.append(key)
            values.append(value)
        stored = 0
        set_type = QueryType.SET
        for worker, (keys, values) in zip(self.workers, by_shard):
            if not keys:
                continue
            block = encode_query_block([set_type] * len(keys), keys, values)
            reply = worker.request(bytes([MSG_POPULATE]), *block)
            stored += _U32.unpack_from(reply, 0)[0]
        return stored


# ------------------------------------------------------------------- engine


class ProcShardTicket:
    """One in-flight pipelined window: everything collect needs to merge.

    Created by :meth:`ProcShardEngine.submit`, finished by
    :meth:`ProcShardEngine.collect` (idempotent — a window drained early
    by the store's control-plane barrier is a no-op when collected again).
    """

    __slots__ = (
        "engine",
        "store",
        "plane",
        "sent",
        "shard_sizes",
        "statuses_col",
        "sizes_col",
        "values_col",
        "done",
        "encode_ns",
        "send_ns",
        "overlapped",
    )

    def __init__(self, engine: "ProcShardEngine", store, plane):
        self.engine = engine
        self.store = store
        self.plane = plane
        #: Sub-batches actually handed to a worker:
        #: ``(shard, rows, generation, seq)`` — generation pins the ring
        #: pair the window was sent on, seq the reply that answers it.
        self.sent: list[tuple] = []
        self.shard_sizes: list[int] = []
        self.statuses_col = None
        self.sizes_col = None
        self.values_col = None
        self.done = False
        self.encode_ns = 0
        self.send_ns = 0
        self.overlapped = False


class ProcShardEngine:
    """Router-side engine: split by shard hash, fan out over rings, merge.

    Runs against a :class:`ProcShardStore` only:
    :class:`~repro.pipeline.functional.FunctionalPipeline` has
    :meth:`check_store` reject any other store when it is built.  A
    worker that dies mid-batch answers its rows with ``ERROR`` responses
    instead of killing the serve loop; the maintenance tick respawns it.

    The data plane is pipelined: :meth:`submit` splits a window with one
    argsort over the FNV shard-hash column, gathers each sub-batch's
    columns with fancy indexing, and streams them to the workers without
    waiting; :meth:`collect` merges the replies with fancy-indexed
    scatters into whole-batch status/size/value columns and materializes
    the Response objects in a single pass.  ``run`` keeps the synchronous
    contract (``submit`` immediately followed by ``collect``); the
    server's coalescer uses the split pair to overlap window N+1's sends
    with window N's worker compute.
    """

    name = "procshard"

    def __init__(self):
        self.windows_submitted = 0
        self.windows_overlapped = 0

    @staticmethod
    def check_store(store) -> None:
        """Raise unless ``store`` is a worker fleet this engine can route to."""
        if not isinstance(store, ProcShardStore):
            raise ConfigurationError(
                "engine 'procshard' routes to shard worker processes and "
                f"needs a ProcShardStore, not {type(store).__name__}"
            )

    def close(self) -> None:
        """Engine holds no processes (the store owns workers); no-op."""

    @property
    def overlap_ratio(self) -> float:
        """Fraction of submitted windows that overlapped an in-flight one."""
        if not self.windows_submitted:
            return 0.0
        return self.windows_overlapped / self.windows_submitted

    @staticmethod
    def _shard_order(keys, num_shards: int, key_lens=None):
        """Stable shard argsort of one window plus per-shard span bounds.

        One whole-batch FNV hash, one stable argsort, one bincount — the
        stable sort keeps ascending row order inside each shard, so every
        sub-batch preserves batch order.  ``key_lens`` forwards a
        precomputed key-length column to the hash kernel (one pass over
        the keys per window, not one per consumer).
        """
        from repro.engine.vector import fnv_hash_columns

        states = fnv_hash_columns(keys, 1, lens=key_lens)
        shard_arr = (states[0] % np.uint64(num_shards)).astype(np.int64)
        order = np.argsort(shard_arr, kind="stable")
        counts = np.bincount(shard_arr, minlength=num_shards)
        bounds = np.empty(num_shards + 1, dtype=np.int64)
        bounds[0] = 0
        np.cumsum(counts, out=bounds[1:])
        return order, bounds.tolist()

    # ------------------------------------------------------- submit/collect

    def submit(self, store, plan, plane, *, epoch: int = 0) -> ProcShardTicket:
        """Send one window's sub-batches; merge later with :meth:`collect`.

        At most :data:`MAX_INFLIGHT_WINDOWS` windows may be resident per
        store — submitting beyond that collects the oldest first, so the
        double-buffered rings can never deadlock on a healthy worker.
        """
        while len(store._inflight) >= MAX_INFLIGHT_WINDOWS:
            self.collect(store._inflight[0])
        ticket = ProcShardTicket(self, store, plane)
        ticket.overlapped = bool(store._inflight)
        t0 = time.perf_counter_ns()
        num_shards = store.num_shards
        n = plane.size
        keys = plane.keys
        key_lens = getattr(plane, "key_lens", None)
        if key_lens is None and n:
            # One pass over the key bytes per window: the same column
            # feeds the FNV shard split and the block encoder.
            key_lens = np.fromiter(map(len, keys), dtype=np.int64, count=n)
        cols = QueryBlockColumns(
            plane.qtypes,
            keys,
            plane.set_values,
            getattr(plane, "opcodes", None),
            key_lens,
            getattr(plane, "value_lens", None),
        )
        spans = bounds = None
        if num_shards > 1:
            order, bounds = self._shard_order(keys, num_shards, key_lens)
            shard_rows = [
                order[bounds[s] : bounds[s + 1]] for s in range(num_shards)
            ]
            # One whole-window permute; each shard's block is then a
            # zero-copy span slice of the sorted columns.
            spans = cols.sorted_spans(order)
        else:
            shard_rows = [None]
        ticket.statuses_col = np.zeros(n, dtype=np.int64)
        ticket.sizes_col = np.zeros(n, dtype=np.int64)
        ticket.values_col = np.empty(n, dtype=object)
        ticket.shard_sizes = [
            n if rows is None else len(rows) for rows in shard_rows
        ]
        store._epoch = epoch
        encode_ns = time.perf_counter_ns() - t0
        send_ns = 0
        for shard, rows in enumerate(shard_rows):
            if rows is not None and len(rows) == 0:
                continue
            worker = store.workers[shard]
            t_enc = time.perf_counter_ns()
            if spans is not None:
                block = spans.encode(bounds[shard], bounds[shard + 1])
            else:
                block = cols.encode(rows)
            t_send = time.perf_counter_ns()
            encode_ns += t_send - t_enc
            seq = worker.next_seq()
            head = _BATCH_HEAD.pack(epoch, seq)
            try:
                worker.send(bytes([MSG_BATCH]), head, *block)
            except WorkerDiedError:
                self._fill_down(ticket, rows)
                continue
            send_ns += time.perf_counter_ns() - t_send
            ticket.sent.append((shard, rows, worker.generation, seq))
        ticket.encode_ns = encode_ns
        ticket.send_ns = send_ns
        store._inflight.append(ticket)
        self.windows_submitted += 1
        if ticket.overlapped:
            self.windows_overlapped += 1
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.gauge(
                "repro_procshard_inflight_windows",
                help="Pipelined windows currently resident in worker rings",
            ).set(len(store._inflight))
        return ticket

    def collect(self, ticket: ProcShardTicket) -> None:
        """Merge one submitted window's replies into its plane.

        Idempotent; collects any older in-flight windows first (worker
        rings are strict FIFOs).  A worker that died, was respawned, or
        answered with the wrong sequence number has its rows answered
        ``ERROR`` — every in-flight window a mid-flight death touches
        fills down, none hangs.
        """
        if ticket.done:
            return
        store = ticket.store
        inflight = store._inflight
        while inflight and inflight[0] is not ticket:
            self.collect(inflight[0])
        plane = ticket.plane
        responses = plane.responses
        read_values = plane.read_values
        statuses_col = ticket.statuses_col
        sizes_col = ticket.sizes_col
        values_col = ticket.values_col
        wait_ns = decode_ns = scatter_ns = 0
        depth = 0
        stall_ns = 0
        try:
            for shard, rows, generation, seq in ticket.sent:
                worker = store.workers[shard]
                if worker.generation != generation:
                    # Respawned since submit: the rings this window was
                    # sent on are gone; nothing to receive.
                    self._fill_down(ticket, rows)
                    continue
                t_wait = time.perf_counter_ns()
                try:
                    reply = worker.recv_reply()
                except WorkerDiedError:
                    wait_ns += time.perf_counter_ns() - t_wait
                    self._fill_down(ticket, rows)
                    continue
                t_decode = time.perf_counter_ns()
                wait_ns += t_decode - t_wait
                reply_seq = _RESULT_HEAD.unpack_from(reply, 0)[2]
                if reply_seq != seq:
                    # A reply surviving from a window the router already
                    # abandoned (an earlier timeout fill-down): the ring
                    # is desynchronized — answer ERROR and resync by
                    # respawning the worker (fresh rings, seq 0).
                    logger.error(
                        "shard worker %d reply seq %d != expected %d; respawning",
                        shard,
                        reply_seq,
                        seq,
                    )
                    self._fill_down(ticket, rows)
                    worker.respawn()
                    store._stats_cache[shard] = (0,) * _STATS_FIELDS
                    store.respawns += 1
                    continue
                at = store._note_reply(shard, reply)
                statuses, values, sizes = decode_response_columns(reply, at)
                t_scatter = time.perf_counter_ns()
                decode_ns += t_scatter - t_decode
                if rows is None:
                    statuses_col[:] = statuses
                    sizes_col[:] = sizes
                    values_col[:] = values
                else:
                    statuses_col[rows] = statuses
                    sizes_col[rows] = sizes
                    values_col[rows] = values
                scatter_ns += time.perf_counter_ns() - t_scatter
                depth = max(depth, worker.take_high_water_bytes())
                stall_ns += worker.take_ring_stall_ns()
        finally:
            ticket.done = True
            if ticket in inflight:
                inflight.remove(ticket)

        t_scatter = time.perf_counter_ns()
        values_l = values_col.tolist()
        ok = ResponseStatus.OK
        if not statuses_col.any():
            # All-OK window (GET-heavy steady state): materialize with
            # one C-level map instead of a per-row branch loop.
            responses[:] = map(partial(Response, ok), values_l)
            read_values[:] = values_l
            statuses_l = [0] * len(values_l)
        else:
            statuses_l = statuses_col.tolist()
            by_code = _MERGE_BY_CODE
            for row, code in enumerate(statuses_l):
                if code == 0:
                    value = values_l[row]
                    responses[row] = Response(ok, value)
                    read_values[row] = value
                else:
                    responses[row] = by_code.get(code) or Response(
                        ResponseStatus(code)
                    )
        plane.response_statuses = statuses_l
        plane.response_sizes = sizes_col.tolist()
        scatter_ns += time.perf_counter_ns() - t_scatter
        # Every row is answered by construction (replies merge in, dead
        # workers fill down); take_responses can skip its per-row scan.
        plane.responses_complete = True

        telemetry = get_telemetry()
        if telemetry.enabled:
            num_shards = store.num_shards
            largest = max(ticket.shard_sizes) if ticket.shard_sizes else 0
            ideal = plane.size / num_shards if num_shards else 0
            registry = telemetry.registry
            registry.gauge(
                "repro_shard_imbalance",
                help="Largest shard sub-batch over the ideal even split",
            ).set(largest / ideal if ideal else 0.0)
            registry.gauge(
                "repro_procshard_queue_depth_bytes",
                help="Per-window ring-backlog high-water mark, both directions",
            ).set(depth)
            registry.histogram(
                "repro_procshard_encode_ns",
                help="Split + sub-batch column gather + encode per window (ns)",
            ).observe(ticket.encode_ns)
            registry.histogram(
                "repro_procshard_send_ns",
                help="Ring send time per window (ns)",
            ).observe(ticket.send_ns)
            registry.histogram(
                "repro_procshard_wait_ns",
                help="Reply wait time per window (ns)",
            ).observe(wait_ns)
            registry.histogram(
                "repro_procshard_decode_ns",
                help="Reply block decode per window (ns)",
            ).observe(decode_ns)
            registry.histogram(
                "repro_procshard_scatter_ns",
                help="Response column scatter + materialization per window (ns)",
            ).observe(scatter_ns)
            registry.histogram(
                "repro_procshard_ring_stall_ns",
                help="Send-side ring backpressure stall per window (ns)",
            ).observe(stall_ns)
            registry.gauge(
                "repro_procshard_inflight_windows",
                help="Pipelined windows currently resident in worker rings",
            ).set(len(inflight))
            registry.gauge(
                "repro_procshard_overlap_ratio",
                help="Fraction of windows submitted while another was in flight",
            ).set(self.overlap_ratio)

    # ------------------------------------------------------------------ run

    def run(
        self,
        store,
        plan,
        plane,
        *,
        epoch: int = 0,
        task_times=None,
    ) -> None:
        self.collect(self.submit(store, plan, plane, epoch=epoch))

    def _fill_down(self, ticket: ProcShardTicket, rows) -> None:
        """Answer a window's rows with ERROR (serve loop survives)."""
        plane = ticket.plane
        code = ResponseStatus.ERROR.value
        wire = _WORKER_DOWN.wire_size
        idx = slice(None) if rows is None else rows
        ticket.statuses_col[idx] = code
        ticket.sizes_col[idx] = wire
        count = plane.size if rows is None else len(rows)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.counter(
                "repro_procshard_worker_errors_total",
                help="Rows answered ERROR because their shard worker died",
            ).inc(count)


__all__ = [
    "ProcShardEngine",
    "ProcShardStore",
    "ProcShardTicket",
    "ShardWorker",
    "WorkerDiedError",
    "WorkerFailedError",
]
