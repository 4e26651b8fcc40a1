"""Process-per-shard backend: rings, codecs, store, crash paths, identity.

Covers the ISSUE-7 tentpole and its satellites:

* :class:`~repro.net.arena.ShmRing` unit behaviour (roundtrip, oversized
  streaming, timeout, close);
* query/response block codec roundtrips;
* :class:`~repro.engine.procshard.ProcShardStore` parity with a plain
  :class:`~repro.kv.store.KVStore`, scalar ops and the store protocol;
* worker-crash handling: ERROR-filled rows, respawn, and the
  shared-memory leak regression (a SIGKILLed worker must leave no
  orphaned ``/dev/shm`` segment after close);
* the hypothesis byte-identity fuzz vs :class:`ReferenceEngine` across
  shard counts {1, 2, 4, 7};
* shard routing: the router's batched split against the per-key
  :func:`~repro.kv.sharding.shard_of`.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dido import DidoSystem
from repro.core.profiler import WINDOW_QUERIES
from repro.engine import BatchPlane, compile_stage_plan
from repro.engine.procshard import (
    ProcShardEngine,
    ProcShardStore,
    WorkerFailedError,
)
from repro.errors import ConfigurationError
from repro.kv.protocol import Query, QueryType, ResponseStatus, encode_responses
from repro.kv.sharding import shard_of
from repro.kv.store import KVStore, StoreStats
from repro.net.arena import (
    QueryBlockColumns,
    RingClosedError,
    ShmRing,
    decode_query_block,
    decode_response_block,
    decode_response_columns,
    encode_query_block,
    encode_response_block,
)
from repro.pipeline.functional import FunctionalPipeline
from repro.pipeline.megakv import megakv_coupled_config
from repro.telemetry import configure as configure_telemetry

from conftest import ProcShardPool
from test_engine import batch_frames, skewed_repeat_batches, workload_batches

SHARD_COUNTS = (1, 2, 4, 7)


def shm_segments() -> set[str]:
    """Names of live repro ring arenas (Linux /dev/shm listing)."""
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("repro-ring-")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


# ------------------------------------------------------------------ routing


class TestShardRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for n in SHARD_COUNTS:
            for i in range(200):
                key = f"key-{i}".encode()
                shard = shard_of(key, n)
                assert 0 <= shard < n
                assert shard == shard_of(key, n)

    def test_shard_order_matches_shard_of(self):
        """The batched split (the vector hash kernel's row 0) puts every
        row on the shard ``shard_of`` names, in ascending row order —
        ragged and oversized keys included."""
        keys = [f"some-key-{i}".encode() for i in range(500)] + [b"", b"x" * 300]
        for n in SHARD_COUNTS:
            order, bounds = ProcShardEngine._shard_order(keys, n)
            for shard in range(n):
                rows = order[bounds[shard] : bounds[shard + 1]].tolist()
                assert rows == [
                    row for row, key in enumerate(keys) if shard_of(key, n) == shard
                ]

    def test_all_shards_receive_keys(self):
        keys = [f"key-{i}".encode() for i in range(400)]
        _, bounds = ProcShardEngine._shard_order(keys, 4)
        assert all(stop > start for start, stop in zip(bounds, bounds[1:]))


# ------------------------------------------------------------------ the ring


class TestShmRing:
    def test_roundtrip_parts_and_empty(self):
        ring = ShmRing.create(4096)
        peer = ShmRing.attach(ring.name)
        try:
            ring.send(b"hello ", b"world")
            assert peer.recv(timeout=1.0) == b"hello world"
            ring.send()
            assert peer.recv(timeout=1.0) == b""
        finally:
            peer.close()
            ring.close()

    def test_message_larger_than_capacity_streams_through(self):
        ring = ShmRing.create(1024)
        peer = ShmRing.attach(ring.name)
        blob = os.urandom(10_000)
        out = []
        reader = threading.Thread(target=lambda: out.append(peer.recv(timeout=5.0)))
        reader.start()
        try:
            ring.send(blob, timeout=5.0)
            reader.join(timeout=5.0)
            assert out == [blob]
        finally:
            peer.close()
            ring.close()

    def test_recv_timeout_returns_none(self):
        ring = ShmRing.create(512)
        try:
            assert ring.recv(timeout=0.05) is None
        finally:
            ring.close()

    def test_close_interrupts_waiting_reader(self):
        ring = ShmRing.create(512)
        peer = ShmRing.attach(ring.name)
        errors = []

        def read():
            try:
                peer.recv(timeout=10.0)
            except RingClosedError as exc:
                errors.append(exc)

        reader = threading.Thread(target=read)
        reader.start()
        time.sleep(0.02)
        ring.close()
        reader.join(timeout=5.0)
        assert errors
        peer.close()

    def test_pending_bytes_tracks_queue_depth(self):
        ring = ShmRing.create(4096)
        try:
            assert ring.pending_bytes == 0
            ring.send(b"x" * 100)
            assert ring.pending_bytes == 104  # length prefix + body
        finally:
            ring.close()

    def test_owner_unlinks_segment(self):
        before = shm_segments()
        ring = ShmRing.create(512)
        assert ring.name in shm_segments() - before
        ring.close()
        assert ring.name not in shm_segments()

    def test_high_water_tracks_peak_backlog(self):
        """ISSUE satellite: the header high-water field records the peak
        byte depth since the last sample, not the instantaneous depth."""
        ring = ShmRing.create(4096)
        peer = ShmRing.attach(ring.name)
        try:
            ring.send(b"x" * 100)
            ring.send(b"y" * 50)
            assert ring.high_water_bytes == 104 + 54  # prefixes + bodies
            assert peer.recv(timeout=1.0) is not None
            assert peer.recv(timeout=1.0) is not None
            # The peak survives the drain; take_high_water() hands it over
            # and re-arms the mark at the (now empty) current depth.
            assert ring.pending_bytes == 0
            assert ring.take_high_water() == 158
            assert ring.take_high_water() == 0
            ring.send(b"z")
            assert ring.take_high_water() == 5
        finally:
            peer.close()
            ring.close()

    def test_writer_stall_accumulates_only_on_backpressure(self):
        """ISSUE satellite: ``stall_ns`` counts writer-side full-ring
        pauses; an idle reader-side wait must not contribute."""
        ring = ShmRing.create(1024)
        peer = ShmRing.attach(ring.name)
        blob = os.urandom(4096)
        out = []

        def late_read():
            time.sleep(0.05)
            out.append(peer.recv(timeout=5.0))

        reader = threading.Thread(target=late_read)
        reader.start()
        try:
            assert ring.stall_ns == 0
            ring.send(blob, timeout=5.0)  # > capacity: writer must wait
            reader.join(timeout=5.0)
            assert out == [blob]
            assert ring.stall_ns > 0
            # The reader's own ring never saw backpressure.
            assert peer.stall_ns == 0
        finally:
            peer.close()
            ring.close()


# -------------------------------------------------------------- block codecs


class TestBlockCodecs:
    def test_query_block_roundtrip_all_rows(self):
        qtypes = [QueryType.SET, QueryType.GET, QueryType.DELETE]
        keys = [b"alpha", b"", b"y" * 70]
        values = [b"v1", b"", b""]
        buf = b"".join(encode_query_block(qtypes, keys, values))
        columns = decode_query_block(buf)
        assert columns.qtypes == qtypes
        assert columns.keys == keys
        assert columns.values == values

    def test_query_block_row_subset(self):
        qtypes = [QueryType.SET, QueryType.GET, QueryType.SET, QueryType.GET]
        keys = [b"a", b"b", b"c", b"d"]
        values = [b"1", b"", b"3", b""]
        buf = b"".join(encode_query_block(qtypes, keys, values, rows=[1, 3]))
        columns = decode_query_block(buf)
        assert columns.keys == [b"b", b"d"]
        assert columns.qtypes == [QueryType.GET, QueryType.GET]

    def test_response_block_roundtrip(self):
        statuses = [
            ResponseStatus.OK.value,
            ResponseStatus.NOT_FOUND.value,
            ResponseStatus.STORED.value,
            ResponseStatus.OK.value,
        ]
        values = [b"payload", None, None, b""]
        buf = b"".join(encode_response_block(statuses, values))
        out_statuses, out_values, sizes = decode_response_block(buf)
        assert out_statuses == statuses
        # OK rows keep their bytes (including empty); others decode None.
        assert out_values == [b"payload", None, None, b""]
        assert sizes[0] == 5 + len(b"payload")
        assert sizes[1] == 5

    def test_response_block_distinguishes_ok_empty_from_miss(self):
        buf = b"".join(
            encode_response_block(
                [ResponseStatus.OK.value, ResponseStatus.NOT_FOUND.value],
                [b"", None],
            )
        )
        _, values, _ = decode_response_block(buf)
        assert values == [b"", None]

    def test_query_block_columns_bytes_match_scalar_encoder(self):
        """ISSUE tentpole: the precomputed gather-encoder emits the exact
        bytes of the per-row encoder, full batch and row subsets alike."""
        qtypes = [QueryType.SET, QueryType.GET, QueryType.DELETE,
                  QueryType.SET, QueryType.GET]
        keys = [b"alpha", b"", b"y" * 70, b"k", b"zz"]
        values = [b"v1", b"", b"", b"x" * 33, b""]
        columns = QueryBlockColumns(qtypes, keys, values)
        for rows in (None, [0, 2, 4], [1], list(range(5))):
            expected = b"".join(
                encode_query_block(qtypes, keys, values, rows=rows)
            )
            assert b"".join(columns.encode(rows)) == expected, rows

    def test_decode_response_columns_matches_scalar_decoder(self):
        statuses = [
            ResponseStatus.OK.value,
            ResponseStatus.NOT_FOUND.value,
            ResponseStatus.STORED.value,
            ResponseStatus.OK.value,
            ResponseStatus.OK.value,
        ]
        values = [b"payload", None, None, b"", b"x" * 90]
        buf = b"".join(encode_response_block(statuses, values))
        ref_statuses, ref_values, ref_sizes = decode_response_block(buf)
        col_statuses, col_values, col_sizes = decode_response_columns(buf)
        assert list(col_statuses) == ref_statuses
        assert list(col_values) == ref_values
        assert list(col_sizes) == ref_sizes


# ------------------------------------------------------------- store facade


class TestProcShardStoreFacade:
    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcShardStore(1 << 20, 512, 0)

    def test_scalar_ops_match_plain_store(self):
        plain = KVStore(4 << 20, 2048)
        store = ProcShardStore(4 << 20, 2048, 3)
        try:
            for i in range(50):
                key = b"k%d" % (i % 17)
                value = b"v%d" % i
                plain.set(key, value)
                store.set(key, value)
            for i in range(17):
                key = b"k%d" % i
                assert store.get(key) == plain.get(key)
            assert store.get(b"missing") is None
            assert store.delete(b"k3") is True
            assert store.delete(b"k3") is False
            assert len(store) == len(plain) - 1
        finally:
            store.close()

    def test_populate_and_heap_dump(self):
        store = ProcShardStore(4 << 20, 2048, 4)
        try:
            items = [(b"key-%d" % i, b"v") for i in range(100)]
            assert store.populate(items) == 100
            assert len(store) == 100
            assert set(store.keys()) == {key for key, _ in items}
        finally:
            store.close()

    def test_merged_index_stats_accumulate(self):
        store = ProcShardStore(4 << 20, 2048, 2)
        try:
            for i in range(30):
                store.set(b"key-%d" % i, b"v")
                store.get(b"key-%d" % i)
            merged = store.stats
            assert (merged.sets, merged.gets, merged.get_hits) == (30, 30, 30)
            _counts, insert_buckets = store.harvest_window()
            assert insert_buckets >= 1.0  # 30 inserts, each wrote a bucket
        finally:
            store.close()

    def test_close_unlinks_all_arenas_and_is_idempotent(self):
        before = shm_segments()
        store = ProcShardStore(2 << 20, 512, 3)
        assert len(shm_segments() - before) == 6  # two rings per worker
        store.close()
        store.close()
        assert shm_segments() <= before

    def test_reset_empties_every_shard(self):
        store = ProcShardStore(2 << 20, 512, 2)
        try:
            store.populate([(b"a", b"1"), (b"b", b"2")])
            assert len(store) == 2
            store.reset()
            assert len(store) == 0
            assert store.get(b"a") is None
        finally:
            store.close()

    def test_worker_exception_carries_traceback(self):
        store = ProcShardStore(2 << 20, 512, 1)
        try:
            with pytest.raises(WorkerFailedError, match="unknown message type"):
                store.workers[0].request(bytes([250]))
        finally:
            store.close()


# ----------------------------------------------------------- crash handling


class TestWorkerCrash:
    def test_killed_worker_leaves_no_orphaned_segments(self):
        """ISSUE satellite: SIGKILL a worker mid-life; close() must still
        unlink every /dev/shm arena (the router owns both rings)."""
        before = shm_segments()
        store = ProcShardStore(2 << 20, 512, 3)
        os.kill(store.workers[1].process.pid, signal.SIGKILL)
        store.workers[1].process.join(timeout=5.0)
        store.close()
        assert shm_segments() <= before

    def test_dead_shard_rows_answer_error_and_respawn(self):
        store = ProcShardStore(4 << 20, 2048, 2)
        engine = ProcShardEngine()
        plan = compile_stage_plan(megakv_coupled_config())
        try:
            keys = [b"key-%d" % i for i in range(40)]
            store.populate([(k, b"v") for k in keys])
            dead = store.workers[0]
            os.kill(dead.process.pid, signal.SIGKILL)
            dead.process.join(timeout=5.0)
            plane = BatchPlane([Query(QueryType.GET, k) for k in keys])
            engine.run(store, plan, plane, epoch=1)
            responses = plane.take_responses()
            statuses = {r.status for r in responses}
            assert ResponseStatus.ERROR in statuses  # dead shard's rows
            assert ResponseStatus.OK in statuses  # live shard still serves
            # Column views stay consistent with the response objects.
            assert plane.response_statuses == [r.status.value for r in responses]
            assert plane.response_sizes == [r.wire_size for r in responses]
            assert store.maintenance() == [0]
            assert store.respawns == 1
            # The respawned worker is empty but serving again.
            plane = BatchPlane([Query(QueryType.SET, b"fresh", b"1"),
                                Query(QueryType.GET, b"fresh")])
            engine.run(store, plan, plane, epoch=2)
            assert plane.take_responses()[1].value == b"1"
        finally:
            store.close()

    def test_maintain_respawns_through_dido_system(self):
        system = DidoSystem(
            memory_bytes=4 << 20, expected_objects=2048,
            engine="procshard", shards=2,
        )
        try:
            assert system.maintain() == []
            worker = system.store.workers[1]
            os.kill(worker.process.pid, signal.SIGKILL)
            worker.process.join(timeout=5.0)
            assert system.maintain() == [1]
            result = system.process([Query(QueryType.SET, b"x", b"1")])
            assert result.responses[0].status is ResponseStatus.STORED
        finally:
            system.close()


# ------------------------------------------------- byte-identity (property)

_POOL = ProcShardPool()


@pytest.fixture(scope="module", autouse=True)
def _close_pooled_stores():
    yield
    _POOL.close()


def _queries_from_ops(ops) -> list[Query]:
    queries = []
    for op, key_id, value in ops:
        key = b"key-%d" % key_id
        if op == "set":
            queries.append(Query(QueryType.SET, key, value))
        elif op == "get":
            queries.append(Query(QueryType.GET, key))
        else:
            queries.append(Query(QueryType.DELETE, key))
    return queries




# ------------------------------------------------------------ store protocol


@pytest.mark.parametrize("kind", ["kvstore", "procshard"])
def test_store_protocol_same_answers_on_both_stores(kind):
    """The four jobs the system asks of a store beyond get/set/delete/
    populate/len/stats — keys, the window harvest,
    needs_maintenance/maintenance, close — give the same answers
    in-process and across two shard workers for one op stream."""
    if kind == "kvstore":
        store, engine = KVStore(8 << 20, 2048), "vector"
    else:
        store, engine = _POOL.store(8 << 20, 2048, 2), "procshard"
    epoch = [1]
    pipeline = FunctionalPipeline(store, epoch_source=lambda: epoch[0], engine=engine)
    config = megakv_coupled_config()
    keys = [b"key-%02d" % i for i in range(20)]
    reads = {key: i % 3 + 1 for i, key in enumerate(keys)}
    pipeline.process_batch(config, [Query(QueryType.SET, k, b"v1") for k in keys])
    pipeline.process_batch(
        config, [Query(QueryType.GET, k) for k in keys for _ in range(reads[k])]
    )
    pipeline.process_batch(
        config,
        [
            Query(QueryType.SET, keys[0], b"v2"),  # replace
            Query(QueryType.SET, keys[1], b"v2"),
            Query(QueryType.DELETE, keys[18]),
            Query(QueryType.DELETE, keys[19]),
            Query(QueryType.GET, keys[19]),  # get-after-delete: a miss
            Query(QueryType.DELETE, b"absent"),
        ],
    )
    assert sorted(store.keys()) == keys[:18]
    assert len(store) == 18
    assert dataclasses.replace(store.stats) == StoreStats(
        gets=sum(reads.values()) + 1,
        get_hits=sum(reads.values()),
        sets=22,
        deletes=3,
        delete_hits=2,
    )
    # The window closes: the next batch carries the new epoch to both
    # workers (fresh keys only, so it touches nothing itself), and the
    # harvest is the closed window's reads of the objects still live —
    # replaced and deleted ones drop out, as a heap scan would not see them.
    epoch[0] = 2
    fresh = [b"fresh-%d" % i for i in range(8)]
    if kind == "procshard":
        assert {store.shard_for(k) for k in fresh} == {0, 1}
    pipeline.process_batch(config, [Query(QueryType.SET, k, b"x") for k in fresh])
    counts, insert_buckets = store.harvest_window()
    assert sorted(counts) == sorted(reads[k] for k in keys[2:18])
    assert insert_buckets == 1.0  # every Insert found a free slot
    assert store.harvest_window()[0] == []  # drained
    # A key read 64 times in one window is read — and counted — 64 times.
    pipeline.process_batch(config, [Query(QueryType.GET, keys[5])] * 64)
    epoch[0] = 3
    pipeline.process_batch(config, [Query(QueryType.DELETE, k) for k in fresh])
    assert store.harvest_window()[0] == [64]
    assert not store.needs_maintenance
    assert not store.maintenance()  # healthy: nothing compacted or respawned
    if kind == "procshard":
        worker = store.workers[1]
        os.kill(worker.process.pid, signal.SIGKILL)
        worker.process.join(timeout=5.0)
        assert store.needs_maintenance
        assert store.maintenance() == [1]
        assert not store.needs_maintenance
    else:
        store.close()  # nothing to release; the pool closes the fleet


# A small key space forces hot keys: repeated GET runs of one key reach
# every shard count's workers.
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["set", "get", "get", "delete"]),
        st.integers(0, 15),
        st.binary(min_size=0, max_size=40),
    ),
    min_size=1,
    max_size=100,
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(ops_strategy, min_size=1, max_size=3))
def test_procshard_byte_identical_to_reference(batches_ops):
    """ISSUE satellite: procshard vs ReferenceEngine, byte-identical
    responses across shard counts {1, 2, 4, 7} on mixed GET/SET/DELETE
    traces followed by Zipf-skewed windows that repeat keys."""
    config = megakv_coupled_config()
    batches = [_queries_from_ops(ops) for ops in batches_ops]
    batches += skewed_repeat_batches(batches=2)
    baseline = batch_frames(KVStore(32 << 20, 2048), "reference", config, batches)
    for shards in SHARD_COUNTS:
        store = _POOL.store(32 << 20, 2048, shards)
        frames = batch_frames(store, ProcShardEngine(), config, batches)
        assert frames == baseline, f"shards={shards}"


# ------------------------------------------------------------ system level


class TestProcShardSystem:
    def test_dido_system_constructs_procshard_store(self):
        """Also with the engine unset: ``shards > 1`` resolves to
        procshard, the only backend that executes across partitions."""
        for engine in ("procshard", "auto", None):
            system = DidoSystem(
                memory_bytes=4 << 20, expected_objects=2048,
                engine=engine, shards=4,
            )
            try:
                assert isinstance(system.store, ProcShardStore)
                assert isinstance(system.pipeline._engine, ProcShardEngine)
                assert system.store.num_shards == 4
            finally:
                system.close()

    def test_dido_system_rejects_incompatible_engine(self):
        before = shm_segments()
        with pytest.raises(ConfigurationError, match="cannot execute across 4 shards"):
            DidoSystem(memory_bytes=8 << 20, expected_objects=4096,
                       engine="reference", shards=4)
        assert shm_segments() <= before  # rejected before any worker spawned

    def test_system_matches_plain_system_with_flags(self):
        system = DidoSystem(
            memory_bytes=8 << 20, expected_objects=4096,
            engine="procshard", shards=3,
        )
        plain = DidoSystem(memory_bytes=8 << 20, expected_objects=4096)
        try:
            for batch in workload_batches(batches=3, size=256):
                proc_result = system.process(list(batch))
                plain_result = plain.process(list(batch))
                assert encode_responses(proc_result.responses) == (
                    encode_responses(plain_result.responses)
                )
        finally:
            system.close()

    def test_worker_frequency_harvest_feeds_profiler(self):
        system = DidoSystem(
            memory_bytes=4 << 20, expected_objects=2048,
            engine="procshard", shards=2,
        )
        try:
            hot = [Query(QueryType.SET, b"hot", b"v")] + [
                Query(QueryType.GET, b"hot")
            ] * 511
            # Batch 1 closes the bootstrap window; batches 2-9 fill the
            # next one, which closes as batch 9 is planned.
            for _ in range(1 + WINDOW_QUERIES // len(hot)):
                assert not system.store.harvest_window()[0]
                system.process(list(hot))
            # Batch 9 carried the new epoch, so its reply shipped the
            # worker-side harvest of the closed window's access counts
            # (drained into the profiler when the *next* window closes).
            assert system.profiler.epoch == 2
            assert 511 in system.store.harvest_window()[0]
        finally:
            system.close()

    @pytest.mark.parametrize(
        "scalar",
        [
            lambda store: store.get(b"absent"),
            lambda store: store.set(b"migrated-in", b"v"),
            lambda store: store.delete(b"absent"),
        ],
        ids=["get", "set", "delete"],
    )
    def test_scalar_op_mid_window_is_not_a_window_boundary(self, scalar):
        """A scalar get/set/delete between two windows of one epoch (what
        cluster migration does on a sharded node) leaves the window's
        harvest exactly what it is without it: the worker must not take
        the op for an epoch change, drain its open window onto a reply
        the router drops, and re-harvest a fragment later."""
        config = megakv_coupled_config()
        keys = [b"key-%02d" % i for i in range(24)]
        first = [Query(QueryType.GET, k) for k in keys for _ in range(2)]
        second = [Query(QueryType.GET, k) for k in keys[8:]]

        def harvest(mid_window) -> list[int]:
            store = _POOL.store(8 << 20, 2048, 2)
            assert store.populate([(k, b"v") for k in keys]) == len(keys)
            epoch = [1]
            pipeline = FunctionalPipeline(
                store, epoch_source=lambda: epoch[0], engine="procshard"
            )
            pipeline.process_batch(config, first)
            mid_window(store)
            pipeline.process_batch(config, second)
            assert store.harvest_window()[0] == []  # the window is still open
            epoch[0] = 2
            pipeline.process_batch(config, [Query(QueryType.GET, k) for k in keys])
            return sorted(store.harvest_window()[0])

        expected = harvest(lambda store: None)
        assert expected == [2] * 8 + [3] * 16
        assert harvest(scalar) == expected

    def test_procshard_engine_rejects_plain_store(self):
        """No silent in-process fallback: the engine routes to worker
        processes, and a pipeline built over anything else says so."""
        for engine in ("procshard", ProcShardEngine()):
            with pytest.raises(ConfigurationError, match="ProcShardStore"):
                FunctionalPipeline(KVStore(2 << 20, 512), engine=engine)


# -------------------------------------------- pipelined IPC (submit/collect)


def run_pipeline_overlapped(store, engine, config, batches):
    """Submit every window before collecting any: windows overlap in
    flight (the engine itself caps residency at the double-buffer bound,
    completing the oldest window when a third submit arrives)."""
    pipeline = FunctionalPipeline(store, engine=engine)
    pending = [pipeline.submit_batch(config, batch) for batch in batches]
    frames = []
    for handle in pending:
        result = pipeline.collect_batch(handle)
        frames.append(b"".join(f.payload for f in result.frames))
    return frames


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(ops_strategy, min_size=2, max_size=4))
def test_pipelined_byte_identical_to_synchronous(batches_ops):
    """ISSUE satellite: pipelined submit/collect vs the synchronous run()
    contract across shard counts {1, 2, 4, 7}, both byte-identical to the
    ReferenceEngine — duplicate-heavy skewed windows included."""
    config = megakv_coupled_config()
    batches = [_queries_from_ops(ops) for ops in batches_ops]
    batches += skewed_repeat_batches(batches=2)
    baseline = batch_frames(KVStore(32 << 20, 2048), "reference", config, batches)
    for shards in SHARD_COUNTS:
        store = _POOL.store(32 << 20, 2048, shards)
        sync = batch_frames(store, ProcShardEngine(), config, batches)
        store.reset()
        overlapped = run_pipeline_overlapped(
            store, ProcShardEngine(), config, batches
        )
        assert sync == baseline, f"shards={shards}"
        assert overlapped == baseline, f"shards={shards}"


class TestPipelinedEngine:
    def test_overlap_counters_and_inflight_cap(self):
        store = ProcShardStore(4 << 20, 2048, 2)
        engine = ProcShardEngine()
        plan = compile_stage_plan(megakv_coupled_config())
        try:
            store.populate([(b"a", b"1"), (b"b", b"2")])
            planes = [
                BatchPlane(
                    [Query(QueryType.GET, b"a"), Query(QueryType.GET, b"b")]
                )
                for _ in range(3)
            ]
            tickets = [
                engine.submit(store, plan, plane, epoch=i)
                for i, plane in enumerate(planes)
            ]
            # The third submit forced the oldest window to complete: the
            # in-flight set never exceeds the double-buffer bound.
            assert tickets[0].done
            assert len(store._inflight) <= 2
            for ticket, plane in zip(tickets, planes):
                engine.collect(ticket)
                values = [r.value for r in plane.take_responses()]
                assert values == [b"1", b"2"]
            assert not store._inflight
            assert engine.windows_submitted == 3
            assert engine.windows_overlapped == 2
            assert engine.overlap_ratio == pytest.approx(2 / 3)
            # collect() is idempotent on a completed ticket.
            engine.collect(tickets[0])
        finally:
            store.close()

    def test_control_plane_round_trip_drains_inflight(self):
        """A facade round trip (stats refresh) must not consume a pending
        batch reply off the FIFO ring: it drains in-flight windows first."""
        store = ProcShardStore(4 << 20, 2048, 2)
        engine = ProcShardEngine()
        plan = compile_stage_plan(megakv_coupled_config())
        try:
            store.populate([(b"a", b"1")])
            plane = BatchPlane([Query(QueryType.GET, b"a")])
            ticket = engine.submit(store, plan, plane, epoch=1)
            assert store._inflight
            assert len(store) == 1  # control-plane round trip
            assert ticket.done
            assert not store._inflight
            assert plane.take_responses()[0].value == b"1"
        finally:
            store.close()

    def test_pipeline_metrics_exported(self):
        """ISSUE tentpole: per-stage ring timers and overlap gauges land
        in the registry under their documented names."""
        telemetry = configure_telemetry(enabled=True)
        store = ProcShardStore(4 << 20, 2048, 2)
        engine = ProcShardEngine()
        plan = compile_stage_plan(megakv_coupled_config())
        try:
            store.populate([(b"a", b"1")])
            planes = [
                BatchPlane([Query(QueryType.GET, b"a")]) for _ in range(2)
            ]
            tickets = [
                engine.submit(store, plan, p, epoch=i)
                for i, p in enumerate(planes)
            ]
            for ticket in tickets:
                engine.collect(ticket)
            snapshot = telemetry.registry.snapshot()
            for name in (
                "repro_procshard_encode_ns",
                "repro_procshard_send_ns",
                "repro_procshard_wait_ns",
                "repro_procshard_decode_ns",
                "repro_procshard_scatter_ns",
                "repro_procshard_queue_depth_bytes",
                "repro_procshard_inflight_windows",
                "repro_procshard_overlap_ratio",
            ):
                assert name in snapshot, name
        finally:
            configure_telemetry(enabled=False)
            store.close()


class TestPipelinedCrash:
    def test_midflight_kill_fills_every_inflight_window(self):
        """ISSUE satellite: with two windows in flight against a dead
        worker, both collects fill the dead shard's rows with ERROR —
        no hang, and close() still unlinks every /dev/shm segment."""
        before = shm_segments()
        store = ProcShardStore(4 << 20, 2048, 2)
        engine = ProcShardEngine()
        plan = compile_stage_plan(megakv_coupled_config())
        try:
            keys = [b"key-%d" % i for i in range(40)]
            store.populate([(k, b"v") for k in keys])
            dead = store.workers[0]
            os.kill(dead.process.pid, signal.SIGKILL)
            dead.process.join(timeout=5.0)
            planes, tickets = [], []
            for epoch in (1, 2):
                plane = BatchPlane([Query(QueryType.GET, k) for k in keys])
                tickets.append(engine.submit(store, plan, plane, epoch=epoch))
                planes.append(plane)
            start = time.monotonic()
            for ticket, plane in zip(tickets, planes):
                engine.collect(ticket)
                statuses = {r.status for r in plane.take_responses()}
                assert ResponseStatus.ERROR in statuses  # dead shard's rows
                assert ResponseStatus.OK in statuses  # live shard answered
            assert time.monotonic() - start < 30.0  # dead ring aborts fast
            assert store.maintenance() == [0]
        finally:
            store.close()
        assert shm_segments() <= before


# ------------------------------------------------------------------- server


class TestProcShardServer:
    def test_udp_serving_end_to_end(self):
        from repro.client import DidoClient
        from repro.server import DidoUDPServer

        # The pooled hypothesis fleets (~14 idle workers) poll their rings;
        # on a 1-core host they can starve the server past the client
        # timeout.  The remaining tests spawn their own workers — drop them.
        _POOL.close()
        before = shm_segments()
        system = DidoSystem(
            memory_bytes=64 << 20, expected_objects=65536,
            engine="procshard", shards=2,
        )
        server = DidoUDPServer(
            ("127.0.0.1", 0), system=system, batch_size=64, coalesce_us=500
        )
        try:
            # A procshard-backed system gets double-buffered windows.
            assert server._pipeline_depth == 2
            with server:
                server.start()
                with DidoClient(server.address, timeout_s=5.0) as client:
                    assert client.set(b"alpha", b"1")
                    assert client.get(b"alpha") == b"1"
                    assert client.get(b"missing") is None
                    assert client.delete(b"alpha") is True
        finally:
            system.close()
        # Workers gone, arenas unlinked.
        assert shm_segments() <= before

    def test_serve_shards_runs_procshard_and_sigterm_unlinks_arenas(self):
        """``repro serve --shards 4`` with the engine unset serves through
        four shard workers; SIGTERM stops them and leaves no /dev/shm
        segment behind."""
        from repro.client import DidoClient
        from repro.cluster.serving import free_port

        before = shm_segments()
        port = free_port()
        process = _spawn_serve("--port", str(port), "--shards", "4")
        try:
            # Printed once the workers are up and the socket is bound.
            assert "serving on" in process.stdout.readline()
            with DidoClient(("127.0.0.1", port), timeout_s=5.0) as client:
                for i in range(64):
                    assert client.set(b"key-%d" % i, b"v%d" % i)
                for i in range(64):
                    assert client.get(b"key-%d" % i) == b"v%d" % i
            assert len(shm_segments() - before) == 8  # two rings per worker
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
        assert shm_segments() <= before

    def test_serve_shards_with_in_process_engine_exits_with_error(self):
        before = shm_segments()
        process = _spawn_serve("--port", "0", "--shards", "4", "--engine", "vector")
        output, _ = process.communicate(timeout=30)
        assert process.returncode == 1
        assert "error: engine 'vector' cannot execute across 4 shards" in output
        assert shm_segments() <= before


def _spawn_serve(*flags: str) -> subprocess.Popen:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *flags],
        cwd=root, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
