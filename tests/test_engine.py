"""Unit tests for the engine layer: plan compiler, batch plane, backends."""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config_search import enumerate_configs
from repro.core.dido import DidoSystem
from repro.core.pipeline_config import PipelineConfig
from repro.core.tasks import IndexOp, Task
from repro.engine import (
    BatchPlane,
    ReferenceEngine,
    VectorEngine,
    compile_stage_plan,
    resolve_engine,
)
from repro.engine.plan import BOUNDARY_TASKS, INDEX_OP_PRIORITY, PhaseKind
from repro.errors import CapacityError, ConfigurationError, SimulationError
from repro.kv.hashtable import CuckooHashTable
from repro.kv.logarena import LogValueArena
from repro.kv.protocol import Query, QueryType, ResponseStatus
from repro.kv.store import KVStore
from repro.net.wire import QueryColumns, encode_response_window
from repro.pipeline.functional import FunctionalPipeline
from repro.pipeline.megakv import megakv_coupled_config
from repro.workloads.distributions import make_distribution
from repro.workloads.ycsb import QueryStream, standard_workload

from dict_model import DictModel, answers, assert_agrees


def all_canonical_configs():
    configs = list(enumerate_configs(4))
    stealing = [
        PipelineConfig.assemble(
            c.gpu_stage.tasks, total_cpu_cores=4, work_stealing=True
        )
        for c in configs
        if c.gpu_stage is not None and not c.work_stealing
    ]
    return configs + stealing


def workload_batches(label="K16-G50-S", batches=3, size=400, seed=11):
    stream = QueryStream(standard_workload(label), num_keys=600, seed=seed)
    return [stream.next_batch(size) for _ in range(batches)]


def skewed_repeat_batches(batches=3, size=160, num_keys=48, seed=7):
    """Zipf(0.99) GET/SET/DELETE windows over a small key pool, each SET
    writing a value of its own.  Every window is duplicate-heavy in the
    three ways an engine could get wrong by answering a repeated key once:
    one key GET many times, SET-then-GET and DELETE-then-GET of one key
    (asserted here, so the streams built on this cannot lose them)."""
    ranks = make_distribution(num_keys, 0.99, seed=seed)
    rng = random.Random(seed)
    windows = []
    for b in range(batches):
        window = []
        for i, rank in enumerate(ranks.sample(size).tolist()):
            key = b"skew-key-%03d" % rank
            roll = rng.random()
            if roll < 0.7:
                window.append(Query(QueryType.GET, key))
            elif roll < 0.9:
                window.append(Query(QueryType.SET, key, b"v%d.%d" % (b, i)))
            else:
                window.append(Query(QueryType.DELETE, key))
        last_op: dict[bytes, QueryType] = {}
        gets_after = {QueryType.GET: 0, QueryType.SET: 0, QueryType.DELETE: 0}
        for query in window:
            if query.qtype is QueryType.GET and query.key in last_op:
                gets_after[last_op[query.key]] += 1
            last_op[query.key] = query.qtype
        assert min(gets_after.values()) >= 3, gets_after
        windows.append(window)
    return windows


def batch_frames(store, engine, config, batches):
    """Framed response bytes of ``batches`` through ``engine``, batch by batch."""
    pipeline = FunctionalPipeline(store, engine=engine)
    frames = []
    for batch in batches:
        result = pipeline.process_batch(config, batch)
        frames.append(
            encode_response_window(result.response_statuses, result.response_values)[0]
        )
    return frames


def batch_answers(store, engine, config, batches):
    """Each batch's ``(status, value)`` rows through ``engine``, batch by batch."""
    pipeline = FunctionalPipeline(store, engine=engine)
    return [answers(pipeline.process_batch(config, batch)) for batch in batches]


# ------------------------------------------------------------------ the plan


class TestStagePlan:
    def test_compile_is_memoised(self):
        config = megakv_coupled_config()
        assert compile_stage_plan(config) is compile_stage_plan(config)
        # ... per configuration value, not per object.
        assert compile_stage_plan(megakv_coupled_config()) is compile_stage_plan(config)

    def test_every_task_appears_exactly_once_as_a_phase_owner(self):
        """Each of the eight tasks owns at least one phase, and non-IN
        tasks own exactly one."""
        for config in all_canonical_configs():
            plan = compile_stage_plan(config)
            owners = [p.task for p in plan.phases if p.kind is not PhaseKind.INDEX_OP]
            assert sorted(owners, key=lambda t: t.value) == sorted(
                set(owners), key=lambda t: t.value
            )
            assert set(owners) == set(Task) - {Task.IN} or set(owners) == set(Task)

    def test_boundary_phases_are_rv_pp_sd(self):
        for config in all_canonical_configs():
            plan = compile_stage_plan(config)
            boundary = {p.task for p in plan.phases if p.kind is PhaseKind.BOUNDARY}
            assert boundary == set(BOUNDARY_TASKS)
            assert not any(
                p.task in BOUNDARY_TASKS
                for p in plan.phases
                if p.kind is not PhaseKind.BOUNDARY
            )

    def test_index_ops_ordered_by_priority_within_each_stage(self):
        """Within a stage: Deletes, then Inserts, then Searches (batch
        read-your-write)."""
        for config in all_canonical_configs():
            plan = compile_stage_plan(config)
            for stage_index in range(len(config.stages)):
                ops = [
                    p.op
                    for p in plan.stage_phases(stage_index)
                    if p.kind is PhaseKind.INDEX_OP
                ]
                priorities = [INDEX_OP_PRIORITY[op] for op in ops]
                assert priorities == sorted(priorities)

    def test_search_never_compiled_without_in(self):
        for config in all_canonical_configs():
            plan = compile_stage_plan(config)
            for stage_index, stage in enumerate(config.stages):
                for phase in plan.stage_phases(stage_index):
                    if phase.op is IndexOp.SEARCH:
                        assert Task.IN in stage.tasks

    def test_reassigned_ops_attributed_to_mm(self):
        config = PipelineConfig.assemble(
            (Task.IN,), total_cpu_cores=4, insert_on_cpu=True, delete_on_cpu=True
        )
        plan = compile_stage_plan(config)
        cpu_ops = [
            p
            for p in plan.phases
            if p.kind is PhaseKind.INDEX_OP and Task.IN not in config.stages[p.stage_index].tasks
        ]
        assert {p.op for p in cpu_ops} == {IndexOp.INSERT, IndexOp.DELETE}
        assert all(p.task is Task.MM for p in cpu_ops)

    def test_phase_order_follows_stage_order(self):
        for config in all_canonical_configs():
            plan = compile_stage_plan(config)
            stage_seq = [p.stage_index for p in plan.phases]
            assert stage_seq == sorted(stage_seq)

    def test_labels(self):
        plan = compile_stage_plan(megakv_coupled_config())
        labels = [p.label for p in plan.phases]
        assert "IN/search" in labels or any(l.startswith("IN/") for l in labels)
        assert "MM" in labels


# ----------------------------------------------------------------- the plane


class TestBatchPlane:
    def test_index_subsets_partition_the_batch(self):
        queries = [
            Query(QueryType.SET, b"a", b"1"),
            Query(QueryType.GET, b"a"),
            Query(QueryType.DELETE, b"a"),
            Query(QueryType.GET, b"b"),
        ]
        plane = BatchPlane(QueryColumns.from_queries(queries))
        assert plane.size == 4
        assert plane.get_indices == [1, 3]
        assert plane.set_indices == [0]
        assert plane.mutation_indices == [0, 2]  # SET and DELETE

    def test_take_responses_raises_when_incomplete(self):
        plane = BatchPlane(QueryColumns.from_queries([Query(QueryType.GET, b"a")]))
        with pytest.raises(SimulationError):
            plane.take_responses()

    def test_take_responses_error_names_missing_indices(self):
        """The failure message points at the exact queries a pass skipped."""
        from repro.kv.protocol import ResponseStatus

        plane = BatchPlane(
            QueryColumns.from_queries(
                [
                    Query(QueryType.GET, b"a"),
                    Query(QueryType.SET, b"b", b"1"),
                    Query(QueryType.DELETE, b"c"),
                ]
            )
        )
        plane.statuses[1] = ResponseStatus.STORED.value
        with pytest.raises(SimulationError) as excinfo:
            plane.take_responses()
        message = str(excinfo.value)
        assert "2 of 3" in message
        assert "0:GET" in message
        assert "2:DELETE" in message
        assert "1:SET" not in message

    def test_take_responses_error_truncates_long_index_lists(self):
        plane = BatchPlane(
            QueryColumns.from_queries([Query(QueryType.GET, b"k%d" % i) for i in range(20)])
        )
        with pytest.raises(SimulationError) as excinfo:
            plane.take_responses()
        message = str(excinfo.value)
        assert "20 of 20" in message
        assert "..." in message  # only the first few indices are spelled out
        assert "19:GET" not in message


# ------------------------------------------------------------------ bulk ops


class TestBulkStoreOps:
    """Each bulk primitive is exactly N applications of its scalar form."""

    def populated_store(self):
        store = KVStore(memory_bytes=8 << 20, expected_objects=4096)
        for i in range(200):
            store.set(f"key-{i}".encode(), f"value-{i}".encode())
        return store

    def test_multi_index_search_matches_scalar(self):
        """The engine's bulk Search: the table's walk over the window's
        probe specs."""
        store = self.populated_store()
        keys = [f"key-{i}".encode() for i in range(0, 250, 3)]
        signatures, buckets = store.window_specs(keys)
        bulk = store.index.multi_search_prehashed(signatures.tolist(), buckets.tolist())
        scalar_store = self.populated_store()
        assert bulk == [scalar_store.index_search(k) for k in keys]
        # stats aggregated identically
        assert store.index.stats.searches == scalar_store.index.stats.searches
        assert (
            store.index.stats.search_bucket_reads
            == scalar_store.index.stats.search_bucket_reads
        )

    def test_multi_index_insert_then_search(self):
        """Bulk Insert indexes the rows MM gave keys, under the specs MM
        wrote into them."""
        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        keys = [f"n{i}".encode() for i in range(20)]
        rows, fresh = store.multi_allocate_columns(keys, [b"v"] * 20, store.window_specs(keys))
        assert fresh == list(range(20))
        store.multi_index_insert(rows)
        for key, row in zip(keys, rows):
            assert row in store.index_search(key)


# ------------------------------------------------------------------ backends


class TestEngineEquivalence:
    """Every legal config: the batch engine == the preserved per-query path."""

    def run_all(self, engine, config, batches):
        store = KVStore(8 << 20, 4096)
        return batch_frames(store, engine, config, batches), store

    @pytest.mark.parametrize("oracle", ["log", "model"])
    @pytest.mark.parametrize("label", ["K16-G50-S", "K16-G95-U"])
    def test_vector_matches_reference_on_every_config(self, label, oracle):
        """All 37 canonical configs (their work-stealing variants
        included) through the production engine answer like the oracle:
        byte for byte like the reference engine on the log arena, with the
        same store and Search counts (``log``); or row for row like the
        dict model, which shares no code with either, with the same five
        operation counts (``model``)."""
        batches = workload_batches(label=label)
        configs = all_canonical_configs()
        assert len(configs) == 37
        model = DictModel()
        expected = [model.window(batch) for batch in batches]
        for config in configs:
            if oracle == "model":
                store = KVStore(8 << 20, 4096)
                assert batch_answers(store, "vector", config, batches) == expected, config.label
                assert_agrees(store, model)
                continue
            ref_frames, ref_store = self.run_all("reference", config, batches)
            frames, store = self.run_all("vector", config, batches)
            assert frames == ref_frames, config.label
            assert store.stats == ref_store.stats, config.label
            assert store.index.stats.searches == ref_store.index.stats.searches

    def test_oversized_set_fails_its_window_like_reference(self):
        """A SET bigger than the heap budget fails its whole window, as it
        does on the reference: the window raises before any pass runs, so
        none of the window's keys reads back; a later re-SET does, and the
        store counts match the reference's."""
        config = megakv_coupled_config()
        stats = []
        for engine in ("vector", "reference"):
            store = KVStore(1 << 20, 512)
            pipeline = FunctionalPipeline(store, engine=engine)
            window = [
                Query(QueryType.SET, b"a", b"1"),
                Query(QueryType.SET, b"b", b"x" * (store.heap.budget_bytes + 1)),
                Query(QueryType.SET, b"c", b"3"),
            ]
            with pytest.raises(CapacityError):
                pipeline.process_batch(config, window)
            gets = [Query(QueryType.GET, key) for key in (b"a", b"b", b"c")]
            result = pipeline.process_batch(config, gets)
            assert [r.status for r in result.responses] == [ResponseStatus.NOT_FOUND] * 3
            result = pipeline.process_batch(
                config, [Query(QueryType.SET, b"a", b"2"), Query(QueryType.GET, b"a")]
            )
            assert result.responses[1].value == b"2"
            # The heap holds no orphan of the failed window.
            assert store.keys() == [b"a"]
            stats.append(store.stats)
        assert stats[0] == stats[1]

    @pytest.mark.parametrize("engine", ["vector", "reference"])
    def test_oversized_set_window_applies_nothing(self, engine):
        """The rows before an oversized SET are not applied either: a
        replace of a live key keeps the old value, a DELETE keeps its key,
        and the heap and the store counts are as they were."""
        config = megakv_coupled_config()
        store = KVStore(1 << 20, 512)
        pipeline = FunctionalPipeline(store, engine=engine)
        pipeline.process_batch(
            config, [Query(QueryType.SET, b"a", b"old"), Query(QueryType.SET, b"c", b"kept")]
        )
        live, stats = store.heap.live_bytes, dataclasses.replace(store.stats)
        window = [
            Query(QueryType.SET, b"a", b"a longer new value"),
            Query(QueryType.DELETE, b"c"),
            Query(QueryType.SET, b"b", b"x" * (store.heap.budget_bytes + 1)),
        ]
        with pytest.raises(CapacityError):
            pipeline.process_batch(config, window)
        assert store.heap.stats.failed_allocations == 1
        assert store.heap.live_bytes == live and store.heap.dead_bytes == 0
        assert store.stats == stats
        result = pipeline.process_batch(
            config, [Query(QueryType.GET, key) for key in (b"a", b"b", b"c")]
        )
        assert [r.status for r in result.responses] == [
            ResponseStatus.OK,
            ResponseStatus.NOT_FOUND,
            ResponseStatus.OK,
        ]
        assert [result.responses[i].value for i in (0, 2)] == [b"old", b"kept"]

    @pytest.mark.parametrize("engine", ["vector"])
    def test_duplicate_heavy_windows_match_reference(self, engine):
        """Skewed windows that repeat keys (and the write barrier spelled
        out: a GET between two SETs of its key) answer byte for byte like
        the per-query reference, with the same store and Search counts —
        every repeated GET is probed and read, none answered for another."""
        barrier = [
            Query(QueryType.SET, b"k", b"v1"),
            Query(QueryType.GET, b"k"),
            Query(QueryType.SET, b"k", b"v2"),
            Query(QueryType.GET, b"k"),
            Query(QueryType.GET, b"k"),
            Query(QueryType.DELETE, b"other"),
        ]
        batches = skewed_repeat_batches() + [barrier]
        for config in (
            megakv_coupled_config(),
            PipelineConfig.assemble(
                megakv_coupled_config().gpu_stage.tasks,
                total_cpu_cores=4,
                work_stealing=True,
            ),
        ):
            ref_frames, ref_store = self.run_all("reference", config, batches)
            frames, store = self.run_all(engine, config, batches)
            assert frames == ref_frames, config.label
            assert store.stats == ref_store.stats, config.label
            assert store.index.stats.searches == ref_store.index.stats.searches


#: Batches of (op, key index, value index) triples; a 24-key pool
#: maximises collisions (re-sets, delete-then-set, get-after-delete) inside
#: one batch and across batches.
op_streams = st.lists(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 23), st.integers(0, 500)),
        min_size=1,
        max_size=40,
    ),
    min_size=1,
    max_size=6,
)

def stream_batches(raw):
    batches = []
    for raw_batch in raw:
        batch = []
        for op, key_idx, value_idx in raw_batch:
            key = b"fuzz-key-%02d" % key_idx
            if op == 0:
                batch.append(Query(QueryType.SET, key, b"val-%04d" % value_idx))
            elif op == 1:
                batch.append(Query(QueryType.GET, key))
            else:
                batch.append(Query(QueryType.DELETE, key))
        batches.append(batch)
    return batches


@pytest.mark.parametrize(
    "engine, oracle",
    [
        ("vector", "model"),
        ("vector", "log"),
        ("reference", "model"),
    ],
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=op_streams)
def test_engines_match_reference_over_multi_batch_streams(engine, oracle, raw):
    """Each engine answers a colliding multi-batch stream like its oracle:
    row for row like the dict model, which shares no code with the store
    or either engine, with the same operation counts (``model``); or byte
    for byte like the per-query reference, which shares the store but not
    the batching (``log``)."""
    config = megakv_coupled_config()
    batches = stream_batches(raw)
    store = KVStore(8 << 20, 4096)
    if oracle == "log":
        assert batch_frames(store, engine, config, batches) == batch_frames(
            KVStore(8 << 20, 4096), "reference", config, batches
        )
        return
    model = DictModel()
    expected = [model.window(batch) for batch in batches]
    assert batch_answers(store, engine, config, batches) == expected
    assert_agrees(store, model)


@pytest.mark.parametrize("engine", ["vector", "reference"])
def test_engines_match_the_model_on_a_kicked_table(engine):
    """300 windows of 1-60 queries (45 % SET, 45 % GET, 10 % DELETE) over
    200 keys on a 64-bucket table, which kicks: every window answers like
    the dict model, and after every window the store, its index and the
    model hold the same number of keys.  Fewer keys leave the table
    unkicked, and then the model cannot see a lost or misplaced kick."""
    rng = random.Random(41)
    keys = [b"kick-key-%03d" % i for i in range(200)]
    store = KVStore(8 << 20, 4096, index=CuckooHashTable(num_buckets=64))
    pipeline = FunctionalPipeline(store, engine=engine)
    config = megakv_coupled_config()
    model = DictModel()
    for w in range(300):
        window = []
        for i in range(rng.randint(1, 60)):
            key = rng.choice(keys)
            roll = rng.random()
            if roll < 0.45:
                window.append(Query(QueryType.SET, key, b"v%d.%d" % (w, i)))
            elif roll < 0.9:
                window.append(Query(QueryType.GET, key))
            else:
                window.append(Query(QueryType.DELETE, key))
        assert answers(pipeline.process_batch(config, window)) == model.window(window), w
        assert len(store) == len(store.index) == len(model), w
    assert store.index.kicked
    assert_agrees(store, model)


def assert_index_matches_directory(store: KVStore) -> None:
    """A Search of each live key's spec finds its row exactly once, and the
    index holds one entry per live key."""
    directory = store.directory
    for key in store.keys():
        row = directory.ids[key]
        candidates, _ = store.index.search_prehashed(*directory.spec(row))
        assert candidates.count(row) == 1, key
    assert len(store.index) == len(store)


def test_directory_and_index_agree_through_kicked_windows_and_eviction():
    """The key directory knows every live key's row; the cuckoo index must
    agree with it after a prefill, after each of 300 windows on a 64-bucket
    table that kicks, and after a compaction that evicts."""
    rng = random.Random(43)
    keys = [b"kick-key-%03d" % i for i in range(200)]
    store = KVStore(
        8 << 20,
        4096,
        index=CuckooHashTable(num_buckets=64),
        heap=LogValueArena(8 << 10, segment_bytes=1 << 10),
    )
    assert store.populate([(key, b"prefill") for key in keys[:120]]) == 120
    assert_index_matches_directory(store)
    pipeline = FunctionalPipeline(store, engine="vector")
    config = megakv_coupled_config()
    for w in range(300):
        window = []
        for i in range(rng.randint(1, 60)):
            key = rng.choice(keys)
            roll = rng.random()
            if roll < 0.45:
                window.append(Query(QueryType.SET, key, b"v%d.%d" % (w, i)))
            elif roll < 0.9:
                window.append(Query(QueryType.GET, key))
            else:
                window.append(Query(QueryType.DELETE, key))
        pipeline.process_batch(config, window)
        assert_index_matches_directory(store)
    assert store.index.kicked
    evictions = store.heap.stats.evictions
    store.set(b"big", b"x" * 6000)  # a jumbo value: live bytes pass the budget
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LogValueArena, "needs_maintenance", property(lambda arena: True))
        assert store.maintenance() > 0
    assert store.heap.stats.evictions > evictions
    assert_index_matches_directory(store)


@pytest.mark.parametrize("live", [False, True], ids=["absent", "live"])
@pytest.mark.parametrize("engine", ["vector", "reference"])
def test_delete_then_set_in_one_window_keeps_the_set(engine, live):
    """A window's mutations of one key apply in row order: a DELETE then a
    SET leaves the key SET.  The DELETE answers DELETED only when the key
    was live before it."""
    system = DidoSystem(engine=engine)
    if live:
        system.process([Query(QueryType.SET, b"k", b"old")])
    result = system.process([Query(QueryType.DELETE, b"k"), Query(QueryType.SET, b"k", b"v")])
    deleted = ResponseStatus.DELETED if live else ResponseStatus.NOT_FOUND
    assert [r.status for r in result.responses] == [deleted, ResponseStatus.STORED]
    (got,) = system.process([Query(QueryType.GET, b"k")]).responses
    assert (got.status, got.value) == (ResponseStatus.OK, b"v")
    store = system.store
    assert (store.stats.deletes, store.stats.delete_hits) == (1, int(live))
    assert len(store) == len(store.index) == 1


#: One key's mutations interleaved in a window, with GETs reading the end state.
_SAME_KEY_WINDOWS = [
    [(QueryType.DELETE, b"old"), (QueryType.DELETE, b"old"), (QueryType.SET, b"a")],
    [(QueryType.SET, b"b"), (QueryType.DELETE, b""), (QueryType.SET, b"c"), (QueryType.GET, b"")],
    [(QueryType.GET, b""), (QueryType.DELETE, b""), (QueryType.SET, b"d"), (QueryType.DELETE, b"")],
    [(QueryType.DELETE, b""), (QueryType.GET, b""), (QueryType.SET, b"e"), (QueryType.SET, b"f")],
    [(QueryType.SET, b"g"), (QueryType.DELETE, b""), (QueryType.DELETE, b""), (QueryType.SET, b"h")],
]


@pytest.mark.parametrize("engine", ["vector", "reference"])
def test_same_key_mutations_apply_in_row_order(engine):
    """Windows that DELETE and SET one key in every order answer like the
    dict model, which applies a window's mutations in row order, and leave
    the same key set behind."""
    store = KVStore(1 << 20, 256)
    store.set(b"k", b"seed")
    model = DictModel()
    model.set(b"k", b"seed")
    pipeline = FunctionalPipeline(store, engine=engine)
    config = megakv_coupled_config()
    for rows in _SAME_KEY_WINDOWS:
        window = [
            Query(qtype, b"k", value) if qtype is QueryType.SET else Query(qtype, b"k")
            for qtype, value in rows
        ]
        assert answers(pipeline.process_batch(config, window)) == model.window(window)
        assert len(store) == len(store.index) == len(model)
    assert_agrees(store, model)


class TestResolveEngine:
    def test_none_resolves_to_vector(self):
        """A standalone pipeline runs the production passes; there is no
        alias for the default."""
        assert type(resolve_engine(None)) is VectorEngine
        with pytest.raises(ConfigurationError):
            resolve_engine("auto")
        assert type(FunctionalPipeline(KVStore(1 << 20, 256))._engine) is VectorEngine

    def test_names_resolve_to_backends(self):
        assert isinstance(resolve_engine("vector"), VectorEngine)
        assert isinstance(resolve_engine("reference"), ReferenceEngine)

    def test_engine_objects_pass_through(self):
        engine = VectorEngine()
        assert resolve_engine(engine) is engine

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("warp-drive")
        with pytest.raises(ConfigurationError):
            resolve_engine(object())
