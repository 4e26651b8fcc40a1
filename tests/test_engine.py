"""Unit tests for the engine layer: plan compiler, batch plane, backends."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config_search import enumerate_configs
from repro.core.pipeline_config import PipelineConfig
from repro.core.tasks import IndexOp, Task
from repro.engine import (
    BatchPlane,
    ReferenceEngine,
    SerialEngine,
    StealingEngine,
    compile_stage_plan,
    resolve_engine,
)
from repro.engine.plan import BOUNDARY_TASKS, INDEX_OP_PRIORITY, PhaseKind
from repro.engine.plane import indices_between
from repro.errors import ConfigurationError, SimulationError
from repro.kv.protocol import Query, QueryType
from repro.kv.store import KVStore
from repro.pipeline.functional import FunctionalPipeline
from repro.pipeline.megakv import megakv_coupled_config
from repro.workloads.distributions import make_distribution
from repro.workloads.ycsb import QueryStream, standard_workload

from conftest import ProcShardPool, heap_named


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
        frames.append(b"".join(f.payload for f in result.frames))
    return frames


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
                p.task in BOUNDARY_TASKS for p in plan.batch_phases()
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
        plane = BatchPlane(queries)
        assert plane.size == 4
        assert plane.get_indices == [1, 3]
        assert plane.set_indices == [0]
        assert plane.delete_indices == [2]
        assert plane.search_indices == [1, 2, 3]  # GET and DELETE
        assert plane.mutation_indices == [0, 2]  # SET and DELETE
        assert list(plane.all_indices) == [0, 1, 2, 3]

    def test_take_responses_raises_when_incomplete(self):
        plane = BatchPlane([Query(QueryType.GET, b"a")])
        with pytest.raises(SimulationError):
            plane.take_responses()

    def test_take_responses_error_names_missing_indices(self):
        """The failure message points at the exact queries a pass skipped."""
        from repro.kv.protocol import Response, ResponseStatus

        plane = BatchPlane(
            [
                Query(QueryType.GET, b"a"),
                Query(QueryType.SET, b"b", b"1"),
                Query(QueryType.DELETE, b"c"),
            ]
        )
        plane.responses[1] = Response(ResponseStatus.STORED)
        with pytest.raises(SimulationError) as excinfo:
            plane.take_responses()
        message = str(excinfo.value)
        assert "2 of 3" in message
        assert "0:GET" in message
        assert "2:DELETE" in message
        assert "1:SET" not in message

    def test_take_responses_error_truncates_long_index_lists(self):
        plane = BatchPlane([Query(QueryType.GET, b"k%d" % i) for i in range(20)])
        with pytest.raises(SimulationError) as excinfo:
            plane.take_responses()
        message = str(excinfo.value)
        assert "20 of 20" in message
        assert "..." in message  # only the first few indices are spelled out
        assert "19:GET" not in message

    def test_indices_between_list_and_range(self):
        assert indices_between([1, 4, 6, 9], 4, 9) == [4, 6]
        assert indices_between([1, 4, 6, 9], 0, 100) == [1, 4, 6, 9]
        assert indices_between(range(10), 3, 7) == range(3, 7)
        assert list(indices_between(range(5), 4, 100)) == [4]


# ------------------------------------------------------------------ bulk ops


class TestBulkStoreOps:
    """Each bulk primitive is exactly N applications of its scalar form."""

    def populated_store(self):
        store = KVStore(memory_bytes=8 << 20, expected_objects=4096)
        for i in range(200):
            store.set(f"key-{i}".encode(), f"value-{i}".encode())
        return store

    def test_multi_index_search_matches_scalar(self):
        store = self.populated_store()
        keys = [f"key-{i}".encode() for i in range(0, 250, 3)]
        bulk = store.multi_index_search(keys)
        scalar_store = self.populated_store()
        assert bulk == [scalar_store.index_search(k) for k in keys]
        # stats aggregated identically
        assert store.index.stats.searches == scalar_store.index.stats.searches
        assert (
            store.index.stats.search_bucket_reads
            == scalar_store.index.stats.search_bucket_reads
        )

    def test_multi_key_compare_matches_scalar(self):
        store = self.populated_store()
        keys = [f"key-{i}".encode() for i in range(0, 40)]
        candidates = [store.index_search(k) for k in keys]
        bulk = store.multi_key_compare(keys, candidates)
        assert bulk == [store.key_compare(k, c) for k, c in zip(keys, candidates)]

    def test_multi_read_value_handles_misses(self):
        store = self.populated_store()
        key = b"key-7"
        location = store.key_compare(key, store.index_search(key))
        values = store.multi_read_value([location, None])
        assert values == [b"value-7", None]

    def test_multi_index_insert_then_search(self):
        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        entries = [(f"n{i}".encode(), i) for i in range(20)]
        store.multi_index_insert(entries)
        for key, location in entries:
            assert location in store.index_search(key)

    def test_multi_index_delete_removes_entries(self):
        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        entries = [(f"n{i}".encode(), i) for i in range(20)]
        store.multi_index_insert(entries)
        removed = store.multi_index_delete(entries)
        assert removed == 20
        assert all(store.index_search(k) == [] for k, _ in entries)


class TestProbeCache:
    def test_probe_matches_fresh_hashing(self):
        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        index = store.index
        for key in (b"a", b"hot-key", b"x" * 40):
            assert index.probe_cached(key) == index.probe(key)
            # second lookup is served from the cache, same spec object
            assert index.probe_cached(key) is index.probe_cached(key)

    def test_cache_bounded(self):
        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        index = store.index
        index._probe_cache_cap = 8
        for i in range(30):
            index.probe_cached(f"k{i}".encode())
        assert len(index._probe_cache) <= 8

    def test_cache_evicts_least_recently_used(self):
        """Hot keys survive churn: a re-touched key outlives colder ones."""
        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        index = store.index
        index._probe_cache_cap = 4
        for i in range(4):
            index.probe_cached(f"k{i}".encode())
        index.probe_cached(b"k0")  # refresh the oldest entry
        index.probe_cached(b"k-new")  # forces one eviction
        assert b"k0" in index._probe_cache  # refreshed, kept
        assert b"k1" not in index._probe_cache  # now the LRU, evicted


# ------------------------------------------------------------------ backends


class TestEngineEquivalence:
    """Every legal config: columnar backends == preserved per-query path."""

    def run_all(self, engine, config, batches):
        store = KVStore(memory_bytes=8 << 20, expected_objects=4096)
        return batch_frames(store, engine, config, batches), store

    @pytest.mark.parametrize("label", ["K16-G50-S", "K16-G95-U"])
    def test_serial_and_stealing_match_reference(self, label):
        batches = workload_batches(label=label)
        for config in all_canonical_configs():
            ref_frames, ref_store = self.run_all("reference", config, batches)
            col_frames, col_store = self.run_all(None, config, batches)
            assert col_frames == ref_frames, config.label
            assert col_store.stats == ref_store.stats, config.label
            assert col_store.index.stats.searches == ref_store.index.stats.searches

    @pytest.mark.parametrize("engine", ["serial", "stealing", "vector"])
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

    def test_pinned_engines_match_auto(self):
        config = megakv_coupled_config()
        batches = workload_batches()
        auto_frames, _ = self.run_all(None, config, batches)
        for name in ("serial", "stealing"):
            frames, _ = self.run_all(name, config, batches)
            assert frames == auto_frames, name


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

_POOL = ProcShardPool()


@pytest.fixture(scope="module", autouse=True)
def _close_procshard_stores():
    yield
    _POOL.close()


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
    "engine, heap",
    [
        ("serial", "slab"),
        ("serial", "log"),
        ("vector", "slab"),
        ("vector", "log"),
        ("procshard", "log"),  # workers only ever hold the log arena
    ],
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=op_streams)
def test_engines_match_reference_over_multi_batch_streams(engine, heap, raw):
    """Every serving engine, on the heap it serves from, answers a
    colliding multi-batch stream byte for byte like the per-query
    reference on the slab oracle — the two sides share neither the
    batching nor the allocator."""
    config = megakv_coupled_config()
    batches = stream_batches(raw)
    oracle = KVStore(8 << 20, 4096, heap=heap_named("slab", 8 << 20))
    if engine == "procshard":
        store = _POOL.store(8 << 20, 4096, 2)
    else:
        store = KVStore(8 << 20, 4096, heap=heap_named(heap, 8 << 20))
    assert batch_frames(store, engine, config, batches) == batch_frames(
        oracle, "reference", config, batches
    )


class TestEngineSelection:
    def test_auto_picks_stealing_for_stealing_config(self):
        store = KVStore(memory_bytes=1 << 20, expected_objects=256)
        pipeline = FunctionalPipeline(store)
        stealing_config = PipelineConfig.assemble(
            (Task.IN, Task.KC, Task.RD), total_cpu_cores=4, work_stealing=True
        )
        assert isinstance(pipeline._engine_for(stealing_config), StealingEngine)
        assert type(pipeline._engine_for(megakv_coupled_config())) is SerialEngine

    def test_stealing_engine_records_claims(self):
        store = KVStore(memory_bytes=1 << 20, expected_objects=256)
        pipeline = FunctionalPipeline(store)
        config = PipelineConfig.assemble(
            (Task.IN, Task.KC, Task.RD), total_cpu_cores=4, work_stealing=True
        )
        result = pipeline.process_batch(
            config, [Query(QueryType.SET, b"k", b"v"), Query(QueryType.GET, b"k")]
        )
        assert sum(result.steal_claims.values()) > 0

    def test_serial_engine_reports_no_claims(self):
        store = KVStore(memory_bytes=1 << 20, expected_objects=256)
        pipeline = FunctionalPipeline(store, engine="serial")
        result = pipeline.process_batch(
            megakv_coupled_config(), [Query(QueryType.GET, b"missing")]
        )
        assert result.steal_claims == {}


class TestResolveEngine:
    def test_auto_and_none_resolve_to_none(self):
        assert resolve_engine(None) is None
        assert resolve_engine("auto") is None

    def test_names_resolve_to_backends(self):
        assert isinstance(resolve_engine("serial"), SerialEngine)
        assert isinstance(resolve_engine("stealing"), StealingEngine)
        assert isinstance(resolve_engine("reference"), ReferenceEngine)

    def test_engine_objects_pass_through(self):
        engine = SerialEngine()
        assert resolve_engine(engine) is engine

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_engine("warp-drive")
        with pytest.raises(ConfigurationError):
            resolve_engine(object())
