"""VectorEngine: hash-kernel exactness, mirror consistency, equivalence."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.profiler import KERNELS, HostCostModel
from repro.core.tasks import Task
from repro.engine import (
    BatchPlane,
    ReferenceEngine,
    VectorEngine,
    compile_stage_plan,
    resolve_engine,
)
from repro.engine.vector import MAX_VECTOR_KEY_BYTES, fnv_hash_columns
from repro.kv.hashtable import EMPTY, CuckooHashTable
from repro.kv.objects import fnv1a64, key_signature
from repro.kv.protocol import Query, QueryType, encode_responses
from repro.kv.store import KVStore
from repro.pipeline.functional import FunctionalPipeline
from repro.net.wire import encode_response_window
from repro.pipeline.megakv import megakv_coupled_config

from test_engine import (
    all_canonical_configs,
    op_streams,
    skewed_repeat_batches,
    stream_batches,
    workload_batches,
)


# ------------------------------------------------------------- hash kernel


class TestFnvHashColumns:
    def test_uniform_keys_match_scalar_for_every_seed(self):
        rng = random.Random(3)
        keys = [rng.randbytes(16) for _ in range(200)]
        states = fnv_hash_columns(keys, 4)
        assert states.shape == (4, 200)
        for seed in range(4):
            for i, key in enumerate(keys):
                assert int(states[seed, i]) == fnv1a64(key, seed=seed)

    def test_ragged_keys_match_scalar(self):
        rng = random.Random(5)
        keys = [rng.randbytes(rng.choice([1, 8, 17, 40])) for _ in range(150)]
        states = fnv_hash_columns(keys, 3)
        for seed in range(3):
            for i, key in enumerate(keys):
                assert int(states[seed, i]) == fnv1a64(key, seed=seed)

    def test_oversized_keys_fall_back_to_scalar_hashing(self):
        rng = random.Random(7)
        keys = [
            b"short",
            rng.randbytes(MAX_VECTOR_KEY_BYTES + 1),
            rng.randbytes(4 * MAX_VECTOR_KEY_BYTES),
            b"another-normal-key",
        ]
        states = fnv_hash_columns(keys, 2)
        for seed in range(2):
            for i, key in enumerate(keys):
                assert int(states[seed, i]) == fnv1a64(key, seed=seed)

    def test_empty_key_and_empty_batch(self):
        states = fnv_hash_columns([b"", b"x"], 2)
        assert int(states[0, 0]) == fnv1a64(b"")
        assert int(states[1, 1]) == fnv1a64(b"x", seed=1)
        assert fnv_hash_columns([], 3).shape == (3, 0)

    def test_row_zero_yields_the_index_signature(self):
        keys = [b"alpha", b"beta"]
        states = fnv_hash_columns(keys, 1)
        for i, key in enumerate(keys):
            assert int(states[0, i]) & 0xFFFFFFFF == key_signature(key)


# -------------------------------------------------------- signature mirror


def mirror_search(index: CuckooHashTable, key: bytes) -> list[int]:
    """Search via the NumPy mirror exactly as the vector kernel does."""
    signature = key_signature(key)
    mirror = index.mirror
    buckets = index.candidate_buckets(key)
    if index.kicked:
        buckets = buckets + index.displaced_buckets(signature, buckets)
    for bucket in buckets:
        found = [
            int(loc)
            for loc, sig in zip(mirror.locations[bucket], mirror.signatures[bucket])
            if loc != EMPTY and int(sig) == signature
        ]
        if found:
            return found
    return []


def mirror_matches_table(index: CuckooHashTable) -> bool:
    """The NumPy mirror agrees with the authoritative slots everywhere."""
    mirror = index.mirror
    for b, bucket in enumerate(index._buckets):
        for s, slot in enumerate(bucket):
            if slot.location == EMPTY:
                if mirror.locations[b, s] != EMPTY:
                    return False
            else:
                if int(mirror.locations[b, s]) != slot.location:
                    return False
                if int(mirror.signatures[b, s]) != slot.signature:
                    return False
    return True


class TestSignatureMirror:
    def test_ensure_mirror_builds_once(self):
        index = CuckooHashTable(num_buckets=64)
        index.insert(b"pre-existing", 1)
        mirror = index.ensure_mirror()
        assert index.ensure_mirror() is mirror
        assert mirror_matches_table(index)

    def test_mirror_tracks_inserts_and_deletes(self):
        index = CuckooHashTable(num_buckets=64)
        index.ensure_mirror()
        for i in range(100):
            index.insert(f"k{i}".encode(), i)
        for i in range(0, 100, 3):
            index.delete(f"k{i}".encode())
        assert mirror_matches_table(index)

    def test_randomized_insert_delete_fuzz_never_diverges(self):
        """Acceptance criterion: the mirror tracks every mutation path —
        empty-slot inserts, cuckoo kick chains, deletes, re-inserts."""
        rng = random.Random(1234)
        # Small and tight so kick chains (and occasional failed inserts,
        # which drop a displaced victim) actually occur.
        index = CuckooHashTable(num_buckets=64, slots_per_bucket=2)
        index.ensure_mirror()
        live: dict[bytes, int] = {}
        next_loc = 0
        for step in range(3000):
            if live and rng.random() < 0.4:
                key = rng.choice(list(live))
                index.delete(key, live.pop(key))
            else:
                key = f"key-{rng.randrange(200)}".encode()
                if key in live:
                    index.delete(key, live.pop(key))
                try:
                    index.insert(key, next_loc)
                    live[key] = next_loc
                except Exception:
                    # table full: the failed kick chain dropped a victim,
                    # but it must not desynchronise the two views
                    pass
                finally:
                    if step % 50 == 0:
                        assert mirror_matches_table(index)
                next_loc += 1
        assert mirror_matches_table(index)
        assert index.stats.insert_kicks > 0  # the hard paths actually ran
        # The property the vector engine relies on: searching through the
        # mirror returns exactly what the authoritative table returns.
        for i in range(200):
            key = f"key-{i}".encode()
            assert mirror_search(index, key) == index.search(key)[0]


# ------------------------------------------------------------- equivalence


class TestVectorEquivalence:
    def run_all(self, engine, config, batches):
        store = KVStore(memory_bytes=8 << 20, expected_objects=4096)
        pipeline = FunctionalPipeline(store, engine=engine)
        frames = []
        for batch in batches:
            result = pipeline.process_batch(config, batch)
            frames.append(b"".join(f.payload for f in result.frames))
        return frames, store

    @pytest.mark.parametrize("label", ["K16-G50-S", "K16-G95-U"])
    def test_vector_matches_reference_everywhere(self, label):
        batches = workload_batches(label=label)
        for config in all_canonical_configs():
            ref_frames, ref_store = self.run_all("reference", config, batches)
            vec_frames, vec_store = self.run_all("vector", config, batches)
            assert vec_frames == ref_frames, config.label
            assert vec_store.stats == ref_store.stats, config.label
            assert vec_store.index.stats.searches == ref_store.index.stats.searches
            assert (
                vec_store.index.stats.search_bucket_reads
                == ref_store.index.stats.search_bucket_reads
            ), config.label

    def test_response_size_column_matches_wire_sizes(self):
        config = megakv_coupled_config()
        store = KVStore(memory_bytes=8 << 20, expected_objects=4096)
        pipeline = FunctionalPipeline(store, engine="vector")
        for batch in workload_batches(batches=2):
            result = pipeline.process_batch(config, batch)
            assert result.response_sizes is not None
            assert result.response_sizes == [r.wire_size for r in result.responses]

    def test_duplicate_hot_key_batch(self):
        """Batch-local dedup: many SETs + GETs of one key in one batch."""
        from repro.kv.protocol import Query, QueryType

        queries = []
        for i in range(50):
            queries.append(Query(QueryType.SET, b"hot", b"v%d" % i))
            queries.append(Query(QueryType.GET, b"hot"))
        queries.append(Query(QueryType.DELETE, b"hot"))
        queries.append(Query(QueryType.GET, b"hot"))
        config = megakv_coupled_config()
        outs = []
        for engine in ("reference", "vector"):
            store = KVStore(memory_bytes=1 << 20, expected_objects=512)
            pipeline = FunctionalPipeline(store, engine=engine)
            result = pipeline.process_batch(config, list(queries))
            outs.append(encode_responses(result.responses))
        assert outs[0] == outs[1]

    def test_falls_back_without_mirror_support(self):
        """A store whose index has no mirror still runs: Search has only
        its scalar kernel there (so nothing is placed or fitted),
        everything else is unchanged."""

        class NoMirrorIndex(CuckooHashTable):
            ensure_mirror = property()  # attribute access raises -> hasattr False

        store = KVStore(
            memory_bytes=1 << 20,
            expected_objects=512,
            index=NoMirrorIndex(num_buckets=256),
        )
        pipeline = FunctionalPipeline(store, engine="vector")
        from repro.kv.protocol import Query, QueryType

        result = pipeline.process_batch(
            megakv_coupled_config(),
            [Query(QueryType.SET, b"k", b"v"), Query(QueryType.GET, b"k")],
        )
        assert result.responses[1].value == b"v"
        assert pipeline._engine.costs.summary() == {}
        assert result.response_statuses == [r.status.value for r in result.responses]
        assert result.response_sizes == [r.wire_size for r in result.responses]


class TestKickedKeysAnswerEverywhere:
    """The serving benchmark's prefill — 32768 fixed-width K16 keys into
    the default 64 MiB / 65536-object store — kicks six entries out of
    their candidate buckets.  Every acknowledged key must still answer on
    every engine, and the store must count what it served."""

    @pytest.fixture(scope="class")
    def prefilled(self):
        keys = [b"k" * 8 + b"%08d" % i for i in range(32768)]
        store = KVStore(64 << 20, 65536)
        assert store.populate([(key, b"v" * 64) for key in keys]) == len(keys)
        assert store.index.stats.insert_kicks > 0
        assert store.index.kicked
        return store, keys

    def test_scalar_get(self, prefilled):
        store, keys = prefilled
        assert [key for key in keys if store.get(key) is None] == []

    @pytest.mark.parametrize("engine", ["reference", "serial", "vector"])
    def test_engine_get_and_store_counters(self, prefilled, engine):
        from repro.kv.protocol import Query, QueryType, ResponseStatus

        store, keys = prefilled
        plan = compile_stage_plan(megakv_coupled_config())
        queries = [Query(QueryType.GET, key) for key in keys]
        queries.append(Query(QueryType.GET, b"k" * 8 + b"99999999"))
        plane = BatchPlane(queries)
        gets, hits = store.stats.gets, store.stats.get_hits
        resolve_engine(engine).run(store, plan, plane, epoch=0)
        statuses = [response.status for response in plane.take_responses()]
        assert statuses[:-1] == [ResponseStatus.OK] * len(keys)
        assert statuses[-1] is ResponseStatus.NOT_FOUND
        assert store.stats.gets - gets == len(queries)
        assert store.stats.get_hits - hits == len(keys)

    def test_vector_counts_sets_and_deletes_once(self):
        from repro.kv.protocol import Query, QueryType

        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        pipeline = FunctionalPipeline(store, engine="vector")
        config = megakv_coupled_config()
        pipeline.process_batch(
            config, [Query(QueryType.SET, b"k%d" % i, b"v") for i in range(5)]
        )
        pipeline.process_batch(
            config,
            [
                Query(QueryType.GET, b"k0"),
                Query(QueryType.GET, b"missing"),
                Query(QueryType.DELETE, b"k1"),
                Query(QueryType.DELETE, b"missing"),
                Query(QueryType.SET, b"k2", b"w"),
            ],
        )
        stats = store.stats
        assert (stats.sets, stats.gets, stats.get_hits) == (6, 2, 1)
        assert (stats.deletes, stats.delete_hits) == (2, 1)
        assert stats.hit_rate == 0.5


# ------------------------------------------------------- Search kernels


class ForcedKernel(HostCostModel):
    """A cost model whose placement is fixed."""

    def __init__(self, kernel: str):
        super().__init__()
        self.kernel = kernel

    def choose(self, pass_name, n):
        return self.kernel


_FILL_KEYS = [b"fill-%03d" % i for i in range(192)]


def kicked_store() -> KVStore:
    """A store whose 64-bucket index has already kicked (so every miss
    takes the displaced-bucket round on both Search kernels), with room
    left for the fuzz pool."""
    store = KVStore(8 << 20, 4096, index=CuckooHashTable(num_buckets=64))
    assert store.populate([(key, b"x" * 9) for key in _FILL_KEYS]) == len(_FILL_KEYS)
    assert store.index.kicked
    return store


def served_bytes(engine, wants_responses: bool, batches) -> tuple[list[bytes], tuple]:
    """Run ``batches`` through ``engine`` on a fresh kicked store; the wire
    bytes of each batch's answers plus the final (store, index) counters."""
    store = kicked_store()
    plan = compile_stage_plan(megakv_coupled_config())
    out = []
    for batch in batches:
        plane = BatchPlane(batch)
        plane.wants_responses = wants_responses
        engine.run(store, plan, plane, epoch=0)
        if plane.response_statuses is None:
            out.append(encode_responses(plane.take_responses()))
            continue
        framed = bytes(
            encode_response_window(
                plane.response_statuses, plane.read_values, plane.response_sizes
            )[0]
        )
        if wants_responses:
            assert framed == encode_responses(plane.take_responses())
            assert isinstance(plane.response_statuses, list)
        else:
            # Column-only consumers (the procshard worker) get ndarrays.
            assert isinstance(plane.response_statuses, np.ndarray)
            assert isinstance(plane.response_sizes, np.ndarray)
        out.append(framed)
    counters = (dataclasses.asdict(store.stats), dataclasses.asdict(store.index.stats))
    return out, counters


@pytest.mark.parametrize("wants_responses", [True, False])
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=op_streams)
def test_both_search_kernels_match_reference(wants_responses, raw):
    """Either Search kernel answers a colliding multi-batch stream, then
    Zipf-skewed windows that repeat keys, byte for byte like the per-query
    reference — after a forced cuckoo kick, and in the column-only form
    the procshard worker asks for — and both leave identical store and
    index counters behind."""
    batches = stream_batches(raw) + skewed_repeat_batches(batches=2)
    # Every prefilled key once more, so kick-displaced entries are read.
    batches.append([Query(QueryType.GET, key) for key in _FILL_KEYS])
    expected, reference_counters = served_bytes(ReferenceEngine(), True, batches)
    outcomes = []
    for kernel in KERNELS:
        engine = VectorEngine()
        engine.costs = ForcedKernel(kernel)
        served, counters = served_bytes(engine, wants_responses, batches)
        assert served == expected, kernel
        assert engine.costs.fit("search", kernel).samples > 0
        outcomes.append(counters)
    assert outcomes[0] == outcomes[1]
    # One read path: every repeated GET is probed and counted, as on the
    # reference (whose Inserts are never fused, so only Search compares).
    assert outcomes[0][0] == reference_counters[0]
    for name in ("searches", "search_bucket_reads"):
        assert outcomes[0][1][name] == reference_counters[1][name], name


class TestSearchTimer:
    """The engine times the kernel it placed whether or not anyone asked."""

    QUERIES = [Query(QueryType.SET, b"k%d" % i, b"v") for i in range(6)] + [
        Query(QueryType.GET, b"k%d" % i) for i in range(8)
    ]

    def run_once(self, task_times):
        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        engine = VectorEngine()
        plan = compile_stage_plan(megakv_coupled_config())
        engine.run(store, plan, BatchPlane(list(self.QUERIES)), task_times=task_times)
        return engine

    @pytest.mark.parametrize("telemetry_on", [False, True])
    def test_task_times_filled_with_task_keyed_microseconds(self, telemetry_on):
        """The benchmark's ``with_task_spans`` contract."""
        from repro.telemetry import configure

        configure(enabled=telemetry_on)
        try:
            times = {Task.RV: 1.5}
            self.run_once(times)
        finally:
            configure(enabled=False)
        assert set(times) == {Task.RV, Task.MM, Task.IN, Task.KC, Task.RD, Task.WR}
        assert times[Task.RV] == 1.5  # the caller's entries are added to, not replaced
        assert all(isinstance(v, float) and v > 0.0 for v in times.values())
        assert sum(times.values()) < 1e6  # microseconds, not nanoseconds

    def test_model_is_fed_without_task_times(self):
        engine = self.run_once(None)
        assert set(engine.costs.summary()) == {"search"}
        scalar = engine.costs.fit("search", "scalar")  # bootstrap starts scalar
        assert scalar.samples == 1 and scalar.predict(8) > 0.0

    def test_kernel_mix_and_model_error_exported(self):
        from repro.telemetry import configure

        telemetry = configure(enabled=True)
        try:
            store = KVStore(memory_bytes=1 << 20, expected_objects=512)
            engine = VectorEngine()
            plan = compile_stage_plan(megakv_coupled_config())
            for _ in range(40):
                engine.run(store, plan, BatchPlane(list(self.QUERIES)))
            mix = telemetry.registry.get("repro_pass_kernel_total")
            counts = [mix.value(**{"pass": "search", "kernel": kernel}) for kernel in KERNELS]
            assert min(counts) >= 8 and sum(counts) == 40
            errors = telemetry.registry.get("repro_cost_model_error")
            assert errors.count(**{"pass": "search"}) == 40 - 16  # all but bootstrap
        finally:
            configure(enabled=False)


class TestResolveNewEngines:
    def test_vector_and_procshard_resolve(self):
        from repro.engine.procshard import ProcShardEngine
        from repro.errors import ConfigurationError

        assert isinstance(resolve_engine("vector"), VectorEngine)
        assert isinstance(resolve_engine("procshard"), ProcShardEngine)
        with pytest.raises(ConfigurationError, match="unknown engine 'sharded'"):
            resolve_engine("sharded")


# ---------------------------------------------------------------- plumbing


class TestVectorScratchLifecycle:
    def test_scratch_attached_per_plane(self):
        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        engine = VectorEngine()
        plan = compile_stage_plan(megakv_coupled_config())
        from repro.kv.protocol import Query, QueryType

        plane = BatchPlane([Query(QueryType.GET, b"nope")])
        engine.run(store, plan, plane, epoch=0)
        assert plane.scratch is not None
        assert plane.response_sizes == [plane.responses[0].wire_size]

    def test_mirror_survives_numpy_roundtrip_signatures(self):
        """uint32 signatures in the mirror equal the scalar signatures."""
        index = CuckooHashTable(num_buckets=64)
        index.ensure_mirror()
        key = b"roundtrip"
        index.insert(key, 9)
        sig = key_signature(key)
        assert sig in [int(s) for s in np.ravel(index.mirror.signatures)]
