"""VectorEngine: hash-kernel exactness, slot-array search, equivalence."""

import dataclasses
import gc
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dido import DidoSystem
from repro.core.profiler import KERNELS, HostCostModel
from repro.core.tasks import Task
from repro.engine import (
    BatchPlane,
    ReferenceEngine,
    VectorEngine,
    compile_stage_plan,
    resolve_engine,
)
from repro.engine.vector import _VectorScratch
from repro.errors import CapacityError
from repro.kv.hashtable import EMPTY, CuckooHashTable
from repro.kv.logarena import LogValueArena
from repro.kv.objects import MAX_VECTOR_KEY_BYTES, fnv1a64, fnv_hash_columns, key_signature
from repro.kv.protocol import Query, QueryType, ResponseStatus, encode_responses
from repro.kv.store import KVStore
from repro.pipeline.functional import FunctionalPipeline
from repro.net.wire import QueryColumns, encode_response_window
from repro.pipeline.megakv import megakv_coupled_config

from dict_model import DictModel, answers
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


# ------------------------------------------------------------- slot arrays


def gather_search(index: CuckooHashTable, key: bytes) -> list[int]:
    """Search by gathering from ``index.signatures`` / ``index.locations``,
    probe round by probe round, as the columnar kernel does."""
    signature = key_signature(key)
    buckets = index.candidate_buckets(key)
    if index.kicked:
        buckets = buckets + index.displaced_buckets(signature, buckets)
    for bucket in buckets:
        found = [
            int(loc)
            for loc, sig in zip(index.locations[bucket], index.signatures[bucket])
            if loc != EMPTY and int(sig) == signature
        ]
        if found:
            return found
    return []


class TestSlotArrays:
    def test_randomized_insert_delete_fuzz_never_diverges(self):
        """Every mutation path — empty-slot inserts, cuckoo kick chains and
        their undo, deletes, re-inserts — against a dict model: after the
        churn the scalar search, the bulk search and a gather over the slot
        arrays each find every live key at its location."""
        rng = random.Random(1234)
        # Small and tight so kick chains (and any failed insert, which undoes
        # its chain and loses only its own entry) actually occur.
        index = CuckooHashTable(num_buckets=64, slots_per_bucket=2)
        live: dict[bytes, int] = {}
        next_loc = 0
        for _ in range(3000):
            if live and rng.random() < 0.4:
                key = rng.choice(list(live))
                assert index.delete(key, live.pop(key))
            else:
                key = f"key-{rng.randrange(200)}".encode()
                if key in live:
                    assert index.delete(key, live.pop(key))
                try:
                    index.insert(key, next_loc)
                    live[key] = next_loc
                except CapacityError:
                    pass
                next_loc += 1
        assert index.stats.insert_kicks > 0  # the hard paths actually ran
        assert len(index) == len(live)
        keys = list(live)
        for key, found in zip(keys, index.multi_search(keys)):
            assert live[key] in found
            assert live[key] in index.search(key)[0]
            assert live[key] in gather_search(index, key)


# ------------------------------------------------------------- equivalence


class TestVectorEquivalence:
    def run_all(self, engine, config, batches):
        store = KVStore(memory_bytes=8 << 20, expected_objects=4096)
        pipeline = FunctionalPipeline(store, engine=engine)
        frames = []
        for batch in batches:
            result = pipeline.process_batch(config, batch)
            frames.append(
                encode_response_window(result.response_statuses, result.response_values)[0]
            )
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
            _, offsets = encode_response_window(
                result.response_statuses, result.response_values
            )
            assert np.diff(offsets).tolist() == [r.wire_size for r in result.responses]

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

    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_engine_get_and_store_counters(self, prefilled, engine):
        from repro.kv.protocol import Query, QueryType, ResponseStatus

        store, keys = prefilled
        plan = compile_stage_plan(megakv_coupled_config())
        queries = [Query(QueryType.GET, key) for key in keys]
        queries.append(Query(QueryType.GET, b"k" * 8 + b"99999999"))
        plane = BatchPlane(QueryColumns.from_queries(queries))
        gets, hits = store.stats.gets, store.stats.get_hits
        resolve_engine(engine).run(store, plan, plane, epoch=0)
        statuses = plane.take_responses()
        assert statuses[:-1] == [ResponseStatus.OK.value] * len(keys)
        assert statuses[-1] == ResponseStatus.NOT_FOUND.value
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


def served_bytes(engine, batches) -> tuple[list[bytes], tuple]:
    """Run ``batches`` through ``engine`` on a fresh kicked store; the wire
    bytes of each batch's answers plus the final (store, index) counters."""
    store = kicked_store()
    plan = compile_stage_plan(megakv_coupled_config())
    out = []
    for batch in batches:
        plane = BatchPlane(QueryColumns.from_queries(batch))
        engine.run(store, plan, plane, epoch=0)
        out.append(bytes(encode_response_window(plane.take_responses(), plane.read_values)[0]))
    counters = (dataclasses.asdict(store.stats), dataclasses.asdict(store.index.stats))
    return out, counters


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=op_streams)
def test_both_search_kernels_match_reference(raw):
    """Either Search kernel answers a colliding multi-batch stream, then
    Zipf-skewed windows that repeat keys, byte for byte like the per-query
    reference — after a forced cuckoo kick — and both leave identical
    store and index counters behind."""
    batches = stream_batches(raw) + skewed_repeat_batches(batches=2)
    # Keys that hold no directory row, SET twice, deleted and read.
    batches.append(fresh_key_window(num_keys=12, repeats=4))
    # Every prefilled key once more, so kick-displaced entries are read.
    batches.append([Query(QueryType.GET, key) for key in _FILL_KEYS])
    expected, reference_counters = served_bytes(ReferenceEngine(), batches)
    outcomes = []
    for kernel in KERNELS:
        engine = VectorEngine()
        engine.costs = ForcedKernel(kernel)
        served, counters = served_bytes(engine, batches)
        assert served == expected, kernel
        assert engine.costs.fit("search", kernel).samples > 0
        outcomes.append(counters)
    assert outcomes[0] == outcomes[1]
    # One read path: every repeated GET is probed and counted, as on the
    # reference (whose Inserts are never fused, so only Search compares).
    assert outcomes[0][0] == reference_counters[0]
    for name in ("searches", "search_bucket_reads"):
        assert outcomes[0][1][name] == reference_counters[1][name], name


@pytest.mark.parametrize("engine", ["reference", *KERNELS])
def test_search_probes_get_rows_only(engine):
    """Search runs over a window's GET rows only: a DELETE finds its key
    through the key directory.  So a window holding DELETEs of live and
    absent keys counts one Search per GET row, on the reference and on
    either vector Search kernel."""
    store = kicked_store()
    runner = ReferenceEngine() if engine == "reference" else VectorEngine()
    if engine != "reference":
        runner.costs = ForcedKernel(engine)
    window = [
        Query(QueryType.GET, _FILL_KEYS[0]),
        Query(QueryType.DELETE, _FILL_KEYS[1]),
        Query(QueryType.GET, b"absent"),
        Query(QueryType.DELETE, b"absent"),
        Query(QueryType.SET, _FILL_KEYS[2], b"y"),
        Query(QueryType.GET, _FILL_KEYS[1]),
        Query(QueryType.DELETE, _FILL_KEYS[3]),
    ]
    plane = BatchPlane(QueryColumns.from_queries(window))
    before = store.index.stats.searches
    runner.run(store, compile_stage_plan(megakv_coupled_config()), plane)
    assert store.index.stats.searches - before == len(plane.get_indices) == 3
    assert plane.take_responses()[:2] == [ResponseStatus.OK.value, ResponseStatus.DELETED.value]


#: SET value sizes of the oracle stream: empty, small, and large enough
#: that one SET overruns the arena budget, so compaction evicts a segment.
_ORACLE_VALUE_BYTES = (0, 9, 300_000)


def live_rows(store: KVStore) -> dict[bytes, int]:
    """The key directory's live keys and their rows."""
    return {key: store.directory.ids[key] for key in store.keys()}


def assert_directory_is_live(store: KVStore, values: dict[bytes, bytes] | None = None) -> None:
    """The key directory's live rows are the rows in use and the index's
    entries, each names a place inside a segment the arena holds, and
    their sizes add up to the arena's live bytes; with ``values``, the
    bytes at each live key's place are its value there."""
    directory = store.directory
    segments = store.heap._segments
    live = live_rows(store)
    assert len(set(live.values())) == len(live) == len(directory) == len(store.index)
    size = 0
    for key, row in live.items():
        segment = segments[int(directory.segment[row])]
        offset, vlen = int(directory.offset[row]), int(directory.vlen[row])
        assert offset + vlen <= segment.wpos
        assert directory.klen[row] == len(key)
        size += len(key) + vlen
        if values is not None:
            assert segment.buf[offset : offset + vlen] == values[key], key
    assert size == store.heap.live_bytes


def missed_by_search(store: KVStore, kernel: str) -> list[bytes]:
    """Live keys whose row Search on ``kernel`` does not return among the
    key's candidates."""
    expected = live_rows(store)
    keys = list(expected)
    engine = VectorEngine()
    engine.costs = ForcedKernel(kernel)
    plane = BatchPlane(QueryColumns.from_queries([Query(QueryType.GET, k) for k in keys]))
    plane.scratch = _VectorScratch()
    plane.scratch.specs = store.window_specs(plane.keys)
    engine._pass_search(store, plane, plane.get_indices)
    found = set(zip(plane.scratch.hit_rows, plane.scratch.hit_locs))
    return [key for row, key in enumerate(keys) if (row, expected[key]) not in found]


def settle_evictions(store: KVStore, model: DictModel, evictions: int) -> None:
    """Drop from ``model`` the keys the arena evicted since it counted
    ``evictions``: exactly the model's keys the store no longer holds."""
    live = set(store.keys())
    evicted = set(model.data) - live
    assert live <= set(model.data)
    assert len(evicted) == store.heap.stats.evictions - evictions
    for key in evicted:
        del model.data[key]


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    windows=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(list(QueryType)),
                st.integers(0, 47),
                st.sampled_from(_ORACLE_VALUE_BYTES),
            ),
            min_size=1,
            max_size=24,
        ),
        min_size=1,
        max_size=5,
    )
)
def test_search_finds_every_mapped_key_through_windows_and_compaction(windows):
    """An oracle that shares no code with the table or the key directory:
    the dict model.  Every window through a ``DidoSystem`` on a kicked
    index answers like it; after the window, and after a compaction forced
    between windows, the live keys are the model's less the ones the arena
    evicted, both Search kernels find every live key at its row, and each
    row's place holds the model's value."""
    # The prefill spans two 1 MiB log segments and nearly fills the budget.
    system = DidoSystem(memory_bytes=5 << 18, expected_objects=128, engine="vector")
    store = system.store
    assert store.populate([(key, b"x" * 6000) for key in _FILL_KEYS]) == len(_FILL_KEYS)
    assert store.index.kicked
    # Room for the new half of the pool; the other half is prefilled keys.
    assert all(store.delete(key) for key in _FILL_KEYS[1::8])
    model = DictModel()
    model.data = {key: b"x" * 6000 for key in _FILL_KEYS if key in store.directory}
    pool = _FILL_KEYS[::8] + [b"new-%02d" % i for i in range(24)]
    for window in windows:
        queries = [
            Query(qtype, pool[k], bytes([k]) * size if qtype is QueryType.SET else b"")
            for qtype, k, size in window
        ]
        evictions = store.heap.stats.evictions
        assert answers(system.process(queries)) == model.window(queries)
        settle_evictions(store, model, evictions)
        for kernel in KERNELS:
            assert missed_by_search(store, kernel) == [], kernel
        assert_directory_is_live(store, model.data)
        evictions = store.heap.stats.evictions
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LogValueArena, "needs_maintenance", property(lambda arena: True))
            system.maintain()
        settle_evictions(store, model, evictions)
        for kernel in KERNELS:
            assert missed_by_search(store, kernel) == [], kernel
        assert_directory_is_live(store, model.data)


# ------------------------------------------------------ window probe specs


def fresh_key_window(num_keys: int = 48, repeats: int = 16) -> list[Query]:
    """SETs of ``num_keys`` fresh 32-byte keys, the first ``repeats`` SET
    again, then a DELETE and GETs of window keys and of keys never SET."""
    keys = [b"fresh-%026d" % i for i in range(num_keys)]
    window = [Query(QueryType.SET, key, b"v%d" % i) for i, key in enumerate(keys)]
    window += [Query(QueryType.SET, key, b"again") for key in keys[:repeats]]
    return window + [
        Query(QueryType.DELETE, keys[3]),
        Query(QueryType.DELETE, b"unset-%026d" % 1),
        Query(QueryType.GET, keys[5]),
        Query(QueryType.GET, keys[3]),
        Query(QueryType.GET, b"unset-%026d" % 2),
    ]


class TestWindowProbeSpecs:
    """The vector engine resolves every row's probe spec once per window:
    live keys from the key directory's columns, absent keys hashed in one
    columnar pass, so no pass probes a key scalar."""

    @staticmethod
    def serve(engine: str, window: list[Query]):
        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        result = FunctionalPipeline(store, engine=engine).process_batch(
            megakv_coupled_config(), window
        )
        served = encode_response_window(result.response_statuses, result.response_values)[0]
        return bytes(served), store

    def test_fresh_keys_are_never_probed_scalar(self, monkeypatch):
        window = fresh_key_window()
        assert sum(q.qtype is QueryType.SET for q in window) == 64
        expected, reference = self.serve("reference", window)
        probed = []
        scalar_probe = CuckooHashTable.probe

        def counting_probe(index, key):
            probed.append(key)
            return scalar_probe(index, key)

        monkeypatch.setattr(CuckooHashTable, "probe", counting_probe)
        served, store = self.serve("vector", window)
        monkeypatch.undo()
        assert probed == []
        directory = store.directory
        # Every SET key holds a row (the deleted one retired); the misses
        # hold none.
        set_keys = {q.key for q in window if q.qtype is QueryType.SET}
        deleted = b"fresh-%026d" % 3
        assert set(directory.ids) == set_keys
        assert {key for key in set_keys if key in directory} == set_keys - {deleted}
        for key, row in directory.ids.items():
            spec = (int(directory.signature[row]), directory.buckets[row].tolist())
            assert spec == store.index.probe(key)
        assert served == expected
        assert store.stats == reference.stats
        assert store.index.stats == reference.index.stats

    def test_rows_in_use_stay_the_live_keys_under_churn(self):
        """The bound the directory keeps without a cap: under churn of
        SETs, DELETEs, arena evictions and GETs of keys never SET, the rows
        in use are exactly the live keys, a miss leaves no row, a freed id
        is reused, and the columns never outgrow the peak live set."""
        rng = random.Random(7)
        # Room for about 40 values of 30 KB: the post-batch barrier evicts.
        system = DidoSystem(memory_bytes=5 << 18, expected_objects=64, engine="vector")
        store = system.store
        directory = store.directory
        live: list[bytes] = []
        fresh = (b"churn-%05d" % i for i in range(100_000))
        for step in range(60):
            window = [Query(QueryType.SET, next(fresh), b"v" * 30_000) for _ in range(8)]
            window += [Query(QueryType.DELETE, key) for key in rng.sample(live, min(3, len(live)))]
            window += [Query(QueryType.GET, b"never-%05d" % (step * 8 + i)) for i in range(8)]
            window += [Query(QueryType.GET, key) for key in live[-4:]]
            system.process(window)
            assert_directory_is_live(store)
            assert not any(key.startswith(b"never-") for key in directory.ids)
            live = store.keys()
        assert store.heap.stats.evictions > 0
        assert store.stats.delete_hits > 0
        assert directory.rows == 64  # 480 keys SET, never more than 64 live
        # A freed id goes to the next key that holds none.
        key = live[0]
        row = directory.ids[key]
        assert store.delete(key)
        store.set(b"reuses-the-row", b"v")
        assert directory.ids[b"reuses-the-row"] == row
        assert key not in directory.ids
        # The scalar SET wrote the new holder's spec over the old one.
        assert directory.spec(row) == store.index.probe(b"reuses-the-row")
        # A window with more fresh keys than the directory has rows grows
        # the columns inside MM's loop and still answers every GET.
        grow = [b"grow-%03d" % i for i in range(100)]
        system.process([Query(QueryType.SET, key, key) for key in grow])
        result = system.process([Query(QueryType.GET, key) for key in grow])
        assert result.response_values == grow
        assert directory.rows // 2 < len(directory) <= directory.rows
        assert_directory_is_live(store)

    def test_store_growth_is_the_data_plus_the_directory_columns(self):
        """32 windows of 1,024 fresh K16/V64 SETs grow the store by the
        values, the records and one directory row per key — not by a
        per-key Python probe spec beside them (20.1 MB with one)."""
        windows = [
            [Query(QueryType.SET, b"%016d" % (w * 1024 + i), b"v" * 64) for i in range(1024)]
            for w in range(32)
        ]
        system = DidoSystem(engine="vector")
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for window in windows:
                system.process(window)
            del windows
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(system.store) == 32 * 1024
        assert after - before <= 13_000_000


class TestValueViews:
    """A value lives once, in its log segment: RD hands out read-only
    views of it, and only the public edges copy it into ``bytes``."""

    def test_store_growth_holds_each_value_once(self):
        """8 windows of 1,024 fresh K32/V256 SETs, each decoded inside the
        traced region as the server's are: the store keeps the segment
        bytes and not the windows' value objects beside them.  As read,
        the growth is 5.00 MB, and 7.43 MB with a ``bytes`` copy pinned
        per record; the bound is under that by more than the 2.10 MB of
        payload."""
        system = DidoSystem(engine="vector")
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for w in range(8):
                ids = range(w * 1024, (w + 1) * 1024)
                system.process(
                    [Query(QueryType.SET, b"%032d" % i, b"%0256d" % i) for i in ids]
                )
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(system.store) == 8 * 1024
        assert after - before <= 5_250_000

    def test_a_framed_window_outlives_its_segment(self):
        """A window's values stay byte-identical after their keys are
        overwritten and compaction drops the segment they were read from:
        the views keep the old buffer alive, and cannot write to it."""
        system = DidoSystem(engine="vector")
        keys = [b"%032d" % i for i in range(2048)]
        system.process([Query(QueryType.SET, k, b"%0256d" % i) for i, k in enumerate(keys)])
        result = system.process([Query(QueryType.GET, k) for k in keys])
        framed = encode_response_window(result.response_statuses, result.response_values)[0]
        with pytest.raises(TypeError):
            result.response_values[0][0] = 0
        sources = {id(value.obj) for value in result.response_values}
        arena = system.store.heap
        for _ in range(8):
            system.process([Query(QueryType.SET, k, b"x" * 256) for k in keys])
            system.maintain()
        assert sources.isdisjoint(id(segment.buf) for segment in arena._segments.values())
        again = encode_response_window(result.response_statuses, result.response_values)[0]
        assert again == framed

    def test_prefill_tracks_no_object_per_key(self):
        """A 32,768-key K16/V64 prefill leaves no collector-tracked object
        per key: a value is bytes in a segment, and its place and counters
        are numbers in its key's directory row.  With a record object per
        value the growth read 32,773."""
        system = DidoSystem(engine="vector")
        items = [(b"%016d" % i, b"v" * 64) for i in range(32768)]
        gc.collect()
        before = len(gc.get_objects())
        assert system.store.populate(items) == len(items)
        gc.collect()
        assert len(gc.get_objects()) - before < 1000

    def test_public_edges_hand_out_bytes(self):
        system = DidoSystem(engine="vector")
        system.process([Query(QueryType.SET, b"k", b"value")])
        result = system.process([Query(QueryType.GET, b"k")])
        assert type(result.response_values[0]) is memoryview
        assert type(result.responses[0].value) is bytes
        assert type(system.store.get(b"k")) is bytes
        assert result.responses[0].value == system.store.get(b"k") == b"value"


#: Two keys with one signature and one first candidate bucket on a
#: 64-bucket table (found by brute force; the fixture checks it).
_TWINS = (b"c0559340", b"c1394847")


class TestRowHandles:
    """A key's directory row is its one handle: what moving records into
    row columns could break."""

    @staticmethod
    def twins_pipeline(engine: str) -> FunctionalPipeline:
        store = KVStore(1 << 20, 64, index=CuckooHashTable(num_buckets=64))
        (sig_a, buckets_a), (sig_b, buckets_b) = map(store.index.probe, _TWINS)
        assert sig_a == sig_b and buckets_a[0] == buckets_b[0]
        return FunctionalPipeline(store, engine=engine)

    @pytest.mark.parametrize("engine", ["vector", "reference"])
    def test_key_compare_rejects_the_twin_row(self, engine):
        """Search hands KC the other key's row as a candidate; KC rejects
        it and counts one signature false positive per rejection."""
        pipeline = self.twins_pipeline(engine)
        store = pipeline.store
        config = megakv_coupled_config()
        first, second = _TWINS
        pipeline.process_batch(config, [Query(QueryType.SET, first, b"first")])
        (miss,) = pipeline.process_batch(config, [Query(QueryType.GET, second)]).responses
        assert miss.status is ResponseStatus.NOT_FOUND
        assert store.stats.signature_false_positives == 1
        pipeline.process_batch(config, [Query(QueryType.SET, second, b"second")])
        result = pipeline.process_batch(
            config, [Query(QueryType.GET, first), Query(QueryType.GET, second)]
        )
        assert result.response_values == [b"first", b"second"]
        # Each GET found both rows in the shared bucket and kept its own.
        assert store.stats.signature_false_positives == 3

    @pytest.mark.parametrize("engine", ["vector", "reference"])
    def test_a_row_claimed_in_the_window_is_not_its_old_keys(self, engine):
        """A GET's key is resolved to its live row after MM: a fresh SET
        earlier in the window may claim the retired row the GET's key
        still held, and that row must not answer for it."""
        pipeline = self.twins_pipeline(engine)
        store = pipeline.store
        config = megakv_coupled_config()
        first, second = _TWINS
        pipeline.process_batch(config, [Query(QueryType.SET, first, b"first")])
        row = store.directory.ids[first]
        pipeline.process_batch(config, [Query(QueryType.DELETE, first)])
        result = pipeline.process_batch(
            config,
            [
                Query(QueryType.SET, second, b"second"),
                Query(QueryType.GET, first),
                Query(QueryType.GET, second),
            ],
        )
        assert store.directory.ids[second] == row
        assert [r.status for r in result.responses] == [
            ResponseStatus.STORED,
            ResponseStatus.NOT_FOUND,
            ResponseStatus.OK,
        ]
        assert result.response_values[2] == b"second"

    def test_a_row_handed_on_reports_no_old_access_count(self):
        """A row retired and claimed by another key, or a value replaced,
        between a read and the harvest: the old value's count is not
        reported, and the new holder's reads are, once."""
        store = KVStore(1 << 20, 64)
        store.set(b"old", b"v")
        row = store.directory.ids[b"old"]
        for _ in range(3):
            assert store.get(b"old", epoch=4) == b"v"
        assert store.delete(b"old")
        store.set(b"new", b"w")
        assert store.directory.ids[b"new"] == row
        assert store.harvest_window()[0] == []
        for _ in range(3):
            store.get(b"new", epoch=5)
        store.set(b"new", b"w2")  # a replace: the value read is gone
        store.get(b"new", epoch=5)
        assert store.harvest_window()[0] == [1]


class TestSearchTimer:
    """The engine times the kernel it placed whether or not anyone asked."""

    QUERIES = [Query(QueryType.SET, b"k%d" % i, b"v") for i in range(6)] + [
        Query(QueryType.GET, b"k%d" % i) for i in range(8)
    ]

    def run_once(self, task_times):
        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        engine = VectorEngine()
        plan = compile_stage_plan(megakv_coupled_config())
        engine.run(store, plan, BatchPlane(QueryColumns.from_queries(self.QUERIES)), task_times=task_times)
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
        assert scalar.samples == 1 and scalar.a + scalar.b * 8 > 0.0

    def test_kernel_mix_and_model_error_exported(self):
        from repro.telemetry import configure

        telemetry = configure(enabled=True)
        try:
            store = KVStore(memory_bytes=1 << 20, expected_objects=512)
            engine = VectorEngine()
            plan = compile_stage_plan(megakv_coupled_config())
            for _ in range(40):
                engine.run(store, plan, BatchPlane(QueryColumns.from_queries(self.QUERIES)))
            mix = telemetry.registry.get("repro_pass_kernel_total")
            counts = [mix.value(**{"pass": "search", "kernel": kernel}) for kernel in KERNELS]
            assert min(counts) >= 8 and sum(counts) == 40
            errors = telemetry.registry.get("repro_cost_model_error")
            assert errors.count(**{"pass": "search"}) == 40 - 16  # all but bootstrap
        finally:
            configure(enabled=False)


class TestResolveNewEngines:
    def test_vector_resolves_and_unknown_names_are_named(self):
        from repro.errors import ConfigurationError

        assert isinstance(resolve_engine("vector"), VectorEngine)
        with pytest.raises(ConfigurationError, match="unknown engine 'sharded'"):
            resolve_engine("sharded")


# ---------------------------------------------------------------- plumbing


class TestVectorScratchLifecycle:
    def test_scratch_attached_per_plane(self):
        store = KVStore(memory_bytes=1 << 20, expected_objects=512)
        engine = VectorEngine()
        plan = compile_stage_plan(megakv_coupled_config())
        from repro.kv.protocol import Query, QueryType, ResponseStatus

        plane = BatchPlane(QueryColumns.from_queries([Query(QueryType.GET, b"nope")]))
        engine.run(store, plan, plane, epoch=0)
        assert plane.scratch is not None
        assert plane.take_responses() == [ResponseStatus.NOT_FOUND.value]

    def test_mirror_survives_numpy_roundtrip_signatures(self):
        """uint32 signatures in the slot array equal the scalar signatures."""
        index = CuckooHashTable(num_buckets=64)
        key = b"roundtrip"
        index.insert(key, 9)
        sig = key_signature(key)
        assert sig in [int(s) for s in np.ravel(index.signatures)]
