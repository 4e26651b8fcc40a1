"""Skew-aware hot path: batch key dedup + versioned hot-key read cache.

Covers the three layers the feature spans:

* :class:`repro.kv.hotcache.HotKeyCache` in isolation (versioning, LRU
  bound, skew gating, window-hit draining);
* the engines' dedup/cache hot path (byte-identity against the reference
  engine on skewed mixed traffic, write-barrier run splitting, duplicate
  scatter) across every backend;
* the system wiring (stale-read regression through the functional
  pipeline and a DidoSystem, per-worker caches under procshard,
  telemetry series).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dido import DidoSystem
from repro.engine import (
    BatchPlane,
    ReferenceEngine,
    SerialEngine,
    StealingEngine,
    VectorEngine,
    compile_stage_plan,
)
from repro.engine.procshard import ProcShardEngine, ProcShardStore
from repro.errors import ConfigurationError
from repro.hardware.memory import MemorySystem
from repro.hardware.specs import APU_A10_7850K, ProcessorKind
from repro.kv.hotcache import (
    SKEW_OFF_THRESHOLD,
    SKEW_ON_THRESHOLD,
    HotKeyCache,
)
from repro.kv.protocol import Query, QueryType, ResponseStatus
from repro.kv.slab import SlabAllocator
from repro.kv.store import KVStore
from repro.pipeline.functional import FunctionalPipeline
from repro.pipeline.megakv import megakv_coupled_config
from repro.telemetry import configure
from repro.workloads.ycsb import QueryStream, standard_workload

from conftest import ProcShardPool

PLAN = compile_stage_plan(megakv_coupled_config())


_POOL = ProcShardPool()


def fresh_store(*, cache: bool = True, shards: int = 1):
    if shards > 1:
        # Dedup and the caches live inside the workers; the caches start
        # gated off, so open them the way a skewed window would.
        store = _POOL.store(
            8 << 20, 4096, shards, dedup=True, hot_cache=True, hot_cache_keys=256
        )
        store.gate_hot_cache(0.9)
        return store
    store = KVStore(8 << 20, 4096)
    if cache:
        store.attach_hot_cache(256)
    return store


@pytest.fixture(scope="module", autouse=True)
def _close_procshard_stores():
    yield
    _POOL.close()


def run_batches(engine, store, batches):
    """Responses as comparable (status, value) rows, batch by batch."""
    out = []
    for queries in batches:
        plane = BatchPlane(list(queries))
        engine.run(store, PLAN, plane)
        out.append([(r.status, r.value) for r in plane.take_responses()])
    return out


def skewed_batches(num_batches=10, size=512, num_keys=64, seed=7, get_ratio=0.8):
    """Mixed GET/SET/DELETE batches with a heavy-tailed key distribution."""
    rng = random.Random(seed)
    keys = [f"key-{i:04d}".encode() for i in range(num_keys)]
    batches = []
    for _ in range(num_batches):
        queries = []
        for _ in range(size):
            key = keys[int(rng.paretovariate(1.2)) % num_keys]
            roll = rng.random()
            if roll < get_ratio:
                queries.append(Query(QueryType.GET, key))
            elif roll < get_ratio + 0.15:
                queries.append(Query(QueryType.SET, key, b"v" * rng.randint(1, 24)))
            else:
                queries.append(Query(QueryType.DELETE, key))
        batches.append(queries)
    return batches


ALL_HOT_ENGINES = [
    ("serial", lambda: SerialEngine(dedup=True), 1),
    ("serial-nocache", lambda: SerialEngine(dedup=True, hot_cache=False), 1),
    ("stealing", lambda: StealingEngine(dedup=True), 1),
    ("vector", lambda: VectorEngine(dedup=True), 1),
    ("vector-nocache", lambda: VectorEngine(dedup=True, hot_cache=False), 1),
    ("procshard", lambda: ProcShardEngine(), 4),
]


# ------------------------------------------------------------- HotKeyCache


class TestHotKeyCache:
    def test_miss_then_admit_then_hit(self):
        cache = HotKeyCache(8)
        assert cache.lookup(b"k") is None
        cache.admit(b"k", b"v")
        assert cache.lookup(b"k") == b"v"
        assert cache.hits == 1 and cache.misses == 1

    def test_lookup_count_weighted(self):
        cache = HotKeyCache(8)
        cache.admit(b"k", b"v")
        cache.lookup(b"k", count=5)
        assert cache.hits == 5
        cache.lookup(b"other", count=3)
        assert cache.misses == 3

    def test_on_write_refreshes_resident_snapshot(self):
        cache = HotKeyCache(8)
        cache.admit(b"k", b"old")
        cache.on_write(b"k", b"new")
        assert cache.lookup(b"k") == b"new"

    def test_stale_version_never_served(self):
        cache = HotKeyCache(8)
        cache.admit(b"k", b"old")
        # Simulate a write that bypassed the refresh (the versioning
        # backstop): the stamped snapshot must be dropped, not served.
        cache._versions[b"k"] = 99
        assert cache.lookup(b"k") is None
        assert len(cache) == 0

    def test_invalidate_drops_entry_and_version(self):
        cache = HotKeyCache(8)
        cache.admit(b"k", b"v")
        cache.invalidate(b"k")
        assert cache.lookup(b"k") is None
        assert cache._versions == {}

    def test_lru_bound(self):
        cache = HotKeyCache(2)
        cache.admit(b"a", b"1")
        cache.admit(b"b", b"2")
        cache.lookup(b"a")  # a is now most recent
        cache.admit(b"c", b"3")  # evicts b
        assert len(cache) == 2
        assert cache.lookup(b"b") is None
        assert cache.lookup(b"a") == b"1"
        assert cache.lookup(b"c") == b"3"

    def test_gate_hysteresis(self):
        cache = HotKeyCache(8, active=False)
        assert cache.gate_on_skew(SKEW_ON_THRESHOLD) is True
        # In the hysteresis band the gate holds its state.
        assert cache.gate_on_skew((SKEW_ON_THRESHOLD + SKEW_OFF_THRESHOLD) / 2) is True
        assert cache.gate_on_skew(SKEW_OFF_THRESHOLD - 0.01) is False
        assert cache.gate_on_skew((SKEW_ON_THRESHOLD + SKEW_OFF_THRESHOLD) / 2) is False

    def test_drain_window_hits(self):
        cache = HotKeyCache(8)
        cache.admit(b"a", b"1")
        cache.admit(b"b", b"2")
        cache.lookup(b"a", count=3)
        cache.lookup(b"b")
        assert sorted(cache.drain_window_hits()) == [1, 3]
        assert cache.drain_window_hits() == []

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            HotKeyCache(0)

    def test_version_map_bounded_to_resident_snapshots(self):
        """SETs of cache-cold keys must not grow the version map: stamps
        exist only for resident snapshots, so the map never duplicates the
        key bytes of every live written key on write-heavy workloads."""
        cache = HotKeyCache(8)
        for i in range(1000):
            cache.on_write(b"cold-%04d" % i, b"v")
        assert cache._versions == {}
        cache.admit(b"hot", b"v1")
        cache.on_write(b"hot", b"v2")
        assert cache._versions == {b"hot": 1}
        assert cache.lookup(b"hot") == b"v2"
        # A later admit at version 0 is still invalidated/refreshed by the
        # next write's bump, which finds the snapshot resident.
        cache.invalidate(b"hot")
        cache.on_write(b"hot", b"v3")  # cold again: no stamp
        assert cache._versions == {}
        cache.admit(b"hot", b"v3")  # snapshot stamped at version 0
        cache.on_write(b"hot", b"v4")
        assert cache.lookup(b"hot") == b"v4"


# ----------------------------------------------------- engine equivalence


class TestHotPathEquivalence:
    @pytest.mark.parametrize("name,factory,shards", ALL_HOT_ENGINES)
    def test_skewed_mixed_traffic_matches_reference(self, name, factory, shards):
        batches = skewed_batches()
        expected = run_batches(ReferenceEngine(), fresh_store(cache=False), batches)
        got = run_batches(factory(), fresh_store(shards=shards), batches)
        assert got == expected

    def test_dedup_actually_collapses_runs(self):
        store = fresh_store(cache=False)
        store.set(b"hot", b"value")
        engine = SerialEngine(dedup=True, hot_cache=False)
        plane = BatchPlane([Query(QueryType.GET, b"hot")] * 16)
        engine.run(store, PLAN, plane)
        assert plane.hotpath is not None
        assert plane.hotpath.dup_count == 15
        assert all(r.value == b"value" for r in plane.take_responses())
        # One probe for the whole run, not sixteen.
        assert store.index.stats.searches == 1

    def test_write_barrier_splits_runs(self):
        """A SET between GET runs must not merge reads across the barrier
        (staged batch semantics: every GET sees the post-batch-write
        value, byte-identical to the reference engine)."""
        queries = [
            Query(QueryType.SET, b"k", b"v1"),
            Query(QueryType.GET, b"k"),
            Query(QueryType.SET, b"k", b"v2"),
            Query(QueryType.GET, b"k"),
            Query(QueryType.GET, b"k"),
            Query(QueryType.DELETE, b"other"),
        ]
        expected = run_batches(ReferenceEngine(), fresh_store(cache=False), [queries])
        for _name, factory, shards in ALL_HOT_ENGINES:
            got = run_batches(factory(), fresh_store(shards=shards), [queries])
            assert got == expected

    def test_cache_serves_hot_reads(self):
        store = fresh_store()
        engine = VectorEngine(dedup=True)
        batches = [[Query(QueryType.SET, b"hot", b"value")]]
        batches.extend([[Query(QueryType.GET, b"hot")] * 32 for _ in range(3)])
        results = run_batches(engine, store, batches)
        assert all(
            row == (ResponseStatus.OK, b"value") for batch in results[1:] for row in batch
        )
        # Batch 2 admitted the key; batches 3 and 4 hit the cache.
        assert store.hot_cache.hits >= 32

    def test_inactive_cache_is_inert(self):
        store = fresh_store()
        store.hot_cache.active = False
        engine = VectorEngine(dedup=True)
        run_batches(engine, store, [[Query(QueryType.GET, b"k")] * 8])
        assert store.hot_cache.hits == 0 and store.hot_cache.misses == 0


# -------------------------------------------------------- stale-read guard


class TestStaleReadRegression:
    def test_set_after_cached_get_serves_new_value(self):
        """SET of a cache-resident key in batch N; GET in batch N+1 must
        return the new value, never the cached snapshot."""
        store = fresh_store()
        pipe = FunctionalPipeline(store, dedup=True)
        config = megakv_coupled_config()
        pipe.process_batch(config, [Query(QueryType.SET, b"k", b"old")])
        pipe.process_batch(config, [Query(QueryType.GET, b"k")] * 8)
        assert store.hot_cache.lookup(b"k") == b"old"  # snapshot admitted
        pipe.process_batch(config, [Query(QueryType.SET, b"k", b"new")])
        result = pipe.process_batch(config, [Query(QueryType.GET, b"k")] * 8)
        assert all(r.value == b"new" for r in result.responses)

    def test_delete_after_cached_get_serves_not_found(self):
        store = fresh_store()
        pipe = FunctionalPipeline(store, dedup=True)
        config = megakv_coupled_config()
        pipe.process_batch(config, [Query(QueryType.SET, b"k", b"v")])
        pipe.process_batch(config, [Query(QueryType.GET, b"k")] * 8)
        pipe.process_batch(config, [Query(QueryType.DELETE, b"k")])
        result = pipe.process_batch(config, [Query(QueryType.GET, b"k")] * 8)
        assert all(r.status is ResponseStatus.NOT_FOUND for r in result.responses)

    def test_same_batch_write_then_read_not_cache_served(self):
        """A batch that writes a key never serves that key's GETs from the
        cache — even when a snapshot exists."""
        store = fresh_store()
        pipe = FunctionalPipeline(store, dedup=True)
        config = megakv_coupled_config()
        pipe.process_batch(config, [Query(QueryType.SET, b"k", b"old")])
        pipe.process_batch(config, [Query(QueryType.GET, b"k")] * 8)
        mixed = [Query(QueryType.SET, b"k", b"new")] + [Query(QueryType.GET, b"k")] * 4
        result = pipe.process_batch(config, mixed)
        assert all(r.value == b"new" for r in result.responses[1:])

    def test_dido_system_stale_guard_under_gating(self):
        """End to end: a DidoSystem whose skew gate opened on a Zipf stream
        never serves a pre-SET value of a cache-hot key."""
        system = DidoSystem(
            memory_bytes=16 << 20,
            expected_objects=8192,
            engine="vector",
            dedup=True,
            hot_cache=True,
        )
        stream = QueryStream(standard_workload("K16-G95-S"), num_keys=2048, seed=5)
        for _ in range(8):
            system.process(stream.next_batch(1024))
        cache = system.store.hot_cache
        assert cache.active, "skew gate should have opened on Zipf traffic"
        assert cache.hits > 0
        system.process([Query(QueryType.SET, b"k", b"old")] + [Query(QueryType.GET, b"k")] * 63)
        system.process([Query(QueryType.GET, b"k")] * 64)
        system.process([Query(QueryType.SET, b"k", b"new")])
        result = system.process([Query(QueryType.GET, b"k")] * 64)
        assert all(r.value == b"new" for r in result.responses)

    @pytest.mark.parametrize(
        "engine_factory",
        [lambda: SerialEngine(dedup=True), lambda: VectorEngine(dedup=True)],
        ids=["serial", "vector"],
    )
    def test_mid_batch_slab_eviction_not_served_stale(self, engine_factory):
        """A SET elsewhere in the same batch can slab-evict a cache-resident
        key *between* intake (where the snapshot is captured) and the
        post-RD scatter.  finish() must re-validate the captured group and
        fall back to the index — which, the MM/Delete phases having run,
        answers NOT_FOUND exactly like the plain path."""
        store = KVStore(
            memory_bytes=1 << 20, expected_objects=1 << 12, heap=SlabAllocator(1 << 20)
        )
        store.attach_hot_cache(64)
        engine = engine_factory()
        value = b"v" * 8000  # 8 KiB slab class: 128 chunks in the budget
        victim = b"victim-00000"
        run_batches(engine, store, [[Query(QueryType.SET, victim, value)]])
        (warm,) = run_batches(engine, store, [[Query(QueryType.GET, victim)] * 4])
        assert all(row == (ResponseStatus.OK, value) for row in warm)
        assert store.hot_cache.lookup(victim) == value
        evicted_rows = None
        for i in range(200):
            # Same-size fillers share the victim's slab class; the victim
            # (cache-served, so never LRU-touched) is evicted mid-batch
            # while its GET run sits captured for cache serving.
            batch = [Query(QueryType.SET, b"filler-%05d" % i, value)]
            batch += [Query(QueryType.GET, victim)] * 4
            (rows,) = run_batches(engine, store, [batch])
            if victim not in store._key_location:
                evicted_rows = rows
                break
            assert all(row == (ResponseStatus.OK, value) for row in rows[1:])
        assert evicted_rows is not None, "victim never slab-evicted"
        assert all(
            row == (ResponseStatus.NOT_FOUND, b"") for row in evicted_rows[1:]
        ), "stale snapshot served after mid-batch slab eviction"
        assert store.hot_cache.lookup(victim) is None

    def test_slab_eviction_invalidates_snapshot(self):
        """A key evicted by the slab LRU must stop being cache-served."""
        store = KVStore(
            memory_bytes=1 << 20, expected_objects=1 << 16, heap=SlabAllocator(1 << 20)
        )
        cache = store.attach_hot_cache(64)
        store.set(b"victim-00000", b"v")
        cache.admit(b"victim-00000", b"v")
        # Same-size fillers land in the victim's slab class, so its LRU
        # eventually pushes the victim out once the budget is exhausted.
        i = 0
        while b"victim-00000" in store._key_location and i < 1 << 17:
            store.set(b"filler-%05d" % i, b"v")
            i += 1
        assert b"victim-00000" not in store._key_location, "victim never evicted"
        assert cache.lookup(b"victim-00000") is None


# ----------------------------------------------------- procshard hot path


class TestProcShardHotPath:
    def test_workers_serve_per_shard_caches(self):
        """Dedup and the caches live inside the shard workers, each seeing
        its shard's full runs; --hot-cache with --shards must serve, not
        admit forever without a single hit."""
        store = ProcShardStore(
            8 << 20, 4096, 4, dedup=True, hot_cache=True, hot_cache_keys=1024
        )
        try:
            store.gate_hot_cache(0.9)  # the caches start gated off
            engine = ProcShardEngine()
            hot_keys = [b"hot-%02d" % i for i in range(8)]
            run_batches(
                engine, store, [[Query(QueryType.SET, k, b"v:" + k) for k in hot_keys]]
            )
            batch = [Query(QueryType.GET, k) for k in hot_keys for _ in range(8)]
            first, second = run_batches(engine, store, [batch, batch])
            expected = [
                (ResponseStatus.OK, b"v:" + k) for k in hot_keys for _ in range(8)
            ]
            assert first == expected and second == expected
            hits, _lookups = store.gate_hot_cache(0.9)
            assert hits >= len(batch), "worker caches admitted but never served"
        finally:
            store.close()


# ------------------------------------------------------------- telemetry


class TestHotPathTelemetry:
    def test_dedup_and_cache_series_emitted(self):
        telemetry = configure(enabled=True)
        try:
            store = fresh_store()
            pipe = FunctionalPipeline(store, engine="vector", dedup=True)
            config = megakv_coupled_config()
            registry = telemetry.registry
            pipe.process_batch(config, [Query(QueryType.SET, b"k", b"v")])
            # First GET batch: the run dedups (15 duplicate rows) and
            # misses the still-empty cache, which admits the key.
            pipe.process_batch(config, [Query(QueryType.GET, b"k")] * 16)
            assert registry.gauge("repro_batch_dedup_ratio").value() == 15 / 16
            assert registry.counter("repro_hotkey_cache_misses_total").value() == 16
            # Later GET batches are answered wholesale from the cache.
            for _ in range(2):
                pipe.process_batch(config, [Query(QueryType.GET, b"k")] * 16)
            assert registry.counter("repro_hotkey_cache_hits_total").value() == 32
            assert registry.gauge("repro_hotkey_cache_hit_rate").value() == 1.0
        finally:
            configure(enabled=False)

    def test_console_summary_lists_hot_path_gauges(self):
        from repro.telemetry import console_summary

        telemetry = configure(enabled=True)
        try:
            store = fresh_store()
            pipe = FunctionalPipeline(store, engine="vector", dedup=True)
            config = megakv_coupled_config()
            pipe.process_batch(config, [Query(QueryType.SET, b"k", b"v")])
            for _ in range(2):
                pipe.process_batch(config, [Query(QueryType.GET, b"k")] * 16)
            summary = console_summary(telemetry)
            coalescing = summary[summary.index("batch coalescing"):]
            assert "repro_batch_dedup_ratio" in coalescing
            assert "repro_hotkey_cache_hit_rate" in coalescing
        finally:
            configure(enabled=False)


# ------------------------------------------------- measured hot fraction


class TestMeasuredHotFraction:
    def test_measured_floors_analytic(self):
        memory = MemorySystem(APU_A10_7850K)
        analytic = memory.hot_fraction(ProcessorKind.CPU, 16, 64, 0.0)
        floored = memory.hot_fraction(ProcessorKind.CPU, 16, 64, 0.0, measured=0.9)
        assert analytic < 0.9
        assert floored == 0.9

    def test_measured_never_lowers_analytic(self):
        memory = MemorySystem(APU_A10_7850K)
        analytic = memory.hot_fraction(ProcessorKind.CPU, 16, 64, 1.2)
        assert memory.hot_fraction(ProcessorKind.CPU, 16, 64, 1.2, measured=0.0) == analytic

    def test_measured_capped_at_one(self):
        memory = MemorySystem(APU_A10_7850K)
        assert memory.hot_fraction(ProcessorKind.CPU, 16, 64, 0.99, measured=1.5) == 1.0

    def test_dido_system_feeds_measured_hit_rate(self):
        """The caches start gated off; Zipf traffic opens the gate and the
        measured window hit rate reaches the profile the cost model sees."""
        system = DidoSystem(
            memory_bytes=16 << 20,
            expected_objects=8192,
            engine="vector",
            dedup=True,
            hot_cache=True,
        )
        assert not system.store.hot_cache.active
        stream = QueryStream(standard_workload("K16-G95-S"), num_keys=2048, seed=5)
        for _ in range(10):
            system.process(stream.next_batch(1024))
        assert system.store.hot_cache.active
        assert system._last_measured is not None
        assert system._last_measured > 0.0


# --------------------------------------------- random interleavings (PBT)


OPS = st.lists(
    st.tuples(
        st.sampled_from(["get", "set", "delete"]),
        st.integers(min_value=0, max_value=7),
        st.binary(min_size=0, max_size=12),
    ),
    min_size=1,
    max_size=120,
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS, batch_size=st.integers(min_value=1, max_value=17))
def test_random_interleavings_byte_identical_across_backends(ops, batch_size):
    """GET/SET/DELETE interleavings over a small key universe produce
    byte-identical responses on every backend with dedup and the hot cache
    enabled — the acceptance property of the skew-aware hot path."""
    queries = []
    for op, key_idx, value in ops:
        key = b"key-%d" % key_idx
        if op == "get":
            queries.append(Query(QueryType.GET, key))
        elif op == "set":
            queries.append(Query(QueryType.SET, key, value))
        else:
            queries.append(Query(QueryType.DELETE, key))
    batches = [
        queries[i : i + batch_size] for i in range(0, len(queries), batch_size)
    ]
    expected = run_batches(ReferenceEngine(), fresh_store(cache=False), batches)
    for name, factory, shards in ALL_HOT_ENGINES:
        got = run_batches(factory(), fresh_store(shards=shards), batches)
        assert got == expected, f"{name} diverged from reference"
