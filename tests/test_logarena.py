"""Log-structured value arena: unit, equivalence, and regression coverage.

Three layers:

* :class:`repro.kv.logarena.LogValueArena` in isolation — bump-pointer
  allocation, tombstone accounting, jumbo segments, the columnar
  ``multi_allocate_kv`` fast path, the two compaction phases (LRU
  segment victimisation, deadest-first rewrite), a model-based fuzz
  against a dict, and the work and steady-state bounds of a pass;
* :class:`KVStore` on the arena — maintenance-driven eviction with index
  cleanup, and the stale-mapping regression on a failed replace;
* the store against the dict model (``tests/dict_model.py``) — hypothesis
  GET/SET/DELETE fuzz plus the capacity-saturation property (a bulk load
  stops at the one item bigger than the budget, and every earlier item
  reads back like the model).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    BatchPlane,
    ReferenceEngine,
    VectorEngine,
    compile_stage_plan,
)
from repro.errors import CapacityError, ConfigurationError
from repro.kv.logarena import LogValueArena
from repro.kv.objects import KVObject
from repro.kv.protocol import Query, QueryType, ResponseStatus
from repro.kv.slab import SlabAllocator
from repro.kv.store import KVStore
from repro.net.wire import QueryColumns
from repro.pipeline.functional import FunctionalPipeline
from repro.pipeline.megakv import megakv_coupled_config

from dict_model import DictModel, assert_agrees

PLAN = compile_stage_plan(megakv_coupled_config())


# ------------------------------------------------------------- arena unit


def log_store(budget: int, segment_bytes: int, objects: int = 4096) -> KVStore:
    """A store over a small arena.  The arena holds bytes and accounting
    only; where each value lives is its key's directory row, so the
    compaction tests drive the arena through the store that owns the rows."""
    return KVStore(budget, objects, heap=LogValueArena(budget, segment_bytes=segment_bytes))


def bulk_set(store: KVStore, keys: list[bytes], values: list[bytes]) -> list[int]:
    """A SET run through the store's bulk MM and Insert, as the engine's
    passes make it (one columnar arena append); returns the keys' rows."""
    rows, fresh = store.multi_allocate_columns(keys, values, store.window_specs(keys))
    store.multi_index_insert([rows[j] for j in fresh])
    return rows


def stored_bytes(store: KVStore, key: bytes) -> bytes:
    """``key``'s value read off its row's place, touching no counter."""
    directory = store.directory
    row = directory.ids[key]
    place = directory.segment[row], directory.offset[row], directory.vlen[row]
    return bytes(store.heap.views(*([int(column)] for column in place))[0])


class TestArenaBasics:
    def test_bump_allocation_round_trip(self):
        arena = LogValueArena(1 << 20, segment_bytes=1 << 12)
        place_a = arena.allocate_kv(b"a", b"alpha")
        place_b = arena.allocate_kv(b"b", b"beta")
        assert place_a == (0, 0) and place_b == (0, 5)
        assert arena.views([0, 0], [0, 5], [5, 4]) == [b"alpha", b"beta"]
        assert arena.num_segments == 1
        assert arena.stats.allocations == 2
        assert arena.live_bytes == len(b"a" b"alpha") + len(b"b" b"beta")
        assert arena.dead_bytes == 0

    def test_value_materialises_from_segment_bytes(self):
        arena = LogValueArena(1 << 20, segment_bytes=1 << 12)
        segment, offset = arena.allocate_kv(b"k", b"payload")
        (view,) = arena.views([segment], [offset], [7])
        assert bytes(view) == b"payload"
        with pytest.raises(TypeError):
            view[0] = 0  # the views are read-only

    def test_tombstone_keeps_bytes_until_compaction(self):
        arena = LogValueArena(1 << 20, segment_bytes=1 << 12)
        segment, offset = arena.allocate_kv(b"k", b"vvvv")
        claimed = arena.claimed_bytes
        arena.free(segment, len(b"k" b"vvvv"))
        assert arena.live_bytes == 0
        assert arena.dead_bytes == len(b"k" b"vvvv")
        # Accounting-only: the segment (and the bytes) are still there.
        assert arena.claimed_bytes == claimed
        assert arena.views([segment], [offset], [4]) == [b"vvvv"]
        assert arena.stats.frees == 1

    def test_free_unknown_location_raises(self):
        arena = LogValueArena(1 << 20)
        with pytest.raises(KeyError):
            arena.free(17, 4)

    def test_jumbo_value_gets_dedicated_segment(self):
        arena = LogValueArena(1 << 20, segment_bytes=64)
        small = arena.allocate_kv(b"s", b"x" * 10)
        jumbo = arena.allocate_kv(b"j", b"y" * 200)
        assert arena.num_segments == 2
        assert arena.views([jumbo[0]], [jumbo[1]], [200]) == [b"y" * 200]
        # The open head is unaffected: the next small value appends to it.
        after = arena.allocate_kv(b"t", b"z" * 10)
        assert after == (small[0], 10)
        assert arena.num_segments == 2

    def test_oversize_allocation_raises(self):
        arena = LogValueArena(1 << 10)
        with pytest.raises(CapacityError):
            arena.allocate_kv(b"k", b"x" * (1 << 11))
        assert arena.stats.failed_allocations == 1
        assert arena.num_segments == 0 and arena.live_bytes == 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LogValueArena(0)
        with pytest.raises(ConfigurationError):
            LogValueArena(1 << 20, segment_bytes=0)

    def test_record_access_matches_kvobject_semantics(self):
        """The directory's access and epoch columns follow the paper's
        counter+timestamp scheme exactly as a ``KVObject`` does."""
        store = KVStore(1 << 20, 64)
        store.set(b"k", b"v")
        directory = store.directory
        row = directory.ids[b"k"]
        obj = KVObject(b"k", b"v")
        for epoch in (1, 1, 1, 2, 2):
            store.read_value(row, epoch=epoch)
            assert directory.access[row] == obj.record_access(epoch)
        assert directory.access[row] == 2
        assert directory.klen[row] + directory.vlen[row] == obj.size_bytes


class TestMultiAllocate:
    def test_matches_scalar_loop(self):
        items = [(b"key-%03d" % i, bytes([i]) * (i % 37)) for i in range(100)]
        bulk = LogValueArena(1 << 20, segment_bytes=256)
        scalar = LogValueArena(1 << 20, segment_bytes=256)
        segments, offsets = bulk.multi_allocate_kv(
            [k for k, _ in items], [v for _, v in items]
        )
        expected = [scalar.allocate_kv(k, v) for k, v in items]
        assert list(zip(segments, offsets)) == expected
        values = [v for _, v in items]
        assert bulk.views(segments, offsets, list(map(len, values))) == values
        assert bulk.live_bytes == scalar.live_bytes
        assert bulk.stats.allocations == scalar.stats.allocations == 100

    def test_run_spans_segments(self):
        arena = LogValueArena(1 << 20, segment_bytes=100)
        values = [b"x" * 40] * 10  # 2 per segment, 5 segments
        arena.multi_allocate_kv([b"k%d" % i for i in range(10)], values)
        assert arena.num_segments == 5

    def test_jumbo_and_empty_values_inline(self):
        arena = LogValueArena(1 << 20, segment_bytes=64)
        keys = [b"a", b"b", b"c", b"d"]
        values = [b"", b"x" * 200, b"y" * 10, b""]
        segments, offsets = arena.multi_allocate_kv(keys, values)
        assert arena.views(segments, offsets, list(map(len, values))) == values

    def test_oversize_item_fails_before_placing_any(self):
        """A run holding one item over the whole budget raises before it
        places an item: nothing it was given is left counted live with no
        owner, whether it would have gone into a run or a fresh segment."""
        arena = LogValueArena(64, segment_bytes=32)
        arena.allocate_kv(b"a", b"x" * 4)
        live = arena.live_bytes
        acct_live = {sid: seg.acct_live for sid, seg in arena._segments.items()}
        allocations = arena.stats.allocations
        failed = arena.stats.failed_allocations
        with pytest.raises(CapacityError):
            arena.multi_allocate_kv(
                [b"b", b"c", b"d"], [b"y" * 7, b"z" * 10, b"w" * 100]
            )
        assert arena.live_bytes == live
        assert {sid: seg.acct_live for sid, seg in arena._segments.items()} == acct_live
        assert arena.stats.allocations == allocations
        assert arena.stats.failed_allocations == failed + 1
        # The arena stays consistent for further allocation.
        segment, offset = arena.allocate_kv(b"e", b"v" * 8)
        assert (segment, offset) == (0, 4)
        assert arena.views([segment], [offset], [8]) == [b"v" * 8]


class TestCompaction:
    def test_rewrite_reclaims_dead_space(self):
        store = log_store(1 << 20, 256)
        arena = store.heap
        # 4 values of 64 B fill segment 0 exactly; 4 more open segment 1.
        keys = [b"k%d" % i for i in range(8)]
        bulk_set(store, keys, [bytes([i]) * 64 for i in range(8)])
        assert arena.num_segments == 2
        store.delete(keys[0])
        store.delete(keys[1])  # segment 0 now 50% dead (>= 25%)
        claimed = arena.claimed_bytes
        evicted = arena.compact(store.directory)
        assert evicted.size == 0  # rewrite is not eviction
        assert arena.dead_bytes == 0
        assert arena.claimed_bytes <= claimed
        assert arena.stats.relocations == 2
        assert arena.stats.segments_dropped == 1
        assert arena.stats.compactions == 1
        # Survivors keep their rows and bytes through the move.
        for i in (2, 3, 4, 5, 6, 7):
            assert store.get(keys[i]) == bytes([i]) * 64

    def test_lightly_dead_segments_left_alone(self):
        store = log_store(1 << 20, 1 << 12)
        keys = [b"key-%03d" % i for i in range(32)]
        bulk_set(store, keys, [b"x" * 64] * 32)
        store.delete(keys[0])  # ~3% dead: below the rewrite threshold
        assert store.heap.compact(store.directory).size == 0
        assert store.heap.stats.relocations == 0
        assert store.heap.dead_bytes > 0

    def test_lru_victimisation_settles_budget(self):
        store = log_store(1024, 256)
        arena = store.heap
        # 64 B accounted per value (8 B key + 56 B value), 4 per segment:
        # 20 values = 5 segments, 1280 live bytes against a 1024 budget.
        keys = [b"key-%03d" % i for i in range(20)]
        rows = bulk_set(store, keys, [b"v" * 56] * 20)
        # Read everything but segment 0's values, making it the LRU.
        for key in keys[4:]:
            store.get(key)
        evicted = arena.compact(store.directory)
        assert set(evicted.tolist()) == set(rows[:4])
        assert arena.live_bytes <= arena.budget_bytes
        assert arena.stats.evictions == 4
        assert arena.stats.compactions == 1
        # The rows still name the dropped segment: the store retires them.
        assert not any(int(store.directory.segment[row]) in arena._segments for row in rows[:4])
        for row in rows[4:]:
            assert int(store.directory.segment[row]) in arena._segments

    def test_needs_maintenance_gate(self):
        store = log_store(1024, 256)
        assert not store.needs_maintenance
        keys = [b"key-%03d" % i for i in range(20)]
        bulk_set(store, keys, [b"v" * 56] * 20)
        assert store.needs_maintenance  # over budget
        assert store.maintenance() == 4
        assert not store.needs_maintenance
        # Dead bytes alone re-arm the gate once past the trigger.
        for key in keys[4:]:
            assert store.delete(key)
        assert store.needs_maintenance

    def test_open_gate_always_means_work(self):
        """Live + dead past the budget, dead under the share: nothing a
        pass would do, so the gate stays shut instead of asking every
        barrier for a pass that relocates nothing."""
        store = log_store(1024, 256)
        arena = store.heap
        keys = [b"key-%03d" % i for i in range(17)]
        bulk_set(store, keys, [b"v" * 56] * 17)
        store.delete(keys[0])
        store.delete(keys[5])
        assert arena.live_bytes + arena.dead_bytes > arena.budget_bytes
        assert arena.live_bytes <= arena.budget_bytes
        assert not arena.needs_maintenance

    def test_wholly_dead_segments_always_dropped(self):
        store = log_store(1 << 20, 256)
        arena = store.heap
        # Three 80 B values per segment, 82 B accounted each.
        keys = [b"k%d" % i for i in range(9)]
        bulk_set(store, keys, [bytes([i]) * 80 for i in range(9)])
        for key in keys[:3]:
            store.delete(key)  # segment 0 is all tombstones
        claimed = arena.claimed_bytes
        assert not arena.needs_maintenance  # 246 B dead: under one segment
        arena.compact(store.directory)
        assert arena.claimed_bytes == claimed - 256
        assert arena.stats.relocations == 0
        assert arena.dead_bytes == 0

    def test_rewrite_takes_deadest_first_and_stops_at_half_the_trigger(self):
        store = log_store(1 << 20, 256)
        arena = store.heap
        # Five full segments of four 66 B values; the sixth is the head.
        keys = [b"k%02d" % i for i in range(21)]
        bulk_set(store, keys, [bytes([i]) * 63 for i in range(21)])
        # Dead values per sealed segment: 1, 3, 2, 1, 0.
        for i in (0, 4, 5, 6, 8, 9, 12):
            store.delete(keys[i])
        assert arena.needs_maintenance  # 462 dead of 1386 held: past 25 %
        arena.compact(store.directory)
        # Segment 1 (75 % dead) and segment 2 (50 %) pay best: rewriting
        # them brings dead bytes to 132, under half the 346 B trigger, so
        # the 25 %-dead segments are left to age.
        assert arena.stats.segments_dropped == 2
        assert arena.stats.relocations == 3
        assert arena.dead_bytes == 2 * 66
        assert not arena.needs_maintenance
        for i in (7, 10, 11):
            assert store.get(keys[i]) == bytes([i]) * 63

    def test_pass_examines_only_the_segments_it_rewrites(self):
        """Work bound: with N live values, thin dead space everywhere and
        one dead-heavy segment, a pass finds that segment's survivors in
        one compare over the directory's segment column and moves those —
        no Python work per other value."""
        per_segment = (1 << 14) // 64
        n = 40 * per_segment
        store = log_store(64 << 20, 1 << 14, objects=2 * n)
        arena = store.heap
        keys = [b"key-%06d" % i for i in range(n)]
        bulk_set(store, keys, [b"v" * 64] * n)
        for key in keys[: per_segment * 3 // 4]:
            store.delete(key)  # segment 0: 75 % dead
        for first in range(per_segment, n - per_segment, per_segment):
            for key in keys[first : first + 30]:
                store.delete(key)  # every other sealed segment: 12 %
        target = max(arena.segment_bytes, (arena.live_bytes + arena.dead_bytes) // 4) // 2
        assert target < arena.dead_bytes <= target + per_segment * 3 // 4 * 74
        live_before = len(store)
        arena.compact(store.directory)
        assert arena.stats.segments_dropped == 1
        assert arena.stats.relocations == per_segment // 4
        assert arena.stats.scanned == per_segment // 4
        assert len(store) == live_before > 30 * per_segment

    def test_record_relocated_twice_keeps_bytes_and_touch_log(self):
        store = log_store(1 << 20, 256)
        arena = store.heap
        directory = store.directory
        # Four 64 B values fill a segment.
        first = [b"a%02d" % i for i in range(8)]
        bulk_set(store, first, [bytes([i]) * 61 for i in range(8)])
        survivor = first[3]
        row = directory.ids[survivor]
        for _ in range(5):
            store.read_value(row, epoch=7)
        homes = [int(directory.segment[row])]
        for key in first[:3]:
            store.delete(key)  # segment 0: only the survivor is live
        arena.compact(directory)
        homes.append(int(directory.segment[row]))
        # Fill the survivor's new segment, seal it, kill its neighbours.
        second = [b"b%02d" % i for i in range(4)]
        rows = bulk_set(store, second, [bytes([i]) * 61 for i in range(4)])
        assert directory.segment[rows[0]] == directory.segment[row]
        assert directory.segment[rows[3]] != directory.segment[row]
        for key in second[:3]:
            store.delete(key)
        arena.compact(directory)
        homes.append(int(directory.segment[row]))
        assert len(set(homes)) == 3  # moved twice
        assert arena.stats.relocations == 2
        assert directory.ids[survivor] == row
        assert stored_bytes(store, survivor) == bytes([3]) * 61
        # The first-touch log names rows, which outlive every move.
        assert directory.harvest() == [5]
        assert directory.touched == []


class ArenaModel:
    """A dict a store on a small arena must agree with: key -> value, and
    the in-epoch read count of each value read."""

    def __init__(self, store: KVStore):
        self.store = store
        self.live: dict[bytes, bytes] = {}
        self.touches: dict[bytes, int] = {}

    def set(self, key: bytes, value: bytes) -> None:
        assert self.store.set(key, value) == (key in self.live)
        self.live[key] = value
        self.touches.pop(key, None)

    def set_many(self, keys: list[bytes], value: bytes) -> None:
        fresh = list(dict.fromkeys(keys))
        bulk_set(self.store, fresh, [value] * len(fresh))
        for key in fresh:
            self.live[key] = value
            self.touches.pop(key, None)

    def delete(self, key: bytes) -> None:
        assert self.store.delete(key) == (self.live.pop(key, None) is not None)
        self.touches.pop(key, None)

    def read(self, key: bytes, epoch: int) -> None:
        assert self.store.get(key, epoch=epoch) == self.live.get(key)
        if key in self.live:
            self.touches[key] = self.touches.get(key, 0) + 1

    def compact(self) -> None:
        store = self.store
        before = set(store.keys())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LogValueArena, "needs_maintenance", property(lambda arena: True))
            evictions = store.maintenance()
        evicted = before - set(store.keys())
        assert len(evicted) == evictions
        for key in evicted:
            del self.live[key]
            self.touches.pop(key, None)
        assert store.heap.live_bytes <= store.heap.budget_bytes

    def harvest(self) -> None:
        assert sorted(self.store.directory.harvest()) == sorted(self.touches.values())
        self.touches.clear()

    def check(self) -> None:
        store = self.store
        arena = store.heap
        directory = store.directory
        assert sorted(store.keys()) == sorted(self.live)
        assert len(store) == len(store.index) == len(self.live)
        segments = arena._segments
        for key, value in self.live.items():
            row = directory.ids[key]
            segment = segments[int(directory.segment[row])]
            offset, vlen = int(directory.offset[row]), int(directory.vlen[row])
            assert offset + vlen <= segment.wpos
            assert segment.buf[offset : offset + vlen] == value
        assert arena.live_bytes == sum(len(k) + len(v) for k, v in self.live.items())
        assert arena.live_bytes == sum(s.acct_live for s in segments.values())
        assert arena.dead_bytes == sum(s.acct_used - s.acct_live for s in segments.values())
        assert arena.claimed_bytes == sum(len(s.buf) for s in segments.values())


_KEY_IDS = st.integers(min_value=0, max_value=23)
_ARENA_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), _KEY_IDS, st.integers(min_value=0, max_value=120)),
        st.tuples(st.just("jumbo"), _KEY_IDS, st.integers(min_value=257, max_value=400)),
        st.tuples(st.just("set_many"), _KEY_IDS, st.integers(min_value=1, max_value=9)),
        st.tuples(st.just("delete"), _KEY_IDS, st.just(0)),
        st.tuples(st.just("read"), _KEY_IDS, st.just(0)),
        st.tuples(st.just("compact"), st.just(0), st.just(0)),
        st.tuples(st.just("harvest"), st.just(0), st.just(0)),
    ),
    max_size=120,
)


class TestArenaAgainstModel:
    """SET / replace / DELETE / jumbo / bulk SET / compact at arbitrary
    points against a dict.  The budget (1.5 KiB over 256 B segments) is
    small enough that passes evict, relocate the same value repeatedly
    and drop jumbo segments; the touched log is harvested across them."""

    @settings(max_examples=150, deadline=None)
    @given(_ARENA_OPS)
    def test_fuzz(self, ops):
        model = ArenaModel(log_store(1536, 256, objects=64))
        epoch = 0
        for step, (op, key_id, arg) in enumerate(ops):
            key = b"key-%02d" % key_id
            if op in ("set", "jumbo"):
                model.set(key, bytes([step % 251]) * arg)
            elif op == "set_many":
                keys = [b"key-%02d" % ((key_id + d) % 24) for d in range(arg)]
                model.set_many(keys, bytes([step % 251]) * 40)
            elif op == "delete":
                model.delete(key)
            elif op == "read":
                model.read(key, epoch)
            elif op == "compact":
                model.compact()
            else:
                model.harvest()
                epoch += 1
            if model.store.needs_maintenance and step % 3 == 0:
                model.compact()
            model.check()
        model.compact()
        model.check()
        model.harvest()


class TestSteadyState:
    @pytest.mark.parametrize(
        "every, bound",
        [
            # A tick every 5000 replaces lets dead space swing well past the
            # share between passes, so what is rewritten is mostly dead.
            (5000, 1.0),
            # A barrier every 64 holds dead space inside the 12.5-25 % band;
            # a uniform stream then cleans segments that are still ~70 %
            # live: ~1.7 measured.
            (64, 2.0),
        ],
    )
    def test_uniform_replaces_hold_the_dead_share_band(self, every, bound):
        """Uniform replaces over 4x the live set: after every pass dead
        bytes are inside the band, the gate is shut, and the copying stays
        proportional to the writing."""
        rng = random.Random(20260927)
        n = 8192
        store = log_store(64 << 20, 1 << 18, objects=2 * n)
        arena = store.heap
        keys = [b"key-%027d" % i for i in range(n)]
        bulk_set(store, keys, [b"v" * 256] * n)
        loaded = arena.stats.allocations
        passes = 0
        for op in range(1, 4 * n + 1):
            assert store.set(keys[rng.randrange(n)], b"w" * 256)
            if op % every == 0 and arena.needs_maintenance:
                assert store.maintenance() == 0
                passes += 1
                held = arena.live_bytes + arena.dead_bytes
                assert arena.dead_bytes <= 0.30 * held
                assert not arena.needs_maintenance
        assert passes >= 3
        replaces = arena.stats.allocations - loaded
        assert arena.stats.relocations / replaces <= bound
        assert len(store) == n


# ----------------------------------------------------------- store on log


class TestStoreOnLogArena:
    def test_set_get_delete_replace(self):
        store = KVStore(1 << 20, 1024)  # log arena is the default heap
        assert isinstance(store.heap, LogValueArena)
        assert store.set(b"k", b"v1") is False
        assert store.get(b"k") == b"v1"
        assert store.set(b"k", b"v2") is True
        assert store.get(b"k") == b"v2"
        assert store.delete(b"k") is True
        assert store.get(b"k") is None

    def test_heap_instance_passes_through(self):
        arena = LogValueArena(1 << 16, segment_bytes=1 << 12)
        store = KVStore(1 << 20, 1024, heap=arena)
        assert store.heap is arena

    def test_maintenance_evicts_and_cleans_index(self):
        store = KVStore(
            1 << 20, 4096, heap=LogValueArena(1 << 16, segment_bytes=1 << 12)
        )
        keys = [b"key-%04d" % i for i in range(700)]
        for key in keys:
            store.set(key, b"x" * 100)  # 106 B accounted: ~72 KiB live
        assert store.needs_maintenance
        deletes_before = store.index.stats.deletes
        evictions = store.maintenance()
        assert evictions > 0
        assert store.heap.live_bytes <= store.heap.budget_bytes
        # One index Delete per evicted record (the paper's SET pairing,
        # settled at the barrier), and every eviction fully unmapped.
        assert store.index.stats.deletes - deletes_before == evictions
        hits = 0
        for key in keys:
            value = store.get(key)
            if value is None:
                assert key not in store.directory
            else:
                assert value == b"x" * 100
                hits += 1
        assert hits == 700 - evictions

    def test_populate_stops_at_index_capacity_on_log(self):
        store = KVStore(1 << 20, 64)
        items = [(b"key-%08d" % i, b"x" * 8) for i in range(10000)]
        stored = store.populate(items)
        assert 0 < stored < 10000


class TestStaleMappingRegression:
    def test_failed_replace_keeps_the_old_value(self):
        store = KVStore(memory_bytes=1 << 20, expected_objects=256)
        store.set(b"k", b"small")
        live = store.heap.live_bytes
        with pytest.raises(CapacityError):
            store.set(b"k", b"x" * (2 << 20))  # exceeds the whole budget
        # The allocation fails before anything changes: the old version is
        # still mapped, indexed and accounted, not freed by an ERROR.
        assert store.heap.stats.failed_allocations == 1
        assert store.heap.live_bytes == live and store.heap.dead_bytes == 0
        assert len(store.index) == len(store) == 1
        assert store.get(b"k") == b"small"
        # And the store still works for that key afterwards.
        store.set(b"k", b"fresh")
        assert store.get(b"k") == b"fresh"


class TestSlabGrowPath:
    def test_full_class_grows_without_eviction(self):
        slab = SlabAllocator(2 << 20, min_chunk=1 << 16)
        objs = [KVObject(b"k%02d" % i, b"x" * 60000) for i in range(17)]
        for obj in objs[:16]:  # exactly one page of 64 KiB chunks
            slab.allocate(obj)
        assert slab.claimed_bytes == 1 << 20
        location, evicted = slab.allocate(objs[16])
        # The class was full but the budget was not: the class grows a page
        # and the allocation lands with no eviction.
        assert evicted is None
        assert slab.stats.evictions == 0
        assert slab.claimed_bytes == 2 << 20
        assert slab.get(location, touch=False) is objs[16]


# ------------------------------------------------- the store against a dict


OPS = st.lists(
    st.tuples(
        st.sampled_from(["set", "get", "delete"]),
        st.integers(0, 15),
        st.binary(max_size=64),
    ),
    max_size=120,
)


class TestHeapEquivalence:
    @given(ops=OPS)
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_get_set_delete_fuzz(self, ops):
        """With no capacity pressure the store is indistinguishable from a
        dict: 16 keys of at most 64 B values never fill 8 MiB, so the
        arena never evicts or rejects.
        """
        model = DictModel()
        log_store = KVStore(8 << 20, 1024)
        for op, kid, value in ops:
            key = b"key-%02d" % kid
            if op == "set":
                assert log_store.set(key, value) == model.set(key, value)
            elif op == "get":
                assert log_store.get(key) == model.get(key)
            else:
                assert log_store.delete(key) == model.delete(key)
        # Compaction must not change observable state either.
        assert log_store.heap.compact(log_store.directory).size == 0
        for kid in range(16):
            key = b"key-%02d" % kid
            assert log_store.get(key) == model.get(key)
        assert_agrees(log_store, model)

    @given(data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_capacity_saturation_parity(self, data):
        """A bulk load stops at exactly the item bigger than the budget.

        The small items (8 B key + 9-20 B value, at most 120 of them) are
        far below the 1 MiB budget, so the arena never evicts; the poison
        item exceeds the whole budget, so its allocation raises, and the
        prefix before it reads back like the dict model.
        """
        n = data.draw(st.integers(2, 120))
        poison_at = data.draw(st.integers(1, n - 1))
        vlens = data.draw(
            st.lists(st.integers(9, 20), min_size=n, max_size=n)
        )
        items = [(b"key-%04d" % i, b"x" * vlens[i]) for i in range(n)]
        items[poison_at] = (b"poison", b"x" * (2 << 20))
        model = DictModel()
        log_store = KVStore(1 << 20, 4096)
        assert log_store.populate(items) == poison_at
        for key, value in items[:poison_at]:
            model.set(key, value)
        for key, _ in items:
            assert log_store.get(key) == model.get(key)
        # The store counts the failed SET as a SET, so only the key counts
        # of ``assert_agrees`` apply here.
        assert log_store.heap.stats.evictions == 0
        assert len(log_store) == len(log_store.index) == len(model) == poison_at


# ------------------------------------------------- engines on the log


def run_batch(engine, store, queries):
    """One batch through ``engine``; returns (plane, (status, value) rows)."""
    plane = BatchPlane(QueryColumns.from_queries(list(queries)))
    engine.run(store, PLAN, plane)
    statuses = plane.take_responses()
    return plane, [
        (ResponseStatus(status), value or b"")
        for status, value in zip(statuses, plane.read_values)
    ]


class TestReassignFusionThroughEngines:
    """A replace keeps its key's directory row, so replace-heavy batches
    write no index slot; each still counts as the modelled Insert+Delete
    pair, on the vector engine and on the scalar reference path alike."""

    @pytest.mark.parametrize("engine_cls", [VectorEngine])
    def test_replaces_settle_in_place_with_identical_results(self, engine_cls):
        store = KVStore(8 << 20, 4096)
        reference = KVStore(8 << 20, 4096)
        keys = [f"key-{i:04d}".encode() for i in range(256)]
        for s in (store, reference):
            s.populate([(k, b"seed") for k in keys])
        assert store.index.stats.reassigns == 0
        entries = store.index.entries()
        batch = [
            Query(QueryType.SET, k, b"v2-%s" % k) for k in keys
        ] + [Query(QueryType.GET, k) for k in keys]
        _, rows = run_batch(engine_cls(), store, batch)
        _, ref_rows = run_batch(ReferenceEngine(), reference, batch)
        assert rows == ref_rows
        # Every SET replaced a prefilled key: no slot changed, and each
        # counts as one Insert+Delete pair.
        assert store.index.entries() == entries
        assert store.index.stats == reference.index.stats
        assert store.index.stats.reassigns == len(keys)

    def test_fresh_keys_do_not_fuse(self):
        store = KVStore(8 << 20, 4096)
        batch = [Query(QueryType.SET, f"new-{i}".encode(), b"v") for i in range(64)]
        _, rows = run_batch(VectorEngine(), store, batch)
        assert all(status is ResponseStatus.STORED for status, _ in rows)
        assert store.index.stats.reassigns == 0
        assert all(store.get(f"new-{i}".encode()) == b"v" for i in range(64))

    def test_in_batch_duplicate_then_delete_stays_consistent(self):
        """A key SET twice in a batch keeps one row and queues one Insert;
        a trailing DELETE leaves no trace."""
        store = KVStore(8 << 20, 4096)
        reference = KVStore(8 << 20, 4096)
        batch = [
            Query(QueryType.SET, b"dup", b"v1"),
            Query(QueryType.SET, b"dup", b"v2"),
            Query(QueryType.GET, b"dup"),
            Query(QueryType.DELETE, b"dup"),
            Query(QueryType.GET, b"dup"),
        ]
        _, rows = run_batch(VectorEngine(), store, batch)
        _, ref_rows = run_batch(ReferenceEngine(), reference, batch)
        assert rows == ref_rows
        assert store.get(b"dup") is None
        candidates, _ = store.index.search(b"dup")
        assert candidates == []


class TestEvictionThroughPipelineOnLog:
    def test_barrier_eviction_generates_correct_responses(self):
        """Overfilling a log-heap store through the pipeline settles at
        batch barriers: evicted keys read back NOT_FOUND, survivors keep
        their bytes, and the arena ends within budget."""
        store = KVStore(
            1 << 20,
            70000,
            heap=LogValueArena(1 << 20, segment_bytes=1 << 16),
        )
        pipeline = FunctionalPipeline(store)
        config = megakv_coupled_config()
        keys = [b"key-%06d" % i for i in range(40_000)]
        for start in range(0, len(keys), 1000):
            batch = [
                Query(QueryType.SET, k, b"x" * 24)
                for k in keys[start : start + 1000]
            ]
            result = pipeline.process_batch(config, batch)
            assert all(
                r.status is ResponseStatus.STORED for r in result.responses
            )
        assert store.heap.stats.evictions > 0
        assert store.heap.live_bytes <= store.heap.budget_bytes
        hits = 0
        for start in range(0, len(keys), 1000):
            batch = [Query(QueryType.GET, k) for k in keys[start : start + 1000]]
            result = pipeline.process_batch(config, batch)
            for response in result.responses:
                if response.status is ResponseStatus.OK:
                    assert response.value == b"x" * 24
                    hits += 1
                else:
                    assert response.status is ResponseStatus.NOT_FOUND
        assert 0 < hits < len(keys)
