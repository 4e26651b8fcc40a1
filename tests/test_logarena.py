"""Log-structured value arena: unit, equivalence, and regression coverage.

Three layers:

* :class:`repro.kv.logarena.LogValueArena` in isolation — bump-pointer
  allocation, tombstone accounting, jumbo segments, the columnar
  ``multi_allocate_kv`` fast path, the two compaction phases (LRU
  segment victimisation, deadest-first rewrite), a model-based fuzz
  against a dict, and the work and steady-state bounds of a pass;
* :class:`KVStore` on the arena — maintenance-driven eviction with index
  cleanup, and the stale-mapping regression on a failed replace (both
  heaps);
* slab-vs-log equivalence — hypothesis GET/SET/DELETE fuzz plus the
  capacity-saturation parity property (both heaps stop a bulk load at the
  same item and agree on every stored value).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    BatchPlane,
    ReferenceEngine,
    SerialEngine,
    VectorEngine,
    compile_stage_plan,
)
from repro.errors import CapacityError, ConfigurationError
from repro.kv.logarena import LogValueArena
from repro.kv.objects import KVObject
from repro.kv.protocol import Query, QueryType, ResponseStatus
from repro.kv.slab import SlabAllocator
from repro.kv.store import KVStore
from repro.pipeline.functional import FunctionalPipeline
from repro.pipeline.megakv import megakv_coupled_config

from conftest import heap_named

PLAN = compile_stage_plan(megakv_coupled_config())


# ------------------------------------------------------------- arena unit


class TestArenaBasics:
    def test_bump_allocation_round_trip(self):
        arena = LogValueArena(1 << 20, segment_bytes=1 << 12)
        loc_a, evicted = arena.allocate_kv(b"a", b"alpha")
        assert evicted is None
        loc_b, _ = arena.allocate_kv(b"b", b"beta")
        assert loc_b == loc_a + 1
        assert arena.get(loc_a).value == b"alpha"
        assert arena.get(loc_b).value == b"beta"
        assert loc_a in arena and loc_b in arena
        assert len(arena) == 2
        assert arena.num_segments == 1
        assert arena.live_bytes == len(b"a" b"alpha") + len(b"b" b"beta")
        assert arena.dead_bytes == 0

    def test_value_materialises_from_segment_bytes(self):
        arena = LogValueArena(1 << 20, segment_bytes=1 << 12)
        location, _ = arena.allocate_kv(b"k", b"payload")
        record = arena.get(location)
        record._value = None  # drop the write-path cache
        assert record.value == b"payload"

    def test_tombstone_keeps_bytes_until_compaction(self):
        arena = LogValueArena(1 << 20, segment_bytes=1 << 12)
        location, _ = arena.allocate_kv(b"k", b"vvvv")
        claimed = arena.claimed_bytes
        record = arena.free(location)
        assert location not in arena
        assert arena.live_bytes == 0
        assert arena.dead_bytes == len(b"k" b"vvvv")
        # Accounting-only: the segment (and the bytes) are still there.
        assert arena.claimed_bytes == claimed
        record._value = None
        assert record.value == b"vvvv"
        assert arena.stats.frees == 1

    def test_free_unknown_location_raises(self):
        arena = LogValueArena(1 << 20)
        with pytest.raises(CapacityError):
            arena.free(17)

    def test_jumbo_value_gets_dedicated_segment(self):
        arena = LogValueArena(1 << 20, segment_bytes=64)
        small, _ = arena.allocate_kv(b"s", b"x" * 10)
        jumbo, _ = arena.allocate_kv(b"j", b"y" * 200)
        assert arena.num_segments == 2
        assert arena.get(jumbo).value == b"y" * 200
        # The open head is unaffected: the next small value appends to it.
        after, _ = arena.allocate_kv(b"t", b"z" * 10)
        assert arena.get(small).segment is arena.get(after).segment
        assert arena.num_segments == 2

    def test_oversize_allocation_raises(self):
        arena = LogValueArena(1 << 10)
        with pytest.raises(CapacityError):
            arena.allocate_kv(b"k", b"x" * (1 << 11))
        assert arena.stats.failed_allocations == 1
        assert len(arena) == 0 and arena.live_bytes == 0

    def test_kvobject_shim(self):
        arena = LogValueArena(1 << 20)
        location, evicted = arena.allocate(KVObject(b"k", b"v"))
        assert evicted is None
        assert arena.get(location).value == b"v"

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LogValueArena(0)
        with pytest.raises(ConfigurationError):
            LogValueArena(1 << 20, segment_bytes=0)

    def test_record_access_matches_kvobject_semantics(self):
        arena = LogValueArena(1 << 20)
        location, _ = arena.allocate_kv(b"k", b"v")
        record = arena.get(location)
        obj = KVObject(b"k", b"v")
        for epoch in (1, 1, 1, 2, 2):
            assert record.record_access(epoch) == obj.record_access(epoch)
        assert record.access_count == 2
        assert record.signature == obj.signature
        assert record.size_bytes == obj.size_bytes


class TestMultiAllocate:
    def test_matches_scalar_loop(self):
        items = [(b"key-%03d" % i, bytes([i]) * (i % 37)) for i in range(100)]
        bulk = LogValueArena(1 << 20, segment_bytes=256)
        scalar = LogValueArena(1 << 20, segment_bytes=256)
        locations = bulk.multi_allocate_kv(
            [k for k, _ in items], [v for _, v in items]
        )
        expected = [scalar.allocate_kv(k, v)[0] for k, v in items]
        assert locations == expected
        for (key, value), location in zip(items, locations):
            record = bulk.get(location)
            assert record.key == key
            record._value = None
            assert record.value == value
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
        locations = arena.multi_allocate_kv(keys, values)
        for key, value, location in zip(keys, values, locations):
            record = arena.get(location)
            assert record.key == key
            record._value = None
            assert record.value == value

    def test_oversize_item_fails_at_position_with_prefix_applied(self):
        arena = LogValueArena(1 << 10, segment_bytes=256)
        keys = [b"a", b"b", b"c"]
        values = [b"x" * 8, b"y" * (1 << 11), b"z" * 8]
        with pytest.raises(CapacityError):
            arena.multi_allocate_kv(keys, values)
        # The earlier item is applied; the failed and later ones are not.
        assert len(arena) == 1
        (record,) = arena.objects()
        assert record.key == b"a"
        assert arena.live_bytes == len(b"a") + 8
        # The arena stays consistent for further allocation.
        location, _ = arena.allocate_kv(b"d", b"w" * 8)
        assert arena.get(location).value == b"w" * 8


class TestCompaction:
    def test_rewrite_reclaims_dead_space(self):
        arena = LogValueArena(1 << 20, segment_bytes=256)
        # 4 values of 64 B fill segment 0 exactly; 4 more open segment 1.
        locations = arena.multi_allocate_kv(
            [b"k%d" % i for i in range(8)], [bytes([i]) * 64 for i in range(8)]
        )
        assert arena.num_segments == 2
        arena.free(locations[0])
        arena.free(locations[1])  # segment 0 now 50% dead (>= 25%)
        claimed = arena.claimed_bytes
        evicted = arena.compact()
        assert evicted == []  # rewrite is not eviction
        assert arena.dead_bytes == 0
        assert arena.claimed_bytes <= claimed
        assert arena.stats.relocations == 2
        assert arena.stats.segments_dropped == 1
        assert arena.stats.compactions == 1
        # Survivors keep their locations and bytes through the move.
        for i in (2, 3, 4, 5, 6, 7):
            record = arena.get(locations[i])
            record._value = None
            assert record.value == bytes([i]) * 64

    def test_lightly_dead_segments_left_alone(self):
        arena = LogValueArena(1 << 20, segment_bytes=1 << 12)
        locations = arena.multi_allocate_kv(
            [b"key-%03d" % i for i in range(32)], [b"x" * 64] * 32
        )
        arena.free(locations[0])  # ~3% dead: below the rewrite threshold
        assert arena.compact() == []
        assert arena.stats.relocations == 0
        assert arena.dead_bytes > 0

    def test_lru_victimisation_settles_budget(self):
        arena = LogValueArena(1024, segment_bytes=256)
        # 64 B accounted per record (8 B key + 56 B value), 4 per segment:
        # 20 records = 5 segments, 1280 live bytes against a 1024 budget.
        locations = arena.multi_allocate_kv(
            [b"key-%03d" % i for i in range(20)], [b"v" * 56] * 20
        )
        # Touch everything but segment 0's records, making it the LRU.
        for location in locations[4:]:
            arena.get(location)
        evicted = arena.compact()
        assert {loc for loc, _ in evicted} == set(locations[:4])
        assert arena.live_bytes <= arena.budget_bytes
        assert arena.stats.evictions == 4
        assert arena.stats.compactions == 1
        for location in locations[:4]:
            assert arena.get(location) is None
        for location in locations[4:]:
            assert arena.get(location) is not None
        # Evicted records keep their payloads for the caller's bookkeeping.
        for _loc, record in evicted:
            assert record.value == b"v" * 56

    def test_needs_maintenance_gate(self):
        arena = LogValueArena(1024, segment_bytes=256)
        assert not arena.needs_maintenance
        locations = arena.multi_allocate_kv(
            [b"key-%03d" % i for i in range(20)], [b"v" * 56] * 20
        )
        assert arena.needs_maintenance  # over budget
        arena.compact()
        assert not arena.needs_maintenance
        # Dead bytes alone re-arm the gate once past the trigger.
        for location in locations[4:]:
            if location in arena:
                arena.free(location)
        assert arena.needs_maintenance

    def test_open_gate_always_means_work(self):
        """Live + dead past the budget, dead under the share: nothing a
        pass would do, so the gate stays shut instead of asking every
        barrier for a pass that relocates nothing."""
        arena = LogValueArena(1024, segment_bytes=256)
        locations = arena.multi_allocate_kv(
            [b"key-%03d" % i for i in range(17)], [b"v" * 56] * 17
        )
        arena.free(locations[0])
        arena.free(locations[5])
        assert arena.live_bytes + arena.dead_bytes > arena.budget_bytes
        assert arena.live_bytes <= arena.budget_bytes
        assert not arena.needs_maintenance

    def test_wholly_dead_segments_always_dropped(self):
        arena = LogValueArena(1 << 20, segment_bytes=256)
        # Three 80 B values per segment, 82 B accounted each.
        locations = arena.multi_allocate_kv(
            [b"k%d" % i for i in range(9)], [bytes([i]) * 80 for i in range(9)]
        )
        for location in locations[:3]:
            arena.free(location)  # segment 0 is all tombstones
        claimed = arena.claimed_bytes
        assert not arena.needs_maintenance  # 246 B dead: under one segment
        arena.compact()
        assert arena.claimed_bytes == claimed - 256
        assert arena.stats.relocations == 0
        assert arena.dead_bytes == 0

    def test_rewrite_takes_deadest_first_and_stops_at_half_the_trigger(self):
        arena = LogValueArena(1 << 20, segment_bytes=256)
        # Five full segments of four 66 B records; the sixth is the head.
        locations = arena.multi_allocate_kv(
            [b"k%02d" % i for i in range(21)], [bytes([i]) * 63 for i in range(21)]
        )
        # Dead records per sealed segment: 1, 3, 2, 1, 0.
        for i in (0, 4, 5, 6, 8, 9, 12):
            arena.free(locations[i])
        assert arena.needs_maintenance  # 462 dead of 1386 held: past 25 %
        arena.compact()
        # Segment 1 (75 % dead) and segment 2 (50 %) pay best: rewriting
        # them brings dead bytes to 132, under half the 346 B trigger, so
        # the 25 %-dead segments are left to age.
        assert arena.stats.segments_dropped == 2
        assert arena.stats.relocations == 3
        assert arena.dead_bytes == 2 * 66
        assert not arena.needs_maintenance
        for i in (7, 10, 11):
            record = arena.get(locations[i])
            record._value = None
            assert record.value == bytes([i]) * 63

    def test_pass_examines_only_the_segments_it_rewrites(self):
        """Work bound: with N live records, thin dead space everywhere and
        one dead-heavy segment, a pass reads that segment's membership
        list and nothing else — not the N entries."""
        arena = LogValueArena(64 << 20, segment_bytes=1 << 14)
        per_segment = (1 << 14) // 64
        n = 40 * per_segment
        locations = arena.multi_allocate_kv(
            [b"key-%06d" % i for i in range(n)], [b"v" * 64] * n
        )
        victim = arena.get(locations[0], touch=False).segment
        for location in locations[: per_segment * 3 // 4]:
            arena.free(location)  # segment 0: 75 % dead
        for first in range(per_segment, n - per_segment, per_segment):
            for location in locations[first : first + 30]:
                arena.free(location)  # every other sealed segment: 12 %
        target = max(arena.segment_bytes, (arena.live_bytes + arena.dead_bytes) // 4) // 2
        assert target < arena.dead_bytes <= target + per_segment * 3 // 4 * 74
        live_before = len(arena)
        arena.compact()
        assert arena.stats.segments_dropped == 1
        assert arena.stats.relocations == per_segment // 4
        assert arena.stats.scanned == len(victim.locations) == per_segment
        assert len(arena) == live_before > 30 * per_segment

    def test_record_relocated_twice_keeps_bytes_and_touch_log(self):
        arena = LogValueArena(1 << 20, segment_bytes=256)
        # Four 64 B records fill a segment.
        first = arena.multi_allocate_kv(
            [b"a%02d" % i for i in range(8)], [bytes([i]) * 61 for i in range(8)]
        )
        survivor = first[3]
        record = arena.get(survivor)
        for _ in range(5):
            record.record_access(7, arena.touched, survivor)
        homes = [record.segment]
        for location in first[:3]:
            arena.free(location)  # segment 0: only the survivor is live
        arena.compact()
        homes.append(record.segment)
        # Fill the survivor's new segment, seal it, kill its neighbours.
        second = arena.multi_allocate_kv(
            [b"b%02d" % i for i in range(4)], [bytes([i]) * 61 for i in range(4)]
        )
        assert arena.get(second[0]).segment is record.segment
        assert arena.get(second[3]).segment is not record.segment
        for location in second[:3]:
            arena.free(location)
        arena.compact()
        homes.append(record.segment)
        assert len({id(segment) for segment in homes}) == 3  # moved twice
        assert arena.stats.relocations == 2
        assert arena.get(survivor) is record
        record._value = None
        assert record.value == bytes([3]) * 61
        # The first-touch log names locations, which outlive every move.
        assert arena.drain_touched() == [5]
        assert arena.touched == []


class ArenaModel:
    """A dict the arena must agree with: key -> (location, value)."""

    def __init__(self, arena: LogValueArena):
        self.arena = arena
        self.live: dict[bytes, tuple[int, bytes]] = {}
        self.touches: dict[int, int] = {}

    def set(self, key: bytes, value: bytes) -> None:
        old = self.live.pop(key, None)
        if old is not None:
            assert self.arena.discard(old[0]).key == key
            self.touches.pop(old[0], None)
        location, evicted = self.arena.allocate_kv(key, value)
        assert evicted is None
        self.live[key] = (location, value)

    def set_many(self, keys: list[bytes], value: bytes) -> None:
        fresh = list(dict.fromkeys(keys))
        for key in fresh:
            old = self.live.pop(key, None)
            if old is not None:
                self.arena.free(old[0])
                self.touches.pop(old[0], None)
        for key, location in zip(
            fresh, self.arena.multi_allocate_kv(fresh, [value] * len(fresh))
        ):
            self.live[key] = (location, value)

    def delete(self, key: bytes) -> None:
        old = self.live.pop(key, None)
        if old is not None:
            self.arena.free(old[0])
            self.touches.pop(old[0], None)

    def read(self, key: bytes, epoch: int) -> None:
        entry = self.live.get(key)
        if entry is not None:
            location = entry[0]
            record = self.arena.get(location)
            record.record_access(epoch, self.arena.touched, location)
            self.touches[location] = self.touches.get(location, 0) + 1

    def compact(self) -> None:
        arena = self.arena
        for location, record in arena.compact():
            assert self.live.pop(record.key)[0] == location
            self.touches.pop(location, None)
        assert arena.live_bytes <= arena.budget_bytes

    def harvest(self) -> None:
        assert sorted(self.arena.drain_touched()) == sorted(self.touches.values())
        self.touches.clear()

    def check(self) -> None:
        arena = self.arena
        assert len(arena) == len(self.live)
        segments = arena._segments
        for key, (location, value) in self.live.items():
            record = arena.get(location, touch=False)
            assert record.key == key
            assert any(record.segment is s for s in segments)
            assert location in record.segment.locations
            record._value = None  # force a read of the segment's bytes
            assert record.value == value
        assert arena.live_bytes == sum(
            len(k) + len(v) for k, (_, v) in self.live.items()
        )
        assert arena.live_bytes == sum(s.acct_live for s in segments)
        assert arena.dead_bytes == sum(s.acct_used - s.acct_live for s in segments)
        assert arena.claimed_bytes == sum(len(s.buf) for s in segments)


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
    small enough that passes evict, relocate the same record repeatedly
    and drop jumbo segments; the touched log is harvested across them."""

    @settings(max_examples=150, deadline=None)
    @given(_ARENA_OPS)
    def test_fuzz(self, ops):
        model = ArenaModel(LogValueArena(1536, segment_bytes=256))
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
            if model.arena.needs_maintenance and step % 3 == 0:
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
        arena = LogValueArena(64 << 20, segment_bytes=1 << 18)
        keys = [b"key-%027d" % i for i in range(n)]
        locations = arena.multi_allocate_kv(keys, [b"v" * 256] * n)
        loaded = arena.stats.allocations
        passes = 0
        for op in range(1, 4 * n + 1):
            i = rng.randrange(n)
            arena.discard(locations[i])
            locations[i] = arena.allocate_kv(keys[i], b"w" * 256)[0]
            if op % every == 0 and arena.needs_maintenance:
                assert arena.compact() == []
                passes += 1
                held = arena.live_bytes + arena.dead_bytes
                assert arena.dead_bytes <= 0.30 * held
                assert not arena.needs_maintenance
        assert passes >= 3
        replaces = arena.stats.allocations - loaded
        assert arena.stats.relocations / replaces <= bound
        assert len(arena) == n


# ----------------------------------------------------------- store on log


class TestStoreOnLogArena:
    def test_set_get_delete_replace(self):
        store = KVStore(1 << 20, 1024)  # log arena is the default heap
        assert isinstance(store.heap, LogValueArena)
        outcome = store.set(b"k", b"v1")
        assert outcome.evicted is None and outcome.replaced is None
        assert store.get(b"k") == b"v1"
        outcome = store.set(b"k", b"v2")
        assert outcome.evicted is None
        assert outcome.replaced is not None
        assert outcome.index_deletes == 1
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
                assert key not in store._key_location
            else:
                assert value == b"x" * 100
                hits += 1
        assert hits == 700 - evictions

    def test_maintenance_noop_on_slab(self):
        store = KVStore(1 << 20, 1024, heap=SlabAllocator(1 << 20))
        assert not store.needs_maintenance
        assert store.maintenance() == 0

    def test_populate_stops_at_index_capacity_on_log(self):
        store = KVStore(1 << 20, 64)
        items = [(b"key-%08d" % i, b"x" * 8) for i in range(10000)]
        stored = store.populate(items)
        assert 0 < stored < 10000


class TestStaleMappingRegression:
    @pytest.mark.parametrize("heap", ["slab", "log"])
    def test_failed_replace_drops_mapping(self, heap):
        store = KVStore(
            memory_bytes=1 << 20, expected_objects=256, heap=heap_named(heap, 1 << 20)
        )
        store.set(b"k", b"small")
        with pytest.raises(CapacityError):
            store.set(b"k", b"x" * (2 << 20))  # exceeds the whole budget
        # The old version was freed before the allocation failed: every
        # reference must be gone, not left dangling at a freed location.
        assert b"k" not in store._key_location
        assert store.key_compare(b"k", store.index_search(b"k")) is None
        assert store.get(b"k") is None
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


# -------------------------------------------------- slab-vs-log equivalence


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
        """With no capacity pressure the two heaps are indistinguishable.

        8 MiB funds a slab page for every size class the 0-64 B values
        can touch, so neither heap ever evicts or rejects.
        """
        slab_store = KVStore(8 << 20, 1024, heap=SlabAllocator(8 << 20))
        log_store = KVStore(8 << 20, 1024)
        for op, kid, value in ops:
            key = b"key-%02d" % kid
            if op == "set":
                s = slab_store.set(key, value)
                l = log_store.set(key, value)
                assert (s.replaced is None) == (l.replaced is None)
                assert s.evicted is None and l.evicted is None
            elif op == "get":
                assert slab_store.get(key) == log_store.get(key)
            else:
                assert slab_store.delete(key) == log_store.delete(key)
        # Compaction must not change observable state either.
        log_store.heap.compact()
        for kid in range(16):
            key = b"key-%02d" % kid
            assert slab_store.get(key) == log_store.get(key)
        assert len(slab_store) == len(log_store)

    @given(data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_capacity_saturation_parity(self, data):
        """Both heaps stop a bulk load at the same item under saturation.

        Small items all land in the 32 B slab class (8 B key + 9-20 B
        value), far below its chunk count, so neither heap evicts; the
        poison item exceeds the whole 1 MiB budget, so the slab (its class
        full-and-empty after the one affordable page went to the small
        class) and the log (object bigger than the budget) must both
        raise at exactly its position.
        """
        n = data.draw(st.integers(2, 120))
        poison_at = data.draw(st.integers(1, n - 1))
        vlens = data.draw(
            st.lists(st.integers(9, 20), min_size=n, max_size=n)
        )
        items = [(b"key-%04d" % i, b"x" * vlens[i]) for i in range(n)]
        items[poison_at] = (b"poison", b"x" * (2 << 20))
        slab_store = KVStore(1 << 20, 4096, heap=SlabAllocator(1 << 20))
        log_store = KVStore(1 << 20, 4096)
        assert slab_store.populate(items) == poison_at
        assert log_store.populate(items) == poison_at
        for key, value in items[:poison_at]:
            assert slab_store.get(key) == value
            assert log_store.get(key) == value
        assert slab_store.get(b"poison") is None
        assert log_store.get(b"poison") is None
        assert len(slab_store) == len(log_store) == poison_at

    def test_bulk_set_columns_saturation_parity(self):
        keys = [b"key-%04d" % i for i in range(64)]
        values = [b"x" * 8] * 64
        values[40] = b"x" * (2 << 20)
        slab_store = KVStore(1 << 20, 4096, heap=SlabAllocator(1 << 20))
        log_store = KVStore(1 << 20, 4096)
        assert slab_store.bulk_set_columns(keys, values) == 40
        assert log_store.bulk_set_columns(keys, values) == 40
        for key in keys[:40]:
            assert slab_store.get(key) == log_store.get(key) == b"x" * 8


# ------------------------------------------------- engines on the log


def run_batch(engine, store, queries):
    """One batch through ``engine``; returns (plane, (status, value) rows)."""
    plane = BatchPlane(list(queries))
    engine.run(store, PLAN, plane)
    return plane, [(r.status, r.value) for r in plane.take_responses()]


class TestReassignFusionThroughEngines:
    """Replace-heavy batches on the log arena settle each SET's
    Insert+Delete pair as one in-place slot rewrite at MM time
    (``CuckooHashTable.reassign_prehashed``); results must stay identical
    to the scalar reference path, which never fuses."""

    @pytest.mark.parametrize("engine_cls", [SerialEngine, VectorEngine])
    def test_replaces_settle_in_place_with_identical_results(self, engine_cls):
        store = KVStore(8 << 20, 4096)
        reference = KVStore(8 << 20, 4096, heap=SlabAllocator(8 << 20))
        keys = [f"key-{i:04d}".encode() for i in range(256)]
        for s in (store, reference):
            s.populate([(k, b"seed") for k in keys])
        assert store.index.stats.reassigns == 0
        batch = [
            Query(QueryType.SET, k, b"v2-%s" % k) for k in keys
        ] + [Query(QueryType.GET, k) for k in keys]
        _, rows = run_batch(engine_cls(), store, batch)
        _, ref_rows = run_batch(ReferenceEngine(), reference, batch)
        assert rows == ref_rows
        # Every SET replaced a prefilled key whose entry was live, so the
        # whole batch's index writes were fused reassigns.
        assert store.index.stats.reassigns == len(keys)
        assert reference.index.stats.reassigns == 0

    def test_fresh_keys_do_not_fuse(self):
        store = KVStore(8 << 20, 4096)
        batch = [Query(QueryType.SET, f"new-{i}".encode(), b"v") for i in range(64)]
        _, rows = run_batch(VectorEngine(), store, batch)
        assert all(status is ResponseStatus.STORED for status, _ in rows)
        assert store.index.stats.reassigns == 0
        assert all(store.get(f"new-{i}".encode()) == b"v" for i in range(64))

    def test_in_batch_duplicate_then_delete_stays_consistent(self):
        """A SET whose old version is still pending in the same batch falls
        back to the queued pair; a trailing DELETE leaves no trace."""
        store = KVStore(8 << 20, 4096)
        reference = KVStore(8 << 20, 4096, heap=SlabAllocator(8 << 20))
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
