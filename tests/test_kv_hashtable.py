"""Unit tests for the cuckoo hash table index."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.kv.hashtable import CuckooHashTable
from repro.kv.objects import key_signature


def make_table(buckets=256, **kwargs):
    return CuckooHashTable(num_buckets=buckets, **kwargs)


class TestConstruction:
    def test_rounds_buckets_to_power_of_two(self):
        table = make_table(buckets=100)
        assert table.num_buckets == 128

    def test_rejects_nonpositive_buckets(self):
        with pytest.raises(ConfigurationError):
            CuckooHashTable(num_buckets=0)

    def test_rejects_single_hash(self):
        with pytest.raises(ConfigurationError):
            CuckooHashTable(num_buckets=16, num_hashes=1)

    def test_slot_arrays_are_the_only_copy(self):
        """The table at the serving benchmark's size (32768 buckets, 131,072
        slots) allocates its two slot arrays, 1.5 MB, and not a second
        per-slot representation beside them."""
        tracemalloc.start()
        try:
            table = CuckooHashTable(num_buckets=32768)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.capacity == 131072
        assert allocated < 4 << 20

    def test_rejects_bad_slots(self):
        with pytest.raises(ConfigurationError):
            CuckooHashTable(num_buckets=16, slots_per_bucket=0)

    def test_capacity(self):
        table = make_table(buckets=64)
        assert table.capacity == 64 * table.slots_per_bucket

    def test_expected_search_buckets_two_hashes(self):
        assert make_table().expected_search_buckets() == pytest.approx(1.5)

    def test_expected_search_buckets_three_hashes(self):
        table = make_table(num_hashes=3)
        assert table.expected_search_buckets() == pytest.approx(2.0)


class TestInsertSearch:
    def test_insert_then_search_finds_location(self):
        table = make_table()
        table.insert(b"alpha", 42)
        candidates, _ = table.search(b"alpha")
        assert 42 in candidates

    def test_search_missing_returns_empty(self):
        table = make_table()
        candidates, buckets = table.search(b"nothing")
        assert candidates == []
        assert buckets == table.num_hashes  # probed every candidate bucket

    def test_search_short_circuits_on_first_bucket(self):
        table = make_table()
        table.insert(b"alpha", 1)
        _, buckets = table.search(b"alpha")
        assert buckets >= 1

    def test_len_tracks_inserts(self):
        table = make_table()
        for i in range(10):
            table.insert(f"key-{i}".encode(), i)
        assert len(table) == 10

    def test_many_inserts_all_findable(self):
        table = make_table(buckets=1024)
        keys = [f"key-{i}".encode() for i in range(1500)]
        for i, key in enumerate(keys):
            table.insert(key, i)
        for i, key in enumerate(keys):
            candidates, _ = table.search(key)
            assert i in candidates, f"lost {key!r}"

    def test_rejects_negative_location(self):
        with pytest.raises(ConfigurationError):
            make_table().insert(b"k", -5)

    def test_insert_returns_buckets_written(self):
        table = make_table()
        writes = table.insert(b"k", 0)
        assert writes >= 1

    def test_stats_count_operations(self):
        table = make_table()
        table.insert(b"a", 1)
        table.search(b"a")
        table.delete(b"a")
        assert table.stats.inserts == 1
        assert table.stats.searches == 1
        assert table.stats.deletes == 1

    def test_average_insert_buckets_positive(self):
        table = make_table(buckets=128)
        for i in range(200):
            table.insert(f"k{i}".encode(), i)
        assert table.stats.average_insert_buckets() >= 1.0

    def test_average_search_buckets_in_range(self):
        table = make_table(buckets=512)
        for i in range(400):
            table.insert(f"k{i}".encode(), i)
        for i in range(400):
            table.search(f"k{i}".encode())
        avg = table.stats.average_search_buckets()
        assert 1.0 <= avg <= table.num_hashes


class TestDelete:
    def test_delete_removes_entry(self):
        table = make_table()
        table.insert(b"alpha", 7)
        assert table.delete(b"alpha")
        candidates, _ = table.search(b"alpha")
        assert 7 not in candidates

    def test_delete_missing_returns_false(self):
        table = make_table()
        assert not table.delete(b"ghost")

    def test_delete_specific_location(self):
        table = make_table()
        table.insert(b"dup", 1)
        table.insert(b"dup", 2)
        assert table.delete(b"dup", location=1)
        candidates, _ = table.search(b"dup")
        assert 1 not in candidates
        assert 2 in candidates

    def test_delete_wrong_location_scans(self):
        table = make_table()
        table.insert(b"k", 5)
        # Deleting with a location that exists nowhere fails cleanly.
        assert not table.delete(b"k", location=999)

    def test_delete_updates_len(self):
        table = make_table()
        table.insert(b"a", 1)
        table.delete(b"a")
        assert len(table) == 0


class TestReassign:
    def test_reassign_counts_the_insert_delete_pair(self):
        """A replace keeps its key's directory row and writes no slot, but
        counts as the paper's one-Insert-one-Delete SET pair."""
        table = make_table()
        table.insert(b"k", 1)
        before = (table.stats.inserts, table.stats.deletes, table.stats.insert_bucket_writes)
        entries = table.entries()
        table.stats.count_replaces(3)
        after = (table.stats.inserts, table.stats.deletes, table.stats.insert_bucket_writes)
        assert after == tuple(count + 3 for count in before)
        assert table.stats.reassigns == 3
        assert table.entries() == entries and len(table) == 1


class TestDisplacement:
    def test_kicks_preserve_reachability_at_high_load(self):
        table = CuckooHashTable(num_buckets=64, slots_per_bucket=4)
        stored = {}
        try:
            for i in range(int(table.capacity * 0.9)):
                key = f"key-{i}".encode()
                table.insert(key, i)
                stored[key] = i
        except CapacityError:
            pass  # near-capacity failure is legitimate cuckoo behaviour
        assert table.kicked
        # Every stored key stays reachable by Search: a kicked entry sits
        # in one of its key's displaced buckets, which a miss goes on to.
        for key, loc in stored.items():
            assert loc in table.search(key)[0], f"{key!r} is unreachable"

    def test_capacity_error_at_overload(self):
        table = CuckooHashTable(num_buckets=4, slots_per_bucket=2, max_kicks=8)
        with pytest.raises(CapacityError):
            for i in range(100):
                table.insert(f"key-{i}".encode(), i)

    def test_failed_insert_counted(self):
        table = CuckooHashTable(num_buckets=4, slots_per_bucket=2, max_kicks=8)
        try:
            for i in range(100):
                table.insert(f"key-{i}".encode(), i)
        except CapacityError:
            pass
        assert table.stats.failed_inserts == 1

    def test_failed_insert_loses_no_earlier_entry(self):
        """A kick chain that runs out puts every displaced entry back: the
        failed key alone is missing, and every earlier key is still found."""
        table = CuckooHashTable(num_buckets=4, slots_per_bucket=2, max_kicks=8)
        stored = {}
        for i in range(100):
            key = f"key-{i}".encode()
            before, count = sorted(table.entries()), len(table)
            try:
                table.insert(key, i)
            except CapacityError:
                break
            stored[key] = i
        else:
            pytest.fail("the table never filled")
        assert sorted(table.entries()) == before
        assert len(table) == count == len(stored)
        for key, loc in stored.items():
            assert loc in table.search(key)[0], f"{key!r} was lost"
        in_arrays = [
            (int(sig), int(loc))
            for sig, loc in zip(table.signatures.ravel(), table.locations.ravel())
            if loc != -1
        ]
        assert sorted(in_arrays) == before

    def test_load_factor(self):
        table = make_table(buckets=64)
        for i in range(32):
            table.insert(f"k{i}".encode(), i)
        assert table.load_factor == pytest.approx(32 / table.capacity)


class _RecordingSlots:
    """Installs itself over a table's two flat slot views, remembering
    which buckets were read and whether anything read a whole view."""

    def __init__(self, table):
        self.read: list[int] = []
        self.walked = False
        self.width = table.slots_per_bucket
        table._sig_slots = _RecordingView(table._sig_slots, self)
        table._loc_slots = _RecordingView(table._loc_slots, self)


class _RecordingView:
    """One flat slot view: each item read is recorded as its bucket
    (``i // slots_per_bucket``; a one-bucket slice as the bucket it
    covers), and any read wider than a bucket flags a walk."""

    def __init__(self, view, recording):
        self.view = view
        self.recording = recording

    def __getitem__(self, i):
        recording = self.recording
        if isinstance(i, slice):
            first, last = i.start, i.stop - 1
            if first is None or first // recording.width != last // recording.width:
                recording.walked = True
            i_bucket = first or 0
        else:
            i_bucket = i
        recording.read.append(i_bucket // recording.width)
        return self.view[i]

    def __setitem__(self, i, value):
        self.view[i] = value

    def __iter__(self):
        self.recording.walked = True
        return iter(self.view)

    def tolist(self):
        self.recording.walked = True
        return self.view.tolist()


class TestKickedEntries:
    """An entry displaced by another key's insert lands in
    ``bucket ^ h(signature)``; every operation must still reach it."""

    @staticmethod
    def loaded_table():
        table = CuckooHashTable(num_buckets=64, slots_per_bucket=4)
        stored = {}
        for i in range(int(table.capacity * 0.9)):
            key = f"key-{i}".encode()
            table.insert(key, i)
            stored[key] = i
        return table, stored

    @classmethod
    def displaced_keys(cls, table, stored):
        """Keys whose entry is in none of their candidate buckets."""
        out = []
        for key, location in stored.items():
            signature, buckets = table.probe(key)
            home = any(
                int(table.locations[bucket, s]) == location
                and int(table.signatures[bucket, s]) == signature
                for bucket in buckets
                for s in range(table.slots_per_bucket)
            )
            if not home:
                out.append(key)
        return out

    def test_displaced_buckets_is_an_involution(self):
        table = make_table(buckets=256)
        signature, buckets = table.probe(b"some-key")
        twins = table.displaced_buckets(signature, buckets)
        assert all(0 <= twin < table.num_buckets for twin in twins)
        assert table.displaced_buckets(signature, twins) == buckets

    def test_displaced_bucket_columns_match_the_row_walk(self):
        """The one-pass twins equal ``displaced_buckets`` row for row, for
        random signatures over the whole 32-bit range and random rows."""
        table = make_table(buckets=1 << 12)
        rng = np.random.default_rng(3)
        signatures = rng.integers(0, 1 << 32, size=500, dtype=np.uint64).astype(np.uint32)
        buckets = rng.integers(0, table.num_buckets, size=(500, 2), dtype=np.int64)
        twins = table.displaced_bucket_columns(signatures, buckets)
        assert twins.tolist() == [
            table.displaced_buckets(signature, row)
            for signature, row in zip(signatures.tolist(), buckets.tolist())
        ]

    def test_unkicked_table_probes_only_candidates(self):
        table = make_table(buckets=256)
        table.insert(b"present", 1)
        assert not table.kicked
        assert table.search(b"absent") == ([], 2)

    def test_search_and_multi_search_find_displaced_entries(self):
        table, stored = self.loaded_table()
        displaced = self.displaced_keys(table, stored)
        assert displaced  # the load actually kicked entries out of home
        for key in displaced:
            candidates, reads = table.search(key)
            assert stored[key] in candidates
            assert 2 < reads <= 4
        found = table.multi_search(displaced)
        assert all(stored[k] in c for k, c in zip(displaced, found))

    def test_delete_of_displaced_entry_writes_one_slot_scans_no_table(self):
        table, stored = self.loaded_table()
        key = self.displaced_keys(table, stored)[0]
        signature, buckets = table.probe(key)
        allowed = set(buckets) | set(table.displaced_buckets(signature, buckets))
        versions = [table.bucket_version(b) for b in range(table.num_buckets)]
        recording = _RecordingSlots(table)
        count = len(table)
        assert table.delete(key, stored[key])
        assert not recording.walked
        assert set(recording.read) <= allowed
        bumped = [
            b
            for b in range(table.num_buckets)
            if table.bucket_version(b) != versions[b]
        ]
        assert len(bumped) == 1 and bumped[0] in allowed
        assert table.bucket_version(bumped[0]) == versions[bumped[0]] + 1
        assert len(table) == count - 1
        assert stored[key] not in table.search(key)[0]

    def test_delete_miss_in_kicked_table_scans_no_table(self):
        table, stored = self.loaded_table()
        recording = _RecordingSlots(table)
        for i in range(50):
            assert not table.delete(b"never-stored-%d" % i, 12345)
        assert not recording.walked
        assert len(recording.read) <= 50 * 4


class TestVersioning:
    def test_write_bumps_bucket_version(self):
        table = make_table()
        key = b"versioned"
        bucket = table.candidate_buckets(key)[0]
        before = table.bucket_version(bucket)
        table.insert(key, 3)
        # Some candidate bucket's version moved.
        after = [table.bucket_version(b) for b in table.candidate_buckets(key)]
        assert any(v > before or v > 0 for v in after)

    def test_search_does_not_bump_version(self):
        table = make_table()
        table.insert(b"k", 1)
        versions = [table.bucket_version(i) for i in range(table.num_buckets)]
        table.search(b"k")
        assert versions == [table.bucket_version(i) for i in range(table.num_buckets)]


class TestSignatureSemantics:
    def test_candidates_are_signature_matches(self):
        table = make_table()
        table.insert(b"key-A", 10)
        candidates, _ = table.search(b"key-A")
        assert candidates == [10]

    def test_entries_lists_all(self):
        table = make_table()
        table.insert(b"a", 1)
        table.insert(b"b", 2)
        entries = table.entries()
        assert (key_signature(b"a"), 1) in entries
        assert (key_signature(b"b"), 2) in entries
