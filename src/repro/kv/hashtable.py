"""Cuckoo hash table index, the IN-task data structure.

DIDO (like Mega-KV) indexes objects with a cuckoo hash table [Pagh &
Rodler]: ``num_hashes`` bucket choices per key, multi-slot buckets, and
displacement ("kicking") on insert.  Buckets store ``(signature, location)``
pairs rather than full keys, so a Search may return a false candidate that
the KC task later rejects — the table exposes signature-level search and the
store layer performs full-key verification.

Concurrency in the real system uses atomic compare-exchange for writes and
atomic loads for reads (paper Section III-B2).  This reproduction executes
pipeline stages deterministically, but the table keeps a per-bucket version
counter mimicking a seqlock so tests can assert the write-visibility
protocol, and all mutations go through single "atomic" bucket-slot updates.

Cost accounting: every operation returns the number of bucket reads/writes
it performed, which the simulator converts into memory accesses — this is
the runtime measurement the paper uses to estimate Insert cost ("we
calculate the average number of accessed buckets for an Insert operation at
runtime", Section IV-B).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as _np

from repro.errors import CapacityError, ConfigurationError
from repro.kv.objects import fnv1a64, key_signature

#: Slots per bucket; 4-way set-associativity is the common choice in
#: Mega-KV-like stores (one bucket per 32-byte index line on the GPU).
DEFAULT_SLOTS_PER_BUCKET = 4

#: Displacement chain limit before the insert is declared failed.
DEFAULT_MAX_KICKS = 64

#: Sentinel location meaning "slot empty".
EMPTY = -1


@dataclass
class IndexStats:
    """Running counters for index operations and their bucket traffic."""

    searches: int = 0
    inserts: int = 0
    deletes: int = 0
    search_bucket_reads: int = 0
    insert_bucket_writes: int = 0
    insert_kicks: int = 0
    failed_inserts: int = 0
    #: Insert+Delete pairs settled as one in-place slot rewrite (each also
    #: counts once in ``inserts`` and once in ``deletes``).
    reassigns: int = 0

    def average_insert_buckets(self) -> float:
        """Average buckets written per insert — the paper's runtime estimate
        of amortised Insert cost."""
        if self.inserts == 0:
            return 0.0
        return self.insert_bucket_writes / self.inserts

    def average_search_buckets(self) -> float:
        """Average buckets read per search; ~(n+1)/2 for n hash functions."""
        if self.searches == 0:
            return 0.0
        return self.search_bucket_reads / self.searches


@dataclass
class _Slot:
    signature: int = 0
    location: int = EMPTY


class SignatureMirror:
    """Struct-of-arrays copy of the table's ``(signature, location)`` slots.

    The vector engine's batched Search matches whole signature columns with
    one NumPy broadcast instead of probing bucket lists slot by slot — the
    coupled-architecture analogue of Mega-KV keeping its compact index in
    GPU-friendly arrays.  The table itself remains authoritative: every
    slot write goes through :meth:`CuckooHashTable._write_slot`, which
    updates both representations, so the mirror can never drift (the fuzz
    test in ``tests/test_vector_engine.py`` pins this down).
    """

    __slots__ = ("signatures", "locations")

    def __init__(self, buckets: list[list[_Slot]], slots_per_bucket: int):
        num_buckets = len(buckets)
        self.signatures = _np.zeros((num_buckets, slots_per_bucket), dtype=_np.uint32)
        self.locations = _np.full((num_buckets, slots_per_bucket), EMPTY, dtype=_np.int64)
        for bucket_idx, bucket in enumerate(buckets):
            for slot_idx, slot in enumerate(bucket):
                if slot.location != EMPTY:
                    self.signatures[bucket_idx, slot_idx] = slot.signature
                    self.locations[bucket_idx, slot_idx] = slot.location

    def write(self, bucket_idx: int, slot_idx: int, signature: int, location: int) -> None:
        self.signatures[bucket_idx, slot_idx] = signature
        self.locations[bucket_idx, slot_idx] = location


class CuckooHashTable:
    """Signature-indexed cuckoo hash table mapping keys to object locations.

    Parameters
    ----------
    num_buckets:
        Bucket count; rounded up to a power of two for mask indexing.
    num_hashes:
        Alternative bucket choices per key (the paper's ``n``; 2 matches
        Mega-KV).
    slots_per_bucket:
        Entries per bucket.
    max_kicks:
        Displacement chain limit; exceeding it raises :class:`CapacityError`.
    """

    def __init__(
        self,
        num_buckets: int,
        num_hashes: int = 2,
        slots_per_bucket: int = DEFAULT_SLOTS_PER_BUCKET,
        max_kicks: int = DEFAULT_MAX_KICKS,
    ):
        if num_buckets <= 0:
            raise ConfigurationError("num_buckets must be positive")
        if num_hashes < 2:
            raise ConfigurationError("cuckoo hashing needs at least 2 hash functions")
        if slots_per_bucket <= 0 or max_kicks <= 0:
            raise ConfigurationError("slots_per_bucket and max_kicks must be positive")
        size = 1
        while size < num_buckets:
            size <<= 1
        self._mask = size - 1
        self._num_hashes = num_hashes
        self._slots_per_bucket = slots_per_bucket
        self._max_kicks = max_kicks
        self._buckets: list[list[_Slot]] = [
            [_Slot() for _ in range(slots_per_bucket)] for _ in range(size)
        ]
        self._versions = [0] * size
        self._count = 0
        #: Set (and never cleared) by the first cuckoo kick: from then on a
        #: miss in a key's candidate buckets goes on to its
        #: :meth:`displaced_buckets`.
        self.kicked = False
        self.stats = IndexStats()
        # Probe specs are a pure function of the key and the (fixed) table
        # geometry, so they can be cached indefinitely; kept as a bounded
        # LRU so long-running servers under key churn hold only the hot
        # working set instead of leaking one entry per distinct key ever
        # seen.
        self._probe_cache: OrderedDict[bytes, tuple[int, list[int]]] = OrderedDict()
        self._probe_cache_cap = 1 << 17
        self._mirror: SignatureMirror | None = None

    # ------------------------------------------------------------------ info

    @property
    def num_buckets(self) -> int:
        return self._mask + 1

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    @property
    def slots_per_bucket(self) -> int:
        return self._slots_per_bucket

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        """Total slots across all buckets."""
        return self.num_buckets * self._slots_per_bucket

    @property
    def load_factor(self) -> float:
        return self._count / self.capacity

    def bucket_version(self, index: int) -> int:
        """Seqlock-style version of bucket ``index`` (bumped on every write)."""
        return self._versions[index & self._mask]

    def expected_search_buckets(self) -> float:
        """Theoretical average buckets probed per search:
        ``(sum_{i=1..n} i) / n`` for ``n`` hash functions (paper Section
        IV-B)."""
        n = self._num_hashes
        return sum(range(1, n + 1)) / n

    # --------------------------------------------------------------- hashing

    def _bucket_index(self, key: bytes, which: int) -> int:
        return fnv1a64(key, seed=which + 1) & self._mask

    def candidate_buckets(self, key: bytes) -> list[int]:
        """All bucket indices where ``key`` may reside, in probe order."""
        return [self._bucket_index(key, i) for i in range(self._num_hashes)]

    def displaced_buckets(self, signature: int, buckets: list[int]) -> list[int]:
        """Where a cuckoo kick may have moved an entry of ``signature``.

        A kick moves the entry it displaces from bucket ``b`` to
        ``b ^ h(signature)`` (the key is not stored, so the alternative is
        derived from the signature).  The XOR is an involution — a second
        kick moves the entry back to ``b`` — so an entry is always either in
        one of its key's candidate ``buckets`` or in exactly these.
        """
        delta = fnv1a64(signature.to_bytes(4, "little")) & self._mask
        return [bucket ^ delta for bucket in buckets]

    def probe(self, key: bytes) -> tuple[int, list[int]]:
        """Precomputed probe spec: ``(signature, candidate bucket indices)``.

        The batch engine computes this once per distinct key per batch (as
        Mega-KV computes signatures during packet processing and ships them
        with the job) and feeds the ``*_prehashed`` operations, instead of
        re-hashing the key inside every index operation.
        """
        return key_signature(key), self.candidate_buckets(key)

    def probe_cached(self, key: bytes) -> tuple[int, list[int]]:
        """:meth:`probe` through the table's persistent LRU probe cache.

        Hot keys under skewed workloads recur across batches; caching their
        probe specs makes repeat index operations hash-free.  The cache is
        a true LRU bounded at ``_probe_cache_cap`` entries: a hit refreshes
        the key, a miss at capacity evicts the least-recently-used spec —
        so unbounded key churn recycles cold entries instead of growing the
        cache (or dropping the hot set wholesale) forever.
        """
        cache = self._probe_cache
        spec = cache.get(key)
        if spec is None:
            if len(cache) >= self._probe_cache_cap:
                cache.popitem(last=False)
            spec = cache[key] = self.probe(key)
        else:
            cache.move_to_end(key)
        return spec

    # ----------------------------------------------------- signature mirror

    @property
    def mirror(self) -> SignatureMirror | None:
        """The NumPy signature mirror, if one has been attached."""
        return self._mirror

    def ensure_mirror(self) -> SignatureMirror:
        """Attach (or return) the NumPy mirror of the slot arrays.

        Built once from the authoritative buckets; afterwards every
        :meth:`_write_slot` updates both representations.
        """
        if self._mirror is None:
            self._mirror = SignatureMirror(self._buckets, self._slots_per_bucket)
        return self._mirror

    # ------------------------------------------------------------ operations

    def search(self, key: bytes) -> tuple[list[int], int]:
        """Signature search for ``key``.

        Returns ``(candidate_locations, buckets_read)``.  Candidates are all
        locations whose slot signature matches — full-key comparison (the KC
        task) must confirm which, if any, is the real match.  Buckets are
        probed in order and probing stops at the first bucket containing a
        matching signature, modelling the short-circuit a real
        implementation performs.
        """
        return self.search_prehashed(*self.probe_cached(key))

    def search_prehashed(self, signature: int, buckets: list[int]) -> tuple[list[int], int]:
        """:meth:`search` with the key's probe spec already computed."""
        candidates, buckets_read = self._lookup(signature, buckets)
        stats = self.stats
        stats.searches += 1
        stats.search_bucket_reads += buckets_read
        return candidates, buckets_read

    def _lookup(self, signature: int, buckets: list[int]) -> tuple[list[int], int]:
        """``(candidate locations, buckets read)`` for one probe spec.

        Once any insert has kicked, a miss in the candidate buckets goes on
        to the key's :meth:`displaced_buckets`, so an entry displaced by
        another key's insert is still found.
        """
        candidates, buckets_read = self._scan(signature, buckets)
        if not candidates and self.kicked:
            candidates, more = self._scan(
                signature, self.displaced_buckets(signature, buckets)
            )
            buckets_read += more
        return candidates, buckets_read

    def _scan(self, signature: int, buckets: list[int]) -> tuple[list[int], int]:
        """Locations matching ``signature`` in the first bucket that has any."""
        table = self._buckets
        buckets_read = 0
        for bucket_idx in buckets:
            buckets_read += 1
            found = [
                s.location
                for s in table[bucket_idx]
                if s.location != EMPTY and s.signature == signature
            ]
            if found:
                return found, buckets_read
        return [], buckets_read

    def multi_search(self, keys: list[bytes]) -> list[list[int]]:
        """Bulk search: candidate locations per key, in input order.

        One tight loop inside the table (probe specs via the persistent
        cache, stats updated in aggregate); each element is exactly what
        ``search(key)[0]`` would return.
        """
        probe = self.probe_cached
        lookup = self._lookup
        out: list[list[int]] = []
        append = out.append
        total_reads = 0
        for key in keys:
            candidates, buckets_read = lookup(*probe(key))
            total_reads += buckets_read
            append(candidates)
        stats = self.stats
        stats.searches += len(keys)
        stats.search_bucket_reads += total_reads
        return out

    def insert(self, key: bytes, location: int) -> int:
        """Insert ``key -> location``; returns buckets written.

        Duplicate signatures are allowed (two distinct keys may share one);
        inserting the *same* key again adds another entry — the store layer
        deletes the old entry first on overwrite, as Mega-KV does via its
        eviction-generated Delete.  Raises :class:`CapacityError` when the
        displacement chain exceeds ``max_kicks``.
        """
        if location < 0:
            raise ConfigurationError("location must be a non-negative slab offset")
        signature, buckets = self.probe_cached(key)
        return self.insert_prehashed(signature, buckets, location)

    def insert_prehashed(self, signature: int, buckets: list[int], location: int) -> int:
        """:meth:`insert` with the key's probe spec already computed."""
        if location < 0:
            raise ConfigurationError("location must be a non-negative slab offset")
        self.stats.inserts += 1
        writes = self._insert_signature(signature, location, buckets)
        self.stats.insert_bucket_writes += writes
        self._count += 1
        return writes

    def _insert_signature(self, signature: int, location: int, candidates: list[int]) -> int:
        writes = 0
        # Try an empty slot in any candidate bucket first.
        for bucket_idx in candidates:
            bucket = self._buckets[bucket_idx]
            for slot_idx, slot in enumerate(bucket):
                if slot.location == EMPTY:
                    self._write_slot(bucket_idx, slot_idx, signature, location)
                    return writes + 1
            writes += 1  # full bucket examined counts as a touch
        # All candidate buckets full: displace (kick) from the first one.
        victim_bucket = candidates[0]
        victim_slot_idx = (signature + location) % self._slots_per_bucket
        carried_sig, carried_loc = signature, location
        for kick in range(self._max_kicks):
            bucket = self._buckets[victim_bucket]
            slot = bucket[victim_slot_idx]
            evicted_sig, evicted_loc = slot.signature, slot.location
            self._write_slot(victim_bucket, victim_slot_idx, carried_sig, carried_loc)
            writes += 1
            self.stats.insert_kicks += 1
            if evicted_loc == EMPTY:
                return writes
            carried_sig, carried_loc = evicted_sig, evicted_loc
            # The evicted entry moves to its alternative bucket, derived
            # from the signature since the key is not stored.
            self.kicked = True
            (alt,) = self.displaced_buckets(carried_sig, [victim_bucket])
            placed = False
            for slot2_idx, slot2 in enumerate(self._buckets[alt]):
                if slot2.location == EMPTY:
                    self._write_slot(alt, slot2_idx, carried_sig, carried_loc)
                    writes += 1
                    placed = True
                    break
            if placed:
                return writes
            victim_bucket = alt
            victim_slot_idx = (carried_sig + kick) % self._slots_per_bucket
        self.stats.failed_inserts += 1
        raise CapacityError(
            f"cuckoo insert failed after {self._max_kicks} kicks "
            f"(load factor {self.load_factor:.2f})"
        )

    def reassign_prehashed(
        self,
        signature: int,
        buckets: list[int],
        old_location: int,
        new_location: int,
    ) -> bool:
        """Fused Delete+Insert for a replaced key: rewrite the slot in place.

        The steady-state SET generates one index Insert and one Delete for
        the *same* key (paper §II-C2), so both ops share one probe spec and
        — when the old entry is found — one slot: overwriting its location
        settles the pair in a single bucket scan instead of an
        empty-then-refill round trip.  Counts as one insert plus one delete
        in the stats (the modelled op pair is unchanged; ``reassigns``
        records the fusion).  Returns ``False`` when no entry matches
        ``(signature, old_location)`` — e.g. the old version's Insert is
        still pending in the current batch — and the caller falls back to
        the queued Delete + Insert pair.
        """
        if new_location < 0:
            raise ConfigurationError("location must be a non-negative slab offset")
        hit = self._find_slot(signature, buckets, old_location)
        if hit is None:
            return False
        self._rewrite_location(*hit, new_location)
        stats = self.stats
        stats.inserts += 1
        stats.deletes += 1
        stats.insert_bucket_writes += 1
        stats.reassigns += 1
        return True

    def _find_slot(
        self, signature: int, buckets: list[int], location: int | None
    ) -> tuple[int, int] | None:
        """``(bucket, slot)`` of the entry with ``signature`` (and, when
        given, ``location``): the candidate ``buckets`` first, then — once
        any insert has kicked — the :meth:`displaced_buckets`."""
        hit = self._match(signature, buckets, location)
        if hit is None and self.kicked:
            hit = self._match(
                signature, self.displaced_buckets(signature, buckets), location
            )
        return hit

    def _match(
        self, signature: int, buckets: list[int], location: int | None
    ) -> tuple[int, int] | None:
        table = self._buckets
        for bucket_idx in buckets:
            slot_idx = 0
            for slot in table[bucket_idx]:
                if slot.signature == signature and (
                    slot.location == location
                    or (location is None and slot.location != EMPTY)
                ):
                    return bucket_idx, slot_idx
                slot_idx += 1
        return None

    def delete(self, key: bytes, location: int | None = None) -> bool:
        """Remove the entry for ``key`` (optionally matching ``location``).

        Returns True when an entry was removed.  Probes the same buckets a
        search would.
        """
        return self.delete_prehashed(*self.probe_cached(key), location)

    def delete_prehashed(
        self, signature: int, buckets: list[int], location: int | None = None
    ) -> bool:
        """:meth:`delete` with the key's probe spec already computed."""
        self.stats.deletes += 1
        hit = self._find_slot(signature, buckets, location)
        if hit is None:
            return False
        self._write_slot(*hit, 0, EMPTY)
        self._count -= 1
        return True

    def _mirror_store(self, bucket_idx: int, slot_idx: int, signature: int, location: int) -> None:
        """The single mirror-write point for every slot mutation.

        Both writers (:meth:`_write_slot` and :meth:`_rewrite_location`)
        funnel through here, so mirror coherence is asserted in exactly one
        place.
        """
        if self._mirror is not None:
            self._mirror.write(bucket_idx, slot_idx, signature, location)

    def _rewrite_location(self, bucket_idx: int, slot_idx: int, location: int) -> None:
        """Slot rewrite for a reassign: the signature is unchanged, so only
        the location changes.  Version bump and mirror coherence go through
        the same :meth:`_mirror_store` point as :meth:`_write_slot`.
        """
        slot = self._buckets[bucket_idx][slot_idx]
        slot.location = location
        self._versions[bucket_idx] += 1
        self._mirror_store(bucket_idx, slot_idx, slot.signature, location)

    def _write_slot(self, bucket_idx: int, slot_idx: int, signature: int, location: int) -> None:
        """Single-slot "atomic compare-exchange" write with version bump.

        The one mutation point for slot state: the authoritative ``_Slot``
        and (when attached) the NumPy signature mirror are updated together
        via :meth:`_mirror_store`, so the two representations cannot
        diverge.
        """
        slot = self._buckets[bucket_idx][slot_idx]
        slot.signature = signature
        slot.location = location
        self._versions[bucket_idx] += 1
        self._mirror_store(bucket_idx, slot_idx, signature, location)

    # ------------------------------------------------------------- iteration

    def entries(self) -> list[tuple[int, int]]:
        """All ``(signature, location)`` pairs currently stored (test aid)."""
        out = []
        for bucket in self._buckets:
            for slot in bucket:
                if slot.location != EMPTY:
                    out.append((slot.signature, slot.location))
        return out
