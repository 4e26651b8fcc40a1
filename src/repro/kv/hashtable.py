"""Cuckoo hash table index, the IN-task data structure.

DIDO (like Mega-KV) indexes objects with a cuckoo hash table [Pagh &
Rodler]: ``num_hashes`` bucket choices per key, multi-slot buckets, and
displacement ("kicking") on insert.  Buckets store ``(signature, location)``
pairs rather than full keys — in the store, the location is the key's
directory row — so a Search may return a false candidate that the KC task
later rejects: the table exposes signature-level search and the store
layer verifies the candidate.

The slots are two NumPy arrays of shape ``(num_buckets, slots_per_bucket)``
— ``signatures`` (uint32) and ``locations`` (int64, :data:`EMPTY` when
free) — and nothing else: like the one index the CPU and GPU of a coupled
chip share, one copy serves both host kernels.  The vector engine's
columnar Search gathers from the arrays; the scalar walks here read and
write the same memory through flat ``memoryview`` objects, whose items are
plain Python ints, and every write goes through :meth:`_write_slot`.

A key's probe spec (signature plus candidate buckets) is a pure function
of the key and the table geometry: :meth:`~CuckooHashTable.probe` hashes
one key, :meth:`~CuckooHashTable.probe_columns` many at once in one
columnar FNV pass, and the ``*_prehashed`` operations take a spec computed
elsewhere.  The table keeps no spec: the store's key directory
(:class:`~repro.kv.store.KeyDirectory`) keeps each stored key's spec in a
row, so a key is hashed only while it holds none, and the key-level
:meth:`search`, :meth:`insert` and :meth:`delete` hash on every call.

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

from dataclasses import dataclass

import numpy as _np

from repro.errors import CapacityError, ConfigurationError
from repro.kv.objects import _SIGNATURE_MASK, fnv1a64, fnv_hash_columns, key_signature
from repro.kv.objects import _FNV_OFFSET, _FNV_PRIME

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
    #: Replaces: the key keeps its directory row, so no slot changes, but
    #: each counts as the modelled Insert+Delete pair (once in ``inserts``,
    #: ``deletes`` and ``insert_bucket_writes``).
    reassigns: int = 0

    def count_replaces(self, n: int) -> None:
        """Count ``n`` replaces as the paper's steady-state SET pair, one
        Insert (one bucket written) and one Delete each (§II-C2)."""
        self.inserts += n
        self.deletes += n
        self.insert_bucket_writes += n
        self.reassigns += n

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
        #: The table: slot ``s`` of bucket ``b`` is ``[b, s]`` of each array.
        self.signatures = _np.zeros((size, slots_per_bucket), dtype=_np.uint32)
        self.locations = _np.full((size, slots_per_bucket), EMPTY, dtype=_np.int64)
        # Flat views of the same memory for the scalar walks: slot
        # ``b * slots_per_bucket + s``, read and written as Python ints.
        self._sig_slots = memoryview(self.signatures.reshape(-1))
        self._loc_slots = memoryview(self.locations.reshape(-1))
        self._versions = [0] * size
        self._count = 0
        #: Set (and never cleared) by the first cuckoo kick: from then on a
        #: miss in a key's candidate buckets goes on to its
        #: :meth:`displaced_buckets`.
        self.kicked = False
        self.stats = IndexStats()

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

    def displaced_bucket_columns(self, signatures: _np.ndarray, buckets: _np.ndarray):
        """:meth:`displaced_buckets` of many rows in one NumPy pass: row
        ``i`` of the result is ``displaced_buckets(signatures[i],
        buckets[i])`` — FNV-1a over each signature's four little-endian
        bytes, masked and XORed into its row of ``buckets``."""
        words = signatures.astype(_np.uint64)
        delta = _np.full(len(words), _FNV_OFFSET, dtype=_np.uint64)
        for shift in (0, 8, 16, 24):
            byte = (words >> _np.uint64(shift)) & _np.uint64(0xFF)
            delta = (delta ^ byte) * _np.uint64(_FNV_PRIME)
        return buckets ^ (delta & _np.uint64(self._mask)).astype(buckets.dtype)[:, None]

    def probe(self, key: bytes) -> tuple[int, list[int]]:
        """Precomputed probe spec: ``(signature, candidate bucket indices)``.

        The ``*_prehashed`` operations take this spec instead of re-hashing
        the key inside every one — as Mega-KV computes signatures during
        packet processing and ships them with the job.  This is the scalar
        hash; :meth:`probe_columns` computes the same specs for many keys
        at once.
        """
        return key_signature(key), self.candidate_buckets(key)

    def probe_columns(self, keys: list[bytes]) -> tuple[_np.ndarray, _np.ndarray]:
        """:meth:`probe` of every key in one :func:`fnv_hash_columns` pass.

        Returns the signatures (``uint32``, one per key) and the candidate
        buckets (``int64``, one row of ``num_hashes`` per key), row ``i``
        equal to ``probe(keys[i])``.
        """
        states = fnv_hash_columns(keys, self._num_hashes + 1)
        signatures = (states[0] & _np.uint64(_SIGNATURE_MASK)).astype(_np.uint32)
        buckets = (states[1:] & _np.uint64(self._mask)).T.astype(_np.int64)
        return signatures, buckets

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
        return self.search_prehashed(*self.probe(key))

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
        sigs = self._sig_slots
        locs = self._loc_slots
        width = self._slots_per_bucket
        buckets_read = 0
        for bucket_idx in buckets:
            buckets_read += 1
            base = bucket_idx * width
            # One slice per bucket; locations are read only where it matches.
            row = sigs[base : base + width].tolist()
            if signature in row:
                if row.count(signature) == 1:
                    found = [locs[base + row.index(signature)]]
                else:
                    found = [locs[base + s] for s, sig in enumerate(row) if sig == signature]
                if EMPTY in found:  # an empty slot's signature is 0
                    found = [loc for loc in found if loc != EMPTY]
                if found:
                    return found, buckets_read
        return [], buckets_read

    def multi_search(self, keys: list[bytes]) -> list[list[int]]:
        """Bulk search: candidate locations per key, in input order; each
        element is exactly what ``search(key)[0]`` would return."""
        signatures, buckets = self.probe_columns(keys)
        return self.multi_search_prehashed(signatures.tolist(), buckets.tolist())

    def multi_search_prehashed(
        self, signatures: list[int], buckets: list[list[int]]
    ) -> list[list[int]]:
        """:meth:`multi_search` over probe specs already computed: one tight
        loop inside the table, stats updated in aggregate."""
        lookup = self._lookup
        out: list[list[int]] = []
        append = out.append
        total_reads = 0
        for signature, candidates in zip(signatures, buckets):
            found, buckets_read = lookup(signature, candidates)
            total_reads += buckets_read
            append(found)
        stats = self.stats
        stats.searches += len(signatures)
        stats.search_bucket_reads += total_reads
        return out

    def insert(self, key: bytes, location: int) -> int:
        """Insert ``key -> location``; returns buckets written.

        Duplicate signatures are allowed (two distinct keys may share one);
        inserting the *same* key again adds another entry — the store never
        does: a replace keeps the key's directory row, and with it the
        entry.  Raises :class:`CapacityError` when the
        displacement chain exceeds ``max_kicks``; the table is then as it
        was before the call.
        """
        if location < 0:
            raise ConfigurationError("location must be non-negative")
        signature, buckets = self.probe(key)
        return self.insert_prehashed(signature, buckets, location)

    def insert_prehashed(self, signature: int, buckets: list[int], location: int) -> int:
        """:meth:`insert` with the key's probe spec already computed."""
        if location < 0:
            raise ConfigurationError("location must be non-negative")
        self.stats.inserts += 1
        writes = self._insert_signature(signature, location, buckets)
        self.stats.insert_bucket_writes += writes
        self._count += 1
        return writes

    def _insert_signature(self, signature: int, location: int, candidates: list[int]) -> int:
        writes = 0
        # Try an empty slot in any candidate bucket first.
        for bucket_idx in candidates:
            slot_idx = self._free_slot(bucket_idx)
            if slot_idx >= 0:
                self._write_slot(bucket_idx, slot_idx, signature, location)
                return writes + 1
            writes += 1  # full bucket examined counts as a touch
        # All candidate buckets full: displace (kick) from the first one.
        victim_bucket = candidates[0]
        victim_slot_idx = (signature + location) % self._slots_per_bucket
        carried_sig, carried_loc = signature, location
        # Every overwritten victim slot with its old entry, so a failed
        # chain can put each displaced entry back (in reverse order).
        undo: list[tuple[int, int, int, int]] = []
        for kick in range(self._max_kicks):
            flat = victim_bucket * self._slots_per_bucket + victim_slot_idx
            evicted_sig, evicted_loc = self._sig_slots[flat], self._loc_slots[flat]
            undo.append((victim_bucket, victim_slot_idx, evicted_sig, evicted_loc))
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
            slot_idx = self._free_slot(alt)
            if slot_idx >= 0:
                self._write_slot(alt, slot_idx, carried_sig, carried_loc)
                return writes + 1
            victim_bucket = alt
            victim_slot_idx = (carried_sig + kick) % self._slots_per_bucket
        # The chain ran out still carrying an entry that was already
        # indexed: undo it, so a failed insert loses only its own entry.
        for bucket_idx, slot_idx, old_sig, old_loc in reversed(undo):
            self._write_slot(bucket_idx, slot_idx, old_sig, old_loc)
        self.stats.failed_inserts += 1
        raise CapacityError(
            f"cuckoo insert failed after {self._max_kicks} kicks "
            f"(load factor {self.load_factor:.2f})"
        )

    def _free_slot(self, bucket_idx: int) -> int:
        """The first empty slot of bucket ``bucket_idx``, or -1 when full."""
        base = bucket_idx * self._slots_per_bucket
        row = self._loc_slots[base : base + self._slots_per_bucket].tolist()
        return row.index(EMPTY) if EMPTY in row else -1

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
        sigs = self._sig_slots
        locs = self._loc_slots
        width = self._slots_per_bucket
        for bucket_idx in buckets:
            base = bucket_idx * width
            row = sigs[base : base + width].tolist()
            if signature not in row:
                continue
            for slot_idx, sig in enumerate(row):
                if sig == signature:
                    loc = locs[base + slot_idx]
                    if loc == location or (location is None and loc != EMPTY):
                        return bucket_idx, slot_idx
        return None

    def delete(self, key: bytes, location: int | None = None) -> bool:
        """Remove the entry for ``key`` (optionally matching ``location``).

        Returns True when an entry was removed.  Probes the same buckets a
        search would.
        """
        return self.delete_prehashed(*self.probe(key), location)

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

    def _write_slot(self, bucket_idx: int, slot_idx: int, signature: int, location: int) -> None:
        """Single-slot "atomic compare-exchange" write with version bump.

        The one writer of slot state: inserts, kicks and their undo, and
        deletes all land here.
        """
        flat = bucket_idx * self._slots_per_bucket + slot_idx
        self._sig_slots[flat] = signature
        self._loc_slots[flat] = location
        self._versions[bucket_idx] += 1

    # ------------------------------------------------------------- iteration

    def entries(self) -> list[tuple[int, int]]:
        """All ``(signature, location)`` pairs currently stored, in slot
        order (test aid)."""
        used = self.locations != EMPTY
        return list(zip(self.signatures[used].tolist(), self.locations[used].tolist()))
