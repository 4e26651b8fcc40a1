"""Delta index: batched cuckoo updates between write barriers.

FliX-style *flipped indexing* (PAPERS.md): instead of mutating the cuckoo
table (and its NumPy mirror) once per Insert/Delete/Reassign, the store
absorbs IN-phase index traffic into this small bounded delta table and
answers lookups delta-first, then main.  At write barriers — or the
server's idle maintenance tick, whichever hits the size/age threshold
first — the delta merges into :class:`~repro.kv.hashtable.CuckooHashTable`
in bulk via :meth:`~repro.kv.hashtable.CuckooHashTable.bulk_apply_prehashed`:
all distinct keys are hashed in one vectorized pass, deletes and reassigns
resolve with one mirror gather, and the mirror syncs with batched
fancy-indexed stores instead of one cell write per op.

The delta is an exact map keyed by full key bytes, so a delta hit returns
the one true location for that key (KC still verifies), a tombstone
suppresses the key's stale main entry until the merge lands, and a miss
falls through to the main table untouched — responses stay byte-identical
to a delta-less store; only index *statistics* (bucket reads, signature
false positives) may differ.

Each entry is ``key -> [final, main_old]``:

- ``final`` — the key's current location, or :data:`TOMBSTONE` when the
  newest absorbed op for the key is a delete;
- ``main_old`` — the location of the key's pre-existing **main-table**
  entry (to be deleted or reassigned at merge), or ``None`` when the
  binding never lived in main.

which classifies at merge time as::

    (TOMBSTONE, None) -> nothing   (born and died inside the delta)
    (TOMBSTONE, old)  -> DELETE    (sig, buckets, old)
    (loc,       None) -> INSERT    (sig, buckets, loc)
    (loc,       old)  -> REASSIGN  (sig, buckets, old -> loc)

Deletes that target neither the delta binding nor ``main_old`` (defensive;
the store's paths always supply the live location) are queued as *orphan*
deletes and applied as plain delete rows at merge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as _np

#: Sentinel ``final`` meaning "the newest absorbed op deleted this key".
TOMBSTONE = -2

#: Merge once this many distinct keys have been absorbed (checked at
#: write barriers and maintenance ticks).  Sized to span several batches:
#: re-SETs of a key between merges collapse onto one delta entry, so a
#: larger window amortises the merge over more absorbed ops (the age
#: trigger below still bounds how long a binding stays delta-only).
DEFAULT_MERGE_THRESHOLD = 16384

#: Hard high-water mark: an absorb that leaves the delta at or past this
#: size triggers a synchronous merge before the next operation.
DEFAULT_CAPACITY = 1 << 16

#: Merge a non-empty delta older than this even if small, so bindings do
#: not linger outside the main table across idle periods.
DEFAULT_MAX_AGE_S = 0.5


@dataclass
class DeltaStats:
    """Running counters for delta absorption and merges."""

    absorbed_inserts: int = 0
    absorbed_deletes: int = 0
    absorbed_reassigns: int = 0
    orphan_deletes: int = 0
    merges: int = 0
    merged_ops: int = 0


class DeltaIndex:
    """Bounded write-absorbing delta in front of a cuckoo hash table.

    Parameters
    ----------
    index:
        The main :class:`~repro.kv.hashtable.CuckooHashTable` (used for
        bulk probe specs at merge time; never mutated here).
    merge_threshold / capacity / max_age_s:
        Merge triggers — see the module defaults.
    """

    __slots__ = (
        "_index",
        "_map",
        "_orphans",
        "_sigs",
        "_sig_column",
        "_first_absorb",
        "merge_threshold",
        "capacity",
        "max_age_s",
        "stats",
    )

    def __init__(
        self,
        index,
        merge_threshold: int = DEFAULT_MERGE_THRESHOLD,
        capacity: int = DEFAULT_CAPACITY,
        max_age_s: float = DEFAULT_MAX_AGE_S,
    ):
        self._index = index
        self._map: dict[bytes, list] = {}
        self._orphans: list[tuple[bytes, int]] = []
        #: Signatures hashed in bulk for the sorted column; survive entry
        #: updates and are dropped when the merge lands.
        self._sigs: dict[bytes, int] = {}
        self._sig_column = None
        self._first_absorb: float | None = None
        self.merge_threshold = merge_threshold
        self.capacity = capacity
        self.max_age_s = max_age_s
        self.stats = DeltaStats()

    def __len__(self) -> int:
        return len(self._map)

    @property
    def pending_ops(self) -> int:
        """Entries plus orphan deletes awaiting the next merge."""
        return len(self._map) + len(self._orphans)

    @property
    def overflowed(self) -> bool:
        """Past the hard high-water mark: merge before the next op."""
        return len(self._map) >= self.capacity

    # ----------------------------------------------------------- absorption

    def _touch(self, key: bytes) -> None:
        if self._first_absorb is None:
            self._first_absorb = time.monotonic()
        self._sig_column = None

    def lookup(self, key: bytes):
        """Delta-first resolution for a Search.

        ``None`` — key not in the delta, fall through to the main table;
        ``[]`` — tombstoned here, suppress the (stale) main candidates;
        ``[location]`` — the key's current binding.
        """
        entry = self._map.get(key)
        if entry is None:
            return None
        final = entry[0]
        if final == TOMBSTONE:
            return []
        return [final]

    def insert(self, key: bytes, location: int) -> None:
        """Absorb an IN/Insert: the key's newest binding is ``location``."""
        entry = self._map.get(key)
        if entry is None:
            self._touch(key)
            self._map[key] = [location, None]
        else:
            # Re-set (or delete-then-set) between merges: collapse onto the
            # existing entry; ``main_old`` keeps pointing at the main-table
            # entry the merge must still retire.
            entry[0] = location
        self.stats.absorbed_inserts += 1

    def assign(self, key: bytes, old_location: int, new_location: int) -> None:
        """Absorb a settled replace (the MM-time Insert+Delete pair)."""
        entry = self._map.get(key)
        if entry is None:
            self._touch(key)
            self._map[key] = [new_location, old_location]
        else:
            entry[0] = new_location
        self.stats.absorbed_reassigns += 1

    def delete(self, key: bytes, location: int | None = None):
        """Absorb an IN/Delete.  Tri-state result:

        ``True`` — absorbed, a live binding is now suppressed;
        ``False`` — absorbed as a no-op (already tombstoned, or the target
        is covered by the pending merge) or queued as an orphan delete;
        ``None`` — **not** absorbed: the key has no delta entry and no
        location was supplied, so the caller must apply the delete to the
        main table synchronously (the delta cannot express "remove any
        signature match" without a location).
        """
        entry = self._map.get(key)
        if entry is None:
            if location is None:
                return None
            self._touch(key)
            self._map[key] = [TOMBSTONE, location]
            self.stats.absorbed_deletes += 1
            return True
        final = entry[0]
        self.stats.absorbed_deletes += 1
        if final != TOMBSTONE:
            if location is None or location == final:
                entry[0] = TOMBSTONE
                return True
            if location == entry[1]:
                # Deleting the pre-merge main binding: the merge already
                # retires ``main_old`` for this entry.
                return False
        elif location is None or location == entry[1]:
            return False
        # Defensive: a delete aimed at a location this entry does not
        # track (e.g. a historical duplicate main entry).  Queue it as a
        # plain prehashed delete for the merge.
        self._orphans.append((key, location))
        self._touch(key)
        self.stats.orphan_deletes += 1
        return False

    # ------------------------------------------------------- merge triggers

    def wants_merge(self, now: float | None = None) -> bool:
        """Size or age threshold hit (the barrier/idle-tick gate)."""
        pending = len(self._map) + len(self._orphans)
        if pending == 0:
            return False
        if pending >= self.merge_threshold:
            return True
        first = self._first_absorb
        if first is None:
            return False
        if now is None:
            now = time.monotonic()
        return (now - first) >= self.max_age_s

    # ------------------------------------------------------- vector support

    def signature_column(self):
        """Sorted ``uint32`` signatures of every delta key (incl. tombstones).

        The vector engine's Search pass pre-filters its rows against this
        column with one ``searchsorted``; rows whose signature cannot be in
        the delta skip the dict entirely.  Tombstones must be present —
        their rows have to resolve in the delta (to an empty candidate
        list) rather than fall through to the stale main entry.
        """
        column = self._sig_column
        if column is None:
            sigs = self._sigs
            missing = [key for key in self._map if key not in sigs]
            if missing:
                from repro.engine.vector import fnv_hash_columns

                hashed = (fnv_hash_columns(missing, 1)[0] & 0xFFFFFFFF).tolist()
                for key, signature in zip(missing, hashed):
                    sigs[key] = signature
            column = _np.fromiter(
                (sigs[key] for key in self._map),
                dtype=_np.uint32,
                count=len(self._map),
            )
            column.sort()
            self._sig_column = column
        return column

    # -------------------------------------------------------------- merging

    def merge_rows(self):
        """Prehashed op rows for ``bulk_apply_prehashed``.

        Returns ``(deletes, reassigns, inserts, keys)`` where ``keys`` is
        every key involved (for probe-cache invalidation).  All keys are
        hashed in one vectorized pass and the per-row probe specs come off
        plain Python lists (``.tolist()`` columns) — no NumPy scalar
        indexing in the classification loop.  Does **not** clear the
        delta: call :meth:`finish_merge` only after the apply succeeds, so
        a :class:`~repro.errors.CapacityError` mid-apply leaves every
        binding still resolvable delta-first (some ops land
        twice-redundantly on retry; responses stay correct).
        """
        keys: list[bytes] = list(self._map)
        orphan_at = len(keys)
        keys.extend(key for key, _ in self._orphans)
        specs = iter(self._index.bulk_probe(keys))
        deletes: list[tuple[int, object, int]] = []
        reassigns: list[tuple[int, object, int, int]] = []
        inserts: list[tuple[int, object, int]] = []
        for entry, spec in zip(self._map.values(), specs):
            final = entry[0]
            main_old = entry[1]
            if final == TOMBSTONE:
                if main_old is not None:
                    deletes.append((spec[0], spec[1], main_old))
            elif main_old is None:
                inserts.append((spec[0], spec[1], final))
            else:
                reassigns.append((spec[0], spec[1], main_old, final))
        for (key, location), spec in zip(self._orphans, specs):
            deletes.append((spec[0], spec[1], location))
        del orphan_at
        return deletes, reassigns, inserts, keys

    def merge_columns(self):
        """Array-form merge plan (the NumPy fast path of :meth:`merge_rows`).

        Returns ``None`` when any key is too long
        for the column hasher (callers fall back to :meth:`merge_rows`).
        Otherwise returns ``(keys, signatures, buckets, classes)`` where
        ``signatures`` is ``uint32 (n,)``, ``buckets`` is ``intp (n, H)``
        (both aligned with ``keys``) and ``classes`` is the tuple
        ``(del_idx, del_old, re_idx, re_old, re_new, ins_idx, ins_loc)``
        of plain-int lists indexing rows of those arrays.  Everything stays
        columnar: per-key tuples and bucket lists are never materialised,
        which keeps a merge from flooding the garbage collector with tens
        of thousands of short-lived objects (GC pauses were the dominant
        cost of the tuple-form plan on write-heavy mixes).
        """
        from repro.engine.vector import MAX_VECTOR_KEY_BYTES, fnv_hash_columns

        keys: list[bytes] = list(self._map)
        keys.extend(key for key, _ in self._orphans)
        for key in keys:
            if len(key) > MAX_VECTOR_KEY_BYTES:
                return None
        index = self._index
        states = fnv_hash_columns(keys, index.num_hashes + 1)
        signatures = (states[0] & 0xFFFFFFFF).astype(_np.uint32)
        buckets = _np.ascontiguousarray(
            (states[1:] & (index.num_buckets - 1)).T.astype(_np.intp)
        )
        del_idx: list[int] = []
        del_old: list[int] = []
        re_idx: list[int] = []
        re_old: list[int] = []
        re_new: list[int] = []
        ins_idx: list[int] = []
        ins_loc: list[int] = []
        i = 0
        for entry in self._map.values():
            final = entry[0]
            main_old = entry[1]
            if final == TOMBSTONE:
                if main_old is not None:
                    del_idx.append(i)
                    del_old.append(main_old)
            elif main_old is None:
                ins_idx.append(i)
                ins_loc.append(final)
            else:
                re_idx.append(i)
                re_old.append(main_old)
                re_new.append(final)
            i += 1
        for _key, location in self._orphans:
            del_idx.append(i)
            del_old.append(location)
            i += 1
        classes = (del_idx, del_old, re_idx, re_old, re_new, ins_idx, ins_loc)
        return keys, signatures, buckets, classes

    def finish_merge(self, merged_ops: int = 0) -> None:
        """Reset after a fully-applied merge."""
        self._map.clear()
        self._orphans.clear()
        self._sigs.clear()
        self._sig_column = None
        self._first_absorb = None
        self.stats.merges += 1
        self.stats.merged_ops += merged_ops
