"""Skew-aware hot path: batch key dedup + hot-key cache intake.

At Zipf skew 0.99 a 4096-query batch holds well under 2000 distinct keys,
yet the engines probe the cuckoo index once per query.  This module builds,
once per batch, a :class:`HotPathState` that the engine backends consult to
collapse that redundancy two ways:

* **Batch key dedup** — GET queries are grouped into *runs* of the same key
  between write barriers: within a run, only the first row (the
  *representative*) goes through Search/KC/RD; the duplicates receive the
  representative's value and response by scatter after the RD phase.  A
  batch that also SETs or DELETEs a key splits that key's runs at each
  write position (conservative under the staged batch semantics, where the
  index phases order Deletes before Inserts before Searches), so responses
  stay byte-identical to :class:`~repro.engine.reference.ReferenceEngine`.
* **Hot-key cache serving** — when the store carries an active
  :class:`~repro.kv.hotcache.HotKeyCache`, a run of a key that is *not
  written anywhere in this batch* can be answered from the cache's
  versioned snapshot without touching the index at all.  Keys written in
  the batch are never cache-served: their GETs must observe the post-write
  value, which only the store knows.  Runs of multiplicity >=
  :data:`~repro.kv.hotcache.MIN_ADMIT_MULTIPLICITY` that miss are recorded
  for admission once RD has produced the value.

Two builders produce the same state: :func:`prepare_hot_path` (dict-based
run detection through :meth:`HotPathState.add_run`, used by the scalar
engines) and :func:`prepare_hot_path_vector`
(the same grouping pass fused with direct cache-dict probes, fronted by a
*uniformity gate*: a strided sample of the batch's GET keys estimates the
duplicate fraction, and a visibly uniform batch skips grouping entirely —
that sample is the whole skew-0 parity budget).  Responses are pre-filled
for served and duplicate rows with one shared
:class:`~repro.kv.protocol.Response` per run — cache-served rows reuse the
snapshot's prebuilt response object — and the WR passes skip rows that
already carry a response, exactly as they do for DELETEs.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.kv.protocol import Response, ResponseStatus

import numpy as np

#: Shared miss response for pre-filled duplicate rows (same bytes as the
#: backends' singleton; sharing an object is an allocation nicety only).
_NOT_FOUND = Response(ResponseStatus.NOT_FOUND)
_OK = ResponseStatus.OK

#: Runs must reach this multiplicity before their key is admission-worthy
#: (mirrors :data:`repro.kv.hotcache.MIN_ADMIT_MULTIPLICITY`).
_MIN_ADMIT = 2


class HotPathState:
    """Per-batch dedup/cache decisions, shared by every engine backend.

    Built before the first phase runs; consumed in three places:

    * :meth:`SerialEngine.phase_indices` substitutes ``get_live`` /
      ``search_live`` (the index subsets minus served and duplicate rows)
      for the plane's full subsets in the Search/KC/RD phases;
    * :meth:`finish` runs once after the RD phase: scatters representative
      values and responses to duplicate rows, fills cache-served rows, and
      admits qualifying read values into the cache;
    * the pipeline's telemetry reads ``dup_count`` and the per-batch cache
      hit/miss tallies.
    """

    __slots__ = (
        "dups",
        "dup_count",
        "cache",
        "cache_groups",
        "cache_hits",
        "cache_misses",
        "admissions",
        "excluded",
        "get_live",
        "search_live",
        "finished",
        "store",
        "epoch",
        "revalidations",
    )

    def __init__(self) -> None:
        #: Representative GET row -> its duplicate rows (dedup only).
        self.dups: dict[int, list[int]] = {}
        self.dup_count = 0
        #: The serving cache (None when only dedup is active).
        self.cache = None
        #: Cache-served runs, captured at batch intake as (all rows of the
        #: run, key, the cache's (value, version, response) entry).  The
        #: capture is *provisional*: :meth:`finish` re-validates each entry
        #: against the cache before scattering (a SET elsewhere in the
        #: batch can slab-evict the key mid-batch) and rewrites the list
        #: to the final served (rows, value, response) triples.
        self.cache_groups: list = []
        self.cache_hits = 0
        self.cache_misses = 0
        #: (representative row, key) of unwritten multi-runs to admit once
        #: RD has read the representative's value.
        self.admissions: list[tuple[int, bytes]] = []
        #: Rows removed from the live index subsets (served + duplicates).
        self.excluded: set[int] = set()
        #: Live substitutes for ``plane.get_indices``/``search_indices``.
        self.get_live = None
        self.search_live = None
        self.finished = False
        #: The store the batch runs against (set by the builders) and the
        #: run's profiler epoch (set by the engines) — :meth:`finish`
        #: needs both for the fallback read of an invalidated group.
        self.store = None
        self.epoch = 0
        #: Cache-served groups whose snapshot died mid-batch and had to be
        #: re-resolved through the index.  Only the slab heap can trigger
        #: this (a SET's LRU eviction invalidates an unwritten key); the
        #: log arena never evicts inside a batch, so this stays 0 there —
        #: regression-tested.
        self.revalidations = 0

    # ------------------------------------------------------------- building

    @property
    def prefilled(self) -> bool:
        """True when some rows bypass the index (WR must skip them)."""
        return bool(self.cache_groups or self.dups)

    def add_run(self, key: bytes, rows: list[int], written: bool, dedup: bool) -> None:
        """Classify one same-key run (rows ascending, first = representative)."""
        count = len(rows)
        cache = self.cache
        if cache is not None and not written:
            entry = cache.lookup_entry(key, count)
            if entry is not None:
                self.cache_groups.append((rows, key, entry))
                self.cache_hits += count
                self.excluded.update(rows)
                return
            self.cache_misses += count
            # In-batch multiplicity qualifies immediately; a singleton run
            # graduates through the cross-batch probation ledger.
            if count >= _MIN_ADMIT or cache.note_probation(key, count):
                self.admissions.append((rows[0], key))
        if count >= _MIN_ADMIT and dedup:
            dup_rows = rows[1:]
            self.dups[rows[0]] = dup_rows
            self.dup_count += len(dup_rows)
            self.excluded.update(dup_rows)

    def seal(self, plane) -> "HotPathState":
        """Freeze the live index subsets after every run is classified."""
        if self.excluded:
            excluded = self.excluded
            if len(excluded) > 64:
                # Vectorized filter: one boolean mask gather instead of a
                # per-row set probe (matters at high skew, where most of
                # the batch is excluded).
                mask = np.zeros(plane.size, dtype=bool)
                mask[list(excluded)] = True
                get_arr = np.asarray(plane.get_indices, dtype=np.intp)
                self.get_live = get_arr[~mask[get_arr]].tolist()
                if plane.delete_indices:
                    search_arr = np.asarray(plane.search_indices, dtype=np.intp)
                    self.search_live = search_arr[~mask[search_arr]].tolist()
                else:
                    self.search_live = self.get_live
                return self
            self.get_live = [i for i in plane.get_indices if i not in excluded]
            if plane.delete_indices:
                self.search_live = [
                    i for i in plane.search_indices if i not in excluded
                ]
            else:
                self.search_live = self.get_live
        else:
            self.get_live = plane.get_indices
            self.search_live = plane.search_indices
        return self

    # ------------------------------------------------------------ finishing

    def finish(self, plane) -> None:
        """Post-RD scatter: fill served/duplicate rows, admit read values.

        Idempotent — the engines invoke it after the RD phase and again
        defensively at WR intake; only the first call acts.  One Response
        object is shared across each run (responses are immutable, exactly
        like the backends' STORED/NOT_FOUND singletons).

        Cache-served groups were captured before any phase ran, but a SET
        elsewhere in the batch can slab-evict an unwritten cached key
        mid-batch (``store.allocate`` invalidates the snapshot and the MM
        pass queues the index Delete).  Each group is therefore
        re-validated here: only a snapshot still resident at its captured
        version is scattered; an invalidated group falls back to a direct
        index read — which, post-MM/Delete, resolves exactly as the plain
        path would (NOT_FOUND for an evicted key).
        """
        if self.finished:
            return
        self.finished = True
        responses = plane.responses
        read_values = plane.read_values
        cache = self.cache
        if self.cache_groups:
            served: list[tuple[list[int], bytes, Response]] = []
            entries_get = cache._entries.get
            versions_get = cache._versions.get
            store = self.store
            for rows, key, entry in self.cache_groups:
                value, version, resp = entry
                if entries_get(key) is not entry or versions_get(key, 0) != version:
                    # Snapshot died between intake and finish: re-resolve
                    # through the index (run multiplicity still credited
                    # to the object's profiler counter, as in the plain
                    # dedup path) and reclassify the probe as a miss.
                    n = len(rows)
                    cache.hits -= n
                    cache.misses += n
                    self.cache_hits -= n
                    self.cache_misses += n
                    self.revalidations += 1
                    location = store.multi_key_compare(
                        [key], [store.multi_index_search([key])[0]]
                    )[0]
                    value = store.multi_read_value(
                        [location], epoch=self.epoch, counts=[n]
                    )[0]
                    if value is None:
                        for r in rows:
                            responses[r] = _NOT_FOUND
                        continue
                    resp = Response(_OK, value)
                served.append((rows, value, resp))
                for r in rows:
                    read_values[r] = value
                    responses[r] = resp
            #: Downstream consumers (the vector WR pass's status/size
            #: columns) see only the groups that actually served.
            self.cache_groups = served
        for rep, dup_rows in self.dups.items():
            value = read_values[rep]
            if value is None:
                responses[rep] = _NOT_FOUND
                for d in dup_rows:
                    responses[d] = _NOT_FOUND
            else:
                resp = Response(_OK, value)
                responses[rep] = resp
                for d in dup_rows:
                    read_values[d] = value
                    responses[d] = resp
        cache = self.cache
        if cache is not None:
            for rep, key in self.admissions:
                value = read_values[rep]
                if value is not None:
                    cache.admit(key, value)


def _active_cache(store, use_cache: bool):
    """The store's hot-key cache when serving is allowed and gated on."""
    if not use_cache:
        return None
    cache = getattr(store, "hot_cache", None)
    if cache is None or not cache.active:
        return None
    return cache


def _written_positions(plane) -> dict[bytes, list[int]] | None:
    """Key -> ascending batch positions of its SET/DELETE rows (the write
    barriers runs split at); None when the batch is read-only."""
    mutations = plane.mutation_indices
    if not mutations:
        return None
    keys = plane.keys
    written: dict[bytes, list[int]] = {}
    for i in mutations:
        written.setdefault(keys[i], []).append(i)
    return written


# ------------------------------------------------------------ scalar builder


def prepare_hot_path(store, plane, *, dedup: bool, use_cache: bool) -> HotPathState | None:
    """Dict-based run detection over the GET rows (scalar engines).

    Returns None when neither layer is active, so the default engine path
    carries zero per-row overhead.
    """
    cache = _active_cache(store, use_cache)
    if not dedup and cache is None:
        return None
    state = HotPathState()
    state.cache = cache
    state.store = store
    keys = plane.keys
    written = _written_positions(plane)
    # group key -> ascending rows of the run; plain ``key`` for unwritten
    # keys, ``(key, run#)`` when the batch writes the key (run# = writes
    # at or before the row, so a run never crosses a write barrier).
    groups: dict = {}
    if written is None:
        for i in plane.get_indices:
            key = keys[i]
            rows = groups.get(key)
            if rows is None:
                groups[key] = [i]
            else:
                rows.append(i)
        for key, rows in groups.items():
            state.add_run(key, rows, False, dedup)
    else:
        for i in plane.get_indices:
            key = keys[i]
            positions = written.get(key)
            group = key if positions is None else (key, bisect_right(positions, i))
            rows = groups.get(group)
            if rows is None:
                groups[group] = [i]
            else:
                rows.append(i)
        for group, rows in groups.items():
            if type(group) is tuple:
                state.add_run(group[0], rows, True, dedup)
            else:
                state.add_run(group, rows, False, dedup)
    return state.seal(plane)


# ------------------------------------------------------------ vector builder


#: Rows sampled (by stride) for the vector builder's uniformity gate.
GATE_SAMPLE_ROWS = 512

#: Batches whose sampled duplicate-key fraction falls below this skip
#: grouping entirely.  A uniform 4096-row batch over a 20k key space
#: samples ~1.3 % duplicates from birthday collisions alone; Zipf 0.5 is
#: already ~3.4 % and climbs fast with skew, so the band cleanly separates
#: "nothing to collapse" from "worth a grouping pass".
GATE_SKIP_BELOW = 0.025

#: Batches smaller than this always run the grouping pass: the sample
#: would be too small to trust and the pass itself is near-free.
GATE_MIN_ROWS = 1024

#: Singleton GET rows are probed against the cache only when its
#: configured capacity is at least this many times the batch's GET count.
#: A probe of a lone row pays for itself only when it usually hits; a
#: cache sized well beyond one batch's working set is the deterministic
#: signal that lone rows plausibly hit too (resident count would be the
#: sharper signal, but it cannot bootstrap — singles must be probed, miss
#: and graduate through probation before they are ever resident).
SINGLETON_PROBE_MIN_CAPACITY = 2


def _probe_singletons(state: HotPathState, cache, rows, keys, written) -> None:
    """Probe lone GET rows against a keyspace-scale cache.

    Same probe as the grouped pass minus the LRU refresh (one appearance
    is not hotness evidence); a miss walks the probation ledger inline
    (:meth:`~repro.kv.hotcache.HotKeyCache.note_probation`'s contract) so
    once-per-batch tail keys graduate next sighting.
    """
    entries = cache._entries
    entries_get = entries.get
    versions = cache._versions
    versions_get = versions.get
    window = cache._window_hits
    window_get = window.get
    probation = cache._probation
    probation_get = probation.get
    probation_cap = 4 * cache.capacity
    cache_groups = state.cache_groups
    admissions = state.admissions
    excluded = state.excluded
    hits = misses = 0
    for r in rows:
        key = keys[r]
        if written is not None and key in written:
            continue
        entry = entries_get(key)
        if entry is not None:
            if entry[1] == versions_get(key, 0):
                cache_groups.append(([r], key, entry))
                hits += 1
                excluded.add(r)
                window[key] = window_get(key, 0) + 1
                continue
            del entries[key]
            versions.pop(key, None)
        misses += 1
        seen = probation_get(key, 0) + 1
        if seen >= _MIN_ADMIT:
            probation.pop(key, None)
            admissions.append((r, key))
        else:
            if len(probation) >= probation_cap:
                probation.clear()
            probation[key] = seen
    state.cache_hits += hits
    state.cache_misses += misses
    cache.hits += hits
    cache.misses += misses


def prepare_hot_path_vector(
    store, plane, *, dedup: bool, use_cache: bool
) -> HotPathState | None:
    """Gated hash-column run detection (vector engine).

    A strided sample of the batch's GET keys estimates the duplicate
    fraction first; a visibly uniform batch (below
    :data:`GATE_SKIP_BELOW`) returns immediately with nothing grouped,
    which is nearly the entire skew-0 overhead of the hot path.  The gate
    (and the no-duplicates fast-out) is bypassed when the cache is
    provisioned at keyspace scale: singleton rows are then worth probing
    even with nothing to collapse.  Past the gate, the GET rows' keys are
    FNV-hashed once and duplicate keys found
    by sorting the hash column — only rows in hash groups of two or more
    fall back to a Python dict pass keyed on the real key bytes (resolving
    the rare collision), so the classification loop runs per *duplicated*
    key, not per distinct key.  Singleton GET rows are probed only when
    the cache's capacity dwarfs the batch
    (:data:`SINGLETON_PROBE_MIN_CAPACITY`): measured at vector-engine pass
    costs a probe buys back roughly what it spends unless it usually
    hits, so against a batch-sized cache lone rows stay on the index path
    and in-batch multiplicity drives admission, while a keyspace-scale
    cache serves them too (misses feed the probation ledger so once-per-
    batch tail keys graduate in).  Classification makes the same decisions
    as :meth:`HotPathState.add_run`, with the cache probe inlined against
    the cache's entry/version/probation dicts and the hit/miss counters
    settled in bulk after the loop; only the rare write-barrier split goes
    through the shared method.
    """
    from repro.engine.vector import fnv_hash_columns

    cache = _active_cache(store, use_cache)
    if not dedup and cache is None:
        return None
    state = HotPathState()
    state.cache = cache
    state.store = store
    get_rows = plane.get_indices
    n = len(get_rows)
    if n == 0:
        return state.seal(plane)
    keys = plane.keys
    # When the cache dwarfs the batch, lone rows are probed too — and
    # none of the grouping fast-outs below may skip that probe pass.
    singles_probe = (
        cache is not None and cache.capacity >= SINGLETON_PROBE_MIN_CAPACITY * n
    )
    if n < 2:
        if singles_probe:
            _probe_singletons(state, cache, get_rows, keys, _written_positions(plane))
        return state.seal(plane)
    if n >= GATE_MIN_ROWS and not singles_probe:
        sample = get_rows[:: max(1, n // GATE_SAMPLE_ROWS)]
        if 1.0 - len({keys[i] for i in sample}) / len(sample) < GATE_SKIP_BELOW:
            return state.seal(plane)
    rows_arr = np.asarray(get_rows, dtype=np.intp)
    get_keys = keys if n == len(keys) else [keys[i] for i in get_rows]
    hashes = fnv_hash_columns(get_keys, 1)[0]
    order = np.argsort(hashes, kind="stable")
    ordered = hashes[order]
    boundaries = np.empty(ordered.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=boundaries[1:])
    starts = np.nonzero(boundaries)[0]
    lengths = np.diff(np.append(starts, ordered.size))
    multi = lengths > 1
    if not multi.any() and not singles_probe:
        return state.seal(plane)
    # One gather pulls every row belonging to a repeated-hash group; the
    # stable sort keeps equal hashes in batch order and get_indices is
    # ascending, so rows stay ascending per group.
    in_multi = np.repeat(multi, lengths)
    multi_rows = rows_arr[order[in_multi]]
    groups: dict[bytes, list[int]] = {}
    setdefault = groups.setdefault
    for r in multi_rows.tolist():
        setdefault(keys[r], []).append(r)
    written = _written_positions(plane)
    dups = state.dups
    cache_groups = state.cache_groups
    admissions = state.admissions
    # Excluded rows accumulate in a flat list (serving and dedup never
    # exclude a row twice) and merge into the state's set in one bulk
    # update after the loop — hundreds of small set.update calls were a
    # measurable slice of the builder budget.
    excluded_rows: list[int] = []
    excluded_extend = excluded_rows.extend
    hits = misses = dup_count = 0
    if cache is not None:
        entries = cache._entries
        entries_get = entries.get
        versions_get = cache._versions.get
        move_to_end = entries.move_to_end
        window = cache._window_hits
        window_get = window.get
    for key, krows in groups.items():
        count = len(krows)
        if count < 2:
            # A hash collision between distinct keys can leave a key with
            # a single row in a multi group — not a run.
            continue
        if written is not None:
            positions = written.get(key)
            if positions is not None:
                if count > 1:
                    runs: dict[int, list[int]] = {}
                    for r in krows:
                        runs.setdefault(bisect_right(positions, r), []).append(r)
                    for run_rows in runs.values():
                        state.add_run(key, run_rows, True, dedup)
                continue
        if cache is not None:
            entry = entries_get(key)
            if entry is not None:
                if entry[1] == versions_get(key, 0):
                    cache_groups.append((krows, key, entry))
                    hits += count
                    excluded_extend(krows)
                    window[key] = window_get(key, 0) + count
                    move_to_end(key)
                    continue
                # Stale snapshot: rewritten since; drop it and its stamp
                # (lookup_entry's contract).
                del entries[key]
                cache._versions.pop(key, None)
            misses += count
            # count >= 2 here, so in-batch multiplicity qualifies directly.
            admissions.append((krows[0], key))
        if dedup:
            dup_rows = krows[1:]
            dups[krows[0]] = dup_rows
            dup_count += count - 1
            excluded_extend(dup_rows)
    if excluded_rows:
        state.excluded.update(excluded_rows)
    if singles_probe:
        # Keyspace-scale cache: lone rows usually hit too.
        _probe_singletons(
            state, cache, rows_arr[order[~in_multi]].tolist(), keys, written
        )
    if cache is not None:
        cache.hits += hits
        cache.misses += misses
    state.cache_hits += hits
    state.cache_misses += misses
    state.dup_count += dup_count
    return state.seal(plane)


__all__ = [
    "HotPathState",
    "prepare_hot_path",
    "prepare_hot_path_vector",
]
