"""BatchPlane: columnar (struct-of-arrays) state for one batch.

The original functional pipeline threaded a ``_QueryContext`` object per
query through each task method — one Python call per query per phase.  The
BatchPlane turns the batch sideways: parallel arrays of query types, keys,
candidate lists, heap locations, values and status codes, indexed by the
query's position in the batch.  Engines then execute each compiled phase as
one tight loop over the relevant index subset (Mega-KV-style staged batch
kernels over columnar state), with the per-query-type subsets
(``get_indices`` etc.) computed once at batch intake.

A batch arrives as sealed :class:`~repro.net.wire.QueryColumns` (the
wire decoder's window, or ``QueryColumns.from_queries`` at the public
entries): the plane adopts its column lists directly and computes the
per-type index subsets with masks over its NumPy opcode column.  The
engines answer every row in one status-code column (``statuses``) next to
``read_values``; no ``Query`` or ``Response`` object exists on the path.

SET bookkeeping mirrors the per-query design exactly:

* ``pending_inserts[i]`` is the (key, location) the MM pass produced for a
  SET, consumed by the Insert pass;
* ``pending_deletes[i]`` lists stale index entries (displaced by query
  ``i``'s allocation) with the entry's location, so a Delete cannot remove
  a freshly inserted entry for the same key;
* ``batch_inserts`` maps key -> index of the *last* SET of that key whose
  Insert is still pending, enabling batch-local dedup: when one key is SET
  several times in a batch, only the last version's Insert reaches the
  index (earlier versions were never inserted, so they need no Delete
  either).  Without this, a hot Zipf key could stack enough identical
  signatures in one batch to overflow its cuckoo buckets.
"""

from __future__ import annotations

import time

from repro.errors import SimulationError
from repro.kv.protocol import ResponseStatus

#: Shared empty candidate list sentinel (never mutated; KC only reads it).
NO_CANDIDATES: tuple[int, ...] = ()

#: Raw wire status codes the engines write into ``BatchPlane.statuses``.
OK_CODE = ResponseStatus.OK.value
NOT_FOUND_CODE = ResponseStatus.NOT_FOUND.value
STORED_CODE = ResponseStatus.STORED.value
DELETED_CODE = ResponseStatus.DELETED.value


class BatchPlane:
    """Struct-of-arrays scratch state for one batch of queries."""

    __slots__ = (
        "size",
        "qtypes",
        "keys",
        "set_values",
        "opcodes",
        "candidates",
        "locations",
        "read_values",
        "statuses",
        "pending_inserts",
        "pending_deletes",
        "batch_inserts",
        "_subsets",
        "scratch",
    )

    def __init__(self, batch):
        n = len(batch)
        self.size = n
        #: The sealed batch's columns, adopted as-is; the per-type subsets
        #: are masks over the NumPy opcode column.
        self.qtypes = batch.qtypes
        self.keys = batch.keys
        self.set_values = batch.values
        self.opcodes = batch.opcodes
        self.candidates: list = [NO_CANDIDATES] * n
        self.locations: list[int | None] = [None] * n
        #: GET hits' values (each record's ``view``); None on every other row.
        self.read_values: list[bytes | memoryview | None] = [None] * n
        #: Raw wire status code per row, written by the pass that answers
        #: it (Delete for DELETE rows, WR for the rest).
        self.statuses: list[int | None] = [None] * n
        self.pending_inserts: list[tuple[bytes, int] | None] = [None] * n
        self.pending_deletes: list[list[tuple[bytes, int | None]] | None] = [None] * n
        self.batch_inserts: dict[bytes, int] = {}
        #: Per-qtype index subsets, built on first access.
        self._subsets: tuple | None = None
        #: Engine-private per-batch state (the vector engine's hand-offs
        #: between passes); the reference engine leaves it None.
        self.scratch = None

    def _build_subsets(self) -> tuple:
        # One mask per subset over the wire opcode column (GET=1, SET=2,
        # DELETE=3); `.nonzero()` keeps ascending order.
        opcodes = self.opcodes
        is_set = opcodes == 2
        subsets = (
            (opcodes == 1).nonzero()[0].tolist(),
            is_set.nonzero()[0].tolist(),
            (opcodes == 3).nonzero()[0].tolist(),
            (~is_set).nonzero()[0].tolist(),
            (opcodes != 1).nonzero()[0].tolist(),
        )
        self._subsets = subsets
        return subsets

    @property
    def get_indices(self) -> list[int]:
        """GET queries (KC/RD consumers)."""
        return (self._subsets or self._build_subsets())[0]

    @property
    def set_indices(self) -> list[int]:
        """SET queries (MM/Insert producers)."""
        return (self._subsets or self._build_subsets())[1]

    @property
    def search_indices(self) -> list[int]:
        """Queries the index Search pass touches (GET and DELETE)."""
        return (self._subsets or self._build_subsets())[3]

    @property
    def mutation_indices(self) -> list[int]:
        """Queries the index Delete pass touches (DELETE queries answer
        here; SET queries flush their displaced-entry deletes)."""
        return (self._subsets or self._build_subsets())[4]

    def take_responses(self) -> list[int]:
        """The completed status column; raises if any row is unanswered.

        The error names the offending query indices (and their types) so a
        missing-response bug points straight at the queries a phase skipped
        rather than at "somewhere in the batch".
        """
        statuses = self.statuses
        if None in statuses:
            missing = [i for i, s in enumerate(statuses) if s is None]
            shown = ", ".join(
                f"{i}:{self.qtypes[i].name}" for i in missing[:8]
            )
            suffix = ", ..." if len(missing) > 8 else ""
            raise SimulationError(
                f"{len(missing)} of {self.size} queries completed the pipeline "
                f"without a response (indices {shown}{suffix})"
            )
        return statuses  # type: ignore[return-value]


def credit_time(task_times: dict | None, task, t0: float) -> None:
    """Add the elapsed time since ``t0`` to ``task``'s running total."""
    if task_times is not None:
        elapsed_us = (time.perf_counter() - t0) * 1e6
        task_times[task] = task_times.get(task, 0.0) + elapsed_us


def count_store_ops(store, plane: BatchPlane, get_hits: int | None = None) -> None:
    """Add a finished batch's GET/SET counts to ``store.stats``, once.

    DELETEs are not counted here: the Delete pass answers them through
    :meth:`KVStore.delete`, which counts ``deletes``/``delete_hits`` itself.
    ``get_hits`` may be passed by an engine that already knows it (the
    vector engine does); the per-row reference engine has it read off the
    batch's value column.
    """
    get_rows = plane.get_indices
    if get_hits is None:
        read_values = plane.read_values
        get_hits = sum(1 for i in get_rows if read_values[i] is not None)
    stats = store.stats
    stats.gets += len(get_rows)
    stats.get_hits += get_hits
    stats.sets += len(plane.set_indices)
