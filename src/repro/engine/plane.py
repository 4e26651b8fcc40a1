"""BatchPlane: columnar (struct-of-arrays) state for one batch.

The original functional pipeline threaded a ``_QueryContext`` object per
query through each task method — one Python call per query per phase.  The
BatchPlane turns the batch sideways: parallel arrays of query types, keys,
candidate lists, directory rows, values and status codes, indexed by the
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

SET bookkeeping is one column: ``pending_inserts[i]`` is the
``(key, row)`` the MM pass produced for a SET that gave its key a live
directory row, consumed by the Insert pass.  A SET that replaces a live
value keeps its key's row and queues nothing, so a key SET several times in
a batch reaches the index once.

**Window order.**  Every compiled plan runs MM, then the index Deletes,
then the Searches, and GETs read the window's end state; a key's mutations
apply in row order.  MM applying every SET first would let a DELETE undo a
later SET of its key, so :func:`answer_overridden_deletes` answers such a
DELETE before MM, from the key's state just before its row, and the Delete
pass skips it.
"""

from __future__ import annotations

import time

from repro.errors import SimulationError
from repro.kv.protocol import QueryType, ResponseStatus

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
        #: GET hits' values (read-only views of their log segments); None on
        #: every other row.
        self.read_values: list[bytes | memoryview | None] = [None] * n
        #: Raw wire status code per row, written by the pass that answers
        #: it (Delete for DELETE rows, WR for the rest).
        self.statuses: list[int | None] = [None] * n
        self.pending_inserts: list[tuple[bytes, int] | None] = [None] * n
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
    def delete_indices(self) -> list[int]:
        """DELETE queries (answered by the Delete pass)."""
        return (self._subsets or self._build_subsets())[2]

    @property
    def search_indices(self) -> list[int]:
        """Queries the index Search pass touches (GET and DELETE)."""
        return (self._subsets or self._build_subsets())[3]

    @property
    def mutation_indices(self) -> list[int]:
        """SET and DELETE queries, in row order."""
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


def answer_overridden_deletes(store, plane: BatchPlane) -> None:
    """Answer, before MM runs, each DELETE that a later SET of its key in
    the window overrides, and count it in ``store.stats``.

    Such a DELETE is not applied: the key's last mutation is a SET.  Its
    answer is the key's state just before its row — DELETED iff the key's
    nearest earlier mutation in the window is a SET, or it has none and
    the key is live before the window.  The Delete pass skips the rows
    answered here; every other DELETE follows all of its key's SETs, so
    applying it after MM keeps row order.
    """
    deletes = plane.delete_indices
    if not deletes or not plane.set_indices:
        return
    keys = plane.keys
    last_set = {keys[i]: i for i in plane.set_indices}
    if all(last_set.get(keys[i], -1) < i for i in deletes):
        return
    qtypes = plane.qtypes
    statuses = plane.statuses
    directory = store.directory
    live: dict[bytes, bool] = {}
    answered = hits = 0
    for i in plane.mutation_indices:
        key = keys[i]
        if last_set.get(key, -1) < i:
            continue
        if qtypes[i] is QueryType.SET:
            live[key] = True
            continue
        hit = live[key] if key in live else key in directory
        live[key] = False
        statuses[i] = DELETED_CODE if hit else NOT_FOUND_CODE
        answered += 1
        hits += hit
    store.stats.deletes += answered
    store.stats.delete_hits += hits


def drop_pending_inserts(store, plane: BatchPlane) -> None:
    """A failed window's clean-up: drop the rows its MM gave a key and no
    Insert indexed (:meth:`~repro.kv.store.KVStore.drop_unindexed`)."""
    store.drop_unindexed([entry[1] for entry in plane.pending_inserts if entry is not None])


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
