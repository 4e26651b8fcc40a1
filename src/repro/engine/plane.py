"""BatchPlane: columnar (struct-of-arrays) state for one batch.

The original functional pipeline threaded a ``_QueryContext`` object per
query through each task method — one Python call per query per phase.  The
BatchPlane turns the batch sideways: parallel arrays of query types, keys,
candidate lists, heap locations, values and response slots, indexed by the
query's position in the batch.  Engines then execute each compiled phase as
one tight loop over the relevant index subset (Mega-KV-style staged batch
kernels over columnar state), with the per-query-type subsets
(``get_indices`` etc.) computed once at batch intake.

A batch arrives either as ``list[Query]`` (the legacy path) or as a
:class:`~repro.net.wire.QueryColumns` straight off the columnar wire
decoder — in the latter case the plane adopts the decoder's column lists
directly and, when the decoder left its NumPy opcode column attached,
computes the per-type index subsets with array masks instead of a
per-query type-dispatch loop.  No ``Query`` objects exist anywhere on
that path.

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

from bisect import bisect_left

from repro.errors import SimulationError
from repro.kv.protocol import QueryType, Response

#: Shared empty candidate list sentinel (never mutated; KC only reads it).
NO_CANDIDATES: tuple[int, ...] = ()


class BatchPlane:
    """Struct-of-arrays scratch state for one batch of queries."""

    __slots__ = (
        "queries",
        "size",
        "qtypes",
        "keys",
        "set_values",
        "candidates",
        "locations",
        "read_values",
        "responses",
        "pending_inserts",
        "pending_deletes",
        "batch_inserts",
        "_subsets",
        "all_indices",
        "scratch",
        "response_sizes",
        "response_statuses",
        "wants_responses",
        "responses_complete",
        "opcodes",
        "key_lens",
        "value_lens",
    )

    def __init__(self, queries):
        n = len(queries)
        self.size = n
        columnar = getattr(queries, "qtypes", None)
        if columnar is not None:
            #: The wire decoder's columns are adopted as-is; no per-query
            #: objects are built (``self.queries`` stays None).
            self.queries = None
            qtypes = self.qtypes = columnar
            self.keys = queries.keys
            self.set_values = queries.values
            opcodes = queries.opcodes
        else:
            self.queries = queries
            qtypes = self.qtypes = [q.qtype for q in queries]
            self.keys = [q.key for q in queries]
            self.set_values = [q.value for q in queries]
            opcodes = None
        #: Wire-decoder opcode/length columns when the batch arrived
        #: columnar (None on the legacy Query-object path).  The procshard
        #: router gathers per-shard sub-blocks straight from these instead
        #: of recomputing lengths per batch.
        self.opcodes = opcodes
        self.key_lens = getattr(queries, "key_lens", None)
        self.value_lens = getattr(queries, "value_lens", None)
        self.candidates: list = [NO_CANDIDATES] * n
        self.locations: list[int | None] = [None] * n
        self.read_values: list[bytes | None] = [None] * n
        self.responses: list[Response | None] = [None] * n
        self.pending_inserts: list[tuple[bytes, int] | None] = [None] * n
        self.pending_deletes: list[list[tuple[bytes, int | None]] | None] = [None] * n
        self.batch_inserts: dict[bytes, int] = {}
        #: Per-qtype index subsets are built on first access — engine
        #: passes need them, but the procshard router plane (which only
        #: splits/merges whole windows) never does, so it skips the
        #: O(rows) pass entirely.
        self._subsets: tuple | None = None
        #: Every query (the WR pass).
        self.all_indices = range(n)
        #: Engine-private per-batch state (the vector engine parks its
        #: hashed key columns here); plain engines leave it None.
        self.scratch = None
        #: Optional wire-size column filled by the WR pass (vector engine):
        #: ``response_sizes[i]`` is ``responses[i].wire_size``, precomputed
        #: so downstream framing/chunking needs no per-response property
        #: calls.  None when the executing engine does not produce it.
        self.response_sizes: list[int] | None = None
        #: Optional raw wire status-code column filled by the WR pass
        #: (vector engine): ``response_statuses[i]`` equals
        #: ``responses[i].status.value``.  Together with ``read_values``
        #: and ``response_sizes`` this lets the columnar wire framer emit
        #: response bytes without touching Response objects.  None when
        #: the executing engine does not produce it.
        self.response_statuses: list[int] | None = None
        #: When False, engines that fill the status/size/value columns may
        #: skip materializing per-row :class:`Response` objects entirely
        #: (the procshard worker ships columns, never objects).  Callers
        #: that clear this must not use :meth:`take_responses` afterwards
        #: unless ``response_statuses`` stayed None.
        self.wants_responses: bool = True
        #: Set by engines that fill every response slot by construction
        #: (the procshard merge covers all rows, including fill-downs);
        #: lets :meth:`take_responses` skip its per-row completeness scan.
        self.responses_complete: bool = False

    def _build_subsets(self) -> tuple:
        opcodes = self.opcodes
        if opcodes is not None:
            # One mask per subset over the wire opcode column (GET=1,
            # SET=2, DELETE=3); `.nonzero()` keeps ascending order.
            is_set = opcodes == 2
            subsets = (
                (opcodes == 1).nonzero()[0].tolist(),
                is_set.nonzero()[0].tolist(),
                (opcodes == 3).nonzero()[0].tolist(),
                (~is_set).nonzero()[0].tolist(),
                (opcodes != 1).nonzero()[0].tolist(),
            )
        else:
            get_indices: list[int] = []
            set_indices: list[int] = []
            delete_indices: list[int] = []
            search_indices: list[int] = []
            mutation_indices: list[int] = []
            get_type, set_type = QueryType.GET, QueryType.SET
            for i, qtype in enumerate(self.qtypes):
                if qtype is get_type:
                    get_indices.append(i)
                    search_indices.append(i)
                elif qtype is set_type:
                    set_indices.append(i)
                    mutation_indices.append(i)
                else:
                    delete_indices.append(i)
                    search_indices.append(i)
                    mutation_indices.append(i)
            subsets = (
                get_indices,
                set_indices,
                delete_indices,
                search_indices,
                mutation_indices,
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
        """DELETE queries."""
        return (self._subsets or self._build_subsets())[2]

    @property
    def search_indices(self) -> list[int]:
        """Queries the index Search pass touches (GET and DELETE)."""
        return (self._subsets or self._build_subsets())[3]

    @property
    def mutation_indices(self) -> list[int]:
        """Queries the index Delete pass touches (DELETE queries answer
        here; SET queries flush their displaced-entry deletes)."""
        return (self._subsets or self._build_subsets())[4]

    def take_responses(self) -> list[Response]:
        """The completed response column; raises if any slot is empty.

        The error names the offending query indices (and their types) so a
        missing-response bug points straight at the queries a phase skipped
        rather than at "somewhere in the batch".
        """
        responses = self.responses
        if self.responses_complete:
            return responses  # type: ignore[return-value]
        if any(r is None for r in responses):
            missing = [i for i, r in enumerate(responses) if r is None]
            shown = ", ".join(
                f"{i}:{self.qtypes[i].name}" for i in missing[:8]
            )
            suffix = ", ..." if len(missing) > 8 else ""
            raise SimulationError(
                f"{len(missing)} of {self.size} queries completed the pipeline "
                f"without a response (indices {shown}{suffix})"
            )
        return responses  # type: ignore[return-value]


def indices_between(indices, start: int, stop: int):
    """The subset of a sorted index list falling in ``[start, stop)``.

    Used by the stealing engine to intersect a phase's applicable queries
    with one claimed tag-array chunk.  Accepts a ``range`` (the WR pass's
    all-queries set) or a sorted list.
    """
    if isinstance(indices, range):
        return range(max(indices.start, start), min(indices.stop, stop))
    lo = bisect_left(indices, start)
    hi = bisect_left(indices, stop)
    return indices[lo:hi]
