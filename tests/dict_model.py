"""A dict model of the store's GET/SET/DELETE semantics: the oracle the
store and engine cells are checked against.

It imports only the query and status types of :mod:`repro.kv.protocol`, so
it shares no code with the store, its index, its heap, its key directory
or either engine: a bug in any of those cannot also sit in the model.

A window applies its SETs and DELETEs in row order, then its GETs read
the end state, in row order.  A window of one query is plain row order,
which is what the scalar ``get`` / ``set`` / ``delete`` give.  Eviction is not modelled, so every cell that uses the
model also checks that the arena evicted nothing (:func:`assert_agrees`).
"""

from __future__ import annotations

from repro.kv.protocol import Query, QueryType, ResponseStatus


class DictModel:
    """``key -> value``, plus the five operation counts the store keeps."""

    def __init__(self) -> None:
        self.data: dict[bytes, bytes] = {}
        self.gets = 0
        self.get_hits = 0
        self.sets = 0
        self.deletes = 0
        self.delete_hits = 0

    def __len__(self) -> int:
        return len(self.data)

    def get(self, key: bytes) -> bytes | None:
        self.gets += 1
        value = self.data.get(key)
        self.get_hits += value is not None
        return value

    def set(self, key: bytes, value: bytes) -> bool:
        """Store ``value``; ``True`` when it replaced a live one."""
        self.sets += 1
        replaced = key in self.data
        self.data[key] = value
        return replaced

    def delete(self, key: bytes) -> bool:
        self.deletes += 1
        hit = self.data.pop(key, None) is not None
        self.delete_hits += hit
        return hit

    def window(self, queries: list[Query]) -> list[tuple[ResponseStatus, bytes]]:
        """Apply one window; each row's ``(status, value)``, in row order."""
        rows: list[tuple[ResponseStatus, bytes]] = [(ResponseStatus.STORED, b"")] * len(queries)
        for i, query in enumerate(queries):
            if query.qtype is QueryType.SET:
                self.set(query.key, query.value)
            elif query.qtype is QueryType.DELETE:
                hit = self.delete(query.key)
                rows[i] = (ResponseStatus.DELETED if hit else ResponseStatus.NOT_FOUND, b"")
        for i, query in enumerate(queries):
            if query.qtype is QueryType.GET:
                value = self.get(query.key)
                rows[i] = (
                    (ResponseStatus.NOT_FOUND, b"")
                    if value is None
                    else (ResponseStatus.OK, value)
                )
        return rows

    def counts(self) -> tuple[int, int, int, int, int]:
        return self.gets, self.get_hits, self.sets, self.deletes, self.delete_hits


def answers(result) -> list[tuple[ResponseStatus, bytes]]:
    """A pipeline ``BatchResult``'s rows, as :meth:`DictModel.window` gives them."""
    return [(response.status, response.value) for response in result.responses]


def assert_agrees(store, model: DictModel) -> None:
    """The end-of-cell checks: the store's five operation counts equal the
    model's, the arena evicted nothing (the model cannot), and the store,
    its index and the model hold the same number of keys.  A stale index
    entry rarely changes an answer — key-compare rejects a row that is not
    its key's live one — so only this count is sure to see one."""
    stats = store.stats
    assert (
        stats.gets,
        stats.get_hits,
        stats.sets,
        stats.deletes,
        stats.delete_hits,
    ) == model.counts()
    assert store.heap.stats.evictions == 0
    assert len(store) == len(store.index) == len(model)
