"""Binary wire protocol for queries and responses.

Clients batch as many queries as fit into an Ethernet frame (paper Section
V-A uses UDP with frame-level batching to keep the NIC off the critical
path).  The format is a compact length-prefixed binary layout:

Query:     ``opcode:u8 | key_len:u16 | value_len:u32 | key | value``
Response:  ``status:u8 | value_len:u32 | value``

GET carries no value; SET carries one; DELETE carries neither.  The PP task
parses these; the WR task emits responses.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import ProtocolError

_QUERY_HEADER = struct.Struct("<BHI")
_RESPONSE_HEADER = struct.Struct("<BI")


class QueryType(enum.Enum):
    """The three client-visible operations (paper Section II-B)."""

    GET = 1
    SET = 2
    DELETE = 3


class ResponseStatus(enum.Enum):
    """Outcome codes carried in responses."""

    OK = 0
    NOT_FOUND = 1
    STORED = 2
    DELETED = 3
    ERROR = 4
    #: Cluster redirect: the queried server does not own the key under its
    #: current manifest.  The response value carries the server's manifest
    #: epoch as 8 little-endian bytes; the client refreshes its manifest
    #: and retries against the new owner (see ``docs/cluster.md``).
    WRONG_NODE = 5


@dataclass
class Query:
    """One parsed client query."""

    qtype: QueryType
    key: bytes
    value: bytes = b""

    def __post_init__(self) -> None:
        if not self.key:
            raise ProtocolError("query key must be non-empty")
        if self.qtype is not QueryType.SET and self.value:
            raise ProtocolError(f"{self.qtype.name} query cannot carry a value")

    @property
    def wire_size(self) -> int:
        """Encoded size in bytes, used for frame packing."""
        return _QUERY_HEADER.size + len(self.key) + len(self.value)


@dataclass
class Response:
    """One response destined for a client."""

    status: ResponseStatus
    value: bytes = b""

    @property
    def wire_size(self) -> int:
        return _RESPONSE_HEADER.size + len(self.value)


#: Request payload bound for one client datagram: comfortably below the
#: server's receive buffer, shared by every client-side packer.
MAX_QUERY_PAYLOAD = 48 * 1024


def datagram_groups(queries: list[Query], max_payload: int) -> list[list[Query]]:
    """Split ``queries`` into runs whose encoded size fits ``max_payload``,
    in order; a query larger than the bound travels alone."""
    groups: list[list[Query]] = []
    current: list[Query] = []
    size = 0
    for query in queries:
        wire = query.wire_size
        if current and size + wire > max_payload:
            groups.append(current)
            current, size = [], 0
        current.append(query)
        size += wire
    if current:
        groups.append(current)
    return groups


def encode_queries(queries: list[Query]) -> bytes:
    """Serialise queries into one payload (what a client frame carries)."""
    parts: list[bytes] = []
    for query in queries:
        parts.append(
            _QUERY_HEADER.pack(query.qtype.value, len(query.key), len(query.value))
        )
        parts.append(query.key)
        parts.append(query.value)
    return b"".join(parts)


def decode_queries(payload: bytes) -> list[Query]:
    """Parse a frame payload back into queries (the PP task's core).

    Raises :class:`ProtocolError` on truncation or unknown opcodes.
    """
    queries: list[Query] = []
    offset = 0
    end = len(payload)
    while offset < end:
        if end - offset < _QUERY_HEADER.size:
            raise ProtocolError(f"truncated query header at offset {offset}")
        opcode, key_len, value_len = _QUERY_HEADER.unpack_from(payload, offset)
        offset += _QUERY_HEADER.size
        try:
            qtype = QueryType(opcode)
        except ValueError:
            raise ProtocolError(f"unknown opcode {opcode} at offset {offset}") from None
        if end - offset < key_len + value_len:
            raise ProtocolError(f"truncated query body at offset {offset}")
        key = payload[offset : offset + key_len]
        offset += key_len
        value = payload[offset : offset + value_len]
        offset += value_len
        queries.append(Query(qtype, key, value))
    return queries


def encode_responses(responses: list[Response]) -> bytes:
    """Serialise responses into one payload (the WR task's output)."""
    parts: list[bytes] = []
    for response in responses:
        parts.append(_RESPONSE_HEADER.pack(response.status.value, len(response.value)))
        parts.append(response.value)
    return b"".join(parts)


def decode_responses(payload: bytes) -> list[Response]:
    """Parse a response payload (used by test clients to verify round trips)."""
    responses: list[Response] = []
    offset = 0
    end = len(payload)
    while offset < end:
        if end - offset < _RESPONSE_HEADER.size:
            raise ProtocolError(f"truncated response header at offset {offset}")
        status_code, value_len = _RESPONSE_HEADER.unpack_from(payload, offset)
        offset += _RESPONSE_HEADER.size
        try:
            status = ResponseStatus(status_code)
        except ValueError:
            raise ProtocolError(f"unknown status {status_code}") from None
        if end - offset < value_len:
            raise ProtocolError(f"truncated response body at offset {offset}")
        value = payload[offset : offset + value_len]
        offset += value_len
        responses.append(Response(status, value))
    return responses
