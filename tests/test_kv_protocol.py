"""Unit tests for the binary wire protocol."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.kv.protocol import (
    Query,
    QueryType,
    Response,
    ResponseStatus,
    datagram_groups,
    decode_queries,
    decode_responses,
    encode_queries,
    encode_responses,
)


class TestQueryValidation:
    def test_empty_key_rejected(self):
        with pytest.raises(ProtocolError):
            Query(QueryType.GET, b"")

    def test_get_with_value_rejected(self):
        with pytest.raises(ProtocolError):
            Query(QueryType.GET, b"k", b"value")

    def test_delete_with_value_rejected(self):
        with pytest.raises(ProtocolError):
            Query(QueryType.DELETE, b"k", b"value")

    def test_set_carries_value(self):
        q = Query(QueryType.SET, b"k", b"v")
        assert q.value == b"v"

    def test_wire_size(self):
        q = Query(QueryType.SET, b"key", b"value")
        assert q.wire_size == 7 + 3 + 5


class TestQueryRoundTrip:
    def test_single_get(self):
        out = decode_queries(encode_queries([Query(QueryType.GET, b"k1")]))
        assert len(out) == 1
        assert out[0].qtype is QueryType.GET
        assert out[0].key == b"k1"

    def test_mixed_batch(self):
        batch = [
            Query(QueryType.GET, b"a"),
            Query(QueryType.SET, b"b", b"valueB"),
            Query(QueryType.DELETE, b"c"),
            Query(QueryType.SET, b"d", b""),
        ]
        out = decode_queries(encode_queries(batch))
        assert [q.qtype for q in out] == [q.qtype for q in batch]
        assert [q.key for q in out] == [q.key for q in batch]
        assert [q.value for q in out] == [q.value for q in batch]

    def test_binary_payloads(self):
        value = bytes(range(256)) * 3
        out = decode_queries(encode_queries([Query(QueryType.SET, b"\x00\xffk", value)]))
        assert out[0].value == value

    def test_empty_batch(self):
        assert decode_queries(encode_queries([])) == []


class TestQueryDecodingErrors:
    def test_truncated_header(self):
        with pytest.raises(ProtocolError):
            decode_queries(b"\x01\x00")

    def test_truncated_body(self):
        payload = encode_queries([Query(QueryType.SET, b"key", b"value")])
        with pytest.raises(ProtocolError):
            decode_queries(payload[:-2])

    def test_unknown_opcode(self):
        payload = bytearray(encode_queries([Query(QueryType.GET, b"key")]))
        payload[0] = 99
        with pytest.raises(ProtocolError):
            decode_queries(bytes(payload))


class TestResponseRoundTrip:
    def test_ok_with_value(self):
        out = decode_responses(encode_responses([Response(ResponseStatus.OK, b"data")]))
        assert out[0].status is ResponseStatus.OK
        assert out[0].value == b"data"

    def test_all_statuses(self):
        batch = [Response(status) for status in ResponseStatus]
        out = decode_responses(encode_responses(batch))
        assert [r.status for r in out] == list(ResponseStatus)

    def test_wire_size(self):
        r = Response(ResponseStatus.OK, b"12345")
        assert r.wire_size == 5 + 5

    def test_truncated_response(self):
        payload = encode_responses([Response(ResponseStatus.OK, b"data")])
        with pytest.raises(ProtocolError):
            decode_responses(payload[:-1])

    def test_unknown_status(self):
        payload = bytearray(encode_responses([Response(ResponseStatus.OK)]))
        payload[0] = 200
        with pytest.raises(ProtocolError):
            decode_responses(bytes(payload))


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=300), max_size=60),
    max_payload=st.integers(min_value=1, max_value=400),
)
def test_datagram_groups_fit_the_bound_and_keep_order(sizes, max_payload):
    """Every group fits ``max_payload`` unless it is one oversized query,
    no group closes while the next query would still fit, and the groups
    concatenate back to the input, in order."""
    queries = [
        Query(QueryType.SET, b"k%d" % i, b"v" * size) for i, size in enumerate(sizes)
    ]
    groups = datagram_groups(queries, max_payload)
    assert [q for group in groups for q in group] == queries
    for group in groups:
        assert group
        assert len(group) == 1 or sum(q.wire_size for q in group) <= max_payload
    for group, following in zip(groups, groups[1:]):
        assert sum(q.wire_size for q in group) + following[0].wire_size > max_payload
