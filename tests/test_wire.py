"""The columnar wire plane vs the reference dataclass codec.

Every test here is an identity check: whatever the per-object reference
codec (:mod:`repro.kv.protocol`, :func:`repro.net.packets._pack`)
produces, the columnar plane (:mod:`repro.net.wire`) must produce byte
for byte — including the exact :class:`~repro.errors.ProtocolError`
messages on malformed input.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.kv.protocol import (
    Query,
    QueryType,
    Response,
    ResponseStatus,
    decode_queries,
    encode_queries,
    encode_responses,
)
from repro.net.packets import ETHERNET_MTU, frames_for_responses
from repro.net.wire import (
    QueryColumns,
    WindowParseError,
    chunk_response_payloads,
    cut_frame_bounds,
    decode_payload,
    decode_window,
    encode_response_window,
    frames_for_response_columns,
)
from repro.server import MAX_RESPONSE_PAYLOAD

keys = st.binary(min_size=1, max_size=64)
#: Values reach past the MTU so oversized queries/responses are covered.
values = st.binary(min_size=0, max_size=2 * ETHERNET_MTU)


@st.composite
def query_batches(draw, max_size=40):
    """Random batches over all three opcodes, empty and oversized values."""
    raw = draw(
        st.lists(
            st.tuples(st.sampled_from(list(QueryType)), keys, values),
            max_size=max_size,
        )
    )
    return [
        Query(qtype, key, value if qtype is QueryType.SET else b"")
        for qtype, key, value in raw
    ]


responses_strategy = st.lists(
    st.tuples(st.sampled_from(list(ResponseStatus)), values), max_size=40
)


def split(window, stops):
    """Per-payload row slices of a decoded window."""
    return [window[a:b] for a, b in zip([0, *stops], stops)]


def peer_chunks(responses: list[Response]) -> list[bytes]:
    """Reference datagram cut: greedy first-fit per-object packing."""
    return [f.payload for f in frames_for_responses(responses, MAX_RESPONSE_PAYLOAD)]


def columns_equal_queries(columns: QueryColumns, queries: list[Query]) -> bool:
    return (
        columns.qtypes == [q.qtype for q in queries]
        and columns.keys == [q.key for q in queries]
        and columns.values == [q.value for q in queries]
    )


# ------------------------------------------------------------------- decode


class TestDecodeIdentity:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(query_batches())
    def test_single_payload_matches_legacy(self, batch):
        payload = encode_queries(batch)
        assert columns_equal_queries(decode_payload(payload), decode_queries(payload))

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(query_batches(max_size=12), max_size=8))
    def test_window_matches_per_datagram_decode(self, batches):
        payloads = [encode_queries(batch) for batch in batches]
        window, stops, errors = decode_window(payloads)
        assert errors == []
        assert len(stops) == len(payloads)
        for segment, payload in zip(split(window, stops), payloads):
            assert columns_equal_queries(segment, decode_queries(payload))

    def test_polls_append_to_one_open_window(self):
        """Successive polls extend one window; stops count from its start,
        and the NumPy columns appear only when the window is sealed.  A
        decode with no window to append to comes back sealed."""
        first = [Query(QueryType.SET, b"a", b"1"), Query(QueryType.GET, b"b")]
        second = [Query(QueryType.DELETE, b"c")]
        window, stops, _ = decode_window([encode_queries(first)], QueryColumns.open_window())
        assert stops == [2]
        same, stops, _ = decode_window([encode_queries(second), b""], window)
        assert same is window and stops == [3, 3]
        assert window.opcodes == [2, 1, 3] and window.key_lens is None
        alone, stops, _ = decode_window([encode_queries(first), encode_queries(second)])
        assert stops == [2, 3]
        for sealed in (window.sealed(), alone):
            assert sealed.to_queries() == first + second
            assert sealed.opcodes.tolist() == [2, 1, 3]
            assert sealed.key_lens.tolist() == [1, 1, 1]
            assert sealed.value_lens.tolist() == [1, 0, 0]

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(query_batches(), st.data())
    def test_mutated_payload_same_error_or_same_result(self, batch, data):
        """Corrupt or truncate a valid payload: identical outcome both ways."""
        payload = bytearray(encode_queries(batch))
        if payload:
            action = data.draw(st.sampled_from(["truncate", "corrupt", "extend"]))
            if action == "truncate":
                cut = data.draw(st.integers(0, len(payload) - 1))
                payload = payload[:cut]
            elif action == "corrupt":
                pos = data.draw(st.integers(0, len(payload) - 1))
                payload[pos] = data.draw(st.integers(0, 255))
            else:
                payload.extend(data.draw(st.binary(min_size=1, max_size=16)))
        payload = bytes(payload)
        try:
            expected = decode_queries(payload)
        except ProtocolError as exc:
            with pytest.raises(ProtocolError) as caught:
                decode_payload(payload)
            assert str(caught.value) == str(exc)
        else:
            assert columns_equal_queries(decode_payload(payload), expected)

    def test_error_isolated_to_its_datagram(self):
        good = encode_queries([Query(QueryType.SET, b"k", b"v")])
        bad = b"\x07" + good[1:]  # unknown opcode
        window, stops, errors = decode_window([good, bad, good])
        segments = split(window, stops)
        assert [e.datagram for e in errors] == [1]
        assert errors[0].message == "unknown opcode 7 at offset 7"
        assert len(segments[0]) == len(segments[2]) == 1
        assert len(segments[1]) == 0
        # A poll of 64 equal-size datagrams, one of them malformed, decodes
        # exactly like one legacy decode per payload.
        payloads = [
            encode_queries([Query(QueryType.GET, b"key-%02d" % d)] * 4) for d in range(64)
        ]
        payloads[17] = b"\x07" + payloads[17][1:]
        window, stops, errors = decode_window(payloads)
        for d, (segment, payload) in enumerate(zip(split(window, stops), payloads)):
            try:
                expected = decode_queries(payload)
            except ProtocolError as exc:
                assert errors == [WindowParseError(d, str(exc))]
                assert len(segment) == 0
            else:
                assert columns_equal_queries(segment, expected)
        assert [e.datagram for e in errors] == [17]

    def test_errored_datagram_drops_all_its_queries(self):
        """A datagram failing mid-way contributes nothing, like the legacy
        all-or-nothing decode."""
        two = encode_queries(
            [Query(QueryType.GET, b"first"), Query(QueryType.GET, b"second")]
        )
        truncated = two[:-3]
        window, stops, errors = decode_window([truncated])
        assert stops == [0] and len(window) == 0
        assert len(errors) == 1

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"\x01\x01\x00", "truncated query header at offset 0"),
            (b"\x09\x01\x00\x00\x00\x00\x00k", "unknown opcode 9 at offset 7"),
            (b"\x01\x05\x00\x00\x00\x00\x00k", "truncated query body at offset 7"),
            (b"\x01\x00\x00\x00\x00\x00\x00", "query key must be non-empty"),
            (
                b"\x01\x01\x00\x01\x00\x00\x00kv",
                "GET query cannot carry a value",
            ),
            (
                b"\x03\x01\x00\x01\x00\x00\x00kv",
                "DELETE query cannot carry a value",
            ),
        ],
    )
    def test_exact_error_messages(self, payload, message):
        window, stops, errors = decode_window([payload])
        assert [(e.datagram, e.message) for e in errors] == [(0, message)]
        assert stops == [0] and len(window) == 0
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            decode_queries(payload)


# ------------------------------------------------------------------- encode


def make_responses(raw) -> tuple[list[Response], list[int], list[bytes | None]]:
    responses = [Response(status, value) for status, value in raw]
    statuses = [r.status.value for r in responses]
    values_col = [r.value if r.value else None for r in responses]
    return responses, statuses, values_col


class TestEncodeIdentity:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(responses_strategy)
    def test_window_encode_matches_legacy(self, raw):
        responses, statuses, values_col = make_responses(raw)
        buffer, offsets = encode_response_window(statuses, values_col)
        assert bytes(buffer) == encode_responses(responses)
        assert list(offsets)[0] == 0
        assert int(list(offsets)[-1]) == len(buffer)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(responses_strategy)
    def test_frames_match_legacy_pack(self, raw):
        responses, statuses, values_col = make_responses(raw)
        expected = frames_for_responses(responses)
        got = frames_for_response_columns(statuses, values_col)
        assert [(f.payload, f.query_count) for f in got] == [
            (f.payload, f.query_count) for f in expected
        ]

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(responses_strategy)
    def test_precomputed_sizes_change_nothing(self, raw):
        responses, statuses, values_col = make_responses(raw)
        sizes = [r.wire_size for r in responses]
        with_sizes = encode_response_window(statuses, values_col, sizes)
        without = encode_response_window(statuses, values_col)
        assert bytes(with_sizes[0]) == bytes(without[0])
        assert list(with_sizes[1]) == list(without[1])


# ----------------------------------------------------------------- chunking


class TestChunkingIdentity:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(responses_strategy)
    def test_peer_payloads_match_server_chunking(self, raw):
        responses, statuses, values_col = make_responses(raw)
        buffer, offsets = encode_response_window(statuses, values_col)
        got = chunk_response_payloads(
            buffer, offsets, [(0, len(responses))], MAX_RESPONSE_PAYLOAD
        )
        assert got == peer_chunks(responses)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(responses_strategy, st.integers(1, 5))
    def test_split_ranges_equal_concatenated_span(self, raw, pieces):
        """One peer's responses split across several arrival segments chunk
        exactly like the concatenated list (the server's per-peer view)."""
        responses, statuses, values_col = make_responses(raw)
        n = len(responses)
        buffer, offsets = encode_response_window(statuses, values_col)
        bounds = sorted({0, n, *[(i * n) // pieces for i in range(1, pieces)]})
        ranges = list(zip(bounds, bounds[1:]))
        got = chunk_response_payloads(buffer, offsets, ranges, MAX_RESPONSE_PAYLOAD)
        assert got == peer_chunks(responses)

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(responses_strategy, st.sampled_from([64, 600, ETHERNET_MTU]))
    def test_cut_frame_bounds_match_pack_boundaries(self, raw, mtu):
        responses, statuses, values_col = make_responses(raw)
        _, offsets = encode_response_window(statuses, values_col)
        bounds = cut_frame_bounds(offsets, mtu)
        from repro.net.packets import _pack

        expected = _pack(responses, encode_responses, mtu)
        spans = [b - a for a, b in zip(bounds, bounds[1:])]
        assert spans == [f.query_count for f in expected]

    def test_oversized_response_rides_alone(self):
        raw = [
            (ResponseStatus.OK, b"a" * 100),
            (ResponseStatus.OK, b"b" * (2 * MAX_RESPONSE_PAYLOAD)),
            (ResponseStatus.OK, b"c" * 100),
        ]
        responses, statuses, values_col = make_responses(raw)
        buffer, offsets = encode_response_window(statuses, values_col)
        got = chunk_response_payloads(
            buffer, offsets, [(0, 3)], MAX_RESPONSE_PAYLOAD
        )
        assert got == peer_chunks(responses)
        assert len(got) == 3


# ------------------------------------------------------------ QueryColumns


class TestQueryColumns:
    def test_round_trip_through_queries(self):
        queries = [
            Query(QueryType.SET, b"k1", b"v1"),
            Query(QueryType.GET, b"k2"),
            Query(QueryType.DELETE, b"k3"),
        ]
        columns = QueryColumns.from_queries(queries)
        assert columns.to_queries() == queries
        assert len(columns) == 3

    def test_slicing_keeps_numpy_columns(self):
        payload = encode_queries(
            [Query(QueryType.SET, b"k%d" % i, b"v") for i in range(6)]
        )
        columns = decode_payload(payload)
        part = columns[2:5]
        assert len(part) == 3
        assert part.keys == [b"k2", b"k3", b"k4"]
        assert list(part.opcodes) == [2, 2, 2]
        assert list(part.key_lens) == [2, 2, 2]

    def test_concat_restores_window(self):
        batches = [
            [Query(QueryType.SET, b"a", b"1")],
            [Query(QueryType.GET, b"b"), Query(QueryType.DELETE, b"c")],
        ]
        window, stops, errors = decode_window([encode_queries(b) for b in batches])
        assert not errors
        merged = QueryColumns.concat(split(window, stops))
        assert list(merged.opcodes) == [2, 1, 3]
        assert merged.to_queries() == [q for batch in batches for q in batch]

    def test_concat_of_no_parts_is_an_empty_batch(self):
        merged = QueryColumns.concat([])
        assert len(merged) == 0
        assert merged == QueryColumns([], [], [])

    def test_slice_indexing_only(self):
        columns = QueryColumns.from_queries([Query(QueryType.GET, b"k")])
        with pytest.raises(TypeError):
            columns[0]
