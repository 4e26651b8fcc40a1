"""Unit tests for the frame model and the reference response packer."""

from repro.kv.protocol import Response, ResponseStatus, decode_responses
from repro.net.packets import ETHERNET_MTU, FRAME_HEADER_BYTES, frames_for_responses


def hits(n):
    return [Response(ResponseStatus.OK, f"value-{i:05d}".encode()) for i in range(n)]


class TestFramePacking:
    def test_small_batch_one_frame(self):
        frames = frames_for_responses(hits(10))
        assert len(frames) == 1
        assert frames[0].query_count == 10

    def test_packs_to_mtu(self):
        frames = frames_for_responses(hits(500))
        for frame in frames:
            assert len(frame.payload) <= ETHERNET_MTU
        # Maximal batching: every frame except the last is nearly full.
        per_response = hits(1)[0].wire_size
        for frame in frames[:-1]:
            assert len(frame.payload) + per_response > ETHERNET_MTU

    def test_round_trip_through_frames(self):
        responses = hits(300)
        frames = frames_for_responses(responses)
        decoded = []
        for frame in frames:
            decoded.extend(decode_responses(frame.payload))
        assert [r.value for r in decoded] == [r.value for r in responses]

    def test_oversized_response_gets_dedicated_frame(self):
        """A jumbo value rides alone in one IP-fragmented datagram."""
        small = Response(ResponseStatus.STORED)
        jumbo = Response(ResponseStatus.OK, b"x" * 8000)
        frames = frames_for_responses([small, jumbo, small])
        assert len(frames) == 3
        assert frames[1].query_count == 1
        assert len(frames[1].payload) > ETHERNET_MTU
        decoded = []
        for frame in frames:
            decoded.extend(decode_responses(frame.payload))
        assert [r.value for r in decoded] == [b"", b"x" * 8000, b""]

    def test_wire_bytes_include_headers(self):
        frame = frames_for_responses(hits(1))[0]
        assert frame.wire_bytes == FRAME_HEADER_BYTES + len(frame.payload)

    def test_empty_batch_no_frames(self):
        assert frames_for_responses([]) == []

    def test_response_packing_round_trip(self):
        responses = [Response(ResponseStatus.OK, b"v" * 50) for _ in range(100)]
        frames = frames_for_responses(responses)
        assert len(frames) > 1
        decoded = []
        for frame in frames:
            decoded.extend(decode_responses(frame.payload))
        assert len(decoded) == 100
