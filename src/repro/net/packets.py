"""Ethernet/UDP frame model and the reference response packer.

The frame constants price the RV and SD tasks in the cost model
(:mod:`repro.core.tasks`).  Frames carry an opaque payload produced by
:mod:`repro.kv.protocol`; :func:`frames_for_responses` fills each frame up
to the MTU, matching the paper's setup where "queries and their responses
are batched in an Ethernet frame as many as possible" (Section V-A), and
is the reference the columnar framer in :mod:`repro.net.wire` is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kv.protocol import Response, encode_responses

#: Standard Ethernet payload limit.
ETHERNET_MTU = 1500
#: Ethernet + IP + UDP header bytes accounted per frame.
FRAME_HEADER_BYTES = 14 + 20 + 8


@dataclass
class Frame:
    """One UDP-in-Ethernet frame with its payload bytes.

    ``query_count`` is bookkeeping for the RV cost model (per-frame costs
    are amortised over the queries inside).
    """

    payload: bytes
    query_count: int = 0

    @property
    def wire_bytes(self) -> int:
        """On-the-wire size including headers."""
        return FRAME_HEADER_BYTES + len(self.payload)


def frames_for_responses(responses: list[Response], mtu: int = ETHERNET_MTU) -> list[Frame]:
    """Pack responses into MTU-bounded frames (the SD task's output unit).

    Greedy first-fit in order.  A response whose wire size alone exceeds
    the MTU travels in a dedicated frame: one UDP datagram that the IP
    layer fragments transparently (production workloads carry values up to
    tens of kilobytes, e.g. Facebook's ETC).
    """
    return _pack(responses, encode_responses, mtu)


def _pack(messages, encode, mtu: int) -> list[Frame]:
    """Greedy first-fit frame packing over per-message encodings.

    Each message is encoded exactly once; its encoded length doubles as
    the wire-size probe, and frame payloads are joins of the encodings
    already in hand (the codecs are plain per-message concatenations, so
    this is byte-identical to encoding each frame's group in one call).
    """
    frames: list[Frame] = []
    parts: list[bytes] = []
    current_bytes = 0

    def flush() -> None:
        nonlocal parts, current_bytes
        if parts:
            frames.append(Frame(b"".join(parts), query_count=len(parts)))
            parts = []
            current_bytes = 0

    for message in messages:
        encoded = encode((message,))
        size = len(encoded)
        if size > mtu:
            flush()
            frames.append(Frame(encoded, query_count=1))
            continue
        if current_bytes + size > mtu:
            flush()
        parts.append(encoded)
        current_bytes += size
    flush()
    return frames
