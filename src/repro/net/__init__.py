"""Network substrate: Ethernet/UDP frames and the columnar wire plane.

The frame constants stand in for the paper's 10 GbE testbed in the cost
model's RV and SD terms; queries and responses are batched into frames "as
many as possible" (Section V-A).  The UDP server decodes and frames real
datagrams through :mod:`repro.net.wire`.
"""

from repro.net.packets import (
    ETHERNET_MTU,
    FRAME_HEADER_BYTES,
    Frame,
    frames_for_responses,
)
from repro.net.wire import (
    QueryColumns,
    WindowParseError,
    chunk_response_payloads,
    decode_payload,
    decode_window,
    encode_response_window,
)

__all__ = [
    "ETHERNET_MTU",
    "FRAME_HEADER_BYTES",
    "Frame",
    "QueryColumns",
    "WindowParseError",
    "chunk_response_payloads",
    "decode_payload",
    "decode_window",
    "encode_response_window",
    "frames_for_responses",
]
