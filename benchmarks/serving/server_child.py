"""The traced server: ``repro serve`` built by hand, with spans around it.

Builds ``DidoSystem`` / ``DidoUDPServer`` with the same arguments
``repro.cli.cmd_serve`` passes when only ``--host --port --engine vector``
are given, after installing the timing wrappers from :mod:`spans`.  SIGUSR1
records the public counters (the benchmark sends one at each phase
boundary); SIGTERM stops the serve loop and writes the span file.

The process also ends itself when its parent changes or ``--max-lifetime-s``
elapses, so it cannot outlive a benchmark that was killed.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--max-lifetime-s", type=float, default=300.0)
    args = parser.parse_args()

    recorder = spans.Recorder()
    recorder.install()

    from repro.core.dido import DidoSystem
    from repro.server import DidoUDPServer

    system = DidoSystem(memory_bytes=64 << 20, expected_objects=65536, engine="vector")
    plain_socket = socket.socket
    socket.socket = recorder.socket_class()
    try:
        server = DidoUDPServer(("127.0.0.1", args.port), system=system)
    finally:
        socket.socket = plain_socket

    parent = os.getppid()
    deadline = time.monotonic() + args.max_lifetime_s

    def watchdog(*_):
        if os.getppid() != parent or time.monotonic() > deadline:
            server.stop()

    signal.signal(signal.SIGTERM, lambda *_: server.stop())
    signal.signal(signal.SIGUSR1, lambda *_: recorder.mark(spans.public_counters(server)))
    signal.signal(signal.SIGALRM, watchdog)
    signal.setitimer(signal.ITIMER_REAL, 1.0, 1.0)
    try:
        server.serve_forever()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        server.stop()
        system.close()
        recorder.write(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
