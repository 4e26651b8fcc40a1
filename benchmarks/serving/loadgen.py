"""Single-threaded UDP load generator: open loop, closed loop and verify.

One thread drives both sockets with ``select``, so nothing in the generator
competes for the interpreter lock and a send is never held off by a receive
for longer than one response datagram takes to count.

Responses carry no request id.  The server answers each peer in submission
order, so each connection matches by *cumulative count*: request datagram
``k`` is complete when the connection has received as many responses as it
had sent queries up to and including ``k``.

A phase is also cut into one-second *slices*.  The server re-plans in
bursts, so a whole-phase mean moves with how many bursts the phase caught;
the median over slices is what the steady metrics are built from.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from workloads import Tape, Workload, walk_responses

RECV_BYTES = 65536
#: A query with no response this long after a phase stops sending has failed.
DRAIN_S = 0.5
SLICE_S = 1.0


class Conn:
    """One connected UDP socket with cumulative request/response accounting."""

    def __init__(self, address: tuple[str, int], workload: Workload):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
        self.sock.connect(address)
        self.sock.setblocking(False)
        self.value_size = workload.value_size
        self.sent = 0  # queries
        self.answered = 0  # responses
        self.bad = 0
        self.gets = 0  # GETs sent
        self.hits = 0  # OK responses
        self.outstanding: deque[tuple[int, float]] = deque()  # (sent after it, due time)
        self.latencies: list[float] = []

    def close(self) -> None:
        self.sock.close()

    def send(self, tape: Tape, k: int, due: float) -> bool:
        """Send the tape's datagram ``k`` (the tape cycles)."""
        k %= len(tape.payloads)
        try:
            self.sock.send(tape.payloads[k])
        except (BlockingIOError, ConnectionRefusedError):  # refused: server not up yet
            return False
        self.sent += tape.counts[k]
        self.gets += tape.gets[k]
        self.outstanding.append((self.sent, due))
        return True

    def receive(self, limit: int = 16, keep: list[bytes] | None = None) -> None:
        """Take up to ``limit`` queued response datagrams; ``keep`` collects
        their bytes."""
        recv = self.sock.recv
        outstanding = self.outstanding
        for _ in range(limit):
            try:
                data = recv(RECV_BYTES)
            except (BlockingIOError, ConnectionRefusedError):
                return
            now = time.perf_counter()
            if keep is not None:
                keep.append(data)
            count, hits, bad = walk_responses(data, self.value_size)
            self.answered += count
            self.hits += hits
            self.bad += bad
            answered = self.answered
            while outstanding and outstanding[0][0] <= answered:
                self.latencies.append(now - outstanding.popleft()[1])


@dataclass
class Phase:
    """What one phase sent and got back.  Times are ``perf_counter`` seconds,
    which on Linux is the system-wide monotonic clock the server's trace uses."""

    start: float
    stop: float  # when sending stopped
    sent: int = 0
    answered: int = 0
    answered_at_stop: int = 0
    bad: int = 0
    gets: int = 0
    hits: int = 0
    latencies_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    late_ms: np.ndarray = field(default_factory=lambda: np.empty(0))
    client_cpu_s: float = 0.0
    #: One row per slice boundary: time, responses so far, the probe's value.
    marks: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))

    @property
    def wall(self) -> float:
        return self.stop - self.start

    @property
    def failed(self) -> int:
        return (self.sent - self.answered) + self.bad

    def slice_qps(self) -> np.ndarray:
        return np.diff(self.marks[:, 1]) / np.diff(self.marks[:, 0])

    def slice_probe_per_query(self) -> np.ndarray:
        """The probe's increase per answered query, slice by slice."""
        return np.diff(self.marks[:, 2]) / np.maximum(np.diff(self.marks[:, 1]), 1)

    def summary(self) -> dict:
        return {
            "sent": self.sent,
            "answered": self.answered,
            "failed": self.failed,
            "seconds": self.wall,
            "slices": len(self.marks) - 1,
            "latency_samples": int(self.latencies_ms.size),
        }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; NaN for no samples."""
    if len(values) == 0:
        return float("nan")
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered[min(len(ordered) - 1, int(np.ceil(q / 100.0 * len(ordered))) - 1)])


def _pump(conns: list[Conn], timeout: float) -> None:
    ready, _, _ = select.select([c.sock for c in conns], (), (), max(timeout, 0.0))
    for conn in conns:
        if conn.sock in ready:
            conn.receive()


_COUNTERS = ("sent", "answered", "bad", "gets", "hits")


class _Recorder:
    """Book-keeping shared by the two loops: counters before and after,
    slice marks while sending, the drain at the end."""

    def __init__(self, conns: list[Conn], probe):
        for conn in conns:
            # Anything still outstanding was counted as failed by the last phase.
            conn.outstanding.clear()
            conn.latencies = []
            conn.answered = conn.sent
        self.conns = conns
        self.probe = probe or (lambda: 0.0)
        self.before = self._totals()
        self.cpu0 = time.process_time()
        self.start = time.perf_counter()
        self.marks: list[tuple[float, int, float]] = []
        self.next_mark = self.start
        self.mark(self.start)

    def _totals(self) -> dict[str, int]:
        return {name: sum(getattr(c, name) for c in self.conns) for name in _COUNTERS}

    def mark(self, now: float) -> None:
        """Record a slice boundary if one is due."""
        if now >= self.next_mark:
            self.marks.append((now, sum(c.answered for c in self.conns), self.probe()))
            self.next_mark += SLICE_S

    def finish(self, late: list[float]) -> Phase:
        stop = time.perf_counter()
        answered_at_stop = sum(c.answered for c in self.conns) - self.before["answered"]
        if len(self.marks) < 2:  # shorter than a slice: the phase is the slice
            self.next_mark = stop
            self.mark(stop)
        deadline = stop + DRAIN_S
        while any(c.outstanding for c in self.conns) and time.perf_counter() < deadline:
            _pump(self.conns, 0.01)
        after = self._totals()
        latencies = [x for c in self.conns for x in c.latencies]
        return Phase(
            start=self.start,
            stop=stop,
            answered_at_stop=answered_at_stop,
            **{name: after[name] - self.before[name] for name in _COUNTERS},
            latencies_ms=np.asarray(latencies, dtype=float) * 1e3,
            late_ms=np.asarray(late, dtype=float) * 1e3,
            client_cpu_s=time.process_time() - self.cpu0,
            marks=np.asarray(self.marks, dtype=float),
        )


def open_loop(
    conns: list[Conn], tape: Tape, rate_qps: float, seconds: float, probe=None
) -> Phase:
    """Send on a fixed schedule whatever comes back.

    Datagram ``k`` is due at ``start + queries_before_k / rate_qps`` and goes
    to connection ``k % len(conns)``.  Latency runs from the *due* time, so a
    stall in the server (or a late generator) shows in every request it
    delayed, not only in the one that hit it.  ``probe()`` is sampled at each
    slice boundary (the benchmark passes the server's CPU time).
    """
    record = _Recorder(conns, probe)
    counts = tape.counts
    size = len(counts)
    late: list[float] = []
    end = record.start + seconds
    k = 0
    due = record.start
    while due < end:
        now = time.perf_counter()
        record.mark(now)
        if now >= due:
            if conns[k % len(conns)].send(tape, k, due):
                late.append(now - due)
                due += counts[k % size] / rate_qps
                k += 1
            else:
                _pump(conns, 0.0)  # send buffer full: lateness accrues
        else:
            _pump(conns, due - now)
    return record.finish(late)


def closed_loop(
    conns: list[Conn], tape: Tape, inflight: int, seconds: float | None = None, probe=None
) -> Phase:
    """Keep ``inflight`` queries outstanding on every connection.

    With ``seconds`` the tape cycles until the time is up; without, the tape
    is sent exactly once (prefill).  Latency runs from the send.
    """
    record = _Recorder(conns, probe)
    counts = tape.counts
    size = len(counts)
    total = size if seconds is None else None
    end = None if seconds is None else record.start + seconds
    k = 0
    while k != total:
        now = time.perf_counter()
        if end is not None and now >= end:
            break
        record.mark(now)
        for conn in conns:
            while k != total and conn.sent - conn.answered + counts[k % size] <= inflight:
                if not conn.send(tape, k, time.perf_counter()):
                    break
                k += 1
        _pump(conns, 0.05)
    return record.finish([])


def exchange(conn: Conn, tape: Tape, k: int, timeout: float = 2.0) -> bytes | None:
    """One datagram in flight: send the tape's datagram ``k``, then collect
    its responses' bytes.

    Returns ``None`` on timeout.  Used by verify (the server's batch is then
    exactly this datagram) and by the ready probe.
    """
    want = conn.answered + tape.counts[k]
    if not conn.send(tape, k, time.perf_counter()):
        return None
    parts: list[bytes] = []
    deadline = time.perf_counter() + timeout
    while conn.answered < want:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not select.select([conn.sock], (), (), remaining)[0]:
            conn.answered = conn.sent  # resynchronise; the caller reports the loss
            return None
        conn.receive(keep=parts)
    return b"".join(parts)
