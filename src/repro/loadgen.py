"""Pipelined load generator for the UDP server (``repro loadgen``).

A :class:`~repro.client.DidoClient` is a correctness tool: one batch in
flight, responses decoded into objects.  Measuring the server's wire plane
needs the opposite — datagrams pre-encoded once and replayed, several
windows in flight, and responses *counted* rather than decoded — so the
generator saturates the server instead of itself.

A single server is the one-node case of a fleet: the seeded query sequence
is routed to its owners (all of it to the one server), one tape is built
per owner, and a driver runs one job per ``(name, address, tape)``.  Two
driving disciplines:

* **closed loop** — each worker keeps ``depth`` request datagrams in
  flight on its own socket, waits for the responses to its window, then
  immediately sends the next; measures sustainable throughput plus
  per-window latency percentiles.
* **open loop** — per node, a sender paces datagrams at that node's share
  of a target queries/second regardless of responses while a receiver
  thread counts what comes back and a prober times single GETs; measures
  behaviour under offered load (the paper's client machines).

Both report a :class:`LoadgenReport`: one per node, merged for the fleet.
The CLI prints it or dumps JSON for scripts.
"""

from __future__ import annotations

import functools
import random
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.kv.protocol import (
    MAX_QUERY_PAYLOAD,
    Query,
    QueryType,
    ResponseStatus,
    datagram_groups,
    decode_queries,
    encode_queries,
)
from repro.net.wire import RESPONSE_HEADER_BYTES
from repro.server import MAX_DATAGRAM

#: Receive-buffer request for load-generator sockets.  Response bursts for
#: a deep window arrive faster than a worker thread drains them; the
#: kernel default (a few hundred KiB) drops datagrams under that burst and
#: every drop stalls a closed-loop window for its full timeout.
_RCVBUF_BYTES = 1 << 21


def _make_socket(timeout_s: float) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _RCVBUF_BYTES)
    except OSError:  # pragma: no cover - platform refuses; defaults apply
        pass
    sock.settimeout(timeout_s)
    return sock


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class WorkloadShape:
    """What the generated queries look like."""

    num_keys: int = 2048
    key_size: int = 16
    value_size: int = 64
    get_ratio: float = 0.95
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_keys < 1:
            raise ConfigurationError("need at least one key")
        if not 1 <= self.key_size <= 0xFFFF:
            raise ConfigurationError("key size must fit the u16 header field")
        if not 0 <= self.value_size <= 0xFFFFFFFF:
            raise ConfigurationError("value size must fit the u32 header field")
        if not 0.0 <= self.get_ratio <= 1.0:
            raise ConfigurationError("get ratio must be within [0, 1]")


def make_keys(shape: WorkloadShape) -> list[bytes]:
    """The deterministic keyspace for ``shape`` (used by prefill too)."""
    width = max(1, shape.key_size)
    return [
        (b"%08d" % i).rjust(width, b"k")[:width] for i in range(shape.num_keys)
    ]


def _query_sequence(shape: WorkloadShape, queries: int) -> list[Query]:
    """The seeded GET/SET sequence every tape of ``shape`` is cut from."""
    if queries < 1:
        raise ConfigurationError("need at least one query")
    rng = random.Random(shape.seed)
    keys = make_keys(shape)
    value = b"v" * shape.value_size
    sequence: list[Query] = []
    for _ in range(queries):
        key = keys[rng.randrange(shape.num_keys)]
        if rng.random() < shape.get_ratio:
            sequence.append(Query(QueryType.GET, key))
        else:
            sequence.append(Query(QueryType.SET, key, value))
    return sequence


@dataclass
class RequestTape:
    """Pre-encoded request datagrams, replayed verbatim by every worker.

    ``payloads[i]`` holds ``counts[i]`` encoded queries and the whole tape
    carries ``total_queries``; encoding happens once, so the measured loop
    is sendto/recv only.  ``response_bytes[i]``, when present, is the
    exact response volume datagram ``i`` produces against a prefilled
    store (every GET hits, every SET stores): the closed loop counts
    received *bytes* against it instead of walking response headers,
    keeping the client out of the measurement on shared CPUs.  Tapes for
    an unfilled store (GETs may miss) or a fleet (redirects differ in
    size) carry none, and the closed loop walks the headers.
    """

    payloads: list[bytes]
    counts: list[int]
    total_queries: int
    response_bytes: list[int] = field(default_factory=list)


def _tape(queries: list[Query], max_payload: int, hit_value_size: int | None) -> RequestTape:
    """Pack ``queries`` into datagrams; with ``hit_value_size`` (the run
    prefilled), also record each datagram's response volume."""
    groups = datagram_groups(queries, max_payload)
    response_bytes: list[int] = []
    if hit_value_size is not None:
        # GET hits return the stored value, SETs a bare STORED status.
        get_response = RESPONSE_HEADER_BYTES + hit_value_size
        response_bytes = [
            sum(
                get_response if q.qtype is QueryType.GET else RESPONSE_HEADER_BYTES
                for q in group
            )
            for group in groups
        ]
    return RequestTape(
        payloads=[encode_queries(group) for group in groups],
        counts=[len(group) for group in groups],
        total_queries=len(queries),
        response_bytes=response_bytes,
    )


def build_tape(
    shape: WorkloadShape,
    queries: int,
    max_payload: int = MAX_QUERY_PAYLOAD,
) -> RequestTape:
    """Encode ``queries`` random GET/SET queries into datagram payloads,
    with the response volume each draws from a prefilled store."""
    return _tape(_query_sequence(shape, queries), max_payload, shape.value_size)


def build_cluster_tapes(
    shape: WorkloadShape,
    queries: int,
    manifest,
    max_payload: int = MAX_QUERY_PAYLOAD,
) -> dict[str, RequestTape]:
    """Hash-split the deterministic request tape across the fleet.

    Routes the *same* query sequence as :func:`build_tape` (same shape,
    same seed) to its owners under ``manifest`` and builds one tape per
    owner, preserving the per-node order.  The union of the per-node
    tapes equals the single-node tape's query multiset, which is what lets
    the cluster bench compare merged responses byte-for-byte against a
    single-node replay.
    """
    from repro.cluster.manifest import ManifestRouter

    sequence = _query_sequence(shape, queries)
    router = ManifestRouter(manifest)
    per_node: dict[str, list[Query]] = {name: [] for name in router.names}
    for query, owner in zip(sequence, router.owners_for([q.key for q in sequence])):
        per_node[owner].append(query)
    return {
        name: _tape(node_queries, max_payload, None)
        for name, node_queries in per_node.items()
        if node_queries
    }


def prefill(client, shape: WorkloadShape, batch: int = 512) -> int:
    """SET every key of the keyspace through ``client`` — anything with
    ``execute``: one server's client or the fleet's routed one — so GETs
    during the run hit; returns how many SETs were stored."""
    keys = make_keys(shape)
    value = b"v" * shape.value_size
    stored = 0
    for start in range(0, len(keys), batch):
        answers = client.execute(
            [Query(QueryType.SET, key, value) for key in keys[start : start + batch]]
        )
        stored += sum(answer.status is ResponseStatus.STORED for answer in answers)
    return stored


#: Wire value of :attr:`repro.kv.protocol.ResponseStatus.WRONG_NODE`.
_WRONG_NODE_STATUS = 5


def count_responses_and_redirects(payload: bytes) -> tuple[int, int]:
    """Messages and ``WRONG_NODE`` statuses in one response datagram, by
    walking the headers only (values are skipped, never decoded)."""
    count = 0
    redirects = 0
    offset = 0
    end = len(payload)
    while offset + RESPONSE_HEADER_BYTES <= end:
        if payload[offset] == _WRONG_NODE_STATUS:
            redirects += 1
        value_len = int.from_bytes(
            payload[offset + 1 : offset + RESPONSE_HEADER_BYTES], "little"
        )
        offset += RESPONSE_HEADER_BYTES + value_len
        count += 1
    return count, redirects


# ----------------------------------------------------------------- reports


@dataclass
class LoadgenReport:
    """Outcome of one load-generator run, for one node or a whole fleet.

    A fleet's report is its per-node reports merged: counts summed and
    latencies concatenated; ``per_node`` keeps the breakdown.
    """

    mode: str
    duration_s: float
    workers: int
    depth: int
    queries_sent: int
    responses_received: int
    timeouts: int
    latencies_ms: list[float] = field(default_factory=list, repr=False)
    #: ``WRONG_NODE`` responses observed (cluster runs; 0 single-node).
    redirects: int = 0
    #: Client-side retry rounds (the fleet's prefill; 0 single-node).
    retries: int = 0
    #: The merged reports by node name (a fleet run; empty for one node).
    per_node: dict[str, LoadgenReport] = field(default_factory=dict, repr=False)

    @property
    def qps(self) -> float:
        """Answered queries per second (the throughput that matters)."""
        return self.responses_received / self.duration_s if self.duration_s else 0.0

    @property
    def offered_qps(self) -> float:
        return self.queries_sent / self.duration_s if self.duration_s else 0.0

    def latency_ms(self, quantile: float) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = min(len(ordered) - 1, int(quantile * len(ordered)))
        return ordered[rank]

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "duration_s": round(self.duration_s, 4),
            "workers": self.workers,
            "depth": self.depth,
            "queries_sent": self.queries_sent,
            "responses_received": self.responses_received,
            "timeouts": self.timeouts,
            "qps": round(self.qps, 1),
            "offered_qps": round(self.offered_qps, 1),
            "latency_p50_ms": round(self.latency_ms(0.50), 3),
            "latency_p95_ms": round(self.latency_ms(0.95), 3),
            "latency_p99_ms": round(self.latency_ms(0.99), 3),
            "redirects": self.redirects,
            "retries": self.retries,
        }
        if self.per_node:
            out["nodes"] = len(self.per_node)
            out["per_node"] = {
                name: report.to_dict() for name, report in sorted(self.per_node.items())
            }
        return out

    def __str__(self) -> str:
        lines = [
            f"{self.mode}: {self.qps:,.0f} qps "
            f"({self.responses_received:,}/{self.queries_sent:,} answered in "
            f"{self.duration_s:.2f}s, {self.workers} workers x depth {self.depth}, "
            f"p50 {self.latency_ms(0.5):.2f}ms p99 {self.latency_ms(0.99):.2f}ms, "
            f"{self.timeouts} timeouts, {self.redirects} redirects, "
            f"{self.retries} retries)"
        ]
        for name, report in sorted(self.per_node.items()):
            lines.append(
                f"  {name}: {report.qps:,.0f} qps, "
                f"p50 {report.latency_ms(0.5):.2f}ms "
                f"p99 {report.latency_ms(0.99):.2f}ms, "
                f"{report.redirects} redirects"
            )
        return "\n".join(lines)


def _summed(mode: str, duration_s: float, depth: int, outs: list[dict]) -> LoadgenReport:
    """One report over the tallies of ``outs`` (one dict per worker)."""
    return LoadgenReport(
        mode=mode,
        duration_s=duration_s,
        workers=len(outs),
        depth=depth,
        queries_sent=sum(out["sent"] for out in outs),
        responses_received=sum(out["received"] for out in outs),
        timeouts=sum(out["timeouts"] for out in outs),
        redirects=sum(out["redirects"] for out in outs),
        latencies_ms=[ms for out in outs for ms in out["latencies"]],
    )


#: One driven node: its name, UDP address and request tape.
Job = tuple[str, tuple[str, int], RequestTape]


def _run_jobs(mode: str, jobs: list[Job], copies: int, depth: int, worker) -> LoadgenReport:
    """Run ``copies`` threads of ``worker(address, tape, out)`` per job at
    once, then report per node and merged."""
    work = [(name, address, tape, {}) for name, address, tape in jobs for _ in range(copies)]
    threads = [
        threading.Thread(target=worker, args=(address, tape, out), daemon=True)
        for _, address, tape, out in work
    ]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - start
    by_node: dict[str, list[dict]] = {}
    for name, _, _, out in work:
        by_node.setdefault(name, []).append(out)
    report = _summed(mode, elapsed, depth, [out for *_, out in work])
    report.per_node = {
        name: _summed(mode, elapsed, depth, outs) for name, outs in by_node.items()
    }
    return report


# ------------------------------------------------------------ closed loop


def _closed_worker(
    address: tuple[str, int],
    tape: RequestTape,
    out: dict,
    *,
    depth: int,
    stop_at: float,
    timeout_s: float,
) -> None:
    sock = _make_socket(timeout_s)
    sent = received = timeouts = redirects = 0
    latencies: list[float] = []
    cursor = 0
    num_payloads = len(tape.payloads)
    # A tape that knows every datagram's response volume (prefilled store)
    # lets the wait count received bytes — one len() per response datagram
    # instead of a header walk per response, which matters when client and
    # server share cores.
    by_bytes = len(tape.response_bytes) == num_payloads
    try:
        while time.monotonic() < stop_at:
            expected = want = 0
            t0 = time.perf_counter()
            for _ in range(depth):
                sock.sendto(tape.payloads[cursor], address)
                expected += tape.counts[cursor]
                want += tape.response_bytes[cursor] if by_bytes else tape.counts[cursor]
                cursor = (cursor + 1) % num_payloads
            sent += expected
            got = 0
            while got < want:
                try:
                    payload = sock.recv(MAX_DATAGRAM)
                except socket.timeout:
                    # Window lost (UDP).  Its stragglers must not count
                    # toward the next window: move on from a fresh socket.
                    timeouts += 1
                    sock.close()
                    sock = _make_socket(timeout_s)
                    break
                if by_bytes:
                    got += len(payload)
                else:
                    messages, redirected = count_responses_and_redirects(payload)
                    got += messages
                    redirects += redirected
            if got >= want:
                latencies.append((time.perf_counter() - t0) * 1e3)
            # A header walk counted the answers; bytes credit the window,
            # pro-rated when it was cut short.
            received += expected * min(got, want) // want if by_bytes else got
    finally:
        sock.close()
    out.update(
        sent=sent, received=received, timeouts=timeouts, redirects=redirects,
        latencies=latencies,
    )


def run_closed_loop(
    jobs: list[Job],
    *,
    workers: int = 2,
    depth: int = 4,
    duration_s: float = 2.0,
    timeout_s: float = 2.0,
) -> LoadgenReport:
    """Drive ``workers`` closed loops per job at once, each keeping
    ``depth`` datagrams in flight."""
    if workers < 1 or depth < 1:
        raise ConfigurationError("workers and depth must be positive")
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    worker = functools.partial(
        _closed_worker,
        depth=depth,
        stop_at=time.monotonic() + duration_s,
        timeout_s=timeout_s,
    )
    return _run_jobs("closed", jobs, workers, depth, worker)


# -------------------------------------------------------------- open loop


def _open_worker(
    address: tuple[str, int],
    tape: RequestTape,
    out: dict,
    *,
    rate_qps: float,
    duration_s: float,
    drain_s: float,
    probe_interval_s: float,
) -> None:
    """Offer ``rate_qps`` to one node regardless of responses.

    One socket: the sender paces request datagrams on it while a receiver
    thread counts response messages, then a short drain window collects
    stragglers after the last send.  A prober thread round-trips a single
    GET of a key the node owns on its own socket every
    ``probe_interval_s``, so the report carries latency percentiles *under
    the offered load* — the open loop itself never matches responses to
    sends, so it cannot time them.
    """
    sock = _make_socket(0.05)
    received = 0
    redirects = 0
    receiving = threading.Event()
    receiving.set()

    def _receiver() -> None:
        nonlocal received, redirects
        while receiving.is_set():
            try:
                payload = sock.recv(MAX_DATAGRAM)
            except socket.timeout:
                continue
            except OSError:
                return
            messages, redirected = count_responses_and_redirects(payload)
            received += messages
            redirects += redirected

    probe = encode_queries([Query(QueryType.GET, decode_queries(tape.payloads[0])[0].key)])
    probe_latencies: list[float] = []

    def _prober() -> None:
        probe_sock = _make_socket(0.25)
        try:
            while receiving.is_set():
                t0 = time.perf_counter()
                try:
                    probe_sock.sendto(probe, address)
                    probe_sock.recv(MAX_DATAGRAM)
                except socket.timeout:
                    continue
                except OSError:
                    return
                probe_latencies.append((time.perf_counter() - t0) * 1e3)
                time.sleep(probe_interval_s)
        finally:
            probe_sock.close()

    helpers = [threading.Thread(target=fn, daemon=True) for fn in (_receiver, _prober)]
    for helper in helpers:
        helper.start()
    sent = 0
    cursor = 0
    num_payloads = len(tape.payloads)
    start = time.monotonic()
    stop_at = start + duration_s
    try:
        while True:
            now = time.monotonic()
            if now >= stop_at:
                break
            # Send whatever the pacing schedule says is due by now.
            due = int((now - start) * rate_qps)
            while sent < due:
                sock.sendto(tape.payloads[cursor], address)
                sent += tape.counts[cursor]
                cursor = (cursor + 1) % num_payloads
            time.sleep(0.001)
        time.sleep(drain_s)
    finally:
        receiving.clear()
        for helper in helpers:
            helper.join(timeout=1.0)
        sock.close()
    out.update(
        sent=sent, received=received, timeouts=0, redirects=redirects,
        latencies=probe_latencies,
    )


def run_open_loop(
    jobs: list[Job],
    *,
    rate_qps: float = 100_000.0,
    duration_s: float = 2.0,
    drain_s: float = 0.25,
    probe_interval_s: float = 0.005,
) -> LoadgenReport:
    """Open loop against every job at once; each node is offered the share
    of ``rate_qps`` its tape's query count carries."""
    if rate_qps <= 0 or duration_s <= 0:
        raise ConfigurationError("rate and duration must be positive")
    total = sum(tape.total_queries for _, _, tape in jobs)

    def worker(address: tuple[str, int], tape: RequestTape, out: dict) -> None:
        _open_worker(
            address,
            tape,
            out,
            rate_qps=max(1.0, rate_qps * tape.total_queries / total),
            duration_s=duration_s,
            drain_s=drain_s,
            probe_interval_s=probe_interval_s,
        )

    return _run_jobs("open", jobs, 1, 1, worker)


# -------------------------------------------------------------- front doors


def _check_mode(mode: str) -> None:
    if mode not in ("closed", "open"):
        raise ConfigurationError(f"mode must be 'closed' or 'open', not {mode!r}")


def _drive(
    mode: str,
    jobs: list[Job],
    *,
    workers: int,
    depth: int,
    duration_s: float,
    rate_qps: float,
    timeout_s: float,
) -> LoadgenReport:
    if mode == "closed":
        return run_closed_loop(
            jobs, workers=workers, depth=depth, duration_s=duration_s, timeout_s=timeout_s
        )
    return run_open_loop(jobs, rate_qps=rate_qps, duration_s=duration_s)


def run_loadgen(
    address: tuple[str, int],
    shape: WorkloadShape,
    *,
    mode: str = "closed",
    queries: int = 65536,
    workers: int = 2,
    depth: int = 4,
    duration_s: float = 2.0,
    rate_qps: float = 100_000.0,
    timeout_s: float = 2.0,
    do_prefill: bool = True,
    max_payload: int = MAX_QUERY_PAYLOAD,
) -> LoadgenReport:
    """Prefill, build the request tape, and drive one server: the one-node
    case of :func:`run_cluster_loadgen`."""
    from repro.client import DidoClient

    _check_mode(mode)
    if do_prefill:
        with DidoClient(address, timeout_s=5.0) as client:
            prefill(client, shape)
    tape = _tape(
        _query_sequence(shape, queries),
        max_payload,
        shape.value_size if do_prefill else None,
    )
    name = f"{address[0]}:{address[1]}"
    report = _drive(
        mode, [(name, address, tape)], workers=workers, depth=depth,
        duration_s=duration_s, rate_qps=rate_qps, timeout_s=timeout_s,
    )
    return report.per_node[name]


def run_cluster_loadgen(
    control_address: tuple[str, int],
    shape: WorkloadShape,
    *,
    mode: str = "closed",
    queries: int = 65536,
    workers: int = 1,
    depth: int = 4,
    duration_s: float = 2.0,
    rate_qps: float = 100_000.0,
    timeout_s: float = 2.0,
    do_prefill: bool = True,
    max_payload: int = MAX_QUERY_PAYLOAD,
) -> LoadgenReport:
    """Fetch the manifest, prefill through the routed client, and drive
    every node of the fleet at once; ``workers`` loops per node."""
    from repro.client import ClusterClient

    _check_mode(mode)
    with ClusterClient(control_address, timeout_s=5.0) as client:
        if do_prefill:
            prefill(client, shape)
    manifest = client.manifest  # any newer epoch the prefill was sent to
    tapes = build_cluster_tapes(shape, queries, manifest, max_payload=max_payload)
    jobs = [
        (name, manifest.nodes[name].address, tape) for name, tape in sorted(tapes.items())
    ]
    report = _drive(
        mode, jobs, workers=workers, depth=depth, duration_s=duration_s,
        rate_qps=rate_qps, timeout_s=timeout_s,
    )
    report.retries = client.stats.retries
    return report
