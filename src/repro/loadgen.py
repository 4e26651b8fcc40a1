"""Pipelined load generator for the UDP server (``repro loadgen``).

A :class:`~repro.client.DidoClient` is a correctness tool: one batch in
flight, responses decoded into objects.  Measuring the server's wire plane
needs the opposite — datagrams pre-encoded once and replayed, several
windows in flight, and responses *counted* (header-walked) rather than
decoded — so the generator saturates the server instead of itself.

Two driving disciplines:

* **closed loop** — each worker keeps ``depth`` request datagrams in
  flight on its own socket, waits for the responses to its window, then
  immediately sends the next; measures sustainable throughput plus
  per-window latency percentiles.
* **open loop** — a sender paces datagrams at a target queries/second
  regardless of responses while a receiver thread counts what comes back;
  measures behaviour under offered load (the paper's client machines).

Both report a :class:`LoadgenReport`; the CLI prints it or dumps JSON for
scripts.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.kv.protocol import Query, QueryType, encode_queries
from repro.net.wire import RESPONSE_HEADER_BYTES
from repro.server import MAX_DATAGRAM

#: Keep request datagrams comfortably below the receive-buffer bound
#: (matches :data:`repro.client._MAX_SEND_PAYLOAD`).
MAX_SEND_PAYLOAD = 48 * 1024

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


@dataclass
class RequestTape:
    """Pre-encoded request datagrams, replayed verbatim by every worker.

    ``payloads[i]`` holds ``counts[i]`` encoded queries and the whole tape
    carries ``total_queries``; encoding happens once, so the measured loop
    is sendto/recv only.  ``response_bytes[i]`` is the exact response
    volume datagram ``i`` produces against a prefilled store (every GET
    hits, every SET stores): the closed loop counts received *bytes*
    against it instead of walking response headers, keeping the client
    out of the measurement on shared CPUs.
    """

    payloads: list[bytes]
    counts: list[int]
    total_queries: int
    response_bytes: list[int] = field(default_factory=list)


def build_tape(
    shape: WorkloadShape,
    queries: int,
    max_payload: int = MAX_SEND_PAYLOAD,
) -> RequestTape:
    """Encode ``queries`` random GET/SET queries into datagram payloads."""
    if queries < 1:
        raise ConfigurationError("need at least one query")
    rng = random.Random(shape.seed)
    keys = make_keys(shape)
    value = b"v" * shape.value_size
    # Response wire sizes against a prefilled store: GET hits return the
    # stored value, SETs return a bare STORED status.
    get_response = RESPONSE_HEADER_BYTES + shape.value_size
    set_response = RESPONSE_HEADER_BYTES
    payloads: list[bytes] = []
    counts: list[int] = []
    response_bytes: list[int] = []
    group: list[Query] = []
    size = 0
    reply = 0
    for _ in range(queries):
        key = keys[rng.randrange(shape.num_keys)]
        if rng.random() < shape.get_ratio:
            query = Query(QueryType.GET, key)
            answer = get_response
        else:
            query = Query(QueryType.SET, key, value)
            answer = set_response
        wire = query.wire_size
        if group and size + wire > max_payload:
            payloads.append(encode_queries(group))
            counts.append(len(group))
            response_bytes.append(reply)
            group, size, reply = [], 0, 0
        group.append(query)
        size += wire
        reply += answer
    if group:
        payloads.append(encode_queries(group))
        counts.append(len(group))
        response_bytes.append(reply)
    return RequestTape(
        payloads=payloads,
        counts=counts,
        total_queries=queries,
        response_bytes=response_bytes,
    )


def prefill(address: tuple[str, int], shape: WorkloadShape, batch: int = 512) -> int:
    """SET every key of the keyspace so GETs during the run mostly hit."""
    from repro.client import DidoClient

    keys = make_keys(shape)
    value = b"v" * shape.value_size
    stored = 0
    with DidoClient(address, timeout_s=5.0) as client:
        for start in range(0, len(keys), batch):
            group = [
                Query(QueryType.SET, key, value)
                for key in keys[start : start + batch]
            ]
            stored += len(client.execute(group))
    return stored


def count_responses(payload: bytes) -> int:
    """Messages in one response datagram, by walking the headers only."""
    count = 0
    offset = 0
    end = len(payload)
    while offset + RESPONSE_HEADER_BYTES <= end:
        value_len = int.from_bytes(
            payload[offset + 1 : offset + RESPONSE_HEADER_BYTES], "little"
        )
        offset += RESPONSE_HEADER_BYTES + value_len
        count += 1
    return count


#: Wire value of :attr:`repro.kv.protocol.ResponseStatus.WRONG_NODE`.
_WRONG_NODE_STATUS = 5


def count_responses_and_redirects(payload: bytes) -> tuple[int, int]:
    """Like :func:`count_responses`, also counting ``WRONG_NODE`` statuses.

    Cluster loops use this instead of byte counting: a redirect response
    has a different size than the real answer, so only a header walk can
    both credit the window and surface the redirect rate.
    """
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
    """Outcome of one load-generator run."""

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
    #: Client-side retry rounds (cluster client flows; 0 for blind loops).
    retries: int = 0

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
        return {
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

    def __str__(self) -> str:
        return (
            f"{self.mode}: {self.qps:,.0f} qps "
            f"({self.responses_received:,}/{self.queries_sent:,} answered in "
            f"{self.duration_s:.2f}s, {self.workers} workers x depth {self.depth}, "
            f"p50 {self.latency_ms(0.5):.2f}ms p99 {self.latency_ms(0.99):.2f}ms, "
            f"{self.timeouts} timeouts, {self.redirects} redirects, "
            f"{self.retries} retries)"
        )


# ------------------------------------------------------------ closed loop


def _closed_worker(
    address: tuple[str, int],
    tape: RequestTape,
    depth: int,
    stop_at: float,
    timeout_s: float,
    out: dict,
) -> None:
    sock = _make_socket(timeout_s)
    sent = received = timeouts = redirects = 0
    latencies: list[float] = []
    cursor = 0
    num_payloads = len(tape.payloads)
    # Tapes built by build_tape know the exact response volume of every
    # datagram (prefilled store), so the wait can count received bytes —
    # one len() per response datagram instead of a header walk per
    # response, which matters when client and server share cores.
    by_bytes = len(tape.response_bytes) == num_payloads
    try:
        while time.monotonic() < stop_at:
            expected = 0
            expected_bytes = 0
            t0 = time.perf_counter()
            for _ in range(depth):
                sock.sendto(tape.payloads[cursor], address)
                expected += tape.counts[cursor]
                if by_bytes:
                    expected_bytes += tape.response_bytes[cursor]
                cursor = (cursor + 1) % num_payloads
            sent += expected
            if by_bytes:
                got_bytes = 0
                while got_bytes < expected_bytes:
                    try:
                        payload = sock.recv(MAX_DATAGRAM)
                    except socket.timeout:
                        timeouts += 1
                        break  # window lost (UDP); move on
                    got_bytes += len(payload)
                if got_bytes >= expected_bytes:
                    received += expected
                    latencies.append((time.perf_counter() - t0) * 1e3)
                else:
                    # Pro-rate the partial window (responses are not
                    # individually identifiable without a header walk).
                    received += expected * got_bytes // max(1, expected_bytes)
                continue
            got = 0
            while got < expected:
                try:
                    payload = sock.recv(MAX_DATAGRAM)
                except socket.timeout:
                    timeouts += 1
                    break  # window lost (UDP); move on
                messages, redirected = count_responses_and_redirects(payload)
                got += messages
                redirects += redirected
            received += got
            if got >= expected:
                latencies.append((time.perf_counter() - t0) * 1e3)
    finally:
        sock.close()
    out["sent"] = sent
    out["received"] = received
    out["timeouts"] = timeouts
    out["redirects"] = redirects
    out["latencies"] = latencies


def run_closed_loop(
    address: tuple[str, int],
    tape: RequestTape,
    *,
    workers: int = 2,
    depth: int = 4,
    duration_s: float = 2.0,
    timeout_s: float = 2.0,
) -> LoadgenReport:
    """Drive ``workers`` closed loops, each ``depth`` datagrams in flight."""
    if workers < 1 or depth < 1:
        raise ConfigurationError("workers and depth must be positive")
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    outs: list[dict] = [{} for _ in range(workers)]
    start = time.monotonic()
    stop_at = start + duration_s
    threads = [
        threading.Thread(
            target=_closed_worker,
            args=(address, tape, depth, stop_at, timeout_s, out),
            daemon=True,
        )
        for out in outs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - start
    latencies: list[float] = []
    for out in outs:
        latencies.extend(out.get("latencies", ()))
    return LoadgenReport(
        mode="closed",
        duration_s=elapsed,
        workers=workers,
        depth=depth,
        queries_sent=sum(out.get("sent", 0) for out in outs),
        responses_received=sum(out.get("received", 0) for out in outs),
        timeouts=sum(out.get("timeouts", 0) for out in outs),
        redirects=sum(out.get("redirects", 0) for out in outs),
        latencies_ms=latencies,
    )


# -------------------------------------------------------------- open loop


def run_open_loop(
    address: tuple[str, int],
    tape: RequestTape,
    *,
    rate_qps: float = 100_000.0,
    duration_s: float = 2.0,
    drain_s: float = 0.25,
    probe_payload: bytes | None = None,
    probe_interval_s: float = 0.005,
) -> LoadgenReport:
    """Offer ``rate_qps`` regardless of responses; count what comes back.

    One socket: the sender paces request datagrams on it while a receiver
    thread counts response messages, then a short drain window collects
    stragglers after the last send.  When ``probe_payload`` is given (a
    single encoded query), a prober thread round-trips it on its own
    socket every ``probe_interval_s`` so the report carries latency
    percentiles *under the offered load* — the open loop itself never
    matches responses to sends, so it cannot time them.
    """
    if rate_qps <= 0 or duration_s <= 0:
        raise ConfigurationError("rate and duration must be positive")
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

    receiver = threading.Thread(target=_receiver, daemon=True)
    receiver.start()
    probe_latencies: list[float] = []
    prober: threading.Thread | None = None
    if probe_payload is not None:
        def _prober() -> None:
            probe_sock = _make_socket(0.25)
            try:
                while receiving.is_set():
                    t0 = time.perf_counter()
                    try:
                        probe_sock.sendto(probe_payload, address)
                        probe_sock.recv(MAX_DATAGRAM)
                    except socket.timeout:
                        continue
                    except OSError:
                        return
                    probe_latencies.append((time.perf_counter() - t0) * 1e3)
                    time.sleep(probe_interval_s)
            finally:
                probe_sock.close()

        prober = threading.Thread(target=_prober, daemon=True)
        prober.start()
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
        elapsed = time.monotonic() - start
        receiving.clear()
        receiver.join(timeout=1.0)
        if prober is not None:
            prober.join(timeout=1.0)
        sock.close()
    return LoadgenReport(
        mode="open",
        duration_s=elapsed,
        workers=1,
        depth=1,
        queries_sent=sent,
        responses_received=received,
        timeouts=0,
        redirects=redirects,
        latencies_ms=probe_latencies,
    )


# ----------------------------------------------------------------- cluster


def build_cluster_tapes(
    shape: WorkloadShape,
    queries: int,
    manifest,
    max_payload: int = MAX_SEND_PAYLOAD,
) -> dict[str, RequestTape]:
    """Hash-split the deterministic request tape across the fleet.

    Generates the *same* query sequence as :func:`build_tape` (same shape,
    same seed), routes every query to its owner under ``manifest``, and
    packs one per-node tape preserving the per-node order.  The union of
    the per-node tapes equals the single-node tape's query multiset, which
    is what lets the cluster bench compare merged responses byte-for-byte
    against a single-node replay.

    Per-node tapes carry no ``response_bytes``: a cluster window can
    contain ``WRONG_NODE`` redirects (whose size differs from the real
    answer), so cluster loops must header-walk responses.
    """
    from repro.cluster.manifest import ManifestRouter

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
    router = ManifestRouter(manifest)
    owners = router.owners_for([query.key for query in sequence])
    per_node: dict[str, list[Query]] = {name: [] for name in router.names}
    for query, owner in zip(sequence, owners):
        per_node[owner].append(query)

    tapes: dict[str, RequestTape] = {}
    for name, node_queries in per_node.items():
        if not node_queries:
            continue
        payloads: list[bytes] = []
        counts: list[int] = []
        group: list[Query] = []
        size = 0
        for query in node_queries:
            wire = query.wire_size
            if group and size + wire > max_payload:
                payloads.append(encode_queries(group))
                counts.append(len(group))
                group, size = [], 0
            group.append(query)
            size += wire
        if group:
            payloads.append(encode_queries(group))
            counts.append(len(group))
        tapes[name] = RequestTape(
            payloads=payloads, counts=counts, total_queries=len(node_queries)
        )
    return tapes


def cluster_prefill(manifest, shape: WorkloadShape, batch: int = 512) -> int:
    """SET the whole keyspace through the manifest-routed client."""
    from repro.client import ClusterClient

    keys = make_keys(shape)
    value = b"v" * shape.value_size
    stored = 0
    with ClusterClient(manifest, timeout_s=5.0) as client:
        for start in range(0, len(keys), batch):
            group = [
                Query(QueryType.SET, key, value)
                for key in keys[start : start + batch]
            ]
            stored += len(client.execute(group))
    return stored


@dataclass
class ClusterLoadgenReport:
    """Aggregate plus per-node breakdown of one cluster run."""

    mode: str
    duration_s: float
    per_node: dict[str, LoadgenReport]
    retries: int = 0

    @property
    def queries_sent(self) -> int:
        return sum(r.queries_sent for r in self.per_node.values())

    @property
    def responses_received(self) -> int:
        return sum(r.responses_received for r in self.per_node.values())

    @property
    def redirects(self) -> int:
        return sum(r.redirects for r in self.per_node.values())

    @property
    def timeouts(self) -> int:
        return sum(r.timeouts for r in self.per_node.values())

    @property
    def qps(self) -> float:
        return self.responses_received / self.duration_s if self.duration_s else 0.0

    def latency_ms(self, quantile: float) -> float:
        merged: list[float] = []
        for report in self.per_node.values():
            merged.extend(report.latencies_ms)
        if not merged:
            return 0.0
        merged.sort()
        rank = min(len(merged) - 1, int(quantile * len(merged)))
        return merged[rank]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "nodes": len(self.per_node),
            "duration_s": round(self.duration_s, 4),
            "queries_sent": self.queries_sent,
            "responses_received": self.responses_received,
            "qps": round(self.qps, 1),
            "latency_p50_ms": round(self.latency_ms(0.50), 3),
            "latency_p95_ms": round(self.latency_ms(0.95), 3),
            "latency_p99_ms": round(self.latency_ms(0.99), 3),
            "timeouts": self.timeouts,
            "redirects": self.redirects,
            "retries": self.retries,
            "per_node": {
                name: report.to_dict() for name, report in sorted(self.per_node.items())
            },
        }

    def __str__(self) -> str:
        lines = [
            f"cluster-{self.mode}: {self.qps:,.0f} qps across "
            f"{len(self.per_node)} nodes "
            f"({self.responses_received:,}/{self.queries_sent:,} answered in "
            f"{self.duration_s:.2f}s, p50 {self.latency_ms(0.5):.2f}ms "
            f"p99 {self.latency_ms(0.99):.2f}ms, {self.timeouts} timeouts, "
            f"{self.redirects} redirects, {self.retries} retries)"
        ]
        for name, report in sorted(self.per_node.items()):
            lines.append(
                f"  {name}: {report.qps:,.0f} qps, "
                f"p50 {report.latency_ms(0.5):.2f}ms "
                f"p99 {report.latency_ms(0.99):.2f}ms, "
                f"{report.redirects} redirects"
            )
        return "\n".join(lines)


def run_cluster_closed_loop(
    manifest,
    tapes: dict[str, RequestTape],
    *,
    workers: int = 1,
    depth: int = 4,
    duration_s: float = 2.0,
    timeout_s: float = 2.0,
) -> ClusterLoadgenReport:
    """Drive every node's tape concurrently, ``workers`` loops per node."""
    if workers < 1 or depth < 1:
        raise ConfigurationError("workers and depth must be positive")
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    jobs: list[tuple[str, tuple[str, int], RequestTape, dict]] = []
    for name, tape in sorted(tapes.items()):
        address = manifest.nodes[name].address
        for _ in range(workers):
            jobs.append((name, address, tape, {}))
    start = time.monotonic()
    stop_at = start + duration_s
    threads = [
        threading.Thread(
            target=_closed_worker,
            args=(address, tape, depth, stop_at, timeout_s, out),
            daemon=True,
        )
        for _, address, tape, out in jobs
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - start
    per_node: dict[str, LoadgenReport] = {}
    for name, _, _, _ in jobs:
        if name in per_node:
            continue
        outs = [out for job_name, _, _, out in jobs if job_name == name]
        latencies: list[float] = []
        for out in outs:
            latencies.extend(out.get("latencies", ()))
        per_node[name] = LoadgenReport(
            mode="closed",
            duration_s=elapsed,
            workers=workers,
            depth=depth,
            queries_sent=sum(out.get("sent", 0) for out in outs),
            responses_received=sum(out.get("received", 0) for out in outs),
            timeouts=sum(out.get("timeouts", 0) for out in outs),
            redirects=sum(out.get("redirects", 0) for out in outs),
            latencies_ms=latencies,
        )
    return ClusterLoadgenReport(mode="closed", duration_s=elapsed, per_node=per_node)


def _probe_payloads(shape: WorkloadShape, manifest) -> dict[str, bytes]:
    """One single-GET probe datagram per node, keyed by a key it owns."""
    from repro.cluster.manifest import ManifestRouter

    router = ManifestRouter(manifest)
    keys = make_keys(shape)
    owners = router.owners_for(keys)
    probes: dict[str, bytes] = {}
    for key, owner in zip(keys, owners):
        if owner not in probes:
            probes[owner] = encode_queries([Query(QueryType.GET, key)])
        if len(probes) == len(router.names):
            break
    return probes


def run_cluster_open_loop(
    manifest,
    tapes: dict[str, RequestTape],
    shape: WorkloadShape,
    *,
    rate_qps: float = 100_000.0,
    duration_s: float = 2.0,
) -> ClusterLoadgenReport:
    """Open loop against every node at once, rate split by key ownership.

    Each node gets a sender/receiver pair pacing its share of the offered
    rate (proportional to its tape's query count) plus a latency prober,
    so the report breaks QPS *and* p99 down per node under load.
    """
    if rate_qps <= 0 or duration_s <= 0:
        raise ConfigurationError("rate and duration must be positive")
    total = sum(tape.total_queries for tape in tapes.values())
    probes = _probe_payloads(shape, manifest)
    per_node: dict[str, LoadgenReport] = {}
    lock = threading.Lock()

    def run_node(name: str, tape: RequestTape) -> None:
        share = tape.total_queries / total if total else 0.0
        report = run_open_loop(
            manifest.nodes[name].address,
            tape,
            rate_qps=max(1.0, rate_qps * share),
            duration_s=duration_s,
            probe_payload=probes.get(name),
        )
        with lock:
            per_node[name] = report

    threads = [
        threading.Thread(target=run_node, args=(name, tape), daemon=True)
        for name, tape in sorted(tapes.items())
    ]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - start
    return ClusterLoadgenReport(mode="open", duration_s=elapsed, per_node=per_node)


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
    max_payload: int = MAX_SEND_PAYLOAD,
) -> ClusterLoadgenReport:
    """Fetch the manifest, prefill through the routed client, and drive
    the whole fleet concurrently over the columnar wire."""
    from repro.cluster.serving import fetch_manifest

    if mode not in ("closed", "open"):
        raise ConfigurationError(f"mode must be 'closed' or 'open', not {mode!r}")
    manifest = fetch_manifest(control_address)
    prefill_retries = 0
    if do_prefill:
        from repro.client import ClusterClient

        with ClusterClient(manifest, timeout_s=5.0) as client:
            keys = make_keys(shape)
            value = b"v" * shape.value_size
            for start in range(0, len(keys), 512):
                client.execute(
                    [Query(QueryType.SET, k, value) for k in keys[start : start + 512]]
                )
            prefill_retries = client.stats.retries
            manifest = client.manifest  # pick up any newer epoch seen
    tapes = build_cluster_tapes(shape, queries, manifest, max_payload=max_payload)
    if mode == "closed":
        report = run_cluster_closed_loop(
            manifest,
            tapes,
            workers=workers,
            depth=depth,
            duration_s=duration_s,
            timeout_s=timeout_s,
        )
    else:
        report = run_cluster_open_loop(
            manifest, tapes, shape, rate_qps=rate_qps, duration_s=duration_s
        )
    report.retries += prefill_retries
    return report


# -------------------------------------------------------------- front door


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
    max_payload: int = MAX_SEND_PAYLOAD,
) -> LoadgenReport:
    """Prefill, build the request tape, and run the chosen discipline."""
    if mode not in ("closed", "open"):
        raise ConfigurationError(f"mode must be 'closed' or 'open', not {mode!r}")
    if do_prefill:
        prefill(address, shape)
    tape = build_tape(shape, queries, max_payload=max_payload)
    if mode == "closed":
        return run_closed_loop(
            address,
            tape,
            workers=workers,
            depth=depth,
            duration_s=duration_s,
            timeout_s=timeout_s,
        )
    return run_open_loop(
        address, tape, rate_qps=rate_qps, duration_s=duration_s
    )
