"""End-to-end tests over real localhost UDP sockets."""

import logging
import select
import socket
import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.client import DidoClient, TimeoutError_
from repro.core.dido import DidoSystem
from repro.errors import ConfigurationError, ProtocolError
from repro.kv.protocol import (
    Query,
    QueryType,
    ResponseStatus,
    decode_queries,
    decode_responses,
    encode_queries,
)
from repro.net.wire import QueryColumns, decode_window
import repro.server
from repro.server import DidoUDPServer


def open_window(datagrams):
    """The serve loop's open window for ``(queries, peer)`` datagrams: the
    decoded rows plus one ``(row_stop, peer)`` bound per datagram."""
    window, stops, errors = decode_window(
        [encode_queries(q) for q, _ in datagrams], QueryColumns.open_window()
    )
    assert not errors
    return window, [(stop, peer) for stop, (_, peer) in zip(stops, datagrams)]


class _ClockWithSleep:
    """``repro.server``'s ``time`` with its ``sleep`` replaced."""

    def __init__(self, sleep):
        self.sleep = sleep

    def __getattr__(self, name):
        return getattr(time, name)


def serve_window_fed_during_waits(srv, sock, datagrams, monkeypatch):
    """Run one ``_serve_one_window`` of the unstarted ``srv`` on this thread
    while ``datagrams`` (query lists) arrive from ``sock`` one ``sendto`` at
    a time: the first during the loop's first wait, the rest during its
    second.  Returns the waits the loop made, as ``(kind, seconds)``."""
    waits = []
    pending = list(datagrams)

    def arrive(kind, seconds):
        waits.append((kind, seconds))
        count = 1 if len(waits) == 1 else len(pending)
        for queries in pending[:count]:
            sock.sendto(encode_queries(queries), srv.address)
        del pending[:count]

    def wait_select(readers, writers, errors, timeout):
        arrive("select", timeout)
        return select.select(readers, writers, errors, timeout)

    def wait_sleep(seconds):
        arrive("sleep", seconds)
        time.sleep(seconds)

    monkeypatch.setattr(repro.server, "select", SimpleNamespace(select=wait_select), raising=False)
    monkeypatch.setattr(repro.server, "time", _ClockWithSleep(wait_sleep))
    srv._serve_one_window()
    return waits


class _SendBlocksOnce:
    """A server socket whose first ``sendto`` finds the send buffer full."""

    def __init__(self, sock):
        self._sock = sock
        self.refused = 0

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def sendto(self, payload, peer):
        if not self.refused:
            self.refused += 1
            raise BlockingIOError
        return self._sock.sendto(payload, peer)


@pytest.fixture
def server():
    system = DidoSystem(memory_bytes=16 << 20, expected_objects=8192)
    srv = DidoUDPServer(("127.0.0.1", 0), system=system, coalesce_us=1000)
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    with DidoClient(server.address, timeout_s=5.0) as c:
        yield c


class TestRoundTrips:
    def test_set_get_delete(self, client):
        assert client.set(b"greeting", b"hello")
        assert client.get(b"greeting") == b"hello"
        assert client.delete(b"greeting")
        assert client.get(b"greeting") is None

    def test_get_missing(self, client):
        assert client.get(b"never-set") is None

    def test_delete_missing(self, client):
        assert not client.delete(b"never-set")

    def test_overwrite(self, client):
        client.set(b"k", b"v1")
        client.set(b"k", b"v2")
        assert client.get(b"k") == b"v2"

    def test_binary_values(self, client):
        value = bytes(range(256)) * 4
        client.set(b"bin", value)
        assert client.get(b"bin") == value

    def test_batch_order_preserved(self, client):
        sets = [Query(QueryType.SET, f"k{i}".encode(), f"v{i}".encode()) for i in range(50)]
        responses = client.execute(sets)
        assert all(r.status is ResponseStatus.STORED for r in responses)
        gets = [Query(QueryType.GET, f"k{i}".encode()) for i in range(50)]
        values = [r.value for r in client.execute(gets)]
        assert values == [f"v{i}".encode() for i in range(50)]

    def test_mget(self, client):
        client.set(b"a", b"1")
        client.set(b"b", b"2")
        out = client.mget([b"a", b"missing", b"b"])
        assert out == {b"a": b"1", b"b": b"2"}

    def test_large_batch_multiple_datagrams_back(self, client):
        value = b"x" * 900
        sets = [Query(QueryType.SET, f"big{i}".encode(), value) for i in range(100)]
        client.execute(sets)
        gets = [Query(QueryType.GET, f"big{i}".encode()) for i in range(100)]
        responses = client.execute(gets)
        assert len(responses) == 100
        assert all(r.value == value for r in responses)

    def test_server_stats_progress(self, server, client):
        client.set(b"k", b"v")
        assert server.stats.datagrams_in >= 1
        assert server.stats.queries >= 1
        assert server.stats.batches >= 1

    def test_adaptive_pipeline_behind_server(self, server, client):
        """The server-side system really plans pipelines."""
        for i in range(300):
            client.set(f"warm{i}".encode(), b"v" * 32)
        report = server.system.report()
        assert report.replans >= 1
        assert "CPU" in report.current_pipeline


class TestServerLifecycle:
    def test_double_start_rejected(self, server):
        with pytest.raises(ConfigurationError):
            server.start()

    def test_stop_idempotent(self):
        srv = DidoUDPServer(("127.0.0.1", 0))
        srv.start()
        srv.stop()
        srv.stop()

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigurationError):
            DidoUDPServer(("127.0.0.1", 0), coalesce_us=-1.0)

    def test_malformed_datagram_counted_not_fatal(self, server, client):
        import socket as socketlib

        s = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_DGRAM)
        s.sendto(b"\xff\xff\xff", server.address)
        s.close()
        # The server keeps working afterwards.
        assert client.set(b"still-alive", b"yes")
        assert server.stats.protocol_errors >= 1

    def test_full_index_fails_its_window_not_the_server(self):
        """SETs of fresh keys past what ``expected_objects`` sized the
        cuckoo index for make a window's Insert raise.  That window's rows
        are answered ERROR and counted; the serve loop keeps answering,
        and every key of a window answered STORED still reads back (a
        failed Insert loses no entry it displaced)."""
        from repro.kv.protocol import decode_responses

        system = DidoSystem(memory_bytes=32 << 20, expected_objects=128, engine="vector")
        srv = DidoUDPServer(("127.0.0.1", 0), system=system, batch_size=16)
        srv.start()
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.settimeout(5.0)

                def exchange(queries):
                    sock.sendto(encode_queries(queries), srv.address)
                    return [r.status for r in decode_responses(sock.recvfrom(65536)[0])]

                failed, stored = [], []
                for w in range(20):
                    keys = [b"key-%02d-%02d" % (w, i) for i in range(16)]
                    statuses = exchange([Query(QueryType.SET, key, b"v") for key in keys])
                    if statuses == [ResponseStatus.STORED] * 16:
                        stored.append(keys)
                    else:
                        assert statuses == [ResponseStatus.ERROR] * 16
                        failed.append(w)
                assert failed and failed[0] > 0
                assert srv.stats.failed_windows == len(failed)
                for keys in stored:
                    statuses = exchange([Query(QueryType.GET, key) for key in keys])
                    assert statuses == [ResponseStatus.OK] * 16, keys
        finally:
            srv.stop()


class TestClientValidation:
    def test_timeout_positive(self):
        with pytest.raises(ConfigurationError):
            DidoClient(("127.0.0.1", 1), timeout_s=0)

    def test_timeout_raised_when_no_server(self):
        with DidoClient(("127.0.0.1", 9), timeout_s=0.2) as c:
            with pytest.raises(TimeoutError_):
                c.get(b"k")
        assert c.stats.timeouts == 1

    def test_empty_batch(self, client):
        assert client.execute([]) == []

    def test_late_reply_never_answers_the_next_batch(self, late_udp_server):
        """The server answers ``k1`` only after the client gave up on it;
        that straggler must not be taken for the answer to ``k2``."""
        with DidoClient(late_udp_server, timeout_s=0.2) as c:
            with pytest.raises(TimeoutError_):
                c.get(b"k1")
            assert c.get(b"k2") == b"answer-to-k2"
            assert c.get(b"k3") == b"answer-to-k3"
        assert c.stats.timeouts == 1


class TestCoalescing:
    def make_server(self, **kwargs):
        system = DidoSystem(memory_bytes=16 << 20, expected_objects=8192)
        return DidoUDPServer(("127.0.0.1", 0), system=system, **kwargs)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make_server(batch_size=0)
        with pytest.raises(ConfigurationError):
            self.make_server(coalesce_us=-1.0)

    def test_cut_batch_splits_at_target_and_carries_over(self):
        srv = self.make_server(batch_size=5)
        try:
            peer_a, peer_b, peer_c = (("127.0.0.1", port) for port in (1111, 2222, 3333))
            window, bounds = open_window(
                [
                    ([Query(QueryType.GET, b"k%d" % i) for i in range(4)], peer_a),
                    ([Query(QueryType.GET, b"m%d" % i) for i in range(4)], peer_b),
                    ([Query(QueryType.GET, b"n0")], peer_c),
                ]
            )
            batch, batch_bounds = srv._cut_batch(window, bounds)
            assert batch.keys == [b"k0", b"k1", b"k2", b"k3", b"m0"]
            assert list(batch.opcodes) == [1] * 5
            assert batch_bounds == [(4, peer_a), (5, peer_b)]
            # The straddling datagram's tail kept its peer and leads the
            # backlog; the bounds after it are rebased onto the backlog.
            backlog, backlog_bounds = srv._backlog
            assert backlog.keys == [b"m1", b"m2", b"m3", b"n0"]
            assert backlog_bounds == [(3, peer_b), (4, peer_c)]
        finally:
            srv.stop()

    def test_cut_batch_under_target_leaves_no_backlog(self):
        srv = self.make_server(batch_size=100)
        try:
            peer = ("127.0.0.1", 1)
            window, bounds = open_window([([Query(QueryType.GET, b"k")], peer)])
            batch, batch_bounds = srv._cut_batch(window, bounds)
            assert batch == window and batch_bounds == [(1, peer)]
            backlog, backlog_bounds = srv._backlog
            assert len(backlog) == 0 and backlog_bounds == []
        finally:
            srv.stop()

    def test_backlog_is_served_first_next_window(self):
        """A client batch larger than batch_size still gets every response
        back in order — the overflow rides the next coalescing round."""
        from repro.client import DidoClient

        srv = self.make_server(batch_size=8)
        srv.start()
        try:
            with DidoClient(srv.address, timeout_s=5.0) as client:
                sets = [
                    Query(QueryType.SET, b"c%d" % i, b"v%d" % i) for i in range(30)
                ]
                assert all(
                    r.status is ResponseStatus.STORED for r in client.execute(sets)
                )
                gets = [Query(QueryType.GET, b"c%d" % i) for i in range(30)]
                values = [r.value for r in client.execute(gets)]
                assert values == [b"v%d" % i for i in range(30)]
            assert srv.stats.batches >= 4  # 30 queries at target 8
        finally:
            srv.stop()

    def test_coalescing_gauges_exported(self):
        from repro.telemetry import configure, get_telemetry

        configure(enabled=True)
        try:
            srv = self.make_server(batch_size=3)
            try:
                window, bounds = open_window(
                    [([Query(QueryType.GET, b"k%d" % i) for i in range(7)], ("127.0.0.1", 1))]
                )
                srv._cut_batch(window, bounds)
                registry = get_telemetry().registry
                depth = dict(registry.gauge("repro_server_queue_depth").samples())
                fill = dict(registry.gauge("repro_batch_fill_ratio").samples())
                assert list(depth.values()) == [4.0]
                assert list(fill.values()) == [1.0]
            finally:
                srv.stop()
        finally:
            configure(enabled=False)


class TestWindowWaits:
    """A window costs two waits: one for its first datagram, one to its
    deadline; what arrives meanwhile is taken in one drain."""

    def make_server(self, **kwargs):
        system = DidoSystem(memory_bytes=16 << 20, expected_objects=8192)
        return DidoUDPServer(("127.0.0.1", 0), system=system, **kwargs)

    def test_window_sent_one_datagram_at_a_time_is_one_batch(self, monkeypatch):
        srv = self.make_server(coalesce_us=50_000)
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.bind(("127.0.0.1", 0))
                sock.settimeout(5.0)
                datagrams = [
                    [Query(QueryType.SET, b"w%d" % i, b"v%d" % i), Query(QueryType.GET, b"w%d" % i)]
                    for i in range(8)
                ]
                waits = serve_window_fed_during_waits(srv, sock, datagrams, monkeypatch)
                payload, _ = sock.recvfrom(64 * 1024)
        finally:
            srv.stop()
        assert [kind for kind, _ in waits] == ["select", "sleep"]
        assert 0 < waits[1][1] <= 0.05  # to the deadline, no later
        assert srv.stats.datagrams_in == 8
        assert srv.stats.batches == 1 and srv.stats.datagrams_out == 1
        responses = decode_responses(payload)
        assert [r.status for r in responses] == [ResponseStatus.STORED, ResponseStatus.OK] * 8
        assert [r.value for r in responses[1::2]] == [b"v%d" % i for i in range(8)]

    def test_send_that_would_block_waits_for_room(self):
        srv = self.make_server(coalesce_us=1000)
        srv._socket = _SendBlocksOnce(srv._socket)
        srv.start()
        try:
            with DidoClient(srv.address, timeout_s=1.0) as client:
                assert client.set(b"k", b"v")
                assert client.get(b"k") == b"v"
        finally:
            srv.stop()
        assert srv._socket.refused == 1
        assert srv.stats.datagrams_out == 2


class TestWirePlanes:
    def make_server(self, **kwargs):
        system = DidoSystem(memory_bytes=16 << 20, expected_objects=8192, engine="vector")
        return DidoUDPServer(("127.0.0.1", 0), system=system, **kwargs)

    @pytest.mark.parametrize("engine", ["vector", "reference"])
    def test_server_bytes_equal_reference_codec(self, engine):
        """The one TX path — response columns filled by the engine (vector)
        or derived from its Response objects (reference) — puts the bytes on
        the wire that ``encode_responses`` gives for ReferenceEngine's
        answers to the same datagrams."""
        import socket

        from repro.kv.protocol import encode_queries, encode_responses
        from repro.kv.store import KVStore
        from repro.pipeline.functional import FunctionalPipeline
        from repro.pipeline.megakv import megakv_coupled_config

        datagrams = [
            [Query(QueryType.SET, b"w%d" % i, b"val%d" % i) for i in range(40)],
            [Query(QueryType.GET, b"w%d" % i) for i in range(40)]
            + [Query(QueryType.GET, b"nope"), Query(QueryType.DELETE, b"w0")],
            [Query(QueryType.DELETE, b"w0"), Query(QueryType.GET, b"w0"),
             Query(QueryType.SET, b"w1", b""), Query(QueryType.GET, b"w1")],
        ]
        reference = FunctionalPipeline(KVStore(16 << 20, 8192), engine="reference")
        config = megakv_coupled_config()
        system = DidoSystem(memory_bytes=16 << 20, expected_objects=8192, engine=engine)
        srv = DidoUDPServer(("127.0.0.1", 0), system=system, coalesce_us=1000)
        srv.start()
        try:
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.settimeout(5.0)
                for queries in datagrams:
                    sock.sendto(encode_queries(queries), srv.address)
                    payload, _ = sock.recvfrom(64 * 1024)
                    expected = reference.process_batch(config, queries).responses
                    assert payload == encode_responses(expected)
        finally:
            srv.stop()

    def test_parse_errors_counted(self):
        from repro.telemetry import configure, get_telemetry

        configure(enabled=True)
        srv = self.make_server(coalesce_us=1000)
        srv.start()
        try:
            with DidoClient(srv.address, timeout_s=5.0) as client:
                client._socket.sendto(b"\xff\xff\xff", srv.address)
                # The serve loop survives and keeps answering.
                assert client.set(b"alive", b"yes")
            assert srv.stats.protocol_errors >= 1
            counter = get_telemetry().registry.counter("repro_wire_parse_errors_total")
            assert counter.value() >= 1
        finally:
            srv.stop()
            configure(enabled=False)

    def test_wire_timers_and_drain_gauge_exported(self, monkeypatch):
        from repro.telemetry import configure, get_telemetry

        configure(enabled=True)
        srv = self.make_server(coalesce_us=1000)
        srv.start()
        try:
            with DidoClient(srv.address, timeout_s=5.0) as client:
                client.set(b"k", b"v")
                assert client.get(b"k") == b"v"
            registry = get_telemetry().registry
            snapshot = registry.snapshot()
            assert "repro_wire_parse_ns" in snapshot
            assert "repro_wire_frame_ns" in snapshot
            gauge = dict(registry.gauge("repro_datagrams_per_poll").samples())
            assert all(v >= 1.0 for v in gauge.values())
            # Datagrams that arrive while the loop sleeps out the deadline
            # are taken in one drain: 1 after the select, then 7.
            quiet = self.make_server(coalesce_us=50_000)
            try:
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                    sock.bind(("127.0.0.1", 0))
                    serve_window_fed_during_waits(
                        quiet, sock, [[Query(QueryType.GET, b"k%d" % i)] for i in range(8)], monkeypatch
                    )
            finally:
                quiet.stop()
            gauge = dict(registry.gauge("repro_datagrams_per_poll").samples())
            assert list(gauge.values()) == [4.0]
        finally:
            srv.stop()
            configure(enabled=False)

    def test_cut_batch_splits_columnar_segments(self):
        srv = self.make_server(batch_size=3)
        try:
            peer = ("127.0.0.1", 4242)
            window, bounds = open_window(
                [([Query(QueryType.SET, b"k%d" % i, b"v" * i) for i in range(5)], peer)]
            )
            batch, batch_bounds = srv._cut_batch(window, bounds)
            assert batch_bounds == [(3, peer)]
            # The sealed batch carries the NumPy columns; the backlog stays
            # an open window the next poll appends to.
            assert list(batch.value_lens) == [0, 1, 2]
            backlog, backlog_bounds = srv._backlog
            assert backlog.keys == [b"k3", b"k4"] and backlog_bounds == [(2, peer)]
            assert backlog.opcodes == [2, 2] and backlog.key_lens is None
        finally:
            srv.stop()


# ------------------------------------------------- the serve loop, fuzzed

#: One datagram of every malformed class in ``docs/wire_protocol.md``, in
#: the legacy decoder's precedence order.
MALFORMED = [
    b"\x01\x01\x00",  # truncated query header
    b"\x09\x01\x00\x00\x00\x00\x00k",  # unknown opcode
    b"\x01\x05\x00\x00\x00\x00\x00k",  # truncated query body
    b"\x01\x00\x00\x00\x00\x00\x00",  # empty key
    b"\x01\x01\x00\x01\x00\x00\x00kv",  # GET with a value
    b"\x03\x01\x00\x01\x00\x00\x00kv",  # DELETE with a value
]

queries_strategy = st.lists(
    st.tuples(
        st.sampled_from(list(QueryType)),
        st.sampled_from([b"k%d" % i for i in range(6)]),
        st.binary(max_size=32),
    ),
    max_size=8,
).map(lambda rows: [Query(q, k, v if q is QueryType.SET else b"") for q, k, v in rows])

datagram_strategy = st.one_of(
    queries_strategy.map(encode_queries),
    # Well-formed queries, then one malformed message: the whole
    # datagram is dropped.
    st.tuples(queries_strategy, st.sampled_from(MALFORMED)).map(
        lambda parts: encode_queries(parts[0]) + parts[1]
    ),
)

#: Peer 0 always opens with these: a response larger than one datagram,
#: between two small ones, so its answers span several datagrams.
BIG = b"b" * (40 * 1024)
PREAMBLE = [
    [Query(QueryType.SET, b"small", b"s" * 100), Query(QueryType.SET, b"big", BIG)],
    [Query(QueryType.GET, b"small"), Query(QueryType.GET, b"big"), Query(QueryType.GET, b"small")],
]


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class TestServeLoopFuzz:
    # Each example drives real sockets and a fresh system: a failure is
    # reported as found, without a shrink phase of thousands more.
    @settings(
        max_examples=12,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        peer_count=st.integers(1, 4),
        traffic=st.lists(st.tuples(st.integers(0, 3), datagram_strategy), max_size=78),
        batch_size=st.integers(3, 24),
    )
    def test_every_peer_gets_the_reference_answers_in_order(
        self, peer_count, traffic, batch_size
    ):
        """1–80 datagrams from 1–4 peers, malformed ones mixed in, through
        the real serve loop on loopback.  Everything is queued before the
        loop starts, so each window is the next ``batch_size`` well-formed
        queries in send order; a peer's datagrams from one window must be
        ReferenceEngine's answers to its queries in it, cut exactly as
        ``packets._pack`` cuts at 32 KiB.  Each bad datagram is counted
        once and logged with the legacy decoder's message."""
        from repro.kv.store import KVStore
        from repro.net.packets import frames_for_responses
        from repro.pipeline.functional import FunctionalPipeline
        from repro.pipeline.megakv import megakv_coupled_config
        from repro.server import MAX_RESPONSE_PAYLOAD

        datagrams = [(0, encode_queries(q)) for q in PREAMBLE]
        datagrams += [(who % peer_count, payload) for who, payload in traffic]
        peers = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(peer_count)]
        warnings = _Warnings()
        logging.getLogger("repro.server").addHandler(warnings)
        system = DidoSystem(memory_bytes=16 << 20, expected_objects=8192)
        srv = DidoUDPServer(
            ("127.0.0.1", 0), system=system, coalesce_us=200_000, batch_size=batch_size
        )
        try:
            for sock in peers:
                sock.bind(("127.0.0.1", 0))
                sock.settimeout(5.0)
            addresses = [sock.getsockname() for sock in peers]
            rows, expected_errors = [], []
            for who, payload in datagrams:
                try:
                    rows += [(who, q) for q in decode_queries(payload)]
                except ProtocolError as exc:
                    expected_errors.append(
                        "dropping undecodable datagram from %s: %s" % (addresses[who], exc)
                    )
                peers[who].sendto(payload, srv.address)

            reference = FunctionalPipeline(KVStore(16 << 20, 8192), engine="reference")
            config = megakv_coupled_config()
            expected = [[] for _ in peers]
            for start in range(0, len(rows), batch_size):
                window = rows[start : start + batch_size]
                answers = reference.process_batch(config, [q for _, q in window]).responses
                for who in range(peer_count):
                    mine = [a for (owner, _), a in zip(window, answers) if owner == who]
                    expected[who] += [
                        f.payload for f in frames_for_responses(mine, MAX_RESPONSE_PAYLOAD)
                    ]
            assert any(len(f) > MAX_RESPONSE_PAYLOAD for f in expected[0])

            srv.start()
            for sock, wanted in zip(peers, expected):
                assert [sock.recvfrom(128 * 1024)[0] for _ in wanted] == wanted
        finally:
            srv.stop()
            logging.getLogger("repro.server").removeHandler(warnings)
            for sock in peers:
                sock.close()
        assert srv.stats.datagrams_out == sum(map(len, expected))
        assert srv.stats.protocol_errors == len(expected_errors)
        assert [m for m in warnings.messages if m.startswith("dropping")] == expected_errors
