"""End-to-end tests over real localhost UDP sockets."""

import pytest

from repro.client import DidoClient, TimeoutError_
from repro.core.dido import DidoSystem
from repro.errors import ConfigurationError
from repro.kv.protocol import Query, QueryType, ResponseStatus
from repro.server import DidoUDPServer


@pytest.fixture
def server():
    system = DidoSystem(memory_bytes=16 << 20, expected_objects=8192)
    srv = DidoUDPServer(("127.0.0.1", 0), system=system, batch_window_s=0.001)
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
            DidoUDPServer(("127.0.0.1", 0), batch_window_s=-1.0)

    def test_malformed_datagram_counted_not_fatal(self, server, client):
        import socket as socketlib

        s = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_DGRAM)
        s.sendto(b"\xff\xff\xff", server.address)
        s.close()
        # The server keeps working afterwards.
        assert client.set(b"still-alive", b"yes")
        assert server.stats.protocol_errors >= 1


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


class TestCoalescing:
    def make_server(self, **kwargs):
        system = DidoSystem(memory_bytes=16 << 20, expected_objects=8192)
        return DidoUDPServer(("127.0.0.1", 0), system=system, **kwargs)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make_server(batch_size=0)
        with pytest.raises(ConfigurationError):
            self.make_server(coalesce_us=-1.0)

    def test_coalesce_us_overrides_window(self):
        srv = self.make_server(batch_window_s=5.0, coalesce_us=1500.0)
        try:
            assert srv._batch_window_s == pytest.approx(0.0015)
        finally:
            srv.stop()

    def test_cut_batch_splits_at_target_and_carries_over(self):
        srv = self.make_server(batch_size=5)
        try:
            peer_a, peer_b = ("127.0.0.1", 1111), ("127.0.0.1", 2222)
            pending = [
                ([Query(QueryType.GET, b"k%d" % i) for i in range(4)], peer_a),
                ([Query(QueryType.GET, b"m%d" % i) for i in range(4)], peer_b),
            ]
            batch = srv._cut_batch(pending)
            taken = [(len(queries), peer) for queries, peer in batch]
            assert taken == [(4, peer_a), (1, peer_b)]
            # The straddling datagram's tail kept its peer and leads the backlog.
            assert [(len(q), p) for q, p in srv._backlog] == [(3, peer_b)]
            assert srv._backlog[0][0][0].key == b"m1"
        finally:
            srv.stop()

    def test_cut_batch_under_target_leaves_no_backlog(self):
        srv = self.make_server(batch_size=100)
        try:
            pending = [([Query(QueryType.GET, b"k")], ("127.0.0.1", 1))]
            assert srv._cut_batch(pending) == pending
            assert srv._backlog == []
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
                pending = [
                    ([Query(QueryType.GET, b"k%d" % i) for i in range(7)],
                     ("127.0.0.1", 1)),
                ]
                srv._cut_batch(pending)
                registry = get_telemetry().registry
                depth = dict(registry.gauge("repro_server_queue_depth").samples())
                fill = dict(registry.gauge("repro_batch_fill_ratio").samples())
                assert list(depth.values()) == [4.0]
                assert list(fill.values()) == [1.0]
            finally:
                srv.stop()
        finally:
            configure(enabled=False)


class TestWirePlanes:
    def make_server(self, **kwargs):
        system = DidoSystem(memory_bytes=16 << 20, expected_objects=8192, engine="vector")
        return DidoUDPServer(("127.0.0.1", 0), system=system, **kwargs)

    def test_invalid_drain_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make_server(drain_limit=0)

    @pytest.mark.parametrize("engine", ["vector", "serial"])
    def test_server_bytes_equal_reference_codec(self, engine):
        """The one TX path — response columns filled by the engine (vector)
        or derived from its Response objects (serial) — puts the bytes on
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
        srv = DidoUDPServer(("127.0.0.1", 0), system=system, batch_window_s=0.001)
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
        srv = self.make_server(batch_window_s=0.001)
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

    def test_wire_timers_and_drain_gauge_exported(self):
        from repro.telemetry import configure, get_telemetry

        configure(enabled=True)
        srv = self.make_server(batch_window_s=0.001)
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
        finally:
            srv.stop()
            configure(enabled=False)

    def test_cut_batch_splits_columnar_segments(self):
        from repro.net.wire import QueryColumns

        srv = self.make_server(batch_size=3)
        try:
            peer = ("127.0.0.1", 4242)
            segment = QueryColumns.from_queries(
                [Query(QueryType.GET, b"k%d" % i) for i in range(5)]
            )
            batch = srv._cut_batch([(segment, peer)])
            assert [(len(s), p) for s, p in batch] == [(3, peer)]
            assert [(len(s), p) for s, p in srv._backlog] == [(2, peer)]
            assert srv._backlog[0][0].keys == [b"k3", b"k4"]
        finally:
            srv.stop()
