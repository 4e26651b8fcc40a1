"""In-process cluster serving tests: ownership redirects, the control
plane's epoch discipline, and the live migration state machine.

Every test runs real loopback sockets — UDP data plane, TCP control
plane — but keeps the fleet in-process (one ``DidoUDPServer`` thread per
node) so failures are debuggable and fast.  The full multi-*process*
path is covered by ``tests/test_cluster_coordinator.py``.
"""

import socket
import time

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro.client import ClusterClient
from repro.cluster.manifest import ClusterManifest, ManifestRouter
from repro.cluster.ring import HashRing
from repro.cluster.serving import (
    ClusterError,
    ClusterNode,
    NodeOwnership,
    _Migration,
    control_request,
    fetch_manifest,
    free_port,
    free_tcp_port,
)
from repro.core.dido import DidoSystem
from repro.kv.protocol import (
    Query,
    QueryType,
    Response,
    ResponseStatus,
    decode_responses,
    encode_queries,
    encode_responses,
)
from repro.kv.store import KVStore
from repro.net.wire import QueryColumns, decode_window
from repro.pipeline.functional import FunctionalPipeline
from repro.pipeline.megakv import megakv_coupled_config
from repro.server import DidoUDPServer

VNODES = 16


def build_manifest(names, epoch, addresses):
    ring = HashRing(VNODES)
    for name in names:
        ring.add_node(name)
    return ClusterManifest.from_ring(epoch, ring, addresses)


def spawn_node(name, manifest, *, gated=False):
    system = DidoSystem(memory_bytes=8 << 20, expected_objects=4096)
    info = manifest.nodes[name]
    server = DidoUDPServer(info.address, system=system, coalesce_us=1000)
    node = ClusterNode(
        name, server, manifest, ("127.0.0.1", info.control_port), gated=gated
    )
    node.start()
    return node


@pytest.fixture
def fleet():
    """Two live nodes (``a``, ``b``) plus the manifest they share."""
    names = ["a", "b"]
    addresses = {n: ("127.0.0.1", free_port(), free_tcp_port()) for n in names}
    manifest = build_manifest(names, 1, addresses)
    nodes = {name: spawn_node(name, manifest) for name in names}
    yield nodes, manifest, addresses
    for node in nodes.values():
        node.stop()


def udp_exchange(sock, address, queries):
    sock.sendto(encode_queries(queries), tuple(address))
    responses = []
    while len(responses) < len(queries):
        responses.extend(decode_responses(sock.recvfrom(65535)[0]))
    return responses


@pytest.fixture
def udp():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(5.0)
    yield sock
    sock.close()


def split_keys(manifest, count=120):
    router = ManifestRouter(manifest)
    by_owner = {}
    for i in range(count):
        key = f"key-{i:04d}".encode()
        by_owner.setdefault(router.owner_for(key), []).append(key)
    return by_owner


# ---------------------------------------------------------------- ownership


class TestOwnership:
    def test_single_node_never_redirects(self):
        addresses = {"solo": ("127.0.0.1", 1, 2)}
        manifest = build_manifest(["solo"], 1, addresses)
        ownership = NodeOwnership(manifest, "solo")
        assert ownership.misrouted_rows([b"k1", b"k2", b"k3"]) == []

    def test_misrouted_rows_match_router(self):
        addresses = {n: ("127.0.0.1", i, i + 1) for i, n in enumerate(["a", "b"])}
        manifest = build_manifest(["a", "b"], 1, addresses)
        ownership = NodeOwnership(manifest, "a")
        router = ManifestRouter(manifest)
        keys = [f"k{i}".encode() for i in range(200)]
        misrouted = set(ownership.misrouted_rows(keys))
        expected = {i for i, k in enumerate(keys) if router.owner_for(k) != "a"}
        assert misrouted == expected

    def test_absent_node_owns_nothing(self):
        addresses = {"a": ("127.0.0.1", 1, 2)}
        manifest = build_manifest(["a"], 2, addresses)
        ownership = NodeOwnership(manifest, "gone")
        assert ownership.gated
        assert ownership.misrouted_rows([b"x", b"y"]) == [0, 1]

    def test_redirect_value_is_epoch_bytes(self):
        addresses = {"a": ("127.0.0.1", 1, 2)}
        manifest = build_manifest(["a"], 7, addresses)
        ownership = NodeOwnership(manifest, "a")
        assert int.from_bytes(ownership.redirect_value, "little") == 7


# --------------------------------------------------------------- data plane


class TestRedirects:
    def test_misrouted_get_gets_wrong_node_with_epoch(self, fleet, udp):
        nodes, manifest, _ = fleet
        by_owner = split_keys(manifest)
        key = by_owner["a"][0]
        [response] = udp_exchange(
            udp, manifest.nodes["b"].address, [Query(QueryType.GET, key)]
        )
        assert response.status is ResponseStatus.WRONG_NODE
        assert int.from_bytes(response.value, "little") == 1
        assert nodes["b"].server.stats.redirects == 1

    def test_misrouted_set_does_not_touch_store(self, fleet, udp):
        nodes, manifest, _ = fleet
        by_owner = split_keys(manifest)
        key = by_owner["a"][0]
        [response] = udp_exchange(
            udp, manifest.nodes["b"].address, [Query(QueryType.SET, key, b"stray")]
        )
        assert response.status is ResponseStatus.WRONG_NODE
        assert len(nodes["b"].server.system.store) == 0

    def test_mixed_window_serves_owned_rows_and_redirects_the_rest(self, fleet, udp):
        nodes, manifest, _ = fleet
        by_owner = split_keys(manifest)
        owned, foreign = by_owner["a"][0], by_owner["b"][0]
        queries = [
            Query(QueryType.SET, owned, b"mine"),
            Query(QueryType.SET, foreign, b"theirs"),
            Query(QueryType.GET, owned),
        ]
        responses = udp_exchange(udp, manifest.nodes["a"].address, queries)
        assert responses[0].status is ResponseStatus.STORED
        assert responses[1].status is ResponseStatus.WRONG_NODE
        assert responses[2].status is ResponseStatus.OK
        assert responses[2].value == b"mine"

    def test_gated_node_redirects_everything(self):
        addresses = {"g": ("127.0.0.1", free_port(), free_tcp_port())}
        manifest = build_manifest(["g"], 3, addresses)
        node = spawn_node("g", manifest, gated=True)
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(5.0)
            [response] = udp_exchange(
                sock, manifest.nodes["g"].address, [Query(QueryType.GET, b"any")]
            )
            sock.close()
            assert response.status is ResponseStatus.WRONG_NODE
            assert int.from_bytes(response.value, "little") == 3
        finally:
            node.stop()


class _RowOwnership:
    """An ownership view that misroutes exactly the given window rows."""

    name = "rows"
    epoch = 9
    redirect_value = (9).to_bytes(8, "little")

    def __init__(self, misrouted):
        self.misrouted = misrouted

    def misrouted_rows(self, keys):
        return self.misrouted


datagram_queries = st.lists(
    st.tuples(
        st.sampled_from(list(QueryType)),
        st.sampled_from([b"k%d" % i for i in range(4)]),
        st.binary(max_size=8),
    ),
    min_size=1,
    max_size=6,
).map(lambda rows: [Query(q, k, v if q is QueryType.SET else b"") for q, k, v in rows])


class TestOwnedSplit:
    # Each example drives real sockets and a fresh system: a failure is
    # reported as found, without a shrink phase of thousands more.
    @settings(
        max_examples=25,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate],
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(st.tuples(st.integers(0, 1), datagram_queries), min_size=1, max_size=6),
        st.data(),
    )
    def test_mask_split_serves_owned_rows_and_redirects_the_rest(self, datagrams, data):
        """A two-peer window under a random ownership mask: each peer gets
        ReferenceEngine's answers to the owned rows and ``WRONG_NODE`` plus
        the epoch on the misrouted ones, in arrival order."""
        rows = [(who, q) for who, queries in datagrams for q in queries]
        owned = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        peers = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(2)]
        system = DidoSystem(memory_bytes=2 << 20, expected_objects=256)
        server = DidoUDPServer(("127.0.0.1", 0), system=system)
        try:
            for sock in peers:
                sock.bind(("127.0.0.1", 0))
                sock.settimeout(5.0)
            window, stops, _ = decode_window(
                [encode_queries(q) for _, q in datagrams], QueryColumns.open_window()
            )
            bounds = [
                (stop, peers[who].getsockname()) for stop, (who, _) in zip(stops, datagrams)
            ]
            server.ownership = _RowOwnership([i for i, mine in enumerate(owned) if not mine])
            server._process_window(*server._cut_batch(window, bounds))

            reference = FunctionalPipeline(KVStore(2 << 20, 256), engine="reference")
            served = [q for (_, q), mine in zip(rows, owned) if mine]
            answers = iter(
                reference.process_batch(megakv_coupled_config(), served).responses
                if served
                else []
            )
            redirect = Response(ResponseStatus.WRONG_NODE, _RowOwnership.redirect_value)
            expected = [[], []]
            for (who, _), mine in zip(rows, owned):
                expected[who].append(next(answers) if mine else redirect)
            for sock, responses in zip(peers, expected):
                if responses:
                    assert sock.recvfrom(65535)[0] == encode_responses(responses)
            assert server.stats.redirects == owned.count(False)
        finally:
            server.stop()
            for sock in peers:
                sock.close()


    def test_owned_hits_scatter_as_values_beside_a_redirect(self):
        """Owned GET hits of equal length (the engine hands them out as
        views of the heap's bytes, which NumPy would unpack as arrays)
        keep their values when a misrouted row is scattered between them."""
        system = DidoSystem(memory_bytes=2 << 20, expected_objects=256)
        server = DidoUDPServer(("127.0.0.1", 0), system=system)
        peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            peer.bind(("127.0.0.1", 0))
            peer.settimeout(5.0)
            system.process([Query(QueryType.SET, b"k%d" % i, b"value-%d" % i) for i in range(2)])
            server.ownership = _RowOwnership([1])
            rows = [Query(QueryType.GET, key) for key in (b"k0", b"elsewhere", b"k1")]
            window, stops, _ = decode_window([encode_queries(rows)], QueryColumns.open_window())
            server._process_window(*server._cut_batch(window, [(stops[0], peer.getsockname())]))
            assert peer.recvfrom(65535)[0] == encode_responses(
                [
                    Response(ResponseStatus.OK, b"value-0"),
                    Response(ResponseStatus.WRONG_NODE, _RowOwnership.redirect_value),
                    Response(ResponseStatus.OK, b"value-1"),
                ]
            )
        finally:
            server.stop()
            peer.close()

    def test_failed_owned_window_still_redirects_its_misrouted_rows(self):
        """An owned sub-batch the store cannot apply (fresh SETs past what
        a 128-object index holds) answers its own rows ``ERROR`` and is
        counted, but the misrouted row the store never saw keeps its
        ``WRONG_NODE`` redirect, so the client re-routes it instead of
        failing it."""
        system = DidoSystem(memory_bytes=8 << 20, expected_objects=128)
        server = DidoUDPServer(("127.0.0.1", 0), system=system)
        server.ownership = _RowOwnership([0])
        peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            peer.bind(("127.0.0.1", 0))
            peer.settimeout(5.0)
            redirect = Response(ResponseStatus.WRONG_NODE, _RowOwnership.redirect_value)
            failed = []
            for w in range(24):
                rows = [Query(QueryType.SET, b"elsewhere-%02d" % w, b"v")] + [
                    Query(QueryType.SET, b"key-%02d-%02d" % (w, i), b"v") for i in range(16)
                ]
                window, stops, _ = decode_window(
                    [encode_queries(rows)], QueryColumns.open_window()
                )
                server._process_window(
                    *server._cut_batch(window, [(stops[0], peer.getsockname())])
                )
                answers = decode_responses(peer.recvfrom(65535)[0])
                assert answers[0] == redirect
                if answers[1:] != [Response(ResponseStatus.STORED)] * 16:
                    assert answers[1:] == [Response(ResponseStatus.ERROR)] * 16
                    failed.append(w)
            assert failed
            assert server.stats.failed_windows == len(failed)
            assert server.stats.redirects == 24
        finally:
            server.stop()
            peer.close()


# ------------------------------------------------------------ control plane


class TestControlPlane:
    def test_ping_manifest_stats(self, fleet):
        nodes, manifest, addresses = fleet
        control = ("127.0.0.1", addresses["a"][2])
        reply = control_request(control, {"cmd": "ping"})
        assert reply["name"] == "a" and reply["epoch"] == 1
        assert fetch_manifest(control) == manifest
        stats = control_request(control, {"cmd": "stats"})
        assert stats["owned_arcs"] == VNODES
        assert stats["gated"] is False

    def test_stale_and_equal_epoch_install_rejected(self, fleet):
        nodes, manifest, addresses = fleet
        control = ("127.0.0.1", addresses["a"][2])
        with pytest.raises(ClusterError, match="stale"):
            control_request(
                control, {"cmd": "install", "manifest": manifest.to_dict()}
            )

    def test_newer_epoch_install_accepted_and_monotonic(self, fleet):
        nodes, manifest, addresses = fleet
        control = ("127.0.0.1", addresses["a"][2])
        newer = build_manifest(["a", "b"], 5, addresses)
        reply = control_request(
            control, {"cmd": "install", "manifest": newer.to_dict()}
        )
        assert reply["epoch"] == 5
        assert nodes["a"].manifest.epoch == 5
        # Re-installing the same epoch is stale now: epochs only go up.
        with pytest.raises(ClusterError, match="stale"):
            control_request(
                control, {"cmd": "install", "manifest": newer.to_dict()}
            )

    def test_unknown_command_rejected(self, fleet):
        _, _, addresses = fleet
        with pytest.raises(ClusterError, match="unknown"):
            control_request(("127.0.0.1", addresses["a"][2]), {"cmd": "nope"})

    def test_shutdown_stops_the_node(self):
        addresses = {"s": ("127.0.0.1", free_port(), free_tcp_port())}
        manifest = build_manifest(["s"], 1, addresses)
        node = spawn_node("s", manifest)
        control = ("127.0.0.1", addresses["s"][2])
        assert control_request(control, {"cmd": "shutdown"})["ok"]
        deadline = time.monotonic() + 5.0
        while node.server._running.is_set() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not node.server._running.is_set()


# ----------------------------------------------------------------- migration


class TestMigration:
    def prefill(self, udp, manifest, by_owner):
        for owner, keys in by_owner.items():
            responses = udp_exchange(
                udp,
                manifest.nodes[owner].address,
                [Query(QueryType.SET, k, b"v:" + k) for k in keys],
            )
            assert all(r.status is ResponseStatus.STORED for r in responses)

    def grow(self, addresses):
        """Manifest for epoch 2 with joiner ``c`` added to the ring."""
        addresses = dict(addresses)
        addresses["c"] = ("127.0.0.1", free_port(), free_tcp_port())
        return build_manifest(["a", "b", "c"], 2, addresses), addresses

    def test_add_node_moves_exactly_the_owner_changed_keys(self, fleet, udp):
        nodes, m1, addresses = fleet
        by_owner = split_keys(m1)
        self.prefill(udp, m1, by_owner)
        m2, addresses = self.grow(addresses)
        joiner = spawn_node("c", m2, gated=True)
        try:
            for donor in ("a", "b"):
                reply = control_request(
                    ("127.0.0.1", addresses[donor][2]),
                    {"cmd": "transfer", "manifest": m2.to_dict()},
                    timeout_s=60.0,
                )
                assert reply["ok"]
            for donor in ("a", "b"):
                control_request(
                    ("127.0.0.1", addresses[donor][2]),
                    {"cmd": "flip", "epoch": 2},
                    timeout_s=60.0,
                )
            control_request(("127.0.0.1", addresses["c"][2]), {"cmd": "activate"})

            router1, router2 = ManifestRouter(m1), ManifestRouter(m2)
            moved = 0
            for keys in by_owner.values():
                for key in keys:
                    owner = router2.owner_for(key)
                    [r] = udp_exchange(
                        udp, m2.nodes[owner].address, [Query(QueryType.GET, key)]
                    )
                    assert r.status is ResponseStatus.OK and r.value == b"v:" + key
                    if router1.owner_for(key) != owner:
                        moved += 1
                        assert owner == "c"  # arcs only move to the joiner
                        # The donor no longer holds the key locally …
                        [stale] = udp_exchange(
                            udp,
                            m2.nodes[router1.owner_for(key)].address,
                            [Query(QueryType.GET, key)],
                        )
                        # … and redirects with the new epoch.
                        assert stale.status is ResponseStatus.WRONG_NODE
                        assert int.from_bytes(stale.value, "little") == 2
            assert moved > 0
            stats = control_request(("127.0.0.1", addresses["c"][2]), {"cmd": "stats"})
            assert stats["keys"] == moved
        finally:
            joiner.stop()

    def test_write_between_transfer_and_flip_is_delta_replayed(self, fleet, udp):
        nodes, m1, addresses = fleet
        by_owner = split_keys(m1)
        self.prefill(udp, m1, by_owner)
        m2, addresses = self.grow(addresses)
        router1, router2 = ManifestRouter(m1), ManifestRouter(m2)
        moving = next(
            key
            for keys in by_owner.values()
            for key in keys
            if router2.owner_for(key) == "c"
        )
        donor = router1.owner_for(moving)
        joiner = spawn_node("c", m2, gated=True)
        try:
            control_request(
                ("127.0.0.1", addresses[donor][2]),
                {"cmd": "transfer", "manifest": m2.to_dict()},
                timeout_s=60.0,
            )
            # The donor still serves the moving key; this write lands after
            # the bulk copy and must reach the joiner via the delta pass.
            [r] = udp_exchange(
                udp, m1.nodes[donor].address, [Query(QueryType.SET, moving, b"fresh")]
            )
            assert r.status is ResponseStatus.STORED
            other = "a" if donor == "b" else "b"
            control_request(
                ("127.0.0.1", addresses[other][2]),
                {"cmd": "transfer", "manifest": m2.to_dict()},
                timeout_s=60.0,
            )
            for name in (donor, other):
                reply = control_request(
                    ("127.0.0.1", addresses[name][2]),
                    {"cmd": "flip", "epoch": 2},
                    timeout_s=60.0,
                )
            control_request(("127.0.0.1", addresses["c"][2]), {"cmd": "activate"})
            [r] = udp_exchange(
                udp, m2.nodes["c"].address, [Query(QueryType.GET, moving)]
            )
            assert r.status is ResponseStatus.OK
            assert r.value == b"fresh"
        finally:
            joiner.stop()

    @pytest.mark.parametrize("reads", [1, 3])
    def test_migration_reads_add_to_the_open_window_count(self, reads):
        """A key read ``reads`` times in the open profile window, then read
        again by the migration's bulk copy, is harvested with every read
        counted: migration reads stamp the window's epoch, not epoch 0."""
        addresses = {n: ("127.0.0.1", free_port(), free_tcp_port()) for n in ("a", "b")}
        m1 = build_manifest(["a"], 1, {"a": addresses["a"]})
        m2 = build_manifest(["a", "b"], 2, addresses)
        system = DidoSystem(memory_bytes=8 << 20, expected_objects=4096)
        node = ClusterNode("a", DidoUDPServer(("127.0.0.1", 0), system=system), m1)
        try:
            system.process([Query(QueryType.SET, b"hot", b"v")])  # bootstrap window
            assert system.profiler.epoch > 0
            system.store.harvest_window()
            for _ in range(reads):
                system.process([Query(QueryType.GET, b"hot")])
            migration = _Migration(node, m2)
            migration._stream = lambda by_owner: None  # no receiver here
            migration.pending.append(b"hot")
            migration.phase = "bulk"
            migration.step()
            assert migration.phase == "drained"
            counts, _ = system.store.harvest_window()
            assert counts == [reads + 1]
        finally:
            node.stop()

    def test_flip_without_transfer_rejected(self, fleet):
        _, _, addresses = fleet
        with pytest.raises(ClusterError, match="no migration"):
            control_request(
                ("127.0.0.1", addresses["a"][2]), {"cmd": "flip", "epoch": 2}
            )


# ------------------------------------------------------------ cluster client


class TestClusterClient:
    def test_routes_and_scatters_in_order(self, fleet, udp):
        _, manifest, _ = fleet
        with ClusterClient(manifest) as client:
            queries = [
                Query(QueryType.SET, f"ck{i}".encode(), b"cv%d" % i) for i in range(60)
            ]
            responses = client.execute(queries)
            assert all(r.status is ResponseStatus.STORED for r in responses)
            values = client.execute(
                [Query(QueryType.GET, f"ck{i}".encode()) for i in range(60)]
            )
            assert [r.value for r in values] == [b"cv%d" % i for i in range(60)]

    def test_stale_client_follows_redirects_to_new_epoch(self, fleet, udp):
        nodes, m1, addresses = fleet
        by_owner = split_keys(m1)
        TestMigration.prefill(TestMigration(), udp, m1, by_owner)
        m2, addresses = TestMigration.grow(TestMigration(), addresses)
        joiner = spawn_node("c", m2, gated=True)
        stale_client = ClusterClient(m1)  # built before the membership change
        try:
            for donor in ("a", "b"):
                control_request(
                    ("127.0.0.1", addresses[donor][2]),
                    {"cmd": "transfer", "manifest": m2.to_dict()},
                    timeout_s=60.0,
                )
            for donor in ("a", "b"):
                control_request(
                    ("127.0.0.1", addresses[donor][2]),
                    {"cmd": "flip", "epoch": 2},
                    timeout_s=60.0,
                )
            control_request(("127.0.0.1", addresses["c"][2]), {"cmd": "activate"})
            router2 = ManifestRouter(m2)
            moving = next(
                key
                for keys in by_owner.values()
                for key in keys
                if router2.owner_for(key) == "c"
            )
            assert stale_client.get(moving) == b"v:" + moving
            assert stale_client.stats.redirects >= 1
            assert stale_client.manifest.epoch == 2
            assert stale_client.stats.manifest_refreshes >= 1
        finally:
            stale_client.close()
            joiner.stop()
