"""``repro loadgen``: both driving disciplines against a live in-process
server and a live two-node fleet, and the cluster tape cut."""

import json
import socket
from collections import Counter

import pytest

from repro.cli import main
from repro.client import DidoClient
from repro.cluster.manifest import ManifestRouter
from repro.cluster.serving import free_port, free_tcp_port
from repro.core.dido import DidoSystem
from repro.kv.protocol import Query, QueryType, decode_queries, decode_responses
from repro.loadgen import (
    WorkloadShape,
    build_cluster_tapes,
    build_tape,
    make_keys,
    run_cluster_loadgen,
    run_loadgen,
)
from repro.server import MAX_DATAGRAM, DidoUDPServer

from test_cluster_manifest import make_manifest
from test_cluster_serving import build_manifest, spawn_node

SHAPE = WorkloadShape(num_keys=512, seed=3)

#: What ``repro loadgen --json`` prints for one server.
SINGLE_NODE_KEYS = {
    "mode", "duration_s", "workers", "depth", "queries_sent",
    "responses_received", "timeouts", "qps", "offered_qps", "latency_p50_ms",
    "latency_p95_ms", "latency_p99_ms", "redirects", "retries",
}

#: What ``repro loadgen --cluster ... --json`` prints at the least.
FLEET_KEYS = {
    "mode", "nodes", "duration_s", "queries_sent", "responses_received", "qps",
    "latency_p50_ms", "latency_p95_ms", "latency_p99_ms", "timeouts",
    "redirects", "retries", "per_node",
}


@pytest.fixture
def server():
    system = DidoSystem(memory_bytes=16 << 20, expected_objects=8192, engine="vector")
    with DidoUDPServer(("127.0.0.1", 0), system=system) as srv:
        srv.start()
        yield srv


@pytest.fixture
def fleet_control():
    """Two live in-process cluster nodes; yields node ``a``'s control
    address, which serves the manifest like the coordinator's does."""
    names = ["a", "b"]
    addresses = {n: ("127.0.0.1", free_port(), free_tcp_port()) for n in names}
    manifest = build_manifest(names, 1, addresses)
    nodes = [spawn_node(name, manifest) for name in names]
    yield ("127.0.0.1", addresses["a"][2])
    for node in nodes:
        node.stop()


def test_closed_and_open_loop_against_a_live_server(capsys):
    """Every query sent is answered, under both disciplines: the closed
    loop through the CLI's ``--json`` path, the open loop at a rate far
    below what loopback UDP drops at."""
    system = DidoSystem(memory_bytes=16 << 20, expected_objects=8192, engine="vector")
    with DidoUDPServer(("127.0.0.1", 0), system=system) as server:
        server.start()
        host, port = server.address
        argv = [
            "loadgen", "--host", host, "--port", str(port), "--mode", "closed",
            "--duration", "0.3", "--workers", "1", "--depth", "2",
            "--queries", "2048", "--num-keys", "512", "--seed", "3", "--json",
        ]
        assert main(argv) == 0
        closed = json.loads(capsys.readouterr().out)
        assert set(closed) == SINGLE_NODE_KEYS
        assert closed["mode"] == "closed"
        assert closed["queries_sent"] > 0
        assert closed["responses_received"] == closed["queries_sent"]
        assert (closed["timeouts"], closed["redirects"]) == (0, 0)
        assert closed["qps"] > 0 and closed["latency_p50_ms"] > 0

        opened = run_loadgen(
            (host, port), SHAPE, mode="open", queries=2048, rate_qps=20_000.0,
            duration_s=0.3, do_prefill=False, max_payload=1400,
        )
        assert opened.mode == "open"
        assert opened.queries_sent > 0
        assert opened.responses_received == opened.queries_sent
        assert (opened.timeouts, opened.redirects) == (0, 0)
        assert json.loads(json.dumps(opened.to_dict()))["responses_received"] > 0
        assert server.stats.protocol_errors == 0


def test_cluster_tapes_partition_the_single_node_tape():
    """A fixed seed cut three ways: every query lands on the node that
    owns its key, in tape order, and nothing is lost or duplicated."""
    names = ["alpha", "beta", "gamma"]
    manifest = make_manifest(names)
    router = ManifestRouter(manifest)

    single = [
        q for payload in build_tape(SHAPE, 4096).payloads for q in decode_queries(payload)
    ]
    single_owners = router.owners_for([q.key for q in single])
    tapes = build_cluster_tapes(SHAPE, 4096, manifest, max_payload=1400)
    assert set(tapes) == set(names)  # 512 keys reach every node
    union = Counter()
    for name, tape in tapes.items():
        queries = [q for payload in tape.payloads for q in decode_queries(payload)]
        assert tape.total_queries == len(queries) == sum(tape.counts)
        assert all(len(payload) <= 1400 for payload in tape.payloads)
        assert set(router.owners_for([q.key for q in queries])) == {name}
        # Per-node order is the single-node order restricted to the node.
        assert queries == [q for q, owner in zip(single, single_owners) if owner == name]
        union.update((q.qtype, q.key, q.value) for q in queries)
    assert union == Counter((q.qtype, q.key, q.value) for q in single)


def test_unprefilled_closed_loop_counts_every_answer(server):
    """Without a prefill most GETs miss and their answers are header-only,
    so the closed loop cannot wait for a prefilled store's byte volume: it
    walks response headers, and every window completes."""
    report = run_loadgen(
        server.address, SHAPE, mode="closed", queries=2048, workers=1, depth=2,
        duration_s=0.5, timeout_s=0.25, do_prefill=False,
    )
    assert report.timeouts == 0
    assert report.responses_received == report.queries_sent > 0


def test_late_window_answers_never_count_toward_the_next(late_udp_server):
    """The first window is answered only after it timed out.  Those
    answers are lost with it; every later window counts its own."""
    tape = build_tape(SHAPE, 256, max_payload=100)
    assert len(set(tape.counts)) > 1  # a straggler would shift the counts
    report = run_loadgen(
        late_udp_server, SHAPE, mode="closed", queries=256, workers=1, depth=1,
        duration_s=0.6, timeout_s=0.2, do_prefill=False, max_payload=100,
    )
    assert report.timeouts == 1
    assert report.responses_received == report.queries_sent - tape.counts[0]


def test_tape_response_bytes_match_a_prefilled_server(server):
    """``response_bytes[i]`` is the reply volume datagram ``i`` draws from a
    prefilled store: the closed loop's by-bytes wait relies on it."""
    value = b"v" * SHAPE.value_size
    with DidoClient(server.address, timeout_s=5.0) as client:
        client.execute([Query(QueryType.SET, key, value) for key in make_keys(SHAPE)])
    tape = build_tape(SHAPE, 1024, max_payload=1400)
    assert len(tape.response_bytes) == len(tape.payloads) > 1
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(5.0)
        for payload, count, expected in zip(
            tape.payloads, tape.counts, tape.response_bytes
        ):
            sock.sendto(payload, server.address)
            answers = received = 0
            while answers < count:
                reply = sock.recv(MAX_DATAGRAM)
                answers += len(decode_responses(reply))
                received += len(reply)
            assert received == expected


def test_fleet_closed_and_open_loops_answer_every_query(fleet_control, capsys):
    """Both disciplines against two nodes: every query answered by its
    owner (no redirects), and the report breaks the run down per node."""
    closed = run_cluster_loadgen(
        fleet_control, SHAPE, mode="closed", queries=4096, workers=1, depth=2,
        duration_s=0.3,
    )
    opened = run_cluster_loadgen(
        fleet_control, SHAPE, mode="open", queries=4096, rate_qps=20_000.0,
        duration_s=0.3, do_prefill=False, max_payload=1400,
    )
    for report in (closed, opened):
        assert report.queries_sent > 0
        assert report.responses_received == report.queries_sent
        assert (report.timeouts, report.redirects) == (0, 0)
        assert set(report.per_node) == {"a", "b"}
        assert report.queries_sent == sum(
            node.queries_sent for node in report.per_node.values()
        )

    host, port = fleet_control
    argv = [
        "loadgen", "--cluster", f"{host}:{port}", "--mode", "closed",
        "--duration", "0.3", "--workers", "1", "--depth", "2",
        "--queries", "2048", "--num-keys", "512", "--seed", "3", "--json",
    ]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)
    assert FLEET_KEYS <= set(printed)
    assert printed["nodes"] == 2 and set(printed["per_node"]) == {"a", "b"}
    assert printed["responses_received"] == printed["queries_sent"] > 0
    assert printed["redirects"] == 0
