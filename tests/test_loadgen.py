"""``repro loadgen``: both driving disciplines against a live in-process
server, and the cluster tape cut."""

import json
from collections import Counter

from repro.cli import main
from repro.cluster.manifest import ManifestRouter
from repro.core.dido import DidoSystem
from repro.kv.protocol import decode_queries
from repro.loadgen import WorkloadShape, build_cluster_tapes, build_tape, run_loadgen
from repro.server import DidoUDPServer

from test_cluster_manifest import make_manifest

SHAPE = WorkloadShape(num_keys=512, seed=3)


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
