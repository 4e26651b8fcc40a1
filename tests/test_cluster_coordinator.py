"""Coordinator lifecycle tests against real ``repro cluster`` subprocesses.

The load-bearing regression here is orphaned children: a coordinator that
dies on SIGTERM must take every spawned ``repro serve`` process with it,
because leaked servers keep their UDP ports and silently absorb the next
test run's traffic.

Two correctness gates ride the same real fleet: partitioning the keyspace
is invisible to a routed client (a 1-node and a 2-node fleet answer one
query sequence with equal bytes), and a live ``add_node`` loses and
corrupts nothing under a concurrent reader.
"""

import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.client import ClusterClient
from repro.cluster.serving import ClusterError, control_request, free_tcp_port
from repro.kv.protocol import Query, QueryType, ResponseStatus

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _wait_ready(control, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            return control_request(control, {"cmd": "ping"}, timeout_s=2.0)
        except (OSError, ClusterError):
            time.sleep(0.1)
    raise AssertionError("coordinator never became ready")


@contextmanager
def spawn_cluster(workdir, nodes):
    port = free_tcp_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "cluster",
            "--nodes",
            str(nodes),
            "--control-port",
            str(port),
            "--workdir",
            str(workdir),
            "--memory-mb",
            "8",
            "--expected-objects",
            "4096",
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        # The coordinator leads its own session (hence process group) and its
        # ``repro serve`` children inherit it, so teardown can take the whole
        # fleet down even when the coordinator is already dead (a SIGKILLed
        # coordinator cannot answer ``status``, and its children live on).
        start_new_session=True,
    )
    control = ("127.0.0.1", port)
    try:
        _wait_ready(control)
        yield process, control
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait(timeout=10)


@pytest.fixture
def cluster(tmp_path):
    with spawn_cluster(tmp_path, 2) as fleet:
        yield fleet


def test_sigterm_tears_down_every_child(cluster):
    process, control = cluster
    status = control_request(control, {"cmd": "status"}, timeout_s=10.0)
    pids = [entry["pid"] for entry in status["nodes"].values()]
    assert len(pids) == 2
    assert all(_alive(pid) for pid in pids)
    assert all(entry["alive"] for entry in status["nodes"].values())

    process.send_signal(signal.SIGTERM)
    process.wait(timeout=30)
    assert process.returncode == 0

    # Children must be gone with the coordinator — the orphan regression.
    deadline = time.monotonic() + 10.0
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    orphans = [pid for pid in pids if _alive(pid)]
    assert not orphans, f"orphaned cluster children: {orphans}"

    # And the control port must be released.
    with pytest.raises((OSError, ClusterError)):
        control_request(control, {"cmd": "ping"}, timeout_s=2.0)


def test_control_shutdown_matches_sigterm(cluster):
    process, control = cluster
    status = control_request(control, {"cmd": "status"}, timeout_s=10.0)
    pids = [entry["pid"] for entry in status["nodes"].values()]
    reply = control_request(control, {"cmd": "shutdown"}, timeout_s=30.0)
    assert reply["ok"]
    process.wait(timeout=30)
    deadline = time.monotonic() + 10.0
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not any(_alive(pid) for pid in pids)


def test_cluster_serves_traffic_end_to_end(cluster):
    """Sanity: the spawned fleet answers real routed queries."""
    from repro.client import ClusterClient

    _, control = cluster
    manifest = control_request(control, {"cmd": "manifest"}, timeout_s=10.0)
    assert manifest["manifest"]["epoch"] == 1
    with ClusterClient(control) as client:
        for i in range(32):
            client.set(f"coord-{i}".encode(), f"val-{i}".encode())
        for i in range(32):
            assert client.get(f"coord-{i}".encode()) == f"val-{i}".encode()
    status = control_request(control, {"cmd": "status"}, timeout_s=10.0)
    keys = sum(e["stats"]["keys"] for e in status["nodes"].values())
    assert keys == 32


def test_status_reports_dead_children(cluster):
    process, control = cluster
    status = control_request(control, {"cmd": "status"}, timeout_s=10.0)
    victim_name, victim = sorted(status["nodes"].items())[0]
    os.kill(victim["pid"], signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        status = control_request(control, {"cmd": "status"}, timeout_s=10.0)
        if not status["nodes"][victim_name]["alive"]:
            break
        time.sleep(0.1)
    assert not status["nodes"][victim_name]["alive"]


def _response_stream(control, queries, chunk=256) -> bytes:
    """Execute in order through the routed client; ``status || value``."""
    blob = bytearray()
    with ClusterClient(control, timeout_s=5.0) as client:
        for start in range(0, len(queries), chunk):
            for response in client.execute(queries[start : start + chunk]):
                blob.append(response.status.value)
                blob.extend(response.value)
    return bytes(blob)


def test_two_node_fleet_byte_identical_to_one_node(cluster, tmp_path):
    """Sharding the keyspace across nodes is invisible to clients."""
    rng = random.Random(23)
    keys = [b"ident-%04d" % i for i in range(256)]
    queries = []
    for _ in range(2048):
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.6:
            queries.append(Query(QueryType.GET, key))
        elif roll < 0.9:
            queries.append(Query(QueryType.SET, key, b"v%d" % rng.randrange(1000)))
        else:
            queries.append(Query(QueryType.DELETE, key))
    _, two_nodes = cluster
    single_dir = tmp_path / "single"
    single_dir.mkdir()
    with spawn_cluster(single_dir, 1) as (_, one_node):
        expected = _response_stream(one_node, queries)
    assert ResponseStatus.OK.value in expected
    assert _response_stream(two_nodes, queries) == expected


def test_add_node_under_concurrent_reads_loses_nothing(cluster):
    """Live migration: zero wrong reads while arcs move to a third node,
    and every prefilled key reads back byte-for-byte afterwards."""
    _, control = cluster
    expected = {b"mig-%04d" % i: b"m:%04d" % i for i in range(512)}
    keys = list(expected)
    with ClusterClient(control, timeout_s=5.0) as client:
        client.execute([Query(QueryType.SET, k, v) for k, v in expected.items()])

    stop = threading.Event()
    reads = {"total": 0, "wrong": 0}

    def reader() -> None:
        with ClusterClient(control, timeout_s=5.0) as rc:
            i = 0
            while not stop.is_set():
                key = keys[i % len(keys)]
                i += 1
                reads["total"] += 1
                if rc.get(key) != expected[key]:
                    reads["wrong"] += 1

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    time.sleep(0.2)  # let the reader reach steady state first
    summary = control_request(control, {"cmd": "add_node"}, timeout_s=120.0)
    time.sleep(0.2)  # observe the post-migration topology too
    stop.set()
    thread.join(timeout=30)
    assert not thread.is_alive()

    assert summary["ok"] and summary["moved_keys"] > 0
    assert reads["total"] > 0 and reads["wrong"] == 0
    with ClusterClient(control, timeout_s=5.0) as verify:
        responses = verify.execute([Query(QueryType.GET, k) for k in keys])
    assert [(r.status, r.value) for r in responses] == [
        (ResponseStatus.OK, expected[k]) for k in keys
    ]
