"""Coordinator lifecycle tests against real ``repro cluster`` subprocesses.

The load-bearing regression here is orphaned children: a coordinator that
dies on SIGTERM must take every spawned ``repro serve`` process with it,
because leaked servers keep their UDP ports and silently absorb the next
test run's traffic.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cluster.serving import ClusterError, control_request, free_tcp_port

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


@pytest.fixture
def cluster(tmp_path):
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
            "2",
            "--control-port",
            str(port),
            "--workdir",
            str(tmp_path),
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
