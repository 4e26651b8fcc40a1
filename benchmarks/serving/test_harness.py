"""Self-test of the serving benchmark's harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/serving -q

Covers the parts a wrong number could hide in: the benchmark's own codec,
latency accounting from due times, cumulative response matching, span
self-time arithmetic, the manifest, an end-to-end ``--quick`` smoke, and the
rule that no server outlives the runner.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import loadgen  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.kv import protocol  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


# --------------------------------------------------------------------- codec


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tapes_round_trip_through_the_programs_codec(name):
    workload = WORKLOADS[name]
    tape = workloads.traffic_tape(workload, seed=3, stream=2, queries=5000)
    assert tape.queries == 5000
    for payload, count, gets in zip(tape.payloads, tape.counts, tape.gets):
        queries = protocol.decode_queries(payload)
        assert len(queries) == count
        assert sum(q.qtype is protocol.QueryType.GET for q in queries) == gets
        assert protocol.encode_queries(queries) == payload
        assert len(payload) <= workloads.MAX_DGRAM_BYTES
        assert all(len(q.key) == workload.key_size for q in queries)
        if workload.per_dgram:
            assert count == workload.per_dgram
    same = workloads.traffic_tape(workload, seed=3, stream=2, queries=5000)
    other = workloads.traffic_tape(workload, seed=4, stream=2, queries=5000)
    assert same.payloads == tape.payloads and other.payloads != tape.payloads


def test_prefill_sets_every_key_once():
    workload = WORKLOADS["write-heavy"]
    queries = [q for p in workloads.prefill_tape(workload, 1).payloads
               for q in protocol.decode_queries(p)]
    assert len({q.key for q in queries}) == len(queries) == workloads.NUM_KEYS
    assert all(q.qtype is protocol.QueryType.SET and len(q.value) == 256 for q in queries)


def test_walk_responses_counts_and_flags():
    R, S = protocol.Response, protocol.ResponseStatus
    good = [R(S.OK, b"v" * 64), R(S.STORED), R(S.NOT_FOUND), R(S.DELETED), R(S.OK, b"w" * 64)]
    assert workloads.walk_responses(protocol.encode_responses(good), 64) == (5, 2, 0)
    bad = [R(S.OK, b"short"), R(S.ERROR), R(S.WRONG_NODE, b"12345678")]
    assert workloads.walk_responses(protocol.encode_responses(bad), 64) == (3, 1, 3)
    truncated = protocol.encode_responses(good)[:-1]
    assert workloads.walk_responses(truncated, 64)[2] >= 1


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 50) == 50
    assert loadgen.percentile(values, 99) == 99
    assert loadgen.percentile([7.0], 99) == 7.0
    assert np.isnan(loadgen.percentile([], 50))


# ---------------------------------------------------- latency and matching


class FakeServer:
    """Answers every query with STORED.  ``stall_at`` sleeps once before the
    n-th datagram; ``merge`` holds every other reply and sends it with the
    next one to the same peer, as the real server's windows do."""

    def __init__(self, stall_at=None, stall_s=0.0, merge=False):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.address = self.sock.getsockname()
        self.stall_at, self.stall_s, self.merge = stall_at, stall_s, merge
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._serve)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()
        self.sock.close()

    def _serve(self):
        held: dict = {}
        seen = 0
        while not self.stop.is_set():
            try:
                data, peer = self.sock.recvfrom(65536)
            except socket.timeout:
                for peer, reply in held.items():
                    self.sock.sendto(reply, peer)
                held.clear()
                continue
            seen += 1
            if seen == self.stall_at:
                time.sleep(self.stall_s)
            reply = b"\x02\x00\x00\x00\x00" * len(protocol.decode_queries(data))
            if self.merge and peer not in held:
                held[peer] = reply
                continue
            self.sock.sendto(held.pop(peer, b"") + reply, peer)


def test_a_stall_shows_in_the_requests_queued_behind_it():
    workload = WORKLOADS["small-dgram"]
    tape = workloads.traffic_tape(workload, 1, 2, 4000)
    with FakeServer(stall_at=100, stall_s=0.25) as server:
        conns = [loadgen.Conn(server.address, workload) for _ in range(2)]
        try:
            # 4 queries per datagram at 2000 q/s: one datagram every 2 ms.
            phase = loadgen.open_loop(conns, tape, 2000, 1.0)
        finally:
            for conn in conns:
                conn.close()
    assert phase.failed == 0 and phase.sent == phase.answered
    assert phase.latencies_ms.size == len(phase.late_ms) == phase.sent // 4
    delayed = int((phase.latencies_ms > 50).sum())
    # ~125 datagrams fall due during a 250 ms stall; each waited its share.
    assert 60 <= delayed <= 140
    assert loadgen.percentile(phase.latencies_ms, 50) < 20
    assert loadgen.percentile(phase.latencies_ms, 99) > 150
    assert loadgen.percentile(phase.late_ms, 99) < 10  # the generator kept its schedule


def test_cumulative_matching_across_two_sockets_and_merged_replies():
    workload = WORKLOADS["read-uniform"]
    tape = workloads.traffic_tape(workload, 1, 2, 20000)
    with FakeServer(merge=True) as server:
        conns = [loadgen.Conn(server.address, workload) for _ in range(2)]
        try:
            phase = loadgen.closed_loop(conns, tape, inflight=512, seconds=0.5)
            per_conn = [(c.sent, c.answered, len(c.outstanding)) for c in conns]
        finally:
            for conn in conns:
                conn.close()
    assert phase.failed == 0 and phase.sent == phase.answered > 0
    assert all(sent == answered and left == 0 for sent, answered, left in per_conn)
    assert all(sent > 0 for sent, _, _ in per_conn)
    assert phase.latencies_ms.size > 0 and phase.gets > 0 and phase.hits == 0


def test_unanswered_queries_count_as_failed():
    workload = WORKLOADS["small-dgram"]
    tape = workloads.traffic_tape(workload, 1, 2, 400)
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sink:  # never replies
        sink.bind(("127.0.0.1", 0))
        conn = loadgen.Conn(sink.getsockname(), workload)
        try:
            phase = loadgen.open_loop([conn], tape, 4000, 0.05)
        finally:
            conn.close()
    assert phase.sent > 0 and phase.answered == 0 and phase.failed == phase.sent


# --------------------------------------------------------------------- spans


def test_self_time_is_duration_minus_direct_children():
    #   0 [0..100]  children 1 [10..40] and 3 [50..70];  1 has child 2 [20..30]
    ids = np.array([0, 1, 2, 3])
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([100.0, 30.0, 10.0, 20.0])
    assert spans.self_times(ids, parent, duration).tolist() == [50.0, 20.0, 10.0, 20.0]


def test_recorder_nests_spans_and_windows_total_them(tmp_path):
    recorder = spans.Recorder()

    def inner():
        time.sleep(0.01)

    traced_inner = recorder.wrap("layer.inner", inner)

    def outer():
        traced_inner()
        traced_inner()
        time.sleep(0.01)

    start = time.perf_counter()
    recorder.wrap("layer.outer", outer)()
    t0 = time.perf_counter_ns()
    recorder.leaf("server.idle", t0, t0 + 5_000_000)
    recorder.mark({"server.queries": 10})
    path = tmp_path / "spans.jsonl"
    recorder.write(str(path))

    trace = spans.load(str(path))
    assert trace.marks == [{"server.queries": 10}] and trace.absent == []
    window = spans.window(trace, start, start + 10.0)
    assert window.count == {"layer.outer": 1, "layer.inner": 2, "server.idle": 1}
    assert window.self_s["layer.inner"] == pytest.approx(0.02, abs=0.008)
    assert window.self_s["layer.outer"] == pytest.approx(0.01, abs=0.008)
    assert window.total_s["layer.outer"] == pytest.approx(0.03, abs=0.012)
    assert window.top_level_s == pytest.approx(window.total_s["layer.outer"])
    assert window.idle_s == pytest.approx(0.005)
    chrome = tmp_path / "chrome.json"
    spans.to_chrome(str(path), str(chrome))
    assert len(json.loads(chrome.read_text())["traceEvents"]) == 4


def test_every_wrap_point_resolves_today():
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import spans; r = spans.Recorder(); "
        "r.install(); print(r.absent)" % (str(HERE), str(run.SRC))
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]", out.stderr


def test_a_missing_wrap_point_is_listed_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "WRAP_POINTS", (("gone", "repro.server", "no_such_callable"),))
    recorder = spans.Recorder()
    recorder.install()
    assert recorder.absent == ["repro.server.no_such_callable"]


# ------------------------------------------------------------------ manifest


def test_benchmark_json_is_the_metric_registry():
    manifest = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert manifest == metrics.manifest()
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert len(manifest["per_layer"]) <= 128 and "setup_s" in names
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * (manifest["run_seconds"] + 12) <= 3420  # ~12 s of set-up around a run


# ------------------------------------------------------- end to end, teardown


def _servers() -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                argv = Path("/proc", entry, "cmdline").read_bytes().split(b"\0")
            except OSError:
                continue
            if b"server_child.py" in b" ".join(argv) or argv[1:4] == [b"-m", b"repro", b"serve"]:
                found.append(int(entry))
    return found


def test_quick_smoke_reports_every_named_metric(tmp_path):
    out = tmp_path / "record.json"
    done = subprocess.run(
        RUN + ["--quick", "--seed", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] > 0
    expected = {m.name for m in metrics.END_TO_END + metrics.PER_LAYER}
    for name in WORKLOADS:
        got = {k.split(":", 1)[1] for k in final["metrics"] if k.startswith(name + ":")}
        assert got == expected, (name, expected ^ got)
    for name, unit in metrics.UNITS.items():
        assert name in done.stdout and final["metrics"]["read-uniform:" + name]["unit"] == unit
    record = json.loads(out.read_text())
    assert record["environment"]["cpu_count"] == os.cpu_count()
    assert len(record["runs"]) == 8 and not any(r["comparable"] for r in record["runs"])
    assert all(r["verified"] and not r["absent_wrap_points"] for r in record["runs"])
    assert _servers() == []


def test_contract_run_prints_one_result_object():
    done = subprocess.run(
        RUN + ["--workload", "small-dgram", "--seed", "2", "--seconds", "2", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.splitlines()[-1])
    assert set(final["metrics"]) == {m.name for m in metrics.END_TO_END}
    assert all(entry["value"] > 0 for entry in final["metrics"].values())


@pytest.mark.parametrize("how", [signal.SIGKILL, signal.SIGTERM])
def test_no_server_outlives_a_killed_runner(how):
    assert _servers() == []
    runner = subprocess.Popen(
        RUN + ["--workload", "read-uniform", "--seconds", "20", "--trace", "0"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        while not _servers() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _servers(), "runner never started a server"
        time.sleep(1.0)  # into prefill or a phase
        runner.send_signal(how)
        runner.wait(timeout=10)
        deadline = time.monotonic() + 2
        while _servers() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _servers() == []
    finally:
        runner.kill()
        runner.wait()


@pytest.fixture
def children():
    """A registry whose signal handlers do not outlive the test."""
    saved = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
    registry = run.Children()
    yield registry
    registry.stop_all()
    for signum, handler in saved.items():
        signal.signal(signum, handler)


def test_an_exception_mid_run_still_stops_the_server(children):
    workload = WORKLOADS["read-uniform"]
    with pytest.raises(RuntimeError, match="injected"):
        try:
            proc, _, _ = run.start_server(children, workload, 1, None)
            assert proc.poll() is None and _servers()
            raise RuntimeError("injected")
        finally:
            children.stop_all()
    assert proc.poll() is not None
    assert children.leaks() == [] and _servers() == []
