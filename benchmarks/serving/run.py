#!/usr/bin/env python3
"""The `serving` benchmark: the real serve loop under loopback UDP traffic.

    python3 benchmarks/serving/run.py --workload read-uniform --seed 1 --seconds 20 --trace 0
    python3 benchmarks/serving/run.py                 # every workload, both passes
    python3 benchmarks/serving/run.py --calibrate 10  # spreads and proposed bounds

One run = one workload.  ``--trace 0`` measures the end-to-end metrics
against ``python -m repro serve --engine vector`` in a child process;
``--trace 1`` measures the per-layer metrics with a short untraced pass (the
load generator's own health and the 2x-rate point) and a traced pass against
``server_child.py``.  Every metric is printed by name and unit, outputs are
checked, and the last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import atexit
import ctypes
import functools
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

OUT_DIR = HERE / "out"
WARM_S = 1.5
SETUPS_PER_RUN = 3  # setup_s is their median
VERIFY_QUERIES = 8192
#: With one datagram in flight the server waits out its 2 ms coalescing window
#: on every exchange and often re-plans (~135 ms) on a small batch.  So verify
#: packs its queries into datagrams this large (whatever the workload's own
#: datagram size), and stops after VERIFY_MAX_S; the run record says how many
#: queries it covered.
VERIFY_DGRAM_BYTES = 32768
VERIFY_MAX_S = 1.5
QUICK_SECONDS = 8.0
#: Each tape of a run draws from its own random stream under the run's seed.
STREAMS = {"verify": 0, "warm": 1, "rate": 2, "hi": 3, "sat": 4}
#: The open-loop phases and their rate as a multiple of the workload's.
RATE_FACTOR = {"rate": 1, "hi": 2}
#: The measured seconds of a run are split over its phases like this.
SPLIT = {
    0: {"plain": {"rate": 1.0}},
    1: {"plain": {"rate": 0.2, "hi": 0.1, "sat": 0.2}, "traced": {"rate": 0.25, "sat": 0.25}},
}


# ------------------------------------------------------------- child processes


def _stat_fields(pid: int | str) -> list[str]:
    """``/proc/<pid>/stat`` from the state field on (the command may hold spaces)."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def _die_with_parent() -> None:
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


class Children:
    """Every process this benchmark starts; none may outlive it.

    Servers get their own session and a parent-death SIGKILL.  ``stop_all``
    runs from ``finally``, ``atexit`` and the SIGINT/SIGTERM handlers.
    """

    def __init__(self) -> None:
        self.live: list[subprocess.Popen] = []
        self.ports: list[int] = []
        atexit.register(self.stop_all)
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, self._on_signal)

    def _on_signal(self, signum, _frame) -> None:
        self.stop_all()
        sys.exit(128 + signum)

    def free_port(self) -> int:
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        self.ports.append(port)
        return port

    def spawn(self, argv: list[str]) -> subprocess.Popen:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.Popen(
            argv, env=env, cwd=str(REPO), stdout=subprocess.DEVNULL,
            start_new_session=True, preexec_fn=_die_with_parent,
        )
        self.live.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the session, should it have grown
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        if proc in self.live:
            self.live.remove(proc)

    def stop_all(self) -> None:
        for proc in list(self.live):
            self.stop(proc)

    def leaks(self) -> list[str]:
        """Descendants still alive and benchmark ports still bound."""
        found = []
        me = os.getpid()
        parents = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    fields = _stat_fields(entry)
                except OSError:
                    continue
                if fields[0] != "Z":
                    parents[int(entry)] = int(fields[1])
        for pid in parents:
            ancestor = pid
            while ancestor in parents and ancestor != me:
                ancestor = parents[ancestor]
            if ancestor == me and pid != me:
                found.append(f"process {pid}")
        for table in ("/proc/net/udp", "/proc/net/udp6"):
            try:
                rows = Path(table).read_text().splitlines()[1:]
            except OSError:
                continue
            for row in rows:
                port = int(row.split()[1].rsplit(":", 1)[1], 16)
                if port in self.ports:
                    found.append(f"udp port {port}")
        return found


# ----------------------------------------------------------------- one server


def _proc_cpu_s(pid: int) -> float:
    """utime + stime + waited-for children's, in seconds."""
    return sum(int(x) for x in _stat_fields(pid)[11:15]) / os.sysconf("SC_CLK_TCK")


def _proc_status(pid: int, key: str) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    raise KeyError(key)


@dataclass
class Pass:
    """One server's life: set-up, optional verify, warm-up, measured phases."""

    setup_s: float = 0.0
    verified: bool | None = None  # None = not checked in this pass
    verify_queries: int = 0
    phases: dict[str, loadgen.Phase] = field(default_factory=dict)
    rss_mb: float = 0.0
    invol_ctxsw_per_s: float = 0.0
    trace_path: str | None = None


def start_server(children: Children, workload: Workload, seed: int, trace_path: str | None):
    """Spawn, wait until a SET is acknowledged, prefill every key.

    Returns ``(proc, address, setup_s)``.
    """
    port = children.free_port()
    started = time.perf_counter()
    if trace_path is None:
        argv = [sys.executable, "-m", "repro", "serve",
                "--host", "127.0.0.1", "--port", str(port), "--engine", "vector"]
    else:
        argv = [sys.executable, str(HERE / "server_child.py"),
                "--port", str(port), "--trace-out", trace_path]
    proc = children.spawn(argv)
    address = ("127.0.0.1", port)
    tape = workloads.prefill_tape(workload, seed)
    probe = loadgen.Conn(address, workload)
    try:
        while loadgen.exchange(probe, tape, 0, timeout=0.05) is None:
            if proc.poll() is not None:
                raise RuntimeError(f"server exited with {proc.returncode} before serving")
            if time.perf_counter() - started > 60:
                raise RuntimeError("server not ready after 60 s")
    finally:
        probe.close()
    conn = loadgen.Conn(address, workload)
    try:
        filled = loadgen.closed_loop([conn], tape, workload.inflight)
    finally:
        conn.close()
    if filled.failed:
        raise RuntimeError(f"prefill: {filled.failed} of {filled.sent} SETs failed")
    return proc, address, time.perf_counter() - started


def reference_responses(workload: Workload, seed: int, tape: workloads.Tape) -> list[bytes]:
    """What ``ReferenceEngine`` answers to the prefill and then to ``tape``,
    batch by batch (one datagram = one batch).

    The engine runs under one fixed pipeline configuration on a store sized
    like the server's: responses do not depend on the configuration (the
    repo's tests hold every legal one byte-identical), and a ``DidoSystem``
    here would spend ~135 ms in the configuration search on many of these
    small batches.
    """
    from repro.core.pipeline_config import PipelineConfig
    from repro.kv.protocol import decode_queries, encode_responses
    from repro.kv.store import KVStore
    from repro.pipeline.functional import FunctionalPipeline

    pipeline = FunctionalPipeline(KVStore(64 << 20, 65536), engine="reference")
    config = PipelineConfig.assemble((), total_cpu_cores=4)
    for payload in workloads.prefill_tape(workload, seed).payloads:
        pipeline.process_batch(config, decode_queries(payload))
    return [
        encode_responses(pipeline.process_batch(config, decode_queries(payload)).responses)
        for payload in tape.payloads
    ]


def verify(address, workload: Workload, seed: int) -> tuple[bool, int]:
    """One datagram in flight, so the server's batch is the datagram; the
    response bytes must equal the reference engine's.  Returns whether they
    did and how many queries were compared."""
    tape = workloads.traffic_tape(
        replace(workload, per_dgram=0), seed + 1, STREAMS["verify"],
        VERIFY_QUERIES, VERIFY_DGRAM_BYTES,
    )
    expected = reference_responses(workload, seed, tape)
    conn = loadgen.Conn(address, workload)
    compared = 0
    deadline = time.perf_counter() + VERIFY_MAX_S
    try:
        for k, want in enumerate(expected):
            if loadgen.exchange(conn, tape, k) != want:
                return False, compared
            compared += tape.counts[k]
            if time.perf_counter() > deadline:
                break
    finally:
        conn.close()
    return True, compared


def run_pass(
    children: Children, workload: Workload, seed: int, plan: dict[str, float],
    *, traced: bool, check: bool, tag: str,
) -> Pass:
    """Drive one fresh server through ``plan`` (phase name -> seconds)."""
    result = Pass()
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        result.trace_path = str(OUT_DIR / f"{tag}.spans.jsonl")
    proc, address, result.setup_s = start_server(children, workload, seed, result.trace_path)
    pid = proc.pid
    conns = [loadgen.Conn(address, workload) for _ in range(2)]
    try:
        if check:
            result.verified, result.verify_queries = verify(address, workload, seed)
        # Closed-loop tapes cycle; open-loop tapes cover their phase.
        sizes = {"warm": 65536}
        for name, seconds in plan.items():
            if name in RATE_FACTOR:
                sizes[name] = int(workload.rate_qps * RATE_FACTOR[name] * seconds) + 4096
            else:
                sizes[name] = 131072
        tapes = {
            name: workloads.traffic_tape(workload, seed, STREAMS[name], size)
            for name, size in sizes.items()
        }
        loadgen.closed_loop(conns, tapes["warm"], workload.inflight, WARM_S)
        ctxsw0, t0 = _proc_status(pid, "nonvoluntary_ctxt_switches"), time.perf_counter()
        if traced:
            proc.send_signal(signal.SIGUSR1)  # counters before the first phase ...
        server_cpu_s = functools.partial(_proc_cpu_s, pid)
        for name, seconds in plan.items():
            if name == "sat":
                phase = loadgen.closed_loop(
                    conns, tapes[name], workload.inflight, seconds, server_cpu_s
                )
            else:
                rate = workload.rate_qps * RATE_FACTOR[name]
                phase = loadgen.open_loop(conns, tapes[name], rate, seconds, server_cpu_s)
            result.phases[name] = phase
            if traced:
                proc.send_signal(signal.SIGUSR1)  # ... and after each
        ctxsw = _proc_status(pid, "nonvoluntary_ctxt_switches") - ctxsw0
        result.invol_ctxsw_per_s = ctxsw / (time.perf_counter() - t0)
        result.rss_mb = _proc_status(pid, "VmHWM") / 1024.0
    finally:
        for conn in conns:
            conn.close()
        children.stop(proc)
    return result


# -------------------------------------------------------------------- metrics


def end_to_end_metrics(run: Pass, setups: list[float]) -> dict[str, float]:
    rate = run.phases["rate"]
    return {
        "setup_s": statistics.median(setups),
        # Median over the phase's one-second slices (see loadgen).
        "cpu_us_per_q": 1e6 * float(np.median(rate.slice_probe_per_query())),
        "rss_mb": run.rss_mb,
    }


def _fail_pct(*phases: loadgen.Phase) -> float:
    return 100.0 * sum(p.failed for p in phases) / max(sum(p.sent for p in phases), 1)


def loadgen_metrics(run: Pass) -> dict[str, float]:
    rate, hi, sat = run.phases["rate"], run.phases["hi"], run.phases["sat"]
    return {
        "p50_ms": loadgen.percentile(rate.latencies_ms, 50),
        "p99_ms": loadgen.percentile(rate.latencies_ms, 99),
        "sat_qps": float(np.median(sat.slice_qps())),
        "fail_pct": _fail_pct(rate, sat),
        "kv.store.hit_pct": 100.0 * (rate.hits + sat.hits) / max(rate.gets + sat.gets, 1),
        "loadgen.late_p99_ms": loadgen.percentile(rate.late_ms, 99),
        "loadgen.client_cpu_pct": 100.0 * sat.client_cpu_s / sat.wall,
        "loadgen.sat_p99_ms": loadgen.percentile(sat.latencies_ms, 99),
        "loadgen.hi_p50_ms": loadgen.percentile(hi.latencies_ms, 50),
        "loadgen.hi_p99_ms": loadgen.percentile(hi.latencies_ms, 99),
        "loadgen.hi_cpu_us_per_q": 1e6 * float(np.median(hi.slice_probe_per_query())),
        "loadgen.hi_fail_pct": _fail_pct(hi),
        "loadgen.srv_invol_ctxsw_per_s": run.invol_ctxsw_per_s,
    }


def traced_metrics(run: Pass, plain_sat_qps: float, workload: Workload) -> tuple[dict, list[str]]:
    """Per-layer numbers from the traced pass's span file."""
    trace = spans.load(run.trace_path)
    out: dict[str, float] = {}
    total: dict[str, float] = {}
    seconds = replans = replan_s = 0.0
    covered = busy = 0.0
    for index, (name, phase) in enumerate(run.phases.items()):
        window = spans.window(trace, phase.start, phase.stop)
        before, after = trace.marks[index], trace.marks[index + 1]
        delta = {key: after[key] - before[key] for key in after if key in before}
        out.update(metrics.phase_metrics(window, delta, phase.answered_at_stop, name))
        for key, value in delta.items():
            total[key] = total.get(key, 0) + value
        seconds += window.seconds
        replans += window.count.get("core.controller.replan", 0)
        replan_s += window.total_s.get("core.controller.replan", 0.0)
        if name == "sat":
            covered, busy = window.top_level_s, window.busy_s
    out.update(
        metrics.counter_metrics(total, seconds, workload.key_size + workload.value_size)
    )
    if "core.controller.replan" in trace.names:
        out["core.controller.replan_ms"] = 1e3 * replan_s / replans if replans else 0.0
    sat = run.phases["sat"]
    out["trace.overhead_pct"] = 100.0 * (1.0 - float(np.median(sat.slice_qps())) / plain_sat_qps)
    out["trace.coverage_pct"] = 100.0 * covered / busy if busy else 0.0
    return out, trace.absent


# ------------------------------------------------------------------- one run


def run_once(children: Children, workload: Workload, seed: int, seconds: float, trace: int):
    """One contract run.  Returns ``(result, record)``: the contract's JSON
    object and the run record around it."""
    load_start = os.getloadavg()[0]
    plans = {
        kind: {name: share * seconds for name, share in split.items()}
        for kind, split in SPLIT[trace].items()
    }
    tag = f"{workload.name}-seed{seed}"
    setups = []
    if trace == 0:
        for _ in range(SETUPS_PER_RUN - 1):
            proc, _, setup_s = start_server(children, workload, seed, None)
            children.stop(proc)
            setups.append(setup_s)
    plain = run_pass(children, workload, seed, plans["plain"], traced=False, check=True, tag=tag)
    setups.append(plain.setup_s)
    passes = {"plain": plain}
    absent: list[str] = []
    if trace == 0:
        values = end_to_end_metrics(plain, setups)
    else:
        values = loadgen_metrics(plain)
        traced = run_pass(
            children, workload, seed, plans["traced"], traced=True, check=False, tag=tag
        )
        passes["traced"] = traced
        layer, absent = traced_metrics(traced, values["sat_qps"], workload)
        values.update(layer)
    counted = [p for run in passes.values() for n, p in run.phases.items() if n != "hi"]
    bad_numbers = [name for name, value in values.items() if not np.isfinite(value)]
    result = {
        "correct": bool(plain.verified) and not bad_numbers,
        "attempted": sum(p.sent for p in counted) + plain.verify_queries,
        "failed": sum(p.failed for p in counted),
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items() if name not in bad_numbers
        },
    }
    rate = plain.phases["rate"]
    invalid = []
    if loadgen.percentile(rate.late_ms, 99) > 10.0:
        invalid.append("generator ran more than 10 ms late (p99) in the rate phase")
    sat = plain.phases.get("sat")
    if sat is not None and sat.client_cpu_s / sat.wall >= 0.9:
        invalid.append("generator used 90% or more of a core in the sat phase")
    if bad_numbers:
        invalid.append(f"no samples for {bad_numbers}")
    record = {
        "workload": workload.name, "seed": seed, "trace": trace, "seconds": seconds,
        "comparable": seconds == metrics.RUN_SECONDS,
        "invalid": invalid, "absent_wrap_points": absent,
        "verified_queries": plain.verify_queries, "verified": plain.verified,
        "setups_s": setups,
        "phases": {
            f"{kind}.{name}": phase.summary()
            for kind, run in passes.items() for name, phase in run.phases.items()
        },
        "span_files": [run.trace_path for run in passes.values() if run.trace_path],
        "loadavg_1m": [load_start, os.getloadavg()[0]],
        "result": result,
    }
    return result, record


def environment() -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "git_sha": sha, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
    }


def print_run(record: dict) -> None:
    result = record["result"]
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"seconds={record['seconds']}" + ("" if record["comparable"] else "  (not comparable)"))
    for name, phase in record["phases"].items():
        print(f"   {name:<12} sent={phase['sent']} answered={phase['answered']} "
              f"failed={phase['failed']} seconds={phase['seconds']:.2f} "
              f"latency_samples={phase['latency_samples']}")
    for name, entry in result["metrics"].items():
        print(f"   {name:<46} {entry['value']:>14.4f} {entry['unit']}")
    for name in record["absent_wrap_points"]:
        print(f"   absent wrap point: {name}")
    for reason in record["invalid"]:
        print(f"   INVALID: {reason}")
    print(f"   verified={record['verified']} ({record['verified_queries']} queries, "
          f"byte-identical to ReferenceEngine)  attempted={result['attempted']} "
          f"failed={result['failed']}")


# ------------------------------------------------------------------ calibrate


def calibrate(children: Children, names: list[str], seed: int, seconds: float, runs: int) -> dict:
    """``runs`` end-to-end runs per workload, each with another seed.

    Spread is the contract's: the distance between the first and third
    quartile as a share of the median.  The proposed bound is three times the
    worst workload's spread, at least 0.10 and at most the contract's 0.25.
    A metric whose spread is over half of 0.25 has less than twice its own
    noise as headroom under any bound and should be reported per layer
    instead (``setup_s`` must stay, with the largest bound).
    """
    table: dict[str, dict[str, list[float]]] = {}
    for name in names:
        for i in range(runs):
            result, record = run_once(children, WORKLOADS[name], seed + i, seconds, 0)
            print_run(record)
            for metric, entry in result["metrics"].items():
                table.setdefault(metric, {}).setdefault(name, []).append(entry["value"])
    print(f"\n{'metric':<14}{'workload':<14}{'min':>12}{'median':>12}{'max':>12}"
          f"{'iqr/med':>9}{'range/med':>10}")
    worst: dict[str, float] = {}
    for metric, by_workload in table.items():
        for name, values in by_workload.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            worst[metric] = max(worst.get(metric, 0.0), spread)
            print(f"{metric:<14}{name:<14}{min(values):>12.4f}{median:>12.4f}{max(values):>12.4f}"
                  f"{spread:>9.3f}{(max(values) - min(values)) / median:>10.3f}")
    print()
    for metric, spread in worst.items():
        bound = min(0.25, max(0.10, 3 * spread))
        note = "  (over 0.125: report per layer)" if spread > 0.125 and metric != "setup_s" else ""
        print(f"{metric:<14} worst iqr/median {spread:.3f} -> bound {bound:.2f}{note}")
    return table


# ----------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(metrics.RUN_SECONDS),
                        help="measured seconds per run; other lengths are not comparable")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0 = end-to-end metrics, 1 = per-layer metrics; default: both")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s runs; results are not comparable")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="N >= 3 end-to-end runs per workload; print spreads and bounds")
    parser.add_argument("--out", metavar="PATH", help="write the run record as JSON")
    args = parser.parse_args(argv)
    if args.calibrate is not None and args.calibrate < 3:
        parser.error("--calibrate needs at least 3 runs")
    seconds = QUICK_SECONDS if args.quick else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)

    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    children = Children()
    record: dict = {"environment": environment(), "runs": []}
    final: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if args.calibrate:
            record["calibration"] = calibrate(children, names, args.seed, seconds, args.calibrate)
        else:
            for name in names:
                for trace in (0, 1) if args.trace is None else (args.trace,):
                    result, run = run_once(children, WORKLOADS[name], args.seed, seconds, trace)
                    print_run(run)
                    record["runs"].append(run)
                    final["correct"] &= result["correct"]
                    final["attempted"] += result["attempted"]
                    final["failed"] += result["failed"]
                    prefix = "" if args.workload else name + ":"
                    for metric, entry in result["metrics"].items():
                        final["metrics"][prefix + metric] = entry
    finally:
        children.stop_all()
    leaks = children.leaks()
    if leaks:
        print(f"left running: {', '.join(leaks)}", file=sys.stderr)
        return 3
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    if not args.calibrate:
        print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
