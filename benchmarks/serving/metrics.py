"""Every metric the benchmark reports: name, unit, direction, and how the
per-layer ones are derived from spans and public counters.

``BENCHMARK.json`` at the repo root is ``manifest()`` written out; the
self-test asserts they agree, so a metric is added here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import spans
from workloads import WORKLOADS


#: Measured seconds of one run; the driver passes it as ``--seconds``.
RUN_SECONDS = 20


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only


#: Bounds come from ``run.py --calibrate`` (see README.md, "Calibration").
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("cpu_us_per_q", "us", "lower", 0.25),
    Metric("rss_mb", "MB", "lower", 0.10),
)

#: (metric, span names whose self time is summed, denominator).  Each is
#: reported twice, suffixed ``.rate`` and ``.sat``.
SPAN_METRICS = (
    ("server.rx_ns_per_q", ("server.rx",), "q"),
    ("server.tx_ns_per_q", ("server.tx",), "q"),
    ("net.wire.decode_ns_per_q", ("net.wire.decode",), "q"),
    ("net.wire.concat_ns_per_q", ("net.wire.concat",), "q"),
    ("net.wire.frame_ns_per_q", ("net.wire.frame",), "q"),
    ("net.wire.chunk_ns_per_q", ("net.wire.chunk",), "q"),
    ("core.profiler.observe_ns_per_q", ("core.profiler.observe",), "q"),
    ("core.profiler.snapshot_ns_per_batch", ("core.profiler.snapshot",), "batch"),
    # The decision and, when it re-plans, the configuration search under it.
    ("core.controller.config_for_ns_per_q",
     ("core.controller.config_for", "core.controller.replan"), "q"),
    ("core.dido.process_self_ns_per_q", ("core.dido.process",), "q"),
    # The whole 0.5 s tick, children included: what lands on the tail.
    ("core.dido.maintain_ns_per_s", ("core.dido.maintain",), "tick"),
    ("pipeline.functional.self_ns_per_q", ("pipeline.functional",), "q"),
    ("engine.plan.compile_ns_per_batch", ("engine.plan.compile",), "batch"),
    ("engine.plane.build_ns_per_q", ("engine.plane.build",), "q"),
    ("engine.plane.take_responses_ns_per_q", ("engine.plane.take_responses",), "q"),
    ("engine.vector.run_self_ns_per_q", ("engine.vector.run",), "q"),
    *(
        (f"engine.vector.task_{task}_ns_per_q", (spans.TASK_SPAN_PREFIX + task,), "q")
        for task in ("MM", "IN", "KC", "RD", "WR")
    ),
    # KVStore.maintenance, whether the batch barrier or the 0.5 s tick ran it.
    ("kv.logarena.maintenance_ns_per_q", ("kv.logarena.maintenance",), "q"),
)

_PHASED = (
    *((name, "ns", "lower") for name, _, _ in SPAN_METRICS),
    ("server.glue_ns_per_q", "ns", "lower"),
    ("server.idle_pct", "%", "higher"),
    ("server.queries_per_batch", "count", "higher"),
    ("server.dgrams_in_per_batch", "count", "higher"),
    ("server.dgrams_out_per_batch", "count", "lower"),
)

PER_LAYER = (
    # Demoted from end-to-end; see README.md, "Demoted metrics".
    Metric("p50_ms", "ms", "lower"),
    Metric("p99_ms", "ms", "lower"),
    Metric("sat_qps", "1/s", "higher"),
    Metric("fail_pct", "%", "lower"),
    Metric("loadgen.late_p99_ms", "ms", "lower"),
    Metric("loadgen.client_cpu_pct", "%", "lower"),
    Metric("loadgen.sat_p99_ms", "ms", "lower"),
    Metric("loadgen.hi_p50_ms", "ms", "lower"),
    Metric("loadgen.hi_p99_ms", "ms", "lower"),
    Metric("loadgen.hi_cpu_us_per_q", "us", "lower"),
    Metric("loadgen.hi_fail_pct", "%", "lower"),
    Metric("loadgen.srv_invol_ctxsw_per_s", "1/s", "lower"),
    *(Metric(f"{name}.{phase}", unit, better)
      for name, unit, better in _PHASED for phase in ("rate", "sat")),
    Metric("server.protocol_errors", "count", "lower"),
    Metric("core.controller.replans_per_s", "1/s", "lower"),
    Metric("core.controller.replan_ms", "ms", "lower"),
    Metric("core.controller.replan_changed_pct", "%", "higher"),
    Metric("kv.store.hit_pct", "%", "higher"),
    Metric("kv.hashtable.buckets_per_search", "count", "lower"),
    Metric("kv.hashtable.buckets_per_insert", "count", "lower"),
    Metric("kv.hashtable.kicks_per_insert", "count", "lower"),
    Metric("kv.hashtable.reassign_pct", "%", "higher"),
    Metric("kv.hashtable.failed_inserts", "count", "lower"),
    Metric("kv.logarena.compactions_per_s", "1/s", "lower"),
    Metric("kv.logarena.relocations_per_set", "count", "lower"),
    Metric("kv.logarena.reclaimed_bytes_per_user_byte", "count", "higher"),
    Metric("kv.logarena.evictions", "count", "lower"),
    Metric("kv.logarena.failed_allocations", "count", "lower"),
    Metric("trace.overhead_pct", "%", "lower"),
    Metric("trace.coverage_pct", "%", "higher"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/serving/run.py"],
        "paths": ["benchmarks/serving"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def phase_metrics(window: spans.Window, counters: dict, queries: int, phase: str) -> dict:
    """Per-layer numbers of one traced phase.  ``counters`` is the change in
    the public counters across the phase."""
    batches = counters.get("server.batches", 0)
    denominators = {"q": queries, "batch": batches, "tick": window.seconds}
    out = {}
    for name, span_names, per in SPAN_METRICS:
        if all(s in window.self_s for s in span_names):
            seconds = window.total_s if per == "tick" else window.self_s
            total = sum(seconds[s] for s in span_names)
            out[f"{name}.{phase}"] = _ratio(total, denominators[per], 1e9)
    out[f"server.glue_ns_per_q.{phase}"] = _ratio(
        window.busy_s - window.top_level_s, queries, 1e9
    )
    out[f"server.idle_pct.{phase}"] = _ratio(window.idle_s, window.seconds, 100.0)
    out[f"server.queries_per_batch.{phase}"] = _ratio(counters.get("server.queries", 0), batches)
    out[f"server.dgrams_in_per_batch.{phase}"] = _ratio(
        counters.get("server.datagrams_in", 0), batches
    )
    out[f"server.dgrams_out_per_batch.{phase}"] = _ratio(
        counters.get("server.datagrams_out", 0), batches
    )
    return out


def counter_metrics(counters: dict, seconds: float, user_bytes_per_set: int) -> dict:
    """Per-layer numbers from the public counters' change over the measured
    phases.  A counter the program no longer exposes leaves its metric out."""
    c = counters
    formulas = {
        "server.protocol_errors": lambda: c["server.protocol_errors"],
        "core.controller.replans_per_s": lambda: _ratio(c["controller.replans"], seconds),
        "core.controller.replan_changed_pct": lambda: _ratio(
            c["controller.changed"], c["controller.replans"], 100.0
        ),
        "kv.hashtable.buckets_per_search": lambda: _ratio(
            c["index.search_bucket_reads"], c["index.searches"]
        ),
        "kv.hashtable.buckets_per_insert": lambda: _ratio(
            c["index.insert_bucket_writes"], c["index.inserts"]
        ),
        "kv.hashtable.kicks_per_insert": lambda: _ratio(
            c["index.insert_kicks"], c["index.inserts"]
        ),
        "kv.hashtable.reassign_pct": lambda: _ratio(
            c["index.reassigns"], c["index.inserts"], 100.0
        ),
        "kv.hashtable.failed_inserts": lambda: c["index.failed_inserts"],
        "kv.logarena.compactions_per_s": lambda: _ratio(c["heap.compactions"], seconds),
        "kv.logarena.relocations_per_set": lambda: _ratio(
            c["heap.relocations"], c["heap.allocations"]
        ),
        "kv.logarena.reclaimed_bytes_per_user_byte": lambda: _ratio(
            c["heap.bytes_reclaimed"], c["heap.allocations"] * user_bytes_per_set
        ),
        "kv.logarena.evictions": lambda: c["heap.evictions"],
        "kv.logarena.failed_allocations": lambda: c["heap.failed_allocations"],
    }
    out = {}
    for name, formula in formulas.items():
        try:
            out[name] = float(formula())
        except KeyError:
            pass
    return out
