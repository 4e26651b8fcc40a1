"""Spans recorded from outside the program, and the arithmetic on them.

The first half runs inside the traced server (``server_child.py``): timing
wrappers installed around the calls into each layer's public callables, a
timing ``socket.socket`` subclass, and a recorder that keeps spans in memory
and writes them as JSONL when the server stops.  Nothing under ``src/`` is
edited; a wrap point that no longer resolves is reported as absent and its
metrics are left out.

The second half runs in the benchmark: load the file, compute self time
(duration minus children) and total it per span name within a phase.

File format, one JSON object per line:

    {"id": 7, "name": "core.dido.process", "start": ns, "end": ns, "parent": 3}
    {"mark": 0, "t": ns, "counters": {...}}          (one per SIGUSR1)
    {"absent": ["repro.server.decode_window", ...]}   (first line)

Times are ``time.perf_counter_ns`` (the system-wide monotonic clock on
Linux, so they compare with the load generator's phase times).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import select
import socket
import time

import numpy as np

_now = time.perf_counter_ns

#: (span name, module, attribute path).  The name's prefix is the layer.
WRAP_POINTS = (
    ("net.wire.decode", "repro.server", "decode_window"),
    ("net.wire.concat", "repro.net.wire", "QueryColumns.concat"),
    ("core.dido.process", "repro.core.dido", "DidoSystem.process"),
    ("core.dido.maintain", "repro.core.dido", "DidoSystem.maintain"),
    ("core.profiler.observe", "repro.core.profiler", "WorkloadProfiler.observe_batch"),
    ("core.profiler.snapshot", "repro.core.profiler", "WorkloadProfiler.snapshot"),
    ("core.controller.config_for", "repro.core.controller", "AdaptationController.config_for"),
    ("core.controller.replan", "repro.core.config_search", "ConfigurationSearch.best"),
    ("pipeline.functional", "repro.pipeline.functional", "FunctionalPipeline.process_batch"),
    ("engine.plan.compile", "repro.pipeline.functional", "compile_stage_plan"),
    ("engine.plane.build", "repro.pipeline.functional", "BatchPlane"),
    ("engine.plane.take_responses", "repro.engine.plane", "BatchPlane.take_responses"),
    ("engine.vector.run", "repro.engine.vector", "VectorEngine.run"),
    ("kv.logarena.maintenance", "repro.kv.store", "KVStore.maintenance"),
    ("net.wire.frame", "repro.server", "encode_response_window"),
    ("net.wire.chunk", "repro.server", "chunk_response_payloads"),
)

#: The timing socket adds ``server.rx``, ``server.tx`` and ``server.idle`` (a
#: receive that had to wait, or timed out); ``VectorEngine.run`` adds one
#: child span per task, named with this prefix.
TASK_SPAN_PREFIX = "engine.vector.task_"


class Recorder:
    """In-memory span store for one single-threaded serve loop."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.stack: list[int] = []
        self.marks: list[tuple[int, dict]] = []
        self.absent: list[str] = []

    def leaf(self, name: str, start: int, end: int) -> None:
        self.spans.append((name, start, end, self.stack[-1] if self.stack else -1))

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def with_task_spans(self, fn):
        """``VectorEngine.run`` with its public ``task_times=`` filled in:
        each task's total becomes a child span laid end to end from the
        run's start (only the durations are measured)."""
        leaf = self.leaf

        @functools.wraps(fn)
        def run(*args, task_times=None, **kwargs):
            mine: dict = {}
            cursor = _now()
            try:
                return fn(*args, task_times=mine, **kwargs)
            finally:
                for task, micros in mine.items():
                    width = int(micros * 1000)
                    leaf(TASK_SPAN_PREFIX + task.name, cursor, cursor + width)
                    cursor += width
                    if task_times is not None:
                        task_times[task] = task_times.get(task, 0.0) + micros

        return run

    def install(self) -> None:
        """Patch every wrap point that resolves; list the rest as absent."""
        for name, module_name, path in WRAP_POINTS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(name, raw.__func__))
            elif name == "engine.vector.run":
                wrapped = self.wrap(name, self.with_task_spans(raw))
            else:
                wrapped = self.wrap(name, raw)
            setattr(owner, attr, wrapped)

    def socket_class(self):
        leaf = self.leaf

        class TimingSocket(socket.socket):
            def recvfrom(self, *args):
                start = _now()
                # A receive with a timeout may wait; ask first whether a
                # datagram is already queued, so waiting is told from work.
                waits = self.gettimeout() != 0.0 and not select.select([self], (), (), 0)[0]
                try:
                    return super().recvfrom(*args)
                finally:
                    leaf("server.idle" if waits else "server.rx", start, _now())

            def sendto(self, *args):
                start = _now()
                try:
                    return super().sendto(*args)
                finally:
                    leaf("server.tx", start, _now())

        return TimingSocket

    def mark(self, counters: dict) -> None:
        self.marks.append((_now(), counters))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"absent": self.absent}) + "\n")
            for index, span in enumerate(self.spans):
                if span is not None:
                    out.write(
                        '{"id":%d,"name":"%s","start":%d,"end":%d,"parent":%d}\n'
                        % (index, *span)
                    )
            for index, (when, counters) in enumerate(self.marks):
                out.write(json.dumps({"mark": index, "t": when, "counters": counters}) + "\n")


def public_counters(server) -> dict:
    """The program's own public counters, flattened; missing ones are skipped."""
    system = server.system
    store = system.store
    out: dict[str, float] = {}
    for prefix, stats in (
        ("server", getattr(server, "stats", None)),
        ("store", getattr(store, "stats", None)),
        ("index", getattr(getattr(store, "index", None), "stats", None)),
        ("heap", getattr(getattr(store, "heap", None), "stats", None)),
    ):
        if dataclasses.is_dataclass(stats):
            for key, value in dataclasses.asdict(stats).items():
                out[f"{prefix}.{key}"] = value
    events = getattr(getattr(system, "controller", None), "events", None)
    if events is not None:
        out["controller.replans"] = len(events)
        out["controller.changed"] = sum(1 for e in events if e.changed and not e.bootstrap)
    return out


# ------------------------------------------------------------------ analysis


@dataclasses.dataclass
class Trace:
    names: list[str]  # span name per name id
    name_id: np.ndarray
    start: np.ndarray  # seconds, perf_counter clock
    end: np.ndarray
    self_s: np.ndarray  # duration minus the children's durations
    top: np.ndarray  # bool: no parent
    marks: list[dict]  # counters at each SIGUSR1, in order
    absent: list[str]


def load(path: str) -> Trace:
    ids, names, starts, ends, parents = [], [], [], [], []
    marks: list[dict] = []
    absent: list[str] = []
    name_ids: dict[str, int] = {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            if "id" in record:
                ids.append(record["id"])
                names.append(name_ids.setdefault(record["name"], len(name_ids)))
                starts.append(record["start"])
                ends.append(record["end"])
                parents.append(record["parent"])
            elif "mark" in record:
                marks.append(record["counters"])
            else:
                absent = record["absent"]
    start = np.asarray(starts, dtype=np.float64) / 1e9
    end = np.asarray(ends, dtype=np.float64) / 1e9
    parent = np.asarray(parents, dtype=np.int64)
    return Trace(
        names=list(name_ids),
        name_id=np.asarray(names, dtype=np.int64),
        start=start,
        end=end,
        self_s=self_times(np.asarray(ids, dtype=np.int64), parent, end - start),
        top=parent < 0,
        marks=marks,
        absent=absent,
    )


def self_times(ids: np.ndarray, parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    if len(ids) == 0:
        return duration
    row_of = np.full(int(ids.max()) + 1, -1, dtype=np.int64)
    row_of[ids] = np.arange(len(ids))
    has_parent = parent >= 0
    children = np.zeros(len(ids))
    np.add.at(children, row_of[parent[has_parent]], duration[has_parent])
    return duration - children


@dataclasses.dataclass
class Window:
    """Totals for the spans that start inside ``[start, stop)``."""

    seconds: float
    self_s: dict[str, float]  # per span name
    total_s: dict[str, float]  # per span name, children included
    count: dict[str, int]
    top_level_s: float  # busy top-level spans, whole duration
    idle_s: float

    @property
    def busy_s(self) -> float:
        return max(self.seconds - self.idle_s, 1e-12)


def window(trace: Trace, start: float, stop: float) -> Window:
    inside = (trace.start >= start) & (trace.start < stop)
    n = len(trace.names)
    self_s = np.bincount(trace.name_id[inside], weights=trace.self_s[inside], minlength=n)
    count = np.bincount(trace.name_id[inside], minlength=n)
    duration = np.minimum(trace.end, stop) - trace.start
    total_s = np.bincount(trace.name_id[inside], weights=duration[inside], minlength=n)
    idle_id = trace.names.index("server.idle") if "server.idle" in trace.names else -1
    idle = inside & (trace.name_id == idle_id)
    return Window(
        seconds=stop - start,
        self_s=dict(zip(trace.names, self_s.tolist())),
        total_s=dict(zip(trace.names, total_s.tolist())),
        count=dict(zip(trace.names, count.tolist())),
        top_level_s=float(duration[inside & trace.top & ~idle].sum()),
        idle_s=float(duration[idle].sum()),
    )


def to_chrome(path: str, out_path: str) -> None:
    """Rewrite a span file as a Chrome ``chrome://tracing`` / Perfetto JSON."""
    events = []
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            record = json.loads(line)
            if "id" in record:
                events.append(
                    {
                        "name": record["name"], "ph": "X", "pid": 1, "tid": 1,
                        "ts": record["start"] / 1e3,
                        "dur": (record["end"] - record["start"]) / 1e3,
                    }
                )
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump({"traceEvents": events}, out)
