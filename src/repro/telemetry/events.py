"""Structured trace events and the bounded ring buffer that stores them.

Where :mod:`repro.telemetry.registry` aggregates, this module records
*occurrences*: one :class:`TraceEvent` per pipeline-stage span, re-planning
decision, or work-steal claim, in the order they happened.  The
:class:`EventLog` is a fixed-capacity ring so a long-running server never
grows without bound — old events fall off the head and are counted in
:attr:`EventLog.dropped` instead of silently vanishing.

Event kinds used by the instrumented system:

``span``
    One timed region: a pipeline stage/task execution (fields: ``stage``,
    ``task``, ``processor``, ``batch``) or any :func:`repro.telemetry.span`
    block.
``replan``
    One :class:`~repro.core.controller.AdaptationController` decision with
    the full before/after pipeline configuration, the profile delta that
    triggered it, and the cost model's expectations.
``steal``
    Work-steal claim summary for one stage execution (sets per owner).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

from repro.errors import TelemetryError

#: Default ring capacity; ~a few thousand batches of a busy system.
DEFAULT_CAPACITY = 8192


def _finite(value: float | None) -> float | None:
    """JSON-safe float: non-finite values become None (strict JSON has no
    Infinity/NaN, and a bootstrap replan carries an infinite trigger)."""
    if value is None or not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class TraceEvent:
    """One structured record: a kind, a name, a wall timestamp, and fields.

    ``duration_us`` is set for spans and None otherwise.  ``fields`` holds
    only JSON-scalar values so every event survives a JSONL round trip.
    """

    kind: str
    name: str
    t_wall: float
    duration_us: float | None = None
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "t_wall": self.t_wall,
            "duration_us": _finite(self.duration_us),
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        try:
            return cls(
                kind=data["kind"],
                name=data["name"],
                t_wall=float(data["t_wall"]),
                duration_us=data.get("duration_us"),
                fields=dict(data.get("fields") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed event record: {data!r}") from exc


def stage_span(
    stage: str,
    task: str,
    processor: str,
    duration_us: float,
    batch: int,
) -> TraceEvent:
    """Span for one task's execution inside one pipeline stage."""
    return TraceEvent(
        kind="span",
        name="pipeline_stage",
        t_wall=time.time(),
        duration_us=duration_us,
        fields={"stage": stage, "task": task, "processor": processor, "batch": batch},
    )


def replan_event(
    batch_index: int,
    trigger_change: float,
    old_config: str | None,
    new_config: str,
    estimated_mops: float,
    changed: bool,
    estimated_tmax_us: float | None = None,
    reason: str = "bootstrap",
    window_queries: int = 0,
    search_seconds: float = 0.0,
    host_costs: dict | None = None,
) -> TraceEvent:
    """Audit record of one adaptation decision (configs by full label)."""
    return TraceEvent(
        kind="replan",
        name="adaptation",
        t_wall=time.time(),
        fields={
            "batch": batch_index,
            "trigger_change": _finite(trigger_change),
            "old_config": old_config,
            "new_config": new_config,
            "estimated_mops": estimated_mops,
            "estimated_tmax_us": _finite(estimated_tmax_us),
            "changed": changed,
            "reason": reason,
            "window_queries": window_queries,
            "search_ms": search_seconds * 1e3,
            "host_costs": host_costs,
        },
    )


def steal_event(stage: str, claims: dict[str, int], batch: int) -> TraceEvent:
    """Summary of one stage's work-steal claims, keyed by owner."""
    return TraceEvent(
        kind="steal",
        name="work_steal",
        t_wall=time.time(),
        fields={"stage": stage, "batch": batch, **{f"sets_{o}": c for o, c in claims.items()}},
    )


class EventLog:
    """Thread-safe bounded ring buffer of :class:`TraceEvent`.

    Appending past capacity evicts the oldest event and increments
    :attr:`dropped`; readers always see the most recent ``capacity`` events
    in arrival order.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise TelemetryError("event log capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self._start = 0  # ring head index into _events once full
        self.dropped = 0

    def append(self, event: TraceEvent) -> None:
        with self._lock:
            if len(self._events) < self.capacity:
                self._events.append(event)
            else:
                self._events[self._start] = event
                self._start = (self._start + 1) % self.capacity
                self.dropped += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def snapshot(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        with self._lock:
            return self._events[self._start :] + self._events[: self._start]

    def by_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.snapshot() if e.kind == kind]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self._start = 0
            self.dropped = 0
