"""repro.telemetry — tracing, metrics, and replan-audit for the DIDO repro.

The adaptive pipeline's whole premise is that the right configuration
changes with the workload; this package makes the system's view of itself
observable: what each stage cost per batch, why the controller re-planned,
and what the profiler saw.  Production KV
stores drive elasticity and offload policies from exactly these signals.

Three pieces, one switch:

* :class:`MetricsRegistry` (``registry``) — process-wide counters, gauges,
  and fixed-bucket histograms with labels;
* :class:`EventLog` (``events``) — a bounded ring of structured
  :class:`TraceEvent` records (stage spans, replan audits);
* exporters (``exporters``) — JSONL traces for analysis, Prometheus text
  for scraping, and a console summary for humans.

Everything hangs off the process-wide hub returned by
:func:`get_telemetry`, which starts **disabled**: instrumented hot paths
pay one attribute check and nothing else until :func:`configure` (or the
CLI's ``--telemetry-out`` / ``repro telemetry``) turns collection on.
"""

from repro.telemetry.events import (
    DEFAULT_CAPACITY,
    EventLog,
    TraceEvent,
    replan_event,
    stage_span,
)
from repro.telemetry.exporters import (
    console_summary,
    export_jsonl,
    parse_prometheus,
    prometheus_text,
    read_jsonl,
)
from repro.telemetry.hub import Telemetry, configure, get_telemetry
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "TraceEvent",
    "configure",
    "console_summary",
    "export_jsonl",
    "get_telemetry",
    "parse_prometheus",
    "prometheus_text",
    "read_jsonl",
    "replan_event",
    "stage_span",
]
