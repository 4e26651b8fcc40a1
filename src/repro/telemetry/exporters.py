"""Exporters: JSONL traces, Prometheus text format, console summaries.

Three consumers, three formats:

* **JSONL** — the benchmark/analysis format.  One JSON object per line: a
  header, one ``metric`` record per instrument, then one ``event`` record
  per retained trace event.  :func:`read_jsonl` round-trips the file back
  into a metrics snapshot and :class:`~repro.telemetry.events.TraceEvent`
  objects, which is what the figure scripts and tests consume.
* **Prometheus text format** — for scraping a live server;
  :func:`parse_prometheus` is a minimal reader used to validate exports
  and by tests.
* **Console summary** — a human-readable digest for interactive runs.
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from repro.errors import TelemetryError
from repro.telemetry.events import TraceEvent
from repro.telemetry.hub import Telemetry
from repro.telemetry.registry import Histogram, MetricsRegistry

#: Schema tag written into every JSONL header (bump on breaking change).
JSONL_SCHEMA = "repro.telemetry/1"


# ------------------------------------------------------------------- JSONL


def export_jsonl(telemetry: Telemetry, sink: str | IO[str]) -> int:
    """Write metrics + events as JSON Lines; returns records written.

    ``sink`` is a path or an open text file.  Uses ``allow_nan=False`` so
    the output is strict JSON — event constructors already sanitise
    non-finite floats to null.
    """
    records = _jsonl_records(telemetry)
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8") as fh:
            return _write_lines(records, fh)
    return _write_lines(records, sink)


def _write_lines(records: Iterable[dict], fh: IO[str]) -> int:
    count = 0
    for record in records:
        fh.write(json.dumps(record, allow_nan=False) + "\n")
        count += 1
    return count


def _jsonl_records(telemetry: Telemetry) -> list[dict]:
    header = {
        "type": "header",
        "schema": JSONL_SCHEMA,
        "events_retained": len(telemetry.events),
        "events_dropped": telemetry.events.dropped,
    }
    metrics = [
        {"type": "metric", "name": name, **entry}
        for name, entry in telemetry.registry.snapshot().items()
    ]
    events = [{"type": "event", **e.to_dict()} for e in telemetry.events.snapshot()]
    return [header, *metrics, *events]


def read_jsonl(source: str | IO[str]) -> tuple[dict[str, dict], list[TraceEvent]]:
    """Parse a JSONL export back into (metrics snapshot, events)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = source.readlines()
    metrics: dict[str, dict] = {}
    events: list[TraceEvent] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TelemetryError(f"malformed JSONL line: {line[:80]!r}") from exc
        rtype = record.get("type")
        if rtype == "metric":
            name = record.pop("name")
            record.pop("type")
            metrics[name] = record
        elif rtype == "event":
            record.pop("type")
            events.append(TraceEvent.from_dict(record))
        elif rtype != "header":
            raise TelemetryError(f"unknown JSONL record type {rtype!r}")
    return metrics, events


# -------------------------------------------------------------- Prometheus


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every instrument in the Prometheus text exposition format.

    One ``# HELP``/``# TYPE`` family per registry entry; histograms expand
    into cumulative ``_bucket`` series plus ``_sum`` and ``_count``.
    """
    lines: list[str] = []
    for instrument in registry.instruments():
        name = instrument.name
        if instrument.help:
            lines.append(f"# HELP {name} {instrument.help}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        if isinstance(instrument, Histogram):
            for key, slot in instrument.samples():
                cumulative = 0
                for bound, count in zip(instrument.buckets, slot.bucket_counts):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket{_prom_labels(key, le=_format_bound(bound))}"
                        f" {cumulative}"
                    )
                cumulative += slot.bucket_counts[-1]
                lines.append(f'{name}_bucket{_prom_labels(key, le="+Inf")} {cumulative}')
                lines.append(f"{name}_sum{_prom_labels(key)} {_format_value(slot.sum)}")
                lines.append(f"{name}_count{_prom_labels(key)} {slot.count}")
        else:
            for key, value in instrument.samples():
                lines.append(f"{name}{_prom_labels(key)} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def _format_bound(bound: float) -> str:
    return f"{bound:g}"


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(key, **extra: str) -> str:
    pairs = [(k, v) for k, v in key] + list(extra.items())
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


def parse_prometheus(text: str) -> dict[str, dict]:
    """Minimal text-format parser: family name -> {type, samples}.

    ``samples`` maps the full series line key (name + label string) to the
    parsed float value.  Enough to validate an export and to assert on
    specific series in tests; not a general scraper.
    """
    families: dict[str, dict] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            try:
                _, _, name, kind = line.split(None, 3)
            except ValueError as exc:
                raise TelemetryError(f"malformed TYPE line: {line!r}") from exc
            families[name] = {"type": kind, "samples": {}}
            continue
        if line.startswith("#"):
            continue
        try:
            series, value = line.rsplit(None, 1)
            parsed = float(value)
        except ValueError as exc:
            raise TelemetryError(f"malformed sample line: {line!r}") from exc
        base = series.split("{", 1)[0]
        family = _family_of(base, families)
        if family is None:
            raise TelemetryError(f"sample {series!r} outside any TYPE family")
        families[family]["samples"][series] = parsed
    return families


def _family_of(series_name: str, families: dict[str, dict]) -> str | None:
    if series_name in families:
        return series_name
    for suffix in ("_bucket", "_sum", "_count"):
        if series_name.endswith(suffix) and series_name[: -len(suffix)] in families:
            return series_name[: -len(suffix)]
    return None


# ----------------------------------------------------------------- console

#: The batch-coalescing gauges the console summary calls out explicitly
#: (queue carry-over, batch fill vs target, shard balance, datagrams per
#: receive poll, capped at ``repro.server.DRAIN_LIMIT``) — what an
#: operator tunes ``--batch-size``/``--coalesce-us``/``--shards`` against.
COALESCING_SERIES = (
    "repro_server_queue_depth",
    "repro_batch_fill_ratio",
    "repro_shard_imbalance",
    "repro_datagrams_per_poll",
)

#: Wire-plane timers shown next to the coalescing gauges: window decode
#: and columnar response framing (nanoseconds per batch window).
WIRE_TIMER_SERIES = (
    "repro_wire_parse_ns",
    "repro_wire_frame_ns",
)

#: Log-arena health called out in its own section: the live/dead byte
#: balance an operator reads the compactor's effectiveness from, plus the
#: compaction-pass counter and what the passes copied (see
#: :meth:`repro.kv.store.KVStore.maintenance`).
LOGARENA_SERIES = (
    "repro_logarena_live_bytes",
    "repro_logarena_dead_bytes",
    "repro_logarena_compactions_total",
    "repro_logarena_relocations_total",
    "repro_logarena_relocated_bytes_total",
)

#: Procshard pipelined-IPC breakdown: where a window's wall time goes
#: (gather/encode, ring send, reply wait, response decode, result
#: scatter), writer-side ring backpressure, and how deep the in-flight
#: overlap actually runs (see
#: :class:`repro.engine.procshard.ProcShardEngine`).
PROCSHARD_SERIES = (
    "repro_procshard_encode_ns",
    "repro_procshard_send_ns",
    "repro_procshard_wait_ns",
    "repro_procshard_decode_ns",
    "repro_procshard_scatter_ns",
    "repro_procshard_ring_stall_ns",
    "repro_procshard_queue_depth_bytes",
    "repro_procshard_inflight_windows",
    "repro_procshard_overlap_ratio",
)


def console_summary(telemetry: Telemetry, max_events: int = 10) -> str:
    """Human-readable digest: metric totals, coalescing gauges, recent events."""
    lines = ["telemetry summary", "================="]
    snapshot = telemetry.registry.snapshot()
    if not snapshot:
        lines.append("(no metrics recorded)")
    for name, entry in snapshot.items():
        if entry["kind"] == "histogram":
            # Nanosecond-valued timers (the ``*_ns`` series) render in us
            # like everything else instead of inheriting a wrong suffix.
            scale = 1e3 if name.endswith("_ns") else 1.0
            for labels, slot in sorted(entry["samples"].items()):
                mean = slot["sum"] / slot["count"] if slot["count"] else 0.0
                label_text = f"{{{labels}}}" if labels else ""
                lines.append(
                    f"  {name}{label_text}: n={slot['count']} "
                    f"mean={mean / scale:.1f}us"
                )
        else:
            for labels, value in sorted(entry["samples"].items()):
                label_text = f"{{{labels}}}" if labels else ""
                lines.append(f"  {name}{label_text}: {value:g}")
    recorded = [name for name in COALESCING_SERIES if name in snapshot]
    timers = [name for name in WIRE_TIMER_SERIES if name in snapshot]
    if recorded or timers:
        lines.append("")
        lines.append("batch coalescing")
        for name in recorded:
            for labels, value in sorted(snapshot[name]["samples"].items()):
                label_text = f"{{{labels}}}" if labels else ""
                lines.append(f"  {name}{label_text}: {value:g}")
        for name in timers:
            for labels, slot in sorted(snapshot[name]["samples"].items()):
                mean = slot["sum"] / slot["count"] if slot["count"] else 0.0
                label_text = f"{{{labels}}}" if labels else ""
                lines.append(
                    f"  {name}{label_text}: n={slot['count']} mean={mean / 1e3:.1f}us"
                )
    arena = [name for name in LOGARENA_SERIES if name in snapshot]
    if arena:
        lines.append("")
        lines.append("log arena")
        for name in arena:
            for labels, value in sorted(snapshot[name]["samples"].items()):
                label_text = f"{{{labels}}}" if labels else ""
                lines.append(f"  {name}{label_text}: {value:g}")
    procshard = [name for name in PROCSHARD_SERIES if name in snapshot]
    if procshard:
        lines.append("")
        lines.append("procshard pipeline")
        for name in procshard:
            entry = snapshot[name]
            if entry["kind"] == "histogram":
                for labels, slot in sorted(entry["samples"].items()):
                    mean = slot["sum"] / slot["count"] if slot["count"] else 0.0
                    label_text = f"{{{labels}}}" if labels else ""
                    lines.append(
                        f"  {name}{label_text}: n={slot['count']} "
                        f"mean={mean / 1e3:.1f}us"
                    )
            else:
                for labels, value in sorted(entry["samples"].items()):
                    label_text = f"{{{labels}}}" if labels else ""
                    lines.append(f"  {name}{label_text}: {value:g}")
    events = telemetry.events.snapshot()
    replans = [e for e in events if e.kind == "replan"]
    lines.append("")
    lines.append(
        f"events: {len(events)} retained, {telemetry.events.dropped} dropped, "
        f"{len(replans)} replans"
    )
    for event in events[-max_events:]:
        duration = f" {event.duration_us:.1f}us" if event.duration_us is not None else ""
        detail = " ".join(f"{k}={v}" for k, v in event.fields.items())
        lines.append(f"  [{event.kind}] {event.name}{duration} {detail}".rstrip())
    return "\n".join(lines)
