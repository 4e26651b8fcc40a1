"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the *aggregated* half of the telemetry subsystem (the
:mod:`repro.telemetry.events` ring buffer is the per-occurrence half).
Instruments follow the Prometheus data model — a metric family has a name,
a help string, and one sample per label set — because that is the format
the exporters speak and the format operators already know how to scrape.

Everything is thread-safe: the UDP server's background thread and the
main thread both update the same instruments.  Updates take one short lock per call; hot paths are
expected to check :attr:`repro.telemetry.hub.Telemetry.enabled` first so a
disabled system never reaches these locks at all.
"""

from __future__ import annotations

import re
import threading
from typing import Iterable

from repro.errors import TelemetryError

#: Prometheus-legal metric / label names.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: A canonicalised label set: sorted ``(key, value)`` pairs.
LabelKey = tuple[tuple[str, str], ...]

#: Default histogram buckets (microseconds): spans from sub-µs task phases
#: up to multi-ms batch periods, roughly log-spaced like Prometheus defaults.
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0,
)


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise TelemetryError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: dict[str, object]) -> LabelKey:
    for key in labels:
        if not _NAME_RE.match(key):
            raise TelemetryError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Common machinery: one sample slot per label set, guarded by a lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = _validate_name(name)
        self.help = help
        self._lock = threading.Lock()
        self._samples: dict[LabelKey, object] = {}

    def _slot(self, labels: dict[str, object], default_factory):
        key = _label_key(labels)
        slot = self._samples.get(key)
        if slot is None:
            slot = self._samples[key] = default_factory()
        return slot

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()


class Counter(_Instrument):
    """Monotonically increasing count (queries served, claims made, ...)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise TelemetryError("counters only go up")
        with self._lock:
            key = _label_key(labels)
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._samples.get(_label_key(labels), 0.0))

    def samples(self) -> list[tuple[LabelKey, float]]:
        with self._lock:
            return [(k, float(v)) for k, v in self._samples.items()]


class Gauge(_Instrument):
    """Point-in-time value (window get_ratio, estimated skew, ...)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        with self._lock:
            self._samples[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        with self._lock:
            key = _label_key(labels)
            self._samples[key] = float(self._samples.get(key, 0.0)) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return float(self._samples.get(_label_key(labels), 0.0))

    def samples(self) -> list[tuple[LabelKey, float]]:
        with self._lock:
            return [(k, float(v)) for k, v in self._samples.items()]


class _HistogramSlot:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int):
        # One count per finite bucket plus the +Inf overflow bucket.
        self.bucket_counts = [0] * (num_buckets + 1)
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket distribution (per-stage span times, batch periods).

    Buckets are cumulative upper bounds as in Prometheus: an observation
    lands in the first bucket whose bound is >= the value, and every export
    reports cumulative counts (``le`` semantics).
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS, help: str = ""):
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError("a histogram needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise TelemetryError("histogram buckets must be strictly increasing")
        self.buckets = bounds

    def observe(self, value: float, **labels: object) -> None:
        with self._lock:
            slot = self._slot(labels, lambda: _HistogramSlot(len(self.buckets)))
            index = len(self.buckets)  # +Inf by default
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            slot.bucket_counts[index] += 1
            slot.sum += value
            slot.count += 1

    def count(self, **labels: object) -> int:
        with self._lock:
            slot = self._samples.get(_label_key(labels))
            return slot.count if slot else 0

    def total(self, **labels: object) -> float:
        with self._lock:
            slot = self._samples.get(_label_key(labels))
            return slot.sum if slot else 0.0

    def bucket_counts(self, **labels: object) -> list[int]:
        """Per-bucket (non-cumulative) counts, +Inf bucket last."""
        with self._lock:
            slot = self._samples.get(_label_key(labels))
            if slot is None:
                return [0] * (len(self.buckets) + 1)
            return list(slot.bucket_counts)

    def samples(self) -> list[tuple[LabelKey, _HistogramSlot]]:
        with self._lock:
            return list(self._samples.items())


class MetricsRegistry:
    """Names -> instruments, with get-or-create semantics.

    Calling :meth:`counter` twice with the same name returns the same
    instrument (so instrumented modules need no coordination), but asking
    for an existing name as a different kind is an error — silent kind
    confusion would corrupt exports.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, name: str, factory, kind: str) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise TelemetryError(
                        f"metric {name!r} is a {existing.kind}, not a {kind}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS, help: str = ""
    ) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(name, buckets, help), "histogram")

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    def reset(self) -> None:
        """Zero every sample but keep the registered instruments."""
        for instrument in self.instruments():
            instrument.reset()

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready view of every instrument's samples.

        Label sets are rendered as ``k=v`` comma-joined strings so the
        snapshot survives a JSON round trip without losing label identity.
        """
        out: dict[str, dict] = {}
        for instrument in self.instruments():
            entry: dict[str, object] = {"kind": instrument.kind, "help": instrument.help}
            if isinstance(instrument, Histogram):
                entry["buckets"] = list(instrument.buckets)
                entry["samples"] = {
                    _render_labels(key): {
                        "bucket_counts": list(slot.bucket_counts),
                        "sum": slot.sum,
                        "count": slot.count,
                    }
                    for key, slot in instrument.samples()
                }
            else:
                entry["samples"] = {
                    _render_labels(key): value for key, value in instrument.samples()
                }
            out[instrument.name] = entry
        return out


def _render_labels(key: LabelKey) -> str:
    return ",".join(f"{k}={v}" for k, v in key)
