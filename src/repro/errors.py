"""Exception hierarchy for the DIDO reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid pipeline, hardware, or system configuration was supplied."""


class CapacityError(ReproError):
    """A data structure ran out of capacity and could not recover.

    Raised, for example, when the cuckoo hash table cannot place an item
    even after the maximum number of displacement ("kick") attempts, or when
    one key-value pair alone exceeds the log arena's whole budget.
    """


class ProtocolError(ReproError):
    """A wire-format message could not be parsed or encoded."""


class WorkloadError(ReproError):
    """A workload specification or generator was invalid."""


class SimulationError(ReproError):
    """The pipeline simulator reached an inconsistent state."""


class TelemetryError(ReproError):
    """A telemetry instrument, event, or exporter was misused."""
