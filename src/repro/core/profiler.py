"""Lightweight workload profiler (paper Section III-A and IV-B).

The profiler maintains "only a few counters" — GET/SET counts and key/value
byte totals — plus the sampling-based Zipf-skew estimator: each key-value
object carries an access counter and a sampling-epoch timestamp (the
``access`` and ``epoch`` columns of the store's
:class:`repro.kv.store.KeyDirectory`), and at the end of a window the observed
frequency distribution of the *sampled* keys yields a skew estimate.
Re-planning triggers when any profiled characteristic moves by more than
10 % relative to the profile the current pipeline was planned for
(``ProfileDelta.substantial``).

A profile *window* is a statistical sample, not a serve batch: counters
accumulate across batches and the window closes (:meth:`WorkloadProfiler.
window_ready`) once it holds :data:`WINDOW_QUERIES` queries — enough to
resolve a 10 % change — or earlier, when a counter has moved past the 10 %
threshold by more than the sampling error of the comparison.  The *epoch*
is the index of the open window; it advances only when a window closes.

Next to the workload counters the profiler holds what the serving engine's
passes cost on this host: a :class:`HostCostModel`, fitted online from the
engine's own kernel timers, which places each window's Search pass on its
scalar or its columnar kernel (the paper's cost-model-guided task
placement, taken on the substrate that actually serves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.tasks import IndexOp
from repro.errors import WorkloadError
from repro.kv.protocol import QueryType
from repro.telemetry import get_telemetry

#: The paper's re-plan threshold: "the upper limit for the alteration of
#: workload counters is set to 10%".
CHANGE_THRESHOLD = 0.10

#: Queries a profile window holds before it closes: the order of the
#: paper's batch.  At this size a GET ratio of 0.5 is known to +-0.8 %
#: (one sigma), so the 10 % rule compares two such windows at > 4 sigma.
WINDOW_QUERIES = 4096

#: A window never closes early with fewer queries than this: the profile it
#: yields becomes the next reference, and below a few hundred samples a
#: profile is itself more than 10 % noise.
EARLY_CLOSE_MIN_QUERIES = 512

#: The value-size test needs this many SETs in the window (the normal
#: approximation behind the sampling-error test is poor below it).
EARLY_CLOSE_MIN_VALUES = 32

#: Sampling-error allowance of the early-close test, in standard errors.
#: The test runs after every batch, so it is far stricter than a one-shot
#: 2-3 sigma test: at 5 sigma a steady stream closes early about once in a
#: million batches.
EARLY_CLOSE_SIGMAS = 5.0

#: Floors under the relative change of each counter (a GET ratio near 0 or
#: a value size near 0 would otherwise turn noise into a huge ratio).
_GET_RATIO_FLOOR = 0.05
_KEY_SIZE_FLOOR = 1e-6
_VALUE_SIZE_FLOOR = 1.0

#: Value size reported until a window has seen a value (the floor above).
#: A reference at this size is not evidence, so value sizes that differ
#: from it are a first measurement, not a shift worth an early close.
_NO_VALUE_EVIDENCE = 1.0

#: Forgetting factor of the host cost fits: every window a pass runs ages
#: the samples of both its kernels by this much — a memory of ~50 windows.
FIT_FORGETTING = 0.98

#: Samples each kernel of a pass needs before its fit is trusted; until
#: then the chooser alternates so both lines exist.
BOOTSTRAP_SAMPLES = 8

#: Once the fits exist, one window in this many runs the kernel the model
#: did *not* pick, so its fit never goes stale.
RESAMPLE_PERIOD = 32

#: A fitted line is trusted up to twice the most rows it remembers being
#: given; further out it is an extrapolation, and the kernel is run
#: instead of predicted.
EXTRAPOLATION_LIMIT = 2.0

#: The two kernels a placed pass has, as the model, the audit trail and
#: the ``repro_pass_kernel_total`` label name them: the Python row loop
#: and the NumPy column kernel.
SCALAR = "scalar"
COLUMNAR = "columnar"
KERNELS = (SCALAR, COLUMNAR)

#: The pass whose columnar intercept scales with key length, under the
#: name the engine reports it by; its fits reset on a key-size shift.
SEARCH_PASS = IndexOp.SEARCH.value

#: Wire opcodes (``QueryType`` values) the batch's opcode column holds.
_GET_OPCODE = QueryType.GET.value
_SET_OPCODE = QueryType.SET.value


@dataclass(frozen=True)
class WorkloadProfile:
    """A profiled workload: the inputs the cost model needs.

    ``insert_buckets`` is the runtime-measured average buckets written per
    index Insert (cuckoo amortised cost; paper Section IV-B), carried here
    because the profiler is the component that observes the running system.
    """

    get_ratio: float
    avg_key_size: float
    avg_value_size: float
    zipf_skew: float
    batch_queries: int = 0
    insert_buckets: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.get_ratio <= 1.0:
            raise WorkloadError("get_ratio must be within [0, 1]")
        if self.avg_key_size <= 0 or self.avg_value_size < 0:
            raise WorkloadError("sizes must be positive")

    @property
    def set_ratio(self) -> float:
        return 1.0 - self.get_ratio

    @classmethod
    def from_spec(cls, spec, insert_buckets: float = 2.0) -> "WorkloadProfile":
        """Profile equivalent of a :class:`~repro.workloads.ycsb.WorkloadSpec`.

        Used by benchmarks that evaluate the steady state of a known
        workload without running the profiler first.
        """
        return cls(
            get_ratio=spec.get_ratio,
            avg_key_size=float(spec.dataset.key_size),
            avg_value_size=float(spec.dataset.value_size),
            zipf_skew=spec.zipf_skew,
            insert_buckets=insert_buckets,
        )


@dataclass(frozen=True)
class ProfileDelta:
    """Relative change between two profiles, per profiled counter."""

    get_ratio: float
    key_size: float
    value_size: float
    skew: float

    @property
    def largest(self) -> tuple[str, float]:
        """``(counter name, relative change)`` of the counter that moved most."""
        changes = (
            ("get_ratio", self.get_ratio),
            ("key_size", self.key_size),
            ("value_size", self.value_size),
            ("skew", self.skew),
        )
        return max(changes, key=lambda change: change[1])

    @property
    def max_change(self) -> float:
        return self.largest[1]

    @property
    def substantial(self) -> bool:
        """True when any counter moved by more than the 10 % threshold."""
        return self.max_change > CHANGE_THRESHOLD


def _relative_change(new: float, old: float, floor: float = 1e-6) -> float:
    return abs(new - old) / max(abs(old), floor)


def profile_delta(new: WorkloadProfile, old: WorkloadProfile) -> ProfileDelta:
    """Component-wise relative change (skew compared on a 0-1 scale)."""
    return ProfileDelta(
        get_ratio=_relative_change(new.get_ratio, old.get_ratio, _GET_RATIO_FLOOR),
        key_size=_relative_change(new.avg_key_size, old.avg_key_size, _KEY_SIZE_FLOOR),
        value_size=_relative_change(
            new.avg_value_size, old.avg_value_size, _VALUE_SIZE_FLOOR
        ),
        skew=abs(new.zipf_skew - old.zipf_skew) / 1.0,
    )


def _shifted(
    mean: float, variance: float, inverse_samples: float, old: float, floor: float
) -> bool:
    """True when a running mean is past the 10 % threshold around ``old``
    by more than :data:`EARLY_CLOSE_SIGMAS` standard errors of the
    difference (``inverse_samples`` sums ``1/n`` over both means)."""
    margin = EARLY_CLOSE_SIGMAS * math.sqrt(max(variance, 0.0) * inverse_samples)
    return abs(mean - old) - margin > CHANGE_THRESHOLD * max(abs(old), floor)


def sample_skewness(frequencies: np.ndarray) -> float:
    """Joanes & Gill (1998) adjusted sample skewness ``G1`` of frequencies.

    This is the statistic the paper's estimator computes over the sampled
    key frequencies; :func:`estimate_zipf_skew` maps it (together with the
    rank-frequency slope) to a Zipf exponent.
    """
    n = frequencies.size
    if n < 3:
        return 0.0
    mean = float(frequencies.mean())
    deviations = frequencies - mean
    m2 = float(np.mean(deviations**2))
    if m2 <= 0:
        return 0.0
    m3 = float(np.mean(deviations**3))
    g1 = m3 / m2**1.5
    return g1 * math.sqrt(n * (n - 1)) / (n - 2)


def estimate_zipf_skew(frequencies: np.ndarray, min_samples: int = 32) -> float:
    """Estimate the Zipf exponent from sampled access frequencies.

    Sorts the sampled per-key frequencies in descending order and fits the
    log-log rank-frequency slope by least squares; a uniform workload gives
    frequencies that are flat in rank, hence a slope (and estimate) near 0.
    Returns 0.0 when there are too few samples or no variation.
    """
    freqs = np.asarray(frequencies, dtype=np.float64)
    freqs = freqs[freqs > 0]
    if freqs.size < min_samples:
        return 0.0
    ordered = np.sort(freqs)[::-1]
    if ordered[0] == ordered[-1]:
        return 0.0
    log_rank = np.log(np.arange(1, ordered.size + 1, dtype=np.float64))
    log_rank -= log_rank.mean()
    # Least-squares slope in closed form (a degree-1 ``polyfit`` solves the
    # same normal equations through a general solver, five times slower).
    slope = np.dot(log_rank, np.log(ordered)) / np.dot(log_rank, log_rank)
    return float(max(0.0, -slope))


class LineFit:
    """``t = a + b*n`` fitted by exponentially-forgetting least squares.

    Keeps the five weighted sums of the normal equations; each sample
    first ages them by :data:`FIT_FORGETTING` per window since the last
    one, so the line tracks the host it runs on (cache state, table load,
    a noisy neighbour) with a memory of about ``1 / (1 - FIT_FORGETTING)``
    windows.  A pass cannot cost less than nothing nor get cheaper per
    row, so the solution is clamped to ``a >= 0`` and ``b >= 0`` (the
    constrained optimum lies on the boundary that was crossed); with no
    spread in ``n`` at all the slope is unidentifiable and the line goes
    through the origin.  The fit also keeps the most rows it was given,
    forgotten at the same rate: far beyond them the line is an
    extrapolation (:meth:`covers`).
    """

    __slots__ = ("samples", "a", "b", "hi", "seen_at", "_w", "_sx", "_sy", "_sxx", "_sxy")

    def __init__(self) -> None:
        #: Samples folded in since construction (never aged).
        self.samples = 0
        #: Fitted intercept (us) and slope (us per row).
        self.a = 0.0
        self.b = 0.0
        #: Most rows of any sample the fit still remembers.
        self.hi = 0.0
        #: The owning pass's window count at the last sample.
        self.seen_at = 0
        self._w = self._sx = self._sy = self._sxx = self._sxy = 0.0

    def covers(self, n: float) -> bool:
        """Whether the line can be trusted at ``n``: up to
        :data:`EXTRAPOLATION_LIMIT` times the most rows it remembers.
        (Towards fewer rows ``a, b >= 0`` bound the error by what the
        kernel cost where it *was* measured; towards more, nothing does.)"""
        return n <= self.hi * EXTRAPOLATION_LIMIT

    def observe(self, n: float, elapsed_us: float, windows: int = 1) -> None:
        """Fold in one sample taken ``windows`` windows after the last."""
        keep = FIT_FORGETTING if windows == 1 else FIT_FORGETTING**windows
        self.samples += 1
        # The reach forgets like the sums do: it relaxes toward the new
        # sample unless the sample extends it.
        self.hi = n if n > self.hi else n + (self.hi - n) * keep
        w = self._w = self._w * keep + 1.0
        sx = self._sx = self._sx * keep + n
        sy = self._sy = self._sy * keep + elapsed_us
        sxx = self._sxx = self._sxx * keep + n * n
        sxy = self._sxy = self._sxy * keep + n * elapsed_us
        scale = w * sxx
        spread = scale - sx * sx
        if spread > 1e-9 * scale:
            b = (w * sxy - sx * sy) / spread
            a = (sy - b * sx) / w
            if b < 0.0:
                a, b = sy / w, 0.0
            elif a < 0.0:
                a, b = 0.0, sxy / sxx
        else:
            a, b = 0.0, (sy / sx if sx > 0.0 else 0.0)
        self.a = a
        self.b = b


def crossover_rows(first: LineFit, second: LineFit) -> float | None:
    """Rows ``n*`` at which two fitted lines cost the same, or None when
    they do not cross at a positive ``n`` (one kernel wins everywhere)."""
    slope_gap = first.b - second.b
    if slope_gap == 0.0:
        return None
    n_star = (second.a - first.a) / slope_gap
    return n_star if n_star > 0.0 else None


class _PassCosts:
    """One pass's two fits and how many windows ran the pass."""

    __slots__ = ("fits", "windows")

    def __init__(self) -> None:
        self.fits = {SCALAR: LineFit(), COLUMNAR: LineFit()}
        self.windows = 0


class HostCostModel:
    """Fitted cost of the engine passes that have two kernels, on the host
    this process runs on.

    The engine reports every such pass it executes — ``(pass, kernel, rows
    the pass touched, elapsed)`` — through :meth:`observe`; one
    :class:`LineFit` per (pass, kernel) turns those into ``T(pass, kernel,
    n) = a + b*n``, and :meth:`choose` places the window on the kernel with
    the lower prediction at that window's ``n``: the paper's placement
    decision (which processor runs which task, from the profiled workload)
    taken on the substrate that serves — the scalar row loop against the
    NumPy column kernel, whose fixed cost per call makes it lose small
    windows and win large ones.  Today one pass has two kernels: Search.

    A kernel that is never chosen would never be measured again, so the
    choice explores on a bounded schedule: until both kernels have
    :data:`BOOTSTRAP_SAMPLES` samples the less-sampled one runs;
    afterwards one window in :data:`RESAMPLE_PERIOD` runs the kernel *not*
    predicted cheaper.  A line is trusted only near the row counts it still
    remembers (:meth:`LineFit.covers`): when a window's ``n`` is far beyond
    the idle kernel's (the windows grew fifty-fold) that kernel runs the
    window instead of being extrapolated, so a change of regime is
    measured on both kernels within two windows.  Nothing else decides: no
    size threshold, flag or environment variable.  A shift in key size
    keeps the fits: neither Search kernel hashes a key (the window's specs
    are resolved before Search and timed as IN), so their lines do not
    scale with key bytes.
    """

    def __init__(self) -> None:
        self._passes: dict[str, _PassCosts] = {}

    def fit(self, pass_name: str, kernel: str) -> LineFit:
        """The fit of one (pass, kernel), created empty on first use.  Its
        ``samples`` is how many windows that kernel has run the pass."""
        return self._costs(pass_name).fits[kernel]

    def _costs(self, pass_name: str) -> _PassCosts:
        costs = self._passes.get(pass_name)
        if costs is None:
            costs = self._passes[pass_name] = _PassCosts()
        return costs

    def choose(self, pass_name: str, n: int) -> str:
        """The kernel this window's ``pass_name`` (touching ``n`` rows) runs."""
        costs = self._costs(pass_name)
        scalar = costs.fits[SCALAR]
        columnar = costs.fits[COLUMNAR]
        if scalar.samples < BOOTSTRAP_SAMPLES or columnar.samples < BOOTSTRAP_SAMPLES:
            return SCALAR if scalar.samples <= columnar.samples else COLUMNAR
        if scalar.a + scalar.b * n <= columnar.a + columnar.b * n:
            best, idle, idle_fit = SCALAR, COLUMNAR, columnar
        else:
            best, idle, idle_fit = COLUMNAR, SCALAR, scalar
        if (costs.windows + 1) % RESAMPLE_PERIOD == 0 or not idle_fit.covers(n):
            return idle  # this window explores
        return best

    def observe(self, pass_name: str, kernel: str, n: int, elapsed_us: float) -> None:
        """Fold one executed pass (one window of it) into its fit."""
        costs = self._costs(pass_name)
        fit = costs.fits[kernel]
        windows = costs.windows = costs.windows + 1
        fit.observe(n, elapsed_us, windows - fit.seen_at)
        fit.seen_at = windows

    def relative_error(
        self, pass_name: str, kernel: str, n: int, elapsed_us: float
    ) -> float | None:
        """``|predicted - measured| / measured`` of one executed pass, to be
        asked *before* the sample is folded in; None while the fit is
        still bootstrapping (Figure 9's error rate, per window)."""
        fit = self.fit(pass_name, kernel)
        if fit.samples < BOOTSTRAP_SAMPLES or elapsed_us <= 0.0:
            return None
        return abs(fit.a + fit.b * n - elapsed_us) / elapsed_us

    def summary(self) -> dict[str, dict]:
        """The audit trail of the current fits, JSON-ready: per pass, each
        kernel's ``[a_us, b_us_per_row, samples]`` and ``crossover_rows``,
        the ``n*`` the two lines imply (None when one kernel is predicted
        cheaper at every size)."""
        out: dict[str, dict] = {}
        for pass_name, costs in self._passes.items():
            entry: dict = {
                kernel: [fit.a, fit.b, fit.samples] for kernel, fit in costs.fits.items()
            }
            entry["crossover_rows"] = crossover_rows(*costs.fits.values())
            out[pass_name] = entry
        return out


class WorkloadProfiler:
    """Accumulates workload counters and produces :class:`WorkloadProfile`.

    Usage: call :meth:`observe_batch` with each batch of parsed queries,
    ask :meth:`window_ready` whether the open window is a large enough
    sample to close, and if so feed it the per-object access frequencies
    sampled during the window (supplied by the store via the objects'
    counters) and call :meth:`snapshot` to close it.
    """

    def __init__(self) -> None:
        self.epoch = 0
        self._reset_window()
        self._last_insert_buckets = 2.0
        #: Value size carried through windows without value evidence.
        self._last_value_size = _NO_VALUE_EVIDENCE
        #: What the engine's placed passes cost on this host, fitted from
        #: the engine's own timer (the engine is handed this object).
        self.host_costs = HostCostModel()

    def _reset_window(self) -> None:
        self._gets = 0
        self._non_gets = 0
        self._key_bytes = 0
        self._key_squares = 0
        self._value_bytes = 0
        self._value_squares = 0
        self._value_events = 0
        self._frequencies: list[int] = []

    # ------------------------------------------------------------ observing

    def observe_batch(self, queries) -> None:
        """Fold one sealed :class:`~repro.net.wire.QueryColumns` batch
        into the open window with a handful of array reductions over its
        opcode and length columns.  Sums of squares ride along so
        :meth:`window_ready` knows each mean's sampling error.
        """
        per_opcode = np.bincount(queries.opcodes, minlength=_SET_OPCODE + 1)
        gets = int(per_opcode[_GET_OPCODE])
        self._gets += gets
        self._non_gets += len(queries) - gets
        # Only SETs carry a value (wire-validated), so the value column's
        # totals are exactly the SET payload's.
        self._value_events += int(per_opcode[_SET_OPCODE])
        key_lens, value_lens = queries.key_lens, queries.value_lens
        self._key_bytes += int(key_lens.sum())
        self._key_squares += int(np.dot(key_lens, key_lens))
        self._value_bytes += int(value_lens.sum())
        self._value_squares += int(np.dot(value_lens, value_lens))

    def observe_frequencies(self, in_window_counts: list[int]) -> None:
        """Record a harvest of sampled objects' in-window access counts."""
        self._frequencies.extend(in_window_counts)

    def observe_insert_buckets(self, average: float) -> None:
        """Record the measured average buckets per Insert from the index."""
        if average > 0:
            self._last_insert_buckets = average

    # ------------------------------------------------------------- snapshot

    @property
    def window_queries(self) -> int:
        return self._gets + self._non_gets

    def window_ready(self, planned: WorkloadProfile | None) -> bool:
        """Whether the open window should close now (O(1) per call).

        True once the window holds :data:`WINDOW_QUERIES` queries, or when
        there is no ``planned`` profile to compare with (the first plan,
        or a forced re-plan), or — the early close — when the GET ratio,
        key size or value size has moved from ``planned`` past the 10 %
        threshold by more than the sampling error of the two windows at
        their sample counts (this one's at least
        :data:`EARLY_CLOSE_MIN_QUERIES`), so a real shift is adopted within
        a few hundred queries while sampling noise never closes a window.
        """
        total = self._gets + self._non_gets
        if planned is None or total >= WINDOW_QUERIES:
            return total > 0
        if total < EARLY_CLOSE_MIN_QUERIES:
            return False
        # Both means are samples: the reference's error counts too (the
        # bootstrap plan may rest on a four-query batch).  A profile that
        # came from a spec, not a window, has ``batch_queries == 0``: exact.
        reference = planned.batch_queries
        inverse_samples = 1.0 / total + (1.0 / reference if reference else 0.0)
        ratio = self._gets / total
        old_ratio = planned.get_ratio
        # Under "no change" the variance is the planned ratio's; under a
        # change it is the observed one's — allow for the larger.
        ratio_variance = max(ratio * (1.0 - ratio), old_ratio * (1.0 - old_ratio))
        if _shifted(ratio, ratio_variance, inverse_samples, old_ratio, _GET_RATIO_FLOOR):
            return True
        key = self._key_bytes / total
        key_variance = self._key_squares / total - key * key
        if _shifted(
            key, key_variance, inverse_samples, planned.avg_key_size, _KEY_SIZE_FLOOR
        ):
            return True
        events = self._value_events
        old_value = planned.avg_value_size
        if events < EARLY_CLOSE_MIN_VALUES or old_value == _NO_VALUE_EVIDENCE:
            return False
        value = self._value_bytes / events
        value_variance = self._value_squares / events - value * value
        # Per value, not per query: both windows at this one's SET share.
        return _shifted(
            value,
            value_variance,
            inverse_samples * total / events,
            old_value,
            _VALUE_SIZE_FLOOR,
        )

    def snapshot(self) -> WorkloadProfile:
        """Close the window: return its profile and start a new epoch."""
        total = self.window_queries
        if total == 0:
            raise WorkloadError("cannot profile an empty window")
        # Value size: average over SET payloads; a window without one says
        # nothing about it, so the last observed size stands.
        if self._value_events:
            self._last_value_size = max(
                _VALUE_SIZE_FLOOR, self._value_bytes / self._value_events
            )
        profile = WorkloadProfile(
            get_ratio=self._gets / total,
            avg_key_size=self._key_bytes / total,
            avg_value_size=self._last_value_size,
            zipf_skew=estimate_zipf_skew(
                np.asarray(self._frequencies, dtype=np.float64)
            ),
            batch_queries=total,
            insert_buckets=self._last_insert_buckets,
        )
        telemetry = get_telemetry()
        if telemetry.enabled:
            gauges = {
                "repro_profile_get_ratio": (profile.get_ratio, "GET share of the last window"),
                "repro_profile_zipf_skew": (profile.zipf_skew, "Estimated Zipf exponent"),
                "repro_profile_key_bytes": (profile.avg_key_size, "Average key size (bytes)"),
                "repro_profile_value_bytes": (profile.avg_value_size, "Average value size (bytes)"),
                "repro_profile_window_queries": (
                    float(total),
                    "Queries in the last closed profile window (all its batches)",
                ),
            }
            for name, (value, help_text) in gauges.items():
                telemetry.registry.gauge(name, help=help_text).set(value)
        self.epoch += 1
        self._reset_window()
        return profile
