"""Unit tests for the workload profiler and skew estimator."""

import numpy as np
import pytest

import random

from repro.core.profiler import (
    BOOTSTRAP_SAMPLES,
    CHANGE_THRESHOLD,
    EARLY_CLOSE_MIN_QUERIES,
    RESAMPLE_PERIOD,
    WINDOW_QUERIES,
    HostCostModel,
    LineFit,
    WorkloadProfile,
    WorkloadProfiler,
    estimate_zipf_skew,
    profile_delta,
    sample_skewness,
)
from repro.errors import WorkloadError
from repro.kv.protocol import Query, QueryType
from repro.workloads.distributions import ZipfKeys
from repro.workloads.ycsb import standard_workload


def queries(gets: int, sets: int, key_size: int = 16, value_size: int = 64):
    out = [Query(QueryType.GET, bytes(key_size)) for _ in range(gets)]
    out += [
        Query(QueryType.SET, bytes(key_size), b"v" * value_size) for _ in range(sets)
    ]
    return out


class TestWorkloadProfile:
    def test_from_spec(self):
        profile = WorkloadProfile.from_spec(standard_workload("K32-G95-S"))
        assert profile.get_ratio == pytest.approx(0.95)
        assert profile.avg_key_size == 32.0
        assert profile.avg_value_size == 256.0
        assert profile.zipf_skew == pytest.approx(0.99)

    def test_set_ratio(self):
        profile = WorkloadProfile(0.8, 16, 64, 0.0)
        assert profile.set_ratio == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile(1.5, 16, 64, 0.0)
        with pytest.raises(WorkloadError):
            WorkloadProfile(0.5, 0, 64, 0.0)


class TestProfiler:
    def test_counts_mix(self):
        profiler = WorkloadProfiler()
        profiler.observe_batch(queries(95, 5))
        profile = profiler.snapshot()
        assert profile.get_ratio == pytest.approx(0.95)
        assert profile.batch_queries == 100

    def test_average_sizes(self):
        profiler = WorkloadProfiler()
        profiler.observe_batch(queries(0, 10, key_size=32, value_size=128))
        profile = profiler.snapshot()
        assert profile.avg_key_size == pytest.approx(32.0)
        assert profile.avg_value_size == pytest.approx(128.0)

    def test_get_value_sizes_via_observation(self):
        profiler = WorkloadProfiler()
        profiler.observe_batch(queries(10, 0))
        for _ in range(10):
            profiler.observe_value_size(200)
        profile = profiler.snapshot()
        assert profile.avg_value_size == pytest.approx(200.0)

    def test_empty_window_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadProfiler().snapshot()

    def test_epoch_advances(self):
        profiler = WorkloadProfiler()
        profiler.observe_batch(queries(1, 0))
        assert profiler.epoch == 0
        profiler.snapshot()
        assert profiler.epoch == 1

    def test_insert_buckets_carried(self):
        profiler = WorkloadProfiler()
        profiler.observe_insert_buckets(3.2)
        profiler.observe_batch(queries(1, 0))
        assert profiler.snapshot().insert_buckets == pytest.approx(3.2)

    def test_window_resets(self):
        profiler = WorkloadProfiler()
        profiler.observe_batch(queries(10, 0))
        profiler.snapshot()
        profiler.observe_batch(queries(0, 10))
        assert profiler.snapshot().get_ratio == 0.0


    def test_value_size_carried_through_a_window_without_sets(self):
        """A GET-only window has no value evidence; it must not report 1.0
        (a 64 -> 1 -> 64 flip re-planned twice per one-datagram window)."""
        profiler = WorkloadProfiler()
        profiler.observe_batch(queries(90, 10, value_size=64))
        assert profiler.snapshot().avg_value_size == 64.0
        profiler.observe_batch(queries(100, 0))
        assert profiler.snapshot().avg_value_size == 64.0
        profiler.observe_batch(queries(0, 5, value_size=256))
        assert profiler.snapshot().avg_value_size == 256.0

    def test_value_size_unknown_until_first_value(self):
        profiler = WorkloadProfiler()
        profiler.observe_batch(queries(10, 0))
        assert profiler.snapshot().avg_value_size == 1.0

    @pytest.mark.parametrize("columnar", [False, True])
    def test_deletes_are_not_value_events(self, columnar):
        """K32/V256 at 45 % SET / 5 % DELETE profiled 230 B: DELETEs were
        averaged in as zero-length values."""
        batch = queries(50, 45, key_size=32, value_size=256)
        batch += [Query(QueryType.DELETE, bytes(32)) for _ in range(5)]
        if columnar:
            from repro.net.wire import QueryColumns

            batch = QueryColumns(
                [q.qtype for q in batch],
                [q.key for q in batch],
                [q.value for q in batch],
                opcodes=np.array([q.qtype.value for q in batch], dtype=np.uint8),
                key_lens=np.array([len(q.key) for q in batch], dtype=np.uint16),
                value_lens=np.array([len(q.value) for q in batch], dtype=np.uint32),
            )
        profiler = WorkloadProfiler()
        profiler.observe_batch(batch)
        profile = profiler.snapshot()
        assert profile.avg_value_size == 256.0
        assert profile.get_ratio == 0.5  # a DELETE is still a non-GET query
        assert profile.avg_key_size == 32.0


class TestWindows:
    """A window is a statistical sample: what closes one."""

    PLANNED = WorkloadProfile(0.95, 16.0, 64.0, 0.0, batch_queries=WINDOW_QUERIES)

    def test_no_reference_closes_at_once(self):
        profiler = WorkloadProfiler()
        assert not profiler.window_ready(None)  # nothing observed yet
        profiler.observe_batch(queries(1, 0))
        assert profiler.window_ready(None)

    def test_steady_window_closes_only_when_full(self):
        profiler = WorkloadProfiler()
        for _ in range(WINDOW_QUERIES // 100):
            assert not profiler.window_ready(self.PLANNED)
            profiler.observe_batch(queries(95, 5))
        profiler.observe_batch(queries(95, 5))
        assert profiler.window_ready(self.PLANNED)

    def test_sampling_noise_does_not_close_early(self):
        """600 queries at p = 0.5 against a planned 0.45 is a 11 % change
        on paper and 2.5 standard errors in fact."""
        planned = WorkloadProfile(0.45, 16.0, 64.0, 0.0, batch_queries=WINDOW_QUERIES)
        profiler = WorkloadProfiler()
        profiler.observe_batch(queries(300, 300))
        assert not profiler.window_ready(planned)

    def test_shift_closes_early_but_not_on_a_handful(self):
        profiler = WorkloadProfiler()
        profiler.observe_batch(queries(50, 50))
        assert not profiler.window_ready(self.PLANNED)  # 100 queries: too few
        while profiler.window_queries < EARLY_CLOSE_MIN_QUERIES:
            profiler.observe_batch(queries(50, 50))
        assert profiler.window_ready(self.PLANNED)

    def test_key_and_value_size_shifts_close_early(self):
        for shifted in (
            queries(95, 5, key_size=128),
            queries(90, 10, value_size=1024),
        ):
            profiler = WorkloadProfiler()
            for _ in range(6):
                profiler.observe_batch(shifted)
            assert profiler.window_ready(self.PLANNED)

    def test_noisy_reference_cannot_support_an_early_close(self):
        """The bootstrap plan may rest on a four-query batch; only a full
        window corrects it."""
        planned = WorkloadProfile(0.25, 16.0, 1.0, 0.0, batch_queries=4)
        profiler = WorkloadProfiler()
        for _ in range(10):
            profiler.observe_batch(queries(95, 5))
        assert not profiler.window_ready(planned)

    def test_skew_comes_from_the_windows_harvested_counts(self):
        ranks = ZipfKeys(32768, skew=0.99, seed=4).sample(3000)
        counts = np.unique(ranks, return_counts=True)[1].tolist()
        profiler = WorkloadProfiler()
        profiler.observe_frequency(counts[0])
        profiler.observe_frequencies(counts[1:])
        profiler.observe_batch(queries(1, 0))
        estimate = estimate_zipf_skew(np.array(counts, dtype=float))
        assert profiler.snapshot().zipf_skew == estimate > 0.3
        # The next window starts with no counts.
        profiler.observe_batch(queries(1, 0))
        assert profiler.snapshot().zipf_skew == 0.0


class TestSkewEstimation:
    def test_uniform_frequencies_estimate_zero(self):
        freqs = np.ones(1000)
        assert estimate_zipf_skew(freqs) == 0.0

    def test_zipf_sample_recovers_exponent(self):
        dist = ZipfKeys(50_000, skew=0.99, seed=21)
        ranks = dist.sample(200_000)
        _, counts = np.unique(ranks, return_counts=True)
        estimate = estimate_zipf_skew(counts.astype(float))
        assert estimate == pytest.approx(0.99, abs=0.25)

    def test_mild_skew_lower_estimate(self):
        strong = ZipfKeys(50_000, skew=1.1, seed=22)
        mild = ZipfKeys(50_000, skew=0.5, seed=22)
        est = {}
        for name, dist in (("strong", strong), ("mild", mild)):
            _, counts = np.unique(dist.sample(100_000), return_counts=True)
            est[name] = estimate_zipf_skew(counts.astype(float))
        assert est["strong"] > est["mild"]

    def test_too_few_samples(self):
        assert estimate_zipf_skew(np.array([5.0, 3.0])) == 0.0

    def test_sample_skewness_symmetry(self):
        symmetric = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert sample_skewness(symmetric) == pytest.approx(0.0, abs=1e-9)

    def test_sample_skewness_right_tail(self):
        right = np.array([1.0] * 50 + [100.0])
        assert sample_skewness(right) > 1.0

    def test_sample_skewness_degenerate(self):
        assert sample_skewness(np.array([2.0, 2.0, 2.0, 2.0])) == 0.0


class TestProfileDelta:
    def base(self):
        return WorkloadProfile(0.95, 16, 64, 0.99)

    def test_identical_not_substantial(self):
        delta = profile_delta(self.base(), self.base())
        assert not delta.substantial
        assert delta.max_change == pytest.approx(0.0)

    def test_value_size_change_detected(self):
        new = WorkloadProfile(0.95, 16, 128, 0.99)
        assert profile_delta(new, self.base()).substantial

    def test_get_ratio_change_detected(self):
        new = WorkloadProfile(0.50, 16, 64, 0.99)
        assert profile_delta(new, self.base()).substantial

    def test_skew_change_detected(self):
        new = WorkloadProfile(0.95, 16, 64, 0.0)
        assert profile_delta(new, self.base()).substantial

    def test_small_drift_ignored(self):
        """Under the 10 % threshold nothing triggers (paper Section III-A)."""
        new = WorkloadProfile(0.93, 16.5, 66, 0.95)
        delta = profile_delta(new, self.base())
        assert delta.max_change < CHANGE_THRESHOLD
        assert not delta.substantial


# --------------------------------------------------------- host cost model

#: Two known lines (us): scalar has no fixed cost, columnar a large one
#: and a small slope; they cross at n* = 120 / (3.0 - 0.6) = 50 rows.
LINES = {"scalar": (0.0, 3.0), "columnar": (120.0, 0.6)}
CROSSOVER = 50.0


def drive(model, lines, windows, rng, sizes=(8, 400), noise=0.05):
    """Run the chooser over ``windows`` synthetic windows whose pass time
    follows ``lines`` (5 % multiplicative noise); returns the picks."""
    picks = []
    for _ in range(windows):
        n = rng.randint(*sizes)
        kernel = model.choose("search", n)
        a, b = lines[kernel]
        model.observe("search", kernel, n, (a + b * n) * rng.uniform(1 - noise, 1 + noise))
        picks.append((n, kernel))
    return picks


class TestLineFit:
    def test_recovers_a_line(self):
        fit = LineFit()
        for n in (10, 50, 200, 30, 400, 120):
            fit.observe(n, 40.0 + 2.5 * n)
        assert fit.a == pytest.approx(40.0, rel=1e-6)
        assert fit.b == pytest.approx(2.5, rel=1e-6)
        assert fit.predict(100) == pytest.approx(290.0, rel=1e-6)

    def test_no_spread_in_n_goes_through_the_origin(self):
        fit = LineFit()
        for _ in range(10):
            fit.observe(40, 120.0)
        assert (fit.a, fit.b) == (0.0, pytest.approx(3.0))

    def test_never_negative(self):
        falling = LineFit()
        for n, t in ((10, 100.0), (100, 50.0), (200, 20.0)):
            falling.observe(n, t)
        assert falling.b == 0.0 and falling.a > 0.0
        steep = LineFit()
        for n, t in ((100, 100.0), (200, 400.0), (300, 700.0)):
            steep.observe(n, t)
        assert steep.a == 0.0 and steep.b > 0.0

    def test_forgets_old_samples(self):
        fit = LineFit()
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(10, 400)
            fit.observe(n, 100.0 + 1.0 * n)
        for _ in range(300):
            n = rng.randint(10, 400)
            fit.observe(n, 10.0 + 4.0 * n)
        assert fit.a == pytest.approx(10.0, abs=2.0)
        assert fit.b == pytest.approx(4.0, rel=0.02)


class TestHostCostModel:
    def test_bootstrap_alternates_until_both_fits_exist(self):
        model = HostCostModel()
        picks = drive(model, LINES, 2 * BOOTSTRAP_SAMPLES, random.Random(1))
        kernels = [kernel for _, kernel in picks]
        assert kernels.count("scalar") == kernels.count("columnar") == BOOTSTRAP_SAMPLES
        assert kernels[:4] == ["scalar", "columnar", "scalar", "columnar"]

    def test_recovers_the_crossover_and_picks_the_cheaper_side(self):
        model = HostCostModel()
        rng = random.Random(2)
        drive(model, LINES, 400, rng)
        n_star = model.summary()["search"]["crossover_rows"]
        assert n_star == pytest.approx(CROSSOVER, rel=0.10)
        picks = drive(model, LINES, 640, rng)
        below = [k for n, k in picks if n < 0.8 * CROSSOVER]
        above = [k for n, k in picks if n > 1.25 * CROSSOVER]
        # Everything but the 1-in-RESAMPLE_PERIOD exploration windows —
        # and, above, the windows where this stream's 50-fold swings in
        # ``n`` outran what the scalar fit (fed small windows) remembers.
        assert below.count("scalar") >= len(below) - len(picks) // RESAMPLE_PERIOD
        assert above.count("columnar") >= len(above) - 2 * len(picks) // RESAMPLE_PERIOD
        assert below.count("scalar") > 0.9 * len(below)
        assert above.count("columnar") > 0.9 * len(above)

    def test_refits_after_the_lines_swap(self):
        model = HostCostModel()
        rng = random.Random(3)
        drive(model, LINES, 400, rng)
        swapped = {"scalar": LINES["columnar"], "columnar": LINES["scalar"]}
        drive(model, swapped, 3000, rng)
        picks = drive(model, swapped, 640, rng)
        below = [k for n, k in picks if n < 0.8 * CROSSOVER]
        above = [k for n, k in picks if n > 1.25 * CROSSOVER]
        assert below.count("columnar") > 0.9 * len(below)
        assert above.count("scalar") > 0.9 * len(above)
        assert model.summary()["search"]["crossover_rows"] == pytest.approx(CROSSOVER, rel=0.10)

    def test_key_size_shift_resets_search(self):
        model = HostCostModel()
        rng = random.Random(4)
        model.observe_key_size(16.0)
        drive(model, LINES, 200, rng)
        model.observe_key_size(17.0)  # +6 %: inside the re-plan threshold
        assert model.fit("search", "columnar").samples > BOOTSTRAP_SAMPLES
        model.observe_key_size(32.0)
        assert model.fit("search", "scalar").samples == 0
        assert model.fit("search", "columnar").samples == 0
        # ... and Search bootstraps again.
        kernels = [k for _, k in drive(model, LINES, 4, rng)]
        assert kernels == ["scalar", "columnar", "scalar", "columnar"]
        model.observe_key_size(33.0)  # measured against 32 now, not 16
        assert model.fit("search", "scalar").samples == 2

    def test_steady_windows_explore_on_a_bounded_schedule(self):
        model = HostCostModel()
        picks = drive(model, LINES, 1000, random.Random(6), sizes=(36, 44))
        explored = sum(1 for _, kernel in picks if kernel == "columnar")
        assert BOOTSTRAP_SAMPLES <= explored <= 1000 // RESAMPLE_PERIOD + BOOTSTRAP_SAMPLES
        # ... and the schedule keeps the idle kernel's fit alive.
        assert model.fit("search", "columnar").predict(40) == pytest.approx(144.0, rel=0.1)

    def test_a_jump_in_window_size_is_measured_not_extrapolated(self):
        """After a fifty-fold jump in ``n`` both kernels run within two
        windows, and the cheaper one at the new size is chosen from then
        on — not the idle kernel's line extrapolated from 40-row windows."""
        model = HostCostModel()
        rng = random.Random(11)
        drive(model, LINES, 300, rng, sizes=(18, 40))
        assert model.choose("search", 30) == "scalar"
        picks = [k for _, k in drive(model, LINES, 40, rng, sizes=(1600, 1700))]
        assert set(picks[:2]) == {"scalar", "columnar"}
        # From then on columnar, but for the 1-in-32 slot.
        assert picks[2:].count("columnar") >= len(picks) - 2 - 2
        columnar = model.fit("search", "columnar")
        assert columnar.predict(1650) == pytest.approx(120.0 + 0.6 * 1650, rel=0.10)

    def test_relative_error_once_fitted(self):
        model = HostCostModel()
        for _ in range(BOOTSTRAP_SAMPLES):
            assert model.relative_error("search", "scalar", 20, 60.0) is None
            model.observe("search", "scalar", 20, 60.0)
        assert model.relative_error("search", "scalar", 20, 60.0) == pytest.approx(0.0, abs=1e-9)
        assert model.relative_error("search", "scalar", 20, 120.0) == pytest.approx(0.5)

    def test_summary_is_json_ready(self):
        import json

        model = HostCostModel()
        drive(model, LINES, 100, random.Random(7))
        summary = json.loads(json.dumps(model.summary()))
        assert set(summary) == {"search"}
        assert set(summary["search"]) == {"scalar", "columnar", "crossover_rows"}
        a_us, b_us, samples = summary["search"]["columnar"]
        assert a_us == pytest.approx(120.0, rel=0.15) and b_us == pytest.approx(0.6, rel=0.15)
        assert samples == model.fit("search", "columnar").samples

    def test_profiler_resets_search_when_a_window_closes_on_new_key_sizes(self):
        profiler = WorkloadProfiler()
        model = profiler.host_costs
        profiler.observe_batch(queries(90, 10, key_size=16))
        profiler.snapshot()
        drive(model, LINES, 50, random.Random(8))
        profiler.observe_batch(queries(90, 10, key_size=16))
        profiler.snapshot()
        assert model.fit("search", "scalar").samples > 0
        profiler.observe_batch(queries(90, 10, key_size=32))
        profiler.snapshot()
        assert model.fit("search", "scalar").samples == 0
