"""Unit tests for the workload profiler and skew estimator."""

import numpy as np
import pytest

from repro.core.profiler import (
    CHANGE_THRESHOLD,
    EARLY_CLOSE_MIN_QUERIES,
    WINDOW_QUERIES,
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
