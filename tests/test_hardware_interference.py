"""Unit tests for the CPU/GPU interference model (mu)."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.interference import InterferenceModel
from repro.hardware.specs import APU_A10_7850K, DISCRETE_MEGAKV, ProcessorKind


@pytest.fixture
def model():
    return InterferenceModel(APU_A10_7850K)


class TestMu:
    def test_no_other_traffic_no_slowdown(self, model):
        assert model.mu(ProcessorKind.CPU, 1e8, 0.0) == pytest.approx(1.0)
        assert model.mu(ProcessorKind.GPU, 0.0, 1e8) == pytest.approx(1.0)

    def test_mu_at_least_one(self, model):
        for cpu_rate in (0.0, 1e7, 1e8):
            for gpu_rate in (0.0, 1e7, 1e8):
                assert model.mu(ProcessorKind.CPU, cpu_rate, gpu_rate) >= 1.0
                assert model.mu(ProcessorKind.GPU, cpu_rate, gpu_rate) >= 1.0

    def test_gpu_hurts_cpu_more_than_vice_versa(self, model):
        """Paper (citing Kayiran et al.): GPUs impact CPUs more."""
        rate = 2e8
        mu_cpu = model.mu(ProcessorKind.CPU, rate, rate)
        mu_gpu = model.mu(ProcessorKind.GPU, rate, rate)
        assert mu_cpu > mu_gpu

    def test_monotone_in_other_traffic(self, model):
        rates = (1e7, 5e7, 2e8, 5e8)
        mus = [model.mu(ProcessorKind.CPU, 1e8, g) for g in rates]
        assert mus == sorted(mus)

    def test_pressure_gates_effect(self, model):
        """Tiny combined traffic causes almost no slowdown."""
        assert model.mu(ProcessorKind.CPU, 1e4, 1e4) < 1.01

    def test_discrete_platform_negligible(self):
        model = InterferenceModel(DISCRETE_MEGAKV)
        assert model.mu(ProcessorKind.CPU, 5e8, 5e8) < 1.06

    def test_negative_rate_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.mu(ProcessorKind.CPU, -1.0, 0.0)
