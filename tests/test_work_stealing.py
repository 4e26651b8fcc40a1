"""Unit tests for the Equation-3 stealing estimate."""

import pytest

from repro.core.work_stealing import plan_steal
from repro.errors import ConfigurationError


class TestPlanSteal:
    def test_no_steal_when_helper_busy(self):
        outcome = plan_steal(t_owner_work=100.0, t_helper_own=120.0, t_helper_work=50.0)
        assert outcome.finish_ns == 100.0
        assert outcome.stolen_fraction == 0.0

    def test_paper_equation_form(self):
        """T = T_B + T^CPU_A (T^GPU_A - T_B) / (T^CPU_A + T^GPU_A)."""
        t_gpu_a, t_b, t_cpu_a = 300.0, 100.0, 200.0
        outcome = plan_steal(t_gpu_a, t_b, t_cpu_a)
        expected = t_b + t_cpu_a * (t_gpu_a - t_b) / (t_cpu_a + t_gpu_a)
        assert outcome.finish_ns == pytest.approx(expected)

    def test_finish_between_helper_own_and_owner(self):
        outcome = plan_steal(300.0, 100.0, 200.0)
        assert 100.0 < outcome.finish_ns < 300.0

    def test_fast_helper_steals_more(self):
        slow = plan_steal(300.0, 100.0, 600.0)
        fast = plan_steal(300.0, 100.0, 150.0)
        assert fast.stolen_fraction > slow.stolen_fraction
        assert fast.finish_ns < slow.finish_ns

    def test_idle_helper_from_zero(self):
        outcome = plan_steal(300.0, 0.0, 300.0)
        # Equal speeds, helper free the whole time: work splits in half.
        assert outcome.finish_ns == pytest.approx(150.0)
        assert outcome.stolen_fraction == pytest.approx(0.5)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_steal(-1.0, 0.0, 1.0)

    def test_zero_helper_work_time(self):
        outcome = plan_steal(100.0, 10.0, 0.0)
        assert outcome.stolen_fraction == 0.0
