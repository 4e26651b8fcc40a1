"""Unit tests for CPU/GPU execution-time models."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.memory import AccessPattern
from repro.hardware.processor import (
    cpu_task_time_ns,
    gpu_batch_efficiency,
    gpu_task_time_ns,
)
from repro.hardware.specs import APU_A10_7850K

CPU = APU_A10_7850K.cpu
GPU = APU_A10_7850K.gpu
NOMEM = AccessPattern(0.0, 0.0)


class TestCpuModel:
    def test_scales_linearly_with_batch(self):
        t1 = cpu_task_time_ns(CPU, 1000, 100, NOMEM, cores=1)
        t2 = cpu_task_time_ns(CPU, 2000, 100, NOMEM, cores=1)
        assert t2 == pytest.approx(2 * t1)

    def test_cores_divide_time(self):
        t1 = cpu_task_time_ns(CPU, 1000, 100, NOMEM, cores=1)
        t2 = cpu_task_time_ns(CPU, 1000, 100, NOMEM, cores=2)
        assert t2 == pytest.approx(t1 / 2)

    def test_cores_capped_at_physical(self):
        t4 = cpu_task_time_ns(CPU, 1000, 100, NOMEM, cores=4)
        t8 = cpu_task_time_ns(CPU, 1000, 100, NOMEM, cores=8)
        assert t8 == pytest.approx(t4)

    def test_memory_term(self):
        t = cpu_task_time_ns(CPU, 1, 0, AccessPattern(1.0, 0.0), cores=1)
        assert t == pytest.approx(CPU.mem_latency_ns / CPU.mem_parallelism)

    def test_zero_batch(self):
        assert cpu_task_time_ns(CPU, 0, 100, NOMEM, cores=1) == 0.0

    def test_rejects_gpu_spec(self):
        with pytest.raises(ConfigurationError):
            cpu_task_time_ns(GPU, 10, 1, NOMEM, cores=1)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            cpu_task_time_ns(CPU, 10, 1, NOMEM, cores=0)


class TestGpuEfficiency:
    def test_monotone_in_batch(self):
        effs = [gpu_batch_efficiency(GPU, n) for n in (64, 512, 4096, 32768)]
        assert effs == sorted(effs)

    def test_half_at_saturation_batch(self):
        assert gpu_batch_efficiency(GPU, GPU.saturation_batch) == pytest.approx(0.5)

    def test_bounded(self):
        assert 0.0 < gpu_batch_efficiency(GPU, 1) < 1.0
        assert gpu_batch_efficiency(GPU, 10**9) < 1.0

    def test_zero_batch(self):
        assert gpu_batch_efficiency(GPU, 0) == 0.0

    def test_rejects_cpu_spec(self):
        with pytest.raises(ConfigurationError):
            gpu_batch_efficiency(CPU, 100)


class TestGpuModel:
    def test_kernel_launch_floor(self):
        t = gpu_task_time_ns(GPU, 1, 1, NOMEM)
        assert t >= GPU.kernel_launch_ns

    def test_small_batch_per_query_penalty(self):
        """Per-query cost falls as the batch grows — the Figure 6 effect."""
        per_query_small = gpu_task_time_ns(GPU, 256, 100, AccessPattern(1.5, 0.5)) / 256
        per_query_large = gpu_task_time_ns(GPU, 32768, 100, AccessPattern(1.5, 0.5)) / 32768
        assert per_query_small > 3 * per_query_large

    def test_atomic_penalty_increases_time(self):
        plain = gpu_task_time_ns(GPU, 4096, 100, AccessPattern(2.0, 0.0))
        atomic = gpu_task_time_ns(GPU, 4096, 100, AccessPattern(2.0, 0.0), atomic=True)
        assert atomic > plain

    def test_bandwidth_bound_dominates_memory_heavy_work(self):
        """A memory-heavy kernel's time tracks bytes moved, not lanes."""
        batch = 50000
        light = gpu_task_time_ns(GPU, batch, 10, AccessPattern(1.0, 0.0))
        heavy = gpu_task_time_ns(GPU, batch, 10, AccessPattern(4.0, 0.0))
        assert heavy / light == pytest.approx(4.0, rel=0.1)

    def test_sequential_lines_cost_bandwidth(self):
        """Per-thread object walks are uncoalesced: trailing lines are not
        free on the GPU (Section V-D3's large-value inefficiency)."""
        batch = 50000
        small_obj = gpu_task_time_ns(GPU, batch, 10, AccessPattern(1.0, 0.0))
        big_obj = gpu_task_time_ns(GPU, batch, 10, AccessPattern(1.0, 16.0))
        assert big_obj > 5 * small_obj

    def test_interference_scales_time(self):
        base = gpu_task_time_ns(GPU, 8192, 100, AccessPattern(1.5, 0.0))
        slowed = gpu_task_time_ns(GPU, 8192, 100, AccessPattern(1.5, 0.0), interference=1.4)
        assert slowed > base

    def test_zero_batch(self):
        assert gpu_task_time_ns(GPU, 0, 100, NOMEM) == 0.0

    def test_rejects_cpu_spec(self):
        with pytest.raises(ConfigurationError):
            gpu_task_time_ns(CPU, 10, 1, NOMEM)
