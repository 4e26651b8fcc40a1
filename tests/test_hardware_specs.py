"""Unit tests for platform and processor specifications."""

import pytest

from repro.errors import ConfigurationError
from repro.hardware.specs import (
    APU_A10_7850K,
    DISCRETE_MEGAKV,
    PlatformSpec,
    ProcessorKind,
    ProcessorSpec,
)


class TestProcessorSpec:
    def test_apu_cpu_shape(self):
        cpu = APU_A10_7850K.cpu
        assert cpu.kind is ProcessorKind.CPU
        assert cpu.cores == 4
        assert cpu.clock_ghz == pytest.approx(3.7)

    def test_apu_gpu_shape(self):
        gpu = APU_A10_7850K.gpu
        assert gpu.kind is ProcessorKind.GPU
        assert gpu.cores == 8
        assert gpu.lanes_per_core == 64
        assert gpu.total_lanes == 512

    def test_cycle_ns(self):
        assert APU_A10_7850K.cpu.cycle_ns == pytest.approx(1 / 3.7)

    def test_instruction_time(self):
        cpu = APU_A10_7850K.cpu
        assert cpu.instruction_time_ns(cpu.ipc) == pytest.approx(cpu.cycle_ns)

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigurationError):
            ProcessorSpec(
                name="bad", kind=ProcessorKind.CPU, cores=0, lanes_per_core=1,
                clock_ghz=1.0, ipc=1.0, mem_latency_ns=1, cache_latency_ns=1,
                cache_line_bytes=64, cache_size_bytes=1024,
            )

    def test_gpu_requires_saturation_batch(self):
        with pytest.raises(ConfigurationError):
            ProcessorSpec(
                name="bad", kind=ProcessorKind.GPU, cores=1, lanes_per_core=64,
                clock_ghz=1.0, ipc=1.0, mem_latency_ns=1, cache_latency_ns=1,
                cache_line_bytes=64, cache_size_bytes=1024,
            )


class TestPlatformSpec:
    def test_apu_is_coupled(self):
        assert APU_A10_7850K.coupled

    def test_discrete_has_pcie(self):
        assert not DISCRETE_MEGAKV.coupled
        assert DISCRETE_MEGAKV.pcie_bandwidth_gbs > 0

    def test_shared_memory_matches_paper(self):
        assert APU_A10_7850K.shared_memory_bytes == 1908 * 1024 * 1024

    def test_price_ratio_matches_paper(self):
        """The paper: discrete processors cost ~25x the APU."""
        ratio = DISCRETE_MEGAKV.price_usd / APU_A10_7850K.price_usd
        assert ratio == pytest.approx(25.0)

    def test_tdp_matches_paper(self):
        assert APU_A10_7850K.tdp_watts == pytest.approx(95.0)
        assert DISCRETE_MEGAKV.tdp_watts == pytest.approx(2 * 95 + 2 * 250)

    def test_processor_lookup(self):
        assert APU_A10_7850K.processor(ProcessorKind.CPU) is APU_A10_7850K.cpu
        assert APU_A10_7850K.processor(ProcessorKind.GPU) is APU_A10_7850K.gpu

    def test_cpu_gpu_swapped_rejected(self):
        with pytest.raises(ConfigurationError):
            PlatformSpec(
                name="bad",
                cpu=APU_A10_7850K.gpu,
                gpu=APU_A10_7850K.cpu,
                coupled=True,
                memory_bandwidth_gbs=20.0,
                shared_memory_bytes=1 << 30,
                price_usd=100.0,
                tdp_watts=95.0,
            )
