"""CPU/GPU shared-memory interference model (the paper's ``mu`` factor).

On a coupled architecture the CPU and the GPU contend for the same DRAM
channels, so running both concurrently slows each of them down — and the
GPU, being the heavier traffic source, hurts the CPU more than vice versa
(paper Section IV, citing Kayiran et al., MICRO-47).

The paper measures ``mu^XPU_{N_C, N_G}`` with a microbenchmark that issues
``N_C`` memory accesses from the CPU concurrently with ``N_G`` from the GPU.
We reproduce that shape analytically: each processor's latency inflates with
the *other* processor's share of total traffic, weighted by the platform's
``interference_strength`` and by how far combined demand pushes into the
available bandwidth.  A discrete platform has near-zero strength (separate
memories), so ``mu ~ 1`` there.

The paper measures once and looks the factors up at runtime; the model
here is continuous, so :class:`InterferenceModel` evaluates it directly
instead of sampling it into a table.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hardware.specs import PlatformSpec, ProcessorKind

#: Asymmetry between directions: GPU traffic hurts the CPU roughly this much
#: more than CPU traffic hurts the GPU (the GPU tolerates latency by
#: switching wavefronts; the CPU stalls).
_CPU_SENSITIVITY = 1.0
_GPU_SENSITIVITY = 0.35


def _mu(
    own_accesses: float,
    other_accesses: float,
    strength: float,
    sensitivity: float,
    bandwidth_pressure: float,
) -> float:
    """Latency inflation factor for one side of the chip.

    ``bandwidth_pressure`` in [0, 1] scales the effect by how close combined
    traffic is to saturating DRAM; with no pressure there is no slowdown.
    """
    total = own_accesses + other_accesses
    if total <= 0.0 or other_accesses <= 0.0:
        return 1.0
    other_share = other_accesses / total
    return 1.0 + strength * sensitivity * other_share * bandwidth_pressure


class InterferenceModel:
    """Serves ``mu`` factors for a platform, per paper Table I."""

    #: Random accesses per second at which bandwidth pressure saturates.
    #: One random access moves one cache line (64 B); DRAM efficiency on
    #: scattered traffic is far below peak, so pressure builds early.
    _RANDOM_ACCESS_EFFICIENCY = 0.35

    def __init__(self, platform: PlatformSpec):
        self._platform = platform
        line = platform.cpu.cache_line_bytes
        peak = platform.memory_bandwidth_gbs * 1e9 * self._RANDOM_ACCESS_EFFICIENCY
        self._saturation_accesses_per_s = peak / line

    @property
    def platform(self) -> PlatformSpec:
        return self._platform

    def _pressure(self, cpu_rate: float, gpu_rate: float) -> float:
        """Bandwidth pressure in [0, 1] for given access rates (accesses/s)."""
        if self._saturation_accesses_per_s <= 0:
            return 0.0
        return min(1.0, (cpu_rate + gpu_rate) / self._saturation_accesses_per_s)

    def mu(
        self,
        kind: ProcessorKind,
        cpu_rate: float,
        gpu_rate: float,
    ) -> float:
        """``mu^XPU`` for concurrent access rates (random accesses per second).

        ``kind`` selects whose slowdown is being asked for.
        """
        if cpu_rate < 0 or gpu_rate < 0:
            raise ConfigurationError("access rates must be non-negative")
        pressure = self._pressure(cpu_rate, gpu_rate)
        strength = self._platform.interference_strength
        if kind is ProcessorKind.CPU:
            return _mu(cpu_rate, gpu_rate, strength, _CPU_SENSITIVITY, pressure)
        return _mu(gpu_rate, cpu_rate, strength, _GPU_SENSITIVITY, pressure)
