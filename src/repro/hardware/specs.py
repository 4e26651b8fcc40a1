"""Platform specifications for the coupled APU and the discrete baseline.

The numbers mirror the hardware the paper reports (Section V-A):

* **Coupled**: AMD A10-7850K Kaveri APU — four 3.7 GHz CPU cores plus eight
  GPU compute units of 64 shaders at 720 MHz, sharing 4x4 GB DDR3-1333
  through hUMA; 1,908 MB of that memory is CPU/GPU-shareable; TDP 95 W.
* **Discrete**: two Intel E5-2650 v2 CPUs and two Nvidia GTX 780 GPUs
  connected over PCIe 3.0 (the Mega-KV testbed).

Latency and bandwidth figures are public datasheet/measurement ballparks,
and the derived simulator is calibrated so that the *relationships* the
paper reports (stage times, utilisation, speedup ordering) hold; absolute
nanoseconds are not claims about the real silicon.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError


class ProcessorKind(enum.Enum):
    """Which side of the heterogeneous platform a processor belongs to."""

    CPU = "cpu"
    GPU = "gpu"


@dataclass(frozen=True)
class ProcessorSpec:
    """A CPU socket group or a GPU, described at the level the cost model needs.

    Attributes
    ----------
    name:
        Human-readable model name.
    kind:
        :class:`ProcessorKind` — selects the execution-time model.
    cores:
        Physical CPU cores, or GPU compute units.
    lanes_per_core:
        SIMT width per compute unit (1 for CPU cores, 64 for GCN CUs).
    clock_ghz:
        Core clock in GHz.
    ipc:
        Peak instructions per cycle per lane (paper Table I, ``IPC^XPU``).
    mem_latency_ns:
        Effective latency of one random memory access as seen by one
        thread (``L^XPU_M``); for GPUs this is the raw latency *before*
        wavefront latency hiding, which :func:`gpu_task_time_ns` applies.
    cache_latency_ns:
        Latency of an L2 cache hit (``L^XPU_C``).
    cache_line_bytes:
        Cache line size (``C^XPU``), used to split object accesses into one
        memory access plus trailing cache-line accesses (Section IV-B).
    cache_size_bytes:
        Capacity of the last-level cache usable for hot key-value objects.
    mem_parallelism:
        Outstanding memory requests a single core can keep in flight
        (memory-level parallelism); divides the effective random-access
        latency for batched independent accesses.
    saturation_batch:
        GPU only — the batch size at which the device reaches half of its
        peak efficiency.  Models the paper's observation that "GPUs are
        extremely inefficient at handling small batches" (Section II-C2).
    kernel_launch_ns:
        GPU only — fixed per-kernel-launch overhead.
    atomic_penalty:
        Multiplier on instruction cost for atomic-heavy tasks (Insert and
        Delete use compare-exchange; Section III-B2).
    random_access_bandwidth_gbs:
        GPU only — effective DRAM bandwidth available to scattered
        cache-line-granularity accesses (0 = unbounded).  A latency-hiding
        GPU is throughput-bound by this, not by per-access latency: on the
        APU the integrated GPU shares low DDR3 bandwidth (the paper's
        Section II-A caveat), while discrete GDDR5 is an order of magnitude
        faster.
    """

    name: str
    kind: ProcessorKind
    cores: int
    lanes_per_core: int
    clock_ghz: float
    ipc: float
    mem_latency_ns: float
    cache_latency_ns: float
    cache_line_bytes: int
    cache_size_bytes: int
    mem_parallelism: float = 1.0
    saturation_batch: int = 0
    kernel_launch_ns: float = 0.0
    atomic_penalty: float = 1.0
    random_access_bandwidth_gbs: float = 0.0

    def __post_init__(self) -> None:
        if self.cores <= 0 or self.lanes_per_core <= 0:
            raise ConfigurationError(f"{self.name}: core/lane counts must be positive")
        if self.clock_ghz <= 0 or self.ipc <= 0:
            raise ConfigurationError(f"{self.name}: clock and IPC must be positive")
        if self.kind is ProcessorKind.GPU and self.saturation_batch <= 0:
            raise ConfigurationError(f"{self.name}: a GPU needs saturation_batch > 0")

    @property
    def total_lanes(self) -> int:
        """Total hardware execution lanes (cores x SIMT width)."""
        return self.cores * self.lanes_per_core

    @property
    def cycle_ns(self) -> float:
        """Duration of one clock cycle in nanoseconds."""
        return 1.0 / self.clock_ghz

    def instruction_time_ns(self, instructions: float) -> float:
        """Time for ``instructions`` on a single lane at peak IPC."""
        return instructions / self.ipc * self.cycle_ns


@dataclass(frozen=True)
class PlatformSpec:
    """A complete evaluation platform: one CPU group, one GPU, shared memory.

    ``coupled`` distinguishes the APU (single address space, no explicit
    transfers, strong interference) from a discrete machine (separate
    memories joined by PCIe, negligible cross-interference).
    """

    name: str
    cpu: ProcessorSpec
    gpu: ProcessorSpec
    coupled: bool
    memory_bandwidth_gbs: float
    shared_memory_bytes: int
    price_usd: float
    tdp_watts: float
    pcie_bandwidth_gbs: float = 0.0
    pcie_latency_us: float = 0.0
    interference_strength: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu.kind is not ProcessorKind.CPU:
            raise ConfigurationError("PlatformSpec.cpu must be a CPU spec")
        if self.gpu.kind is not ProcessorKind.GPU:
            raise ConfigurationError("PlatformSpec.gpu must be a GPU spec")
        if not self.coupled and self.pcie_bandwidth_gbs <= 0:
            raise ConfigurationError("a discrete platform needs PCIe bandwidth")

    def processor(self, kind: ProcessorKind) -> ProcessorSpec:
        """Return the processor spec of the requested ``kind``."""
        return self.cpu if kind is ProcessorKind.CPU else self.gpu


#: CPU half of the A10-7850K: four Steamroller cores at 3.7 GHz.  The 4 MB
#: L2 is the only large cache and is what caches the Zipf hot set.
_APU_CPU = ProcessorSpec(
    name="A10-7850K CPU (4 cores @ 3.7 GHz)",
    kind=ProcessorKind.CPU,
    cores=4,
    lanes_per_core=1,
    clock_ghz=3.7,
    ipc=2.0,
    mem_latency_ns=78.0,
    cache_latency_ns=7.0,
    cache_line_bytes=64,
    cache_size_bytes=4 * 1024 * 1024,
    mem_parallelism=2.0,
)

#: GPU half of the A10-7850K: eight GCN compute units, 64 shaders each, at
#: 720 MHz.  No large cache; random accesses always hit DRAM, but wavefront
#: scheduling hides latency once the batch is large (``saturation_batch``).
_APU_GPU = ProcessorSpec(
    name="A10-7850K GPU (8 CUs @ 720 MHz)",
    kind=ProcessorKind.GPU,
    cores=8,
    lanes_per_core=64,
    clock_ghz=0.72,
    ipc=1.0,
    mem_latency_ns=220.0,
    cache_latency_ns=40.0,
    cache_line_bytes=64,
    cache_size_bytes=512 * 1024,
    mem_parallelism=1.0,
    saturation_batch=2500,
    kernel_launch_ns=9000.0,
    atomic_penalty=3.0,
    random_access_bandwidth_gbs=20.0,
)

#: The coupled platform used throughout the paper's evaluation.
APU_A10_7850K = PlatformSpec(
    name="AMD A10-7850K Kaveri APU",
    cpu=_APU_CPU,
    gpu=_APU_GPU,
    coupled=True,
    memory_bandwidth_gbs=21.3,  # dual-channel DDR3-1333
    shared_memory_bytes=1908 * 1024 * 1024,
    price_usd=173.0,
    tdp_watts=95.0,
    interference_strength=0.55,
)

#: Two E5-2650 v2 sockets (2 x 8 cores @ 2.6 GHz) of the Mega-KV testbed.
XEON_E5_2650V2_PAIR = ProcessorSpec(
    name="2x Intel E5-2650 v2 (16 cores @ 2.6 GHz)",
    kind=ProcessorKind.CPU,
    cores=16,
    lanes_per_core=1,
    clock_ghz=2.6,
    ipc=3.5,
    mem_latency_ns=75.0,
    cache_latency_ns=4.0,
    cache_line_bytes=64,
    cache_size_bytes=2 * 20 * 1024 * 1024,
    mem_parallelism=10.0,
)

#: Two GTX 780 cards: 2 x 12 SMX, modelled as wide 64-lane units at boost
#: clock, with high-bandwidth GDDR5 behind them.
GPU_GTX780_PAIR = ProcessorSpec(
    name="2x Nvidia GTX 780 (24 SMX @ 900 MHz)",
    kind=ProcessorKind.GPU,
    cores=24,
    lanes_per_core=64,
    clock_ghz=0.9,
    ipc=1.2,
    mem_latency_ns=40.0,
    cache_latency_ns=10.0,
    cache_line_bytes=128,
    cache_size_bytes=2 * 1536 * 1024,
    mem_parallelism=1.0,
    saturation_batch=9000,
    kernel_launch_ns=12000.0,
    atomic_penalty=2.0,
    random_access_bandwidth_gbs=190.0,
)

#: The discrete Mega-KV platform (paper Section V-E).  The paper notes the
#: processor price is ~25x the APU's.
DISCRETE_MEGAKV = PlatformSpec(
    name="Mega-KV discrete testbed (2x E5-2650v2 + 2x GTX780)",
    cpu=XEON_E5_2650V2_PAIR,
    gpu=GPU_GTX780_PAIR,
    coupled=False,
    memory_bandwidth_gbs=102.0,  # host DDR3 quad-channel x2 sockets
    shared_memory_bytes=64 * 1024 * 1024 * 1024,
    price_usd=173.0 * 25.0,
    tdp_watts=2 * 95.0 + 2 * 250.0,
    pcie_bandwidth_gbs=24.0,  # two cards, two x16 links
    pcie_latency_us=10.0,
    interference_strength=0.05,
)
