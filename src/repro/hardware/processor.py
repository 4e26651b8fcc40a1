"""Execution-time models for CPU cores and GPU compute units.

Implements the per-task half of the paper's Equation 1,

``T^XPU_F = N x (I^XPU_F / IPC^XPU + N^M_F L^XPU_M + N^C_F L^XPU_C)``

specialised by processor kind:

* **CPU** — ``N`` queries are divided across the cores allocated to the
  stage; each core executes sequentially at peak IPC with its memory-level
  parallelism overlapping independent misses.
* **GPU** — the batch is spread over all SIMT lanes, but small batches leave
  most of the device idle.  We model occupancy with a saturating efficiency
  curve ``eff(N) = N / (N + N_sat)`` plus a fixed kernel-launch overhead,
  which reproduces the paper's Figure 6 observation (a 5 % Insert/Delete
  share of operations consuming 35–56 % of GPU time) and the low GPU
  utilisation of Figure 5.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hardware.memory import AccessPattern, access_cost_ns
from repro.hardware.specs import ProcessorKind, ProcessorSpec


#: DRAM cost of a per-thread sequential line relative to a random line on
#: the GPU.  One SIMT thread walking one object byte-by-byte is the classic
#: *uncoalesced* pattern: consecutive lines of the same object are fetched
#: by the same lane in separate transactions, so they cost nearly as much
#: as random lines (this is why the paper finds the GPU "low efficient for
#: reading or writing large size data", Section V-D3).
_SEQUENTIAL_LINE_COST = 1.0

#: Bus-traffic multiplier for atomic compare-exchange operations: an atomic
#: is a read-modify-write (two bus crossings) plus contention retries.
_ATOMIC_BUS_FACTOR = 1.6


def cpu_task_time_ns(
    proc: ProcessorSpec,
    batch: int,
    instructions: float,
    pattern: AccessPattern,
    *,
    cores: int,
    interference: float = 1.0,
) -> float:
    """Execution time of a batch on ``cores`` CPU cores.

    ``instructions`` and ``pattern`` are per-query figures; the batch is
    split evenly across the allocated cores.
    """
    if proc.kind is not ProcessorKind.CPU:
        raise ConfigurationError("cpu_task_time_ns needs a CPU spec")
    if cores <= 0:
        raise ConfigurationError("a CPU stage needs at least one core")
    if batch <= 0:
        return 0.0
    per_query_ns = proc.instruction_time_ns(instructions) + access_cost_ns(
        pattern, proc, interference=interference
    )
    return batch * per_query_ns / min(cores, proc.cores)


def gpu_batch_efficiency(proc: ProcessorSpec, batch: int) -> float:
    """Occupancy efficiency of the GPU for a batch of ``batch`` queries.

    Saturating curve in ``(0, 1)``: half efficiency at ``saturation_batch``.
    A batch must also fill whole wavefronts, so tiny batches are rounded up
    to one wavefront of work.
    """
    if proc.kind is not ProcessorKind.GPU:
        raise ConfigurationError("gpu_batch_efficiency needs a GPU spec")
    if batch <= 0:
        return 0.0
    return batch / (batch + proc.saturation_batch)


def gpu_task_time_ns(
    proc: ProcessorSpec,
    batch: int,
    instructions: float,
    pattern: AccessPattern,
    *,
    interference: float = 1.0,
    atomic: bool = False,
) -> float:
    """Execution time of one GPU kernel over a batch.

    The whole-device service rate is ``total_lanes x eff(batch)`` queries in
    flight; the per-query latency is divided by that effective parallelism
    and a fixed kernel-launch overhead is added.  ``atomic`` applies the
    spec's serialisation penalty (Insert/Delete use compare-exchange).
    """
    if proc.kind is not ProcessorKind.GPU:
        raise ConfigurationError("gpu_task_time_ns needs a GPU spec")
    if batch <= 0:
        return 0.0
    instr = instructions * (proc.atomic_penalty if atomic else 1.0)
    per_query_ns = proc.instruction_time_ns(instr) + access_cost_ns(
        pattern, proc, interference=interference
    )
    efficiency = gpu_batch_efficiency(proc, batch)
    effective_lanes = proc.total_lanes * efficiency
    lane_bound_ns = batch * per_query_ns / effective_lanes
    # A latency-hiding GPU is ultimately throughput-bound by the DRAM
    # service rate for scattered cache-line accesses; small batches cannot
    # generate enough outstanding misses to reach even that.
    bandwidth_bound_ns = 0.0
    if proc.random_access_bandwidth_gbs > 0:
        # The integrated GPU's cache is tiny, so "cache" accesses (the
        # sequential trailing lines of an object) are still DRAM traffic —
        # coalesced, hence cheaper than random lines, but not free.  This is
        # why the paper finds GPUs "low efficient for reading or writing
        # large size data" (Section V-D3).
        line_equivalents = pattern.memory_accesses + _SEQUENTIAL_LINE_COST * pattern.cache_accesses
        if atomic:
            line_equivalents *= _ATOMIC_BUS_FACTOR
        bytes_touched = batch * line_equivalents * proc.cache_line_bytes
        if bytes_touched > 0:
            bandwidth_bound_ns = (
                bytes_touched
                / (proc.random_access_bandwidth_gbs * efficiency)
                * interference
            )
    return proc.kernel_launch_ns + max(lane_bound_ns, bandwidth_bound_ns)
