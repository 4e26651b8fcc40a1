"""The eight fine-grained tasks, index operations, affinity, and cost params.

Section III-A partitions query processing into eight tasks, the granularity
of DIDO's pipeline mapping:

==  ====================  =======================================
RV  receive               pull frames from the NIC RX ring
PP  packet processing     UDP/parse queries from frame payloads
MM  memory management     allocate/evict slab space for SETs
IN  index operations      Search / Insert / Delete on the index
KC  key comparison        verify full keys against candidates
RD  read value            fetch value bytes from the heap
WR  write response        build response payloads
SD  send                  push frames to the NIC TX ring
==  ====================  =======================================

RV and SD are pinned to the CPU (they talk to the NIC); MM, PP and WR also
stay on the CPU in this reproduction (the paper's DIDO never offloads them
and MM mutates global allocator state), leaving IN, KC, RD GPU-eligible —
exactly the tasks the paper's chosen pipelines move.

Index operations are themselves placeable: Insert and Delete can run on the
CPU stage that generates them (flexible index-operation assignment, Section
III-B2) instead of riding along with Search.

:class:`TaskModel` turns a workload profile into per-task instruction counts
and :class:`~repro.hardware.memory.AccessPattern` objects — the ``I_F``,
``N^M_F`` and ``N^C_F`` of the paper's Table I.  The raw constants live in
:class:`CalibrationConstants` so the calibration procedure and ablation
benchmarks can vary them in one place.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.hardware.memory import AccessPattern, object_access_pattern
from repro.net.packets import ETHERNET_MTU, FRAME_HEADER_BYTES


class Task(enum.Enum):
    """The eight fine-grained tasks, in canonical pipeline order."""

    RV = 0
    PP = 1
    MM = 2
    IN = 3
    KC = 4
    RD = 5
    WR = 6
    SD = 7

    def __lt__(self, other: "Task") -> bool:
        if not isinstance(other, Task):
            return NotImplemented
        return self.value < other.value


#: Canonical processing order; stages must be contiguous slices of this.
TASK_ORDER: tuple[Task, ...] = tuple(Task)

#: Tasks that must run on the CPU (NIC access / global allocator state).
CPU_ONLY_TASKS: frozenset[Task] = frozenset({Task.RV, Task.PP, Task.MM, Task.WR, Task.SD})

#: Tasks the GPU may execute (the ones the paper's pipelines move).
GPU_ELIGIBLE_TASKS: frozenset[Task] = frozenset({Task.IN, Task.KC, Task.RD})

#: Task affinity pairs (predecessor, successor): placing both in one stage
#: lets the successor find its data in cache (Section III-B1).  KC pulls
#: objects in for RD; RD leaves the value in cache for WR.
AFFINITY_PAIRS: tuple[tuple[Task, Task], ...] = ((Task.KC, Task.RD), (Task.RD, Task.WR))


class IndexOp(enum.Enum):
    """The three index operations, independently placeable (Section III-B2)."""

    SEARCH = "search"
    INSERT = "insert"
    DELETE = "delete"


#: Per-object header bytes the KC task reads besides the key itself.
OBJECT_HEADER_BYTES = 16


@dataclass(frozen=True)
class CalibrationConstants:
    """Raw per-task cost constants (instructions and access counts per query).

    These are the calibration surface of the reproduction: they were tuned
    once so the Mega-KV baseline reproduces the stage-time and utilisation
    shapes of the paper's Figures 4-6, then frozen.  ``*_instr`` values are
    instruction counts; ``*_mem`` / ``*_cache`` are random-DRAM and L2
    access counts (per query unless stated otherwise).
    """

    # RV/SD: mostly per-frame driver work, amortised over queries per frame.
    rv_instr_per_query: float = 8.0
    rv_instr_per_frame: float = 250.0
    rv_mem_per_frame: float = 1.0
    sd_instr_per_query: float = 8.0
    sd_instr_per_frame: float = 250.0
    sd_mem_per_frame: float = 1.0

    # PP: parse header + hash the key.
    pp_instr_base: float = 14.0
    pp_instr_per_key_byte: float = 0.1
    pp_mem_per_query: float = 0.02  # frame payload mostly prefetched

    # MM (per SET): slab alloc + LRU + eviction bookkeeping + value copy.
    mm_instr_base: float = 320.0
    mm_mem_per_set: float = 4.5
    mm_cache_per_set: float = 3.0

    # Index operations (per op).
    search_instr: float = 70.0
    insert_instr: float = 140.0
    delete_instr: float = 100.0
    index_cache_per_op: float = 0.5

    # KC: compare full key (object header + key bytes).
    kc_instr_base: float = 40.0
    kc_instr_per_key_byte: float = 0.125

    # RD: read the value.
    rd_instr_base: float = 30.0
    rd_instr_per_value_byte: float = 0.0625

    # WR: build the response.
    wr_instr_base: float = 50.0
    wr_instr_per_resp_byte: float = 0.0625

    # Wire format: query/response header bytes (see repro.kv.protocol).
    query_header_bytes: int = 7
    response_header_bytes: int = 5

    def with_cpu_overhead(self, factor: float) -> "CalibrationConstants":
        """Scale the CPU-side task costs by ``factor``.

        Used to model the Mega-KV OpenCL *port* (paper Section II-C): its
        CPU-side code paths carry porting overhead that DIDO's native
        implementation does not, which is how the paper's Figure 4 (RSV at
        the 300 us cap in Mega-KV) and Figure 13 (large gains from merely
        reassigning index operations inside DIDO's leaner implementation)
        are simultaneously consistent.
        """
        if factor <= 0:
            raise ConfigurationError("overhead factor must be positive")
        updates = {}
        for name in (
            "rv_instr_per_query",
            "rv_instr_per_frame",
            "rv_mem_per_frame",
            "sd_instr_per_query",
            "sd_instr_per_frame",
            "sd_mem_per_frame",
            "pp_instr_base",
            "pp_instr_per_key_byte",
            "pp_mem_per_query",
            "mm_instr_base",
            "mm_mem_per_set",
            "mm_cache_per_set",
            "kc_instr_base",
            "kc_instr_per_key_byte",
            "rd_instr_base",
            "rd_instr_per_value_byte",
            "wr_instr_base",
            "wr_instr_per_resp_byte",
        ):
            updates[name] = getattr(self, name) * factor
        return replace(self, **updates)


DEFAULT_CALIBRATION = CalibrationConstants()


@dataclass(frozen=True)
class TaskDemand:
    """Cost of one task for a batch: executions, per-execution cost terms.

    ``count`` is how many executions the batch triggers (e.g. MM runs once
    per SET, not per query).  ``instructions`` and ``pattern`` are per
    execution.  ``atomic`` marks compare-exchange-heavy work (GPU penalty).
    ``op`` identifies which index operation an IN demand covers (None for
    whole-task demands), so stage-time accounting never relies on list
    positions to pair demands with operations.
    """

    task: Task
    count: float
    instructions: float
    pattern: AccessPattern
    atomic: bool = False
    op: IndexOp | None = None

    @property
    def total_memory_accesses(self) -> float:
        """Random accesses for the whole batch (feeds the interference model)."""
        return self.count * self.pattern.memory_accesses


@dataclass(frozen=True)
class StageContext:
    """Placement facts that change a task's memory pattern.

    Attributes
    ----------
    cache_line_bytes:
        Line size of the processor executing the task.
    with_kc:
        KC runs in the same stage (RD's affinity: object already cached).
    with_rd:
        RD runs in the same stage as WR (value already cached).
    rd_feeds_buffer:
        RD and WR are in *different* stages, so RD must additionally write
        objects into a sequential staging buffer and WR reads that buffer
        sequentially (the random->sequential conversion of Section III-A).
    hot_fraction:
        Fraction of object accesses served by this processor's cache under
        the current key popularity (the cost model's ``P``).
    """

    cache_line_bytes: int
    with_kc: bool = False
    with_rd: bool = False
    rd_feeds_buffer: bool = False
    hot_fraction: float = 0.0


class TaskModel:
    """Computes per-task demands (``I_F``, ``N^M_F``, ``N^C_F``) for a batch.

    Parameters
    ----------
    constants:
        Calibration constants; defaults to the frozen calibrated set.
    """

    def __init__(self, constants: CalibrationConstants = DEFAULT_CALIBRATION):
        self.constants = constants

    # ----------------------------------------------------------- wire sizing

    def queries_per_frame(self, key_size: float, value_size: float, get_ratio: float) -> float:
        """Average queries packed into one MTU frame (paper batches maximally)."""
        c = self.constants
        avg_query = c.query_header_bytes + key_size + (1.0 - get_ratio) * value_size
        return max(1.0, ETHERNET_MTU / avg_query)

    def responses_per_frame(self, value_size: float, get_ratio: float) -> float:
        """Average responses per outgoing frame (GET responses carry values)."""
        c = self.constants
        avg_resp = c.response_header_bytes + get_ratio * value_size
        return max(1.0, ETHERNET_MTU / avg_resp)

    def response_bytes(self, value_size: float, get_ratio: float) -> float:
        """Average response payload bytes per query."""
        return self.constants.response_header_bytes + get_ratio * value_size

    # -------------------------------------------------------------- demands

    def demand(
        self,
        task: Task,
        batch: int,
        *,
        key_size: float,
        value_size: float,
        get_ratio: float,
        context: StageContext,
    ) -> TaskDemand:
        """Demand of ``task`` over a batch of ``batch`` queries.

        The IN task is not handled here — index operations are split per
        :class:`IndexOp` via :meth:`index_demand` so they can be placed
        independently.
        """
        builder = {
            Task.RV: self._rv,
            Task.PP: self._pp,
            Task.MM: self._mm,
            Task.KC: self._kc,
            Task.RD: self._rd,
            Task.WR: self._wr,
            Task.SD: self._sd,
        }.get(task)
        if builder is None:
            raise ConfigurationError(
                "IN demands are produced per index operation; call index_demand"
            )
        return builder(batch, key_size, value_size, get_ratio, context)

    def index_demand(
        self,
        op: IndexOp,
        count: float,
        *,
        search_buckets: float,
        insert_buckets: float,
    ) -> TaskDemand:
        """Demand of ``count`` index operations of kind ``op``.

        ``search_buckets`` is the average buckets probed per Search/Delete
        (theoretically ``(sum i)/n`` for ``n`` hash functions);
        ``insert_buckets`` the measured average buckets written per Insert
        (the paper estimates this at runtime).
        """
        c = self.constants
        if op is IndexOp.SEARCH:
            pattern = AccessPattern(search_buckets, c.index_cache_per_op)
            return TaskDemand(Task.IN, count, c.search_instr, pattern, op=op)
        if op is IndexOp.DELETE:
            pattern = AccessPattern(search_buckets, c.index_cache_per_op)
            return TaskDemand(Task.IN, count, c.delete_instr, pattern, atomic=True, op=op)
        pattern = AccessPattern(insert_buckets, c.index_cache_per_op * 2)
        return TaskDemand(Task.IN, count, c.insert_instr, pattern, atomic=True, op=op)

    # ----------------------------------------------------------- individual

    def _rv(self, batch, key_size, value_size, get_ratio, context) -> TaskDemand:
        c = self.constants
        qpf = self.queries_per_frame(key_size, value_size, get_ratio)
        wire_per_query = (
            c.query_header_bytes
            + key_size
            + (1.0 - get_ratio) * value_size
            + FRAME_HEADER_BYTES / qpf
        )
        instr = c.rv_instr_per_query + c.rv_instr_per_frame / qpf
        pattern = AccessPattern(
            c.rv_mem_per_frame / qpf, wire_per_query / context.cache_line_bytes
        )
        return TaskDemand(Task.RV, batch, instr, pattern)

    def _pp(self, batch, key_size, value_size, get_ratio, context) -> TaskDemand:
        c = self.constants
        instr = c.pp_instr_base + c.pp_instr_per_key_byte * key_size
        payload = c.query_header_bytes + key_size + (1.0 - get_ratio) * value_size
        pattern = AccessPattern(c.pp_mem_per_query, payload / context.cache_line_bytes)
        return TaskDemand(Task.PP, batch, instr, pattern)

    def _mm(self, batch, key_size, value_size, get_ratio, context) -> TaskDemand:
        c = self.constants
        sets = batch * (1.0 - get_ratio)
        copy_lines = (key_size + value_size) / context.cache_line_bytes
        pattern = AccessPattern(c.mm_mem_per_set, c.mm_cache_per_set + copy_lines)
        instr = c.mm_instr_base + (key_size + value_size) * 0.0625
        return TaskDemand(Task.MM, sets, instr, pattern)

    def _kc(self, batch, key_size, value_size, get_ratio, context) -> TaskDemand:
        c = self.constants
        gets = batch * get_ratio
        instr = c.kc_instr_base + c.kc_instr_per_key_byte * key_size
        pattern = object_access_pattern(
            int(key_size) + OBJECT_HEADER_BYTES, context.cache_line_bytes
        ).with_hot_fraction(context.hot_fraction)
        return TaskDemand(Task.KC, gets, instr, pattern)

    def _rd(self, batch, key_size, value_size, get_ratio, context) -> TaskDemand:
        c = self.constants
        gets = batch * get_ratio
        instr = c.rd_instr_base + c.rd_instr_per_value_byte * value_size
        object_bytes = int(key_size + value_size) + OBJECT_HEADER_BYTES
        pattern = object_access_pattern(
            object_bytes, context.cache_line_bytes, already_cached=context.with_kc
        ).with_hot_fraction(context.hot_fraction)
        if context.rd_feeds_buffer:
            # Stage-separated RD also writes the value into a sequential
            # staging buffer for the downstream WR stage.
            buffer_lines = math.ceil(value_size / context.cache_line_bytes)
            pattern = pattern + AccessPattern(0.0, float(buffer_lines))
            instr += c.rd_instr_per_value_byte * value_size
        return TaskDemand(Task.RD, gets, instr, pattern)

    def _wr(self, batch, key_size, value_size, get_ratio, context) -> TaskDemand:
        c = self.constants
        resp_bytes = self.response_bytes(value_size, get_ratio)
        instr = c.wr_instr_base + c.wr_instr_per_resp_byte * resp_bytes
        write_lines = resp_bytes / context.cache_line_bytes
        if context.with_rd:
            # Value still in cache from RD in the same stage.
            source = AccessPattern(0.0, get_ratio * math.ceil(value_size / context.cache_line_bytes))
        else:
            # Read from the sequential staging buffer RD produced.
            source = object_access_pattern(
                int(value_size), context.cache_line_bytes, sequential=True
            ).scaled(get_ratio)
        pattern = source + AccessPattern(0.0, write_lines)
        return TaskDemand(Task.WR, batch, instr, pattern)

    def _sd(self, batch, key_size, value_size, get_ratio, context) -> TaskDemand:
        c = self.constants
        rpf = self.responses_per_frame(value_size, get_ratio)
        instr = c.sd_instr_per_query + c.sd_instr_per_frame / rpf
        resp_bytes = self.response_bytes(value_size, get_ratio)
        pattern = AccessPattern(c.sd_mem_per_frame / rpf, resp_bytes / context.cache_line_bytes)
        return TaskDemand(Task.SD, batch, instr, pattern)


def contiguous_in_order(tasks: tuple[Task, ...]) -> bool:
    """True when ``tasks`` is a contiguous ascending slice of TASK_ORDER."""
    if not tasks:
        return False
    values = [t.value for t in tasks]
    return values == list(range(values[0], values[0] + len(values)))
