"""repro — a full reproduction of DIDO (ICDE 2017).

DIDO is an in-memory key-value store with *dynamic pipeline execution* on
coupled CPU-GPU architectures (Zhang, Hu, He, Hua — ICDE 2017).  This
package implements the complete system in Python: the KV store substrate
(cuckoo index, log-arena heap, wire protocol), a calibrated analytical model of
the AMD A10-7850K APU (and the discrete Mega-KV testbed for comparison),
the eight-task pipeline engine, the workload profiler, the APU-aware cost
model, exhaustive configuration search, work stealing, and the adaptation
controller — plus the Mega-KV static-pipeline baseline and the YCSB-style
workload generators the paper evaluates with.

Quickstart::

    from repro import DidoSystem, standard_workload, QueryStream

    system = DidoSystem(memory_bytes=64 << 20, expected_objects=50_000)
    spec = standard_workload("K16-G95-S")
    stream = QueryStream(spec, num_keys=10_000, seed=7)
    result = system.process(stream.next_batch(2048))
    print(system.report())

See DESIGN.md for the module map and EXPERIMENTS.md for the paper-figure
reproduction results.
"""

from repro.analysis.latency import LatencyProfile, latency_profile
from repro.client import DidoClient
from repro.cluster.ring import HashRing
from repro.core.config_search import ConfigurationSearch, best_config_for, enumerate_configs
from repro.core.controller import AdaptationController
from repro.core.cost_model import CostModel, PipelineEstimate
from repro.core.dido import DidoSystem, SystemReport
from repro.core.profiler import WorkloadProfile, WorkloadProfiler
from repro.core.tasks import IndexOp, Task
from repro.engine import (
    ENGINE_NAMES,
    BatchPlane,
    ReferenceEngine,
    StagePlan,
    compile_stage_plan,
    resolve_engine,
)
from repro.errors import (
    CapacityError,
    ConfigurationError,
    ProtocolError,
    ReproError,
    SimulationError,
    TelemetryError,
    WorkloadError,
)
from repro.hardware.specs import APU_A10_7850K, DISCRETE_MEGAKV, PlatformSpec
from repro.kv.protocol import Query, QueryType, Response, ResponseStatus
from repro.kv.store import KVStore
from repro.pipeline.executor import PipelineExecutor, PipelineMeasurement
from repro.pipeline.functional import FunctionalPipeline
from repro.pipeline.megakv import megakv_coupled_config, megakv_discrete_config
from repro.pipeline.memcachedgpu import measure_memcachedgpu
from repro.server import DidoUDPServer
from repro.pipeline.partition import PipelineConfig, StageSpec
from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    Telemetry,
    TraceEvent,
    configure as configure_telemetry,
    get_telemetry,
)
from repro.workloads.trace import read_trace, replay_trace, summarize_trace, write_trace
from repro.workloads.ycsb import (
    STANDARD_WORKLOADS,
    QueryStream,
    WorkloadSpec,
    standard_workload,
)

__version__ = "1.0.0"

__all__ = [
    "APU_A10_7850K",
    "DidoClient",
    "DidoUDPServer",
    "HashRing",
    "LatencyProfile",
    "latency_profile",
    "measure_memcachedgpu",
    "read_trace",
    "replay_trace",
    "summarize_trace",
    "write_trace",
    "AdaptationController",
    "BatchPlane",
    "CapacityError",
    "ConfigurationError",
    "ConfigurationSearch",
    "CostModel",
    "DISCRETE_MEGAKV",
    "DidoSystem",
    "ENGINE_NAMES",
    "FunctionalPipeline",
    "IndexOp",
    "KVStore",
    "ReferenceEngine",
    "StagePlan",
    "PipelineConfig",
    "PipelineEstimate",
    "PipelineExecutor",
    "PipelineMeasurement",
    "PlatformSpec",
    "ProtocolError",
    "Query",
    "QueryStream",
    "QueryType",
    "ReproError",
    "Response",
    "ResponseStatus",
    "STANDARD_WORKLOADS",
    "EventLog",
    "MetricsRegistry",
    "SimulationError",
    "StageSpec",
    "SystemReport",
    "Task",
    "Telemetry",
    "TelemetryError",
    "TraceEvent",
    "configure_telemetry",
    "get_telemetry",
    "WorkloadError",
    "WorkloadProfile",
    "WorkloadProfiler",
    "WorkloadSpec",
    "best_config_for",
    "compile_stage_plan",
    "enumerate_configs",
    "resolve_engine",
    "megakv_coupled_config",
    "megakv_discrete_config",
    "standard_workload",
]
