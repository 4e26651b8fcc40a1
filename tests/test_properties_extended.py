"""Additional property-based tests: trace codec, cross-backend store
equivalence, analyzer monotonicity, frame packing."""


import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import CostModel
from repro.core.profiler import WorkloadProfile
from repro.hardware.specs import APU_A10_7850K
from repro.kv.chaining import ChainedHashTable
from repro.kv.hashtable import CuckooHashTable
from repro.kv.protocol import Query, QueryType, Response, ResponseStatus
from repro.kv.store import KVStore
from repro.net.packets import ETHERNET_MTU, frames_for_responses
from repro.pipeline.megakv import megakv_coupled_config
from repro.workloads.trace import read_trace, summarize_trace, write_trace

keys = st.binary(min_size=1, max_size=48)
values = st.binary(min_size=0, max_size=200)

query_strategy = st.builds(
    lambda qtype, key, value: Query(
        qtype, key, value if qtype is QueryType.SET else b""
    ),
    st.sampled_from(list(QueryType)),
    keys,
    values,
)


@settings(max_examples=25, deadline=None)
@given(st.lists(query_strategy, max_size=80))
def test_trace_file_round_trip(tmp_path_factory, queries):
    path = tmp_path_factory.mktemp("traces") / "t.bin"
    write_trace(path, queries)
    loaded = read_trace(path)
    assert [(q.qtype, q.key, q.value) for q in loaded] == [
        (q.qtype, q.key, q.value) for q in queries
    ]


@settings(max_examples=20, deadline=None)
@given(st.lists(query_strategy, min_size=1, max_size=80))
def test_trace_summary_invariants(queries):
    summary = summarize_trace(queries)
    assert 0.0 <= summary.get_ratio <= 1.0
    assert summary.queries == len(queries)
    assert 0 < summary.distinct_keys <= len(queries)
    assert summary.avg_key_size > 0


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["set", "get", "delete"]), st.integers(0, 30), values),
        min_size=1,
        max_size=120,
    )
)
def test_store_backends_agree(ops):
    """Cuckoo-indexed and chain-indexed stores observe identical semantics
    under any operation sequence."""
    stores = [
        KVStore(8 << 20, 1024, index=CuckooHashTable(num_buckets=512)),
        KVStore(8 << 20, 1024, index=ChainedHashTable(num_buckets=512)),
    ]
    for op, key_id, value in ops:
        key = f"key-{key_id}".encode()
        results = []
        for store in stores:
            if op == "set":
                store.set(key, value)
                results.append(("set", True))
            elif op == "get":
                results.append(("get", store.get(key)))
            else:
                results.append(("del", store.delete(key)))
        assert results[0] == results[1], f"backends diverged on {op} {key!r}"


@settings(max_examples=20, deadline=None)
@given(st.lists(st.builds(Response, st.sampled_from(list(ResponseStatus)), values), max_size=200))
def test_frame_packing_never_splits_and_never_wastes(responses):
    frames = frames_for_responses(responses)
    # Every response appears exactly once across frames.
    total = sum(f.query_count for f in frames)
    assert total == len(responses)
    # No frame exceeds the MTU unless it carries a single jumbo message.
    for frame in frames:
        if len(frame.payload) > ETHERNET_MTU:
            assert frame.query_count == 1


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.floats(min_value=0.3, max_value=1.0),
    st.sampled_from([(8, 8), (16, 64), (32, 256), (128, 1024)]),
    st.sampled_from([0.0, 0.99]),
)
def test_estimate_invariants_over_profiles(get_ratio, sizes, skew):
    """The analyzer produces physically sensible outputs for any workload
    in the paper's parameter ranges."""
    key_size, value_size = sizes
    profile = WorkloadProfile(get_ratio, key_size, value_size, skew)
    cm = CostModel(APU_A10_7850K)
    est = cm.estimate(megakv_coupled_config(), profile)
    assert est.batch_size >= 64
    assert est.tmax_ns > 0
    assert est.throughput_mops == pytest.approx(est.batch_size / est.tmax_ns * 1000.0)
    assert 0.0 < est.cpu_utilization <= 1.0
    assert 0.0 <= est.gpu_utilization <= 1.0
    assert est.mu_cpu >= 1.0 and est.mu_gpu >= 1.0
    assert est.latency_ns <= 1_010_000.0


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([300_000.0, 600_000.0, 1_000_000.0, 2_000_000.0]))
def test_throughput_monotone_in_latency_budget(budget):
    """A larger latency budget can only help (bigger batches allowed)."""
    cm = CostModel(APU_A10_7850K)
    profile = WorkloadProfile(0.95, 16, 64, 0.99)
    smaller = cm.estimate(megakv_coupled_config(), profile, budget)
    larger = cm.estimate(megakv_coupled_config(), profile, budget * 1.5)
    assert larger.throughput_mops >= smaller.throughput_mops * 0.98
