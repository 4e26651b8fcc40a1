"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline_config import PipelineConfig, gpu_segments
from repro.errors import CapacityError
from repro.hardware.memory import AccessPattern, object_access_pattern
from repro.hardware.processor import gpu_batch_efficiency, gpu_task_time_ns
from repro.hardware.specs import APU_A10_7850K
from repro.kv.hashtable import CuckooHashTable
from repro.kv.protocol import (
    Query,
    QueryType,
    Response,
    ResponseStatus,
    decode_queries,
    decode_responses,
    encode_queries,
    encode_responses,
)
from repro.kv.store import KVStore
from repro.net.wire import encode_response_window
from repro.workloads.distributions import ZipfKeys

keys = st.binary(min_size=1, max_size=64)
values = st.binary(min_size=0, max_size=256)


# ------------------------------------------------------------------ protocol


@given(st.lists(st.tuples(st.sampled_from(list(QueryType)), keys, values), max_size=50))
def test_query_codec_round_trip(raw):
    queries = []
    for qtype, key, value in raw:
        queries.append(Query(qtype, key, value if qtype is QueryType.SET else b""))
    decoded = decode_queries(encode_queries(queries))
    assert [(q.qtype, q.key, q.value) for q in decoded] == [
        (q.qtype, q.key, q.value) for q in queries
    ]


@given(st.lists(st.tuples(st.sampled_from(list(ResponseStatus)), values), max_size=50))
def test_response_codec_round_trip(raw):
    responses = [Response(status, value) for status, value in raw]
    decoded = decode_responses(encode_responses(responses))
    assert [(r.status, r.value) for r in decoded] == [(r.status, r.value) for r in responses]


# ------------------------------------------------------------------- hashing


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(keys, st.integers(min_value=0, max_value=10**6), max_size=120))
def test_cuckoo_insert_search_delete_invariant(mapping):
    """Everything inserted is findable; after deletion it is gone; the count
    always matches."""
    table = CuckooHashTable(num_buckets=256)
    try:
        for key, location in mapping.items():
            table.insert(key, location)
    except CapacityError:
        return  # legitimate at extreme load; not this property's subject
    assert len(table) == len(mapping)
    for key, location in mapping.items():
        candidates, _ = table.search(key)
        assert location in candidates
    for key, location in mapping.items():
        assert table.delete(key, location)
    assert len(table) == 0


@settings(max_examples=20, deadline=None)
@given(st.lists(keys, unique=True, min_size=1, max_size=100))
def test_store_get_returns_latest_set(key_list):
    store = KVStore(memory_bytes=8 << 20, expected_objects=1024)
    expected = {}
    for i, key in enumerate(key_list):
        value = f"value-{i}".encode()
        store.set(key, value)
        expected[key] = value
    for key, value in expected.items():
        assert store.get(key) == value


# ------------------------------------------------------------- distributions


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=10, max_value=100_000),
    st.floats(min_value=0.2, max_value=1.5),
)
def test_zipf_top_fraction_monotone_and_bounded(num_keys, skew):
    dist = ZipfKeys(num_keys, skew=skew, seed=1)
    previous = 0.0
    for k in (1, num_keys // 10 + 1, num_keys // 2 + 1, num_keys):
        fraction = dist.top_fraction(k)
        assert 0.0 <= fraction <= 1.0
        assert fraction >= previous - 1e-12
        previous = fraction
    assert dist.top_fraction(num_keys) == pytest.approx(1.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=100, max_value=50_000))
def test_zipf_samples_in_range(num_keys):
    dist = ZipfKeys(num_keys, seed=2)
    ranks = dist.sample(500)
    assert ranks.min() >= 0
    assert ranks.max() < num_keys


# ------------------------------------------------------------------ hardware


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_gpu_efficiency_bounds(batch):
    eff = gpu_batch_efficiency(APU_A10_7850K.gpu, batch)
    assert 0.0 < eff < 1.0


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=64, max_value=100_000),
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.0, max_value=32.0),
)
def test_gpu_time_monotone_in_batch(batch, mem, cache):
    gpu = APU_A10_7850K.gpu
    pattern = AccessPattern(mem, cache)
    t1 = gpu_task_time_ns(gpu, batch, 50.0, pattern)
    t2 = gpu_task_time_ns(gpu, batch * 2, 50.0, pattern)
    assert t2 >= t1


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=65536), st.sampled_from([32, 64, 128]))
def test_object_access_pattern_conserves_lines(obj_bytes, line):
    plain = object_access_pattern(obj_bytes, line)
    cached = object_access_pattern(obj_bytes, line, already_cached=True)
    total_plain = plain.memory_accesses + plain.cache_accesses
    total_cached = cached.memory_accesses + cached.cache_accesses
    assert total_plain == total_cached  # caching changes kind, not count
    assert cached.memory_accesses == 0.0
    if obj_bytes > 0:
        assert total_plain == math.ceil(obj_bytes / line) or total_plain == 1


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_hot_fraction_conserves_accesses(mem, cache, hot):
    p = AccessPattern(mem, cache)
    q = p.with_hot_fraction(hot)
    assert q.memory_accesses + q.cache_accesses == pytest.approx(mem + cache)
    assert q.memory_accesses <= mem + 1e-12


# -------------------------------------------------------------------- engine


#: Small key pool so random batches hit the interesting collisions: SET
#: followed by GET/DELETE of the same key in one batch, repeated SETs
#: (batch-local insert dedup), DELETE of a key SET earlier in the batch.
engine_keys = st.sampled_from([b"a", b"b", b"hot", b"k-1", b"k-2", b"longer-key"])


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(gpu_segments()),
    st.booleans(),
    st.lists(
        st.tuples(st.sampled_from(list(QueryType)), engine_keys, values),
        max_size=60,
    ),
)
def test_engine_matches_reference_for_any_config_and_batch(segment, stealing, raw):
    """Property: for every legal pipeline configuration, the columnar
    engine produces byte-identical response frames (and identical store
    statistics) to the preserved per-query reference path."""
    from repro.core.pipeline_config import PipelineConfig as PC
    from repro.pipeline.functional import FunctionalPipeline

    config = PC.assemble(
        segment,
        total_cpu_cores=4,
        work_stealing=stealing and bool(segment),
    )
    queries = [
        Query(qtype, key, value if qtype is QueryType.SET else b"")
        for qtype, key, value in raw
    ]

    def run(engine):
        store = KVStore(memory_bytes=4 << 20, expected_objects=2048)
        pipeline = FunctionalPipeline(store, engine=engine)
        result = pipeline.process_batch(config, queries)
        payload = encode_response_window(result.response_statuses, result.response_values)[0]
        return payload, store.stats

    reference_frames, reference_stats = run("reference")
    columnar_frames, columnar_stats = run(None)
    assert columnar_frames == reference_frames
    assert columnar_stats == reference_stats


# ------------------------------------------------------------------- configs


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    st.sampled_from(gpu_segments()),
    st.integers(min_value=2, max_value=16),
    st.booleans(),
    st.booleans(),
)
def test_assembled_configs_always_valid(segment, cores, insert_cpu, delete_cpu):
    from repro.core.tasks import TASK_ORDER, Task
    from repro.errors import ConfigurationError

    search_on_gpu = bool(segment) and Task.IN in segment
    if (insert_cpu or delete_cpu) and not search_on_gpu:
        with pytest.raises(ConfigurationError):
            PipelineConfig.assemble(
                segment,
                total_cpu_cores=cores,
                insert_on_cpu=insert_cpu,
                delete_on_cpu=delete_cpu,
            )
        return
    config = PipelineConfig.assemble(
        segment,
        total_cpu_cores=cores,
        insert_on_cpu=insert_cpu,
        delete_on_cpu=delete_cpu,
    )
    assert tuple(t for s in config.stages for t in s.tasks) == TASK_ORDER
    cpu_cores = sum(s.cores for s in config.stages if s.cores)
    assert cpu_cores == cores
