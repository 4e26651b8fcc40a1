"""Byte-identity fuzz: `--delta-index` on vs off across every backend.

The delta index is a pure write-absorption layer — responses must be
byte-identical whether it is attached or not.  Hypothesis drives random
GET/SET/DELETE streams through the functional pipeline per engine x heap
and asserts the framed responses match the delta-less
reference exactly, including with merges forced mid-stream and with a
tiny delta capacity overflowing into synchronous merges.
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import ReferenceEngine, SerialEngine, VectorEngine
from repro.engine.procshard import ProcShardEngine, ProcShardStore
from repro.kv.protocol import Query, QueryType
from repro.kv.store import KVStore
from repro.pipeline.functional import FunctionalPipeline
from repro.pipeline.megakv import megakv_coupled_config

from conftest import ProcShardPool

#: (op, key index, value index) triples; a small key pool maximises
#: collisions (re-sets, delete-then-set, get-after-delete) per stream.
op_streams = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=23),
            st.integers(min_value=0, max_value=500),
        ),
        min_size=1,
        max_size=40,
    ),
    min_size=1,
    max_size=6,
)

ENGINES = {
    "serial": lambda: SerialEngine(),
    "vector": lambda: VectorEngine(),
    "procshard": lambda: ProcShardEngine(),
}

_POOL = ProcShardPool()


@pytest.fixture(scope="module", autouse=True)
def _close_procshard_stores():
    yield
    _POOL.close()


def build_batches(raw):
    batches = []
    for raw_batch in raw:
        batch = []
        for op, key_idx, value_idx in raw_batch:
            key = b"fuzz-key-%02d" % key_idx
            if op == 0:
                batch.append(Query(QueryType.SET, key, b"val-%04d" % value_idx))
            elif op == 1:
                batch.append(Query(QueryType.GET, key))
            else:
                batch.append(Query(QueryType.DELETE, key))
        batches.append(batch)
    return batches


def run_stream(
    batches,
    engine=None,
    heap="slab",
    delta=False,
    merge_threshold=None,
    capacity=None,
    force_every=None,
):
    if isinstance(engine, ProcShardEngine):
        # Each worker's delta keeps its default thresholds and merges on
        # the worker's own barriers and idle ticks.
        store = _POOL.store(8 << 20, 4096, 2, heap=heap, delta_index=delta)
    else:
        store = KVStore(8 << 20, 4096, heap=heap, delta_index=delta)
        if delta:
            if merge_threshold is not None:
                store.delta_index.merge_threshold = merge_threshold
            if capacity is not None:
                store.delta_index.capacity = capacity
    pipeline = FunctionalPipeline(store, engine=engine)
    config = megakv_coupled_config()
    frames = []
    for i, batch in enumerate(batches):
        result = pipeline.process_batch(config, batch)
        frames.append(b"".join(f.payload for f in result.frames))
        if force_every is not None and i % force_every == 0:
            store.maintenance(force=True)
    return frames


def reference_frames(batches):
    return run_stream(batches, engine=ReferenceEngine(), heap="slab")


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("heap", ["slab", "log"])
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=op_streams)
def test_delta_matches_reference(engine_name, heap, raw):
    batches = build_batches(raw)
    expected = reference_frames(batches)
    # barrier-paced merges (tiny threshold => several per stream)
    on = run_stream(
        batches,
        engine=ENGINES[engine_name](),
        heap=heap,
        delta=True,
        merge_threshold=8,
    )
    off = run_stream(batches, engine=ENGINES[engine_name](), heap=heap)
    assert off == expected
    assert on == expected


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=op_streams)
def test_forced_merge_mid_stream_and_overflow(raw):
    batches = build_batches(raw)
    expected = reference_frames(batches)
    # idle-tick merges forced after every batch
    forced = run_stream(
        batches,
        engine=VectorEngine(),
        heap="log",
        delta=True,
        merge_threshold=1 << 30,
        force_every=1,
    )
    assert forced == expected
    # overflow: capacity so small that absorbs merge synchronously
    overflow = run_stream(
        batches,
        engine=VectorEngine(),
        heap="log",
        delta=True,
        merge_threshold=1 << 30,
        capacity=4,
    )
    assert overflow == expected


def test_procshard_delta_matches_reference():
    """Deterministic (no hypothesis): worker processes are expensive."""
    raw = [
        [(0, i % 16, i) for i in range(48)],
        [(1, i % 16, 0) for i in range(32)] + [(2, i % 8, 0) for i in range(16)],
        [(0, (i * 3) % 16, 1000 + i) for i in range(48)],
        [(1, i % 24, 0) for i in range(48)],
    ]
    batches = build_batches(raw)
    expected = reference_frames(batches)
    store = ProcShardStore(8 << 20, 4096, 2, heap="log", delta_index=True)
    try:
        pipeline = FunctionalPipeline(store, engine=ProcShardEngine())
        config = megakv_coupled_config()
        frames = []
        for i, batch in enumerate(batches):
            result = pipeline.process_batch(config, batch)
            frames.append(b"".join(f.payload for f in result.frames))
            if i == 1:
                # Past the workers' 0.2 s idle tick: each merges its delta,
                # so the rest of the stream reads the merged tables.
                time.sleep(0.3)
    finally:
        store.close()
    assert frames == expected
