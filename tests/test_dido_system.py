"""Integration tests for the assembled DidoSystem facade."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dido import DidoSystem
from repro.core.profiler import WINDOW_QUERIES
from repro.errors import WorkloadError
from repro.kv.protocol import Query, QueryType, ResponseStatus, encode_queries
from repro.net.wire import decode_payload
from repro.workloads.ycsb import QueryStream, standard_workload


@pytest.fixture
def system():
    return DidoSystem(memory_bytes=16 << 20, expected_objects=16384)


class TestFunctionalPath:
    def test_process_round_trip(self, system):
        batch = [
            Query(QueryType.SET, b"hello", b"world"),
            Query(QueryType.GET, b"hello"),
        ]
        result = system.process(batch)
        assert result.responses[0].status is ResponseStatus.STORED
        assert result.responses[1].value == b"world"

    def test_empty_batch_rejected(self, system):
        with pytest.raises(WorkloadError):
            system.process([])

    def test_report_tracks_progress(self, system):
        stream = QueryStream(standard_workload("K16-G95-S"), 500, seed=3)
        for _ in range(3):
            system.process(stream.next_batch(200))
        report = system.report()
        assert report.batches == 3
        assert report.queries == 600
        assert report.replans >= 1
        assert "CPU" in report.current_pipeline
        assert report.estimated_mops > 0

    def test_steady_workload_plans_once(self, system):
        stream = QueryStream(standard_workload("K16-G95-S"), 500, seed=4)
        for _ in range(6):
            system.process(stream.next_batch(400))
        assert system.report().replans <= 2  # first plan + maybe one refinement

    def test_workload_shift_triggers_replan(self, system):
        small = QueryStream(standard_workload("K8-G50-U"), 500, seed=5)
        big = QueryStream(standard_workload("K128-G95-S"), 200, seed=5)
        for _ in range(2):
            system.process(small.next_batch(300))
        before = system.report().replans
        for _ in range(2):
            system.process(big.next_batch(300))
        assert system.report().replans > before

    def test_results_match_store_semantics(self, system):
        """Whatever pipeline the controller picks, responses agree with a
        plain dict reference model."""
        stream = QueryStream(standard_workload("K16-G50-U"), 300, seed=6)
        reference: dict[bytes, bytes] = {}
        for _ in range(4):
            batch = stream.next_batch(250)
            result = system.process(batch)
            # Batch semantics: every SET in the batch lands before any GET
            # is served, so fold the whole batch into the reference first.
            for query in batch:
                if query.qtype is QueryType.SET:
                    reference[query.key] = query.value
            for query, response in zip(batch, result.responses):
                if query.qtype is QueryType.SET:
                    assert response.status is ResponseStatus.STORED
                elif query.qtype is QueryType.GET:
                    if response.status is ResponseStatus.OK:
                        assert response.value == reference.get(query.key)
                    # NOT_FOUND may legitimately occur (unset or evicted key)


#: Streams of small batches over a few colliding keys, all three opcodes.
query_streams = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from(list(QueryType)),
            st.sampled_from([b"k%d" % i for i in range(6)]),
            st.binary(max_size=12),
        ).map(lambda row: Query(row[0], row[1], row[2] if row[0] is QueryType.SET else b"")),
        min_size=1,
        max_size=24,
    ),
    min_size=1,
    max_size=6,
)


class TestOneBatchShape:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(query_streams)
    def test_query_lists_serve_like_decoded_windows(self, stream):
        """``process`` seals a ``list[Query]`` into the columns the wire
        decoder makes of the same queries: answers, store counters and the
        profile are the same either way."""
        listed = DidoSystem(memory_bytes=2 << 20, expected_objects=256)
        decoded = DidoSystem(memory_bytes=2 << 20, expected_objects=256)
        for batch in stream:
            ours = listed.process(batch)
            wire = decoded.process(decode_payload(encode_queries(batch)))
            assert ours.response_statuses == wire.response_statuses
            assert ours.response_values == wire.response_values
            assert ours.config_label == wire.config_label
        assert listed.store.stats == decoded.store.stats
        assert listed.controller.planned_profile == decoded.controller.planned_profile
        assert listed.profiler.window_queries == decoded.profiler.window_queries
        if listed.profiler.window_queries:
            assert listed.profiler.snapshot() == decoded.profiler.snapshot()


class TestEngineResolution:
    """Unset is the production engine, not a per-batch pick from the
    simulated plan."""

    @pytest.mark.parametrize("engine", [None, "vector"])
    def test_default_is_the_engine_the_benchmark_measures(self, engine):
        from repro.engine import VectorEngine

        system = DidoSystem(memory_bytes=16 << 20, expected_objects=16384, engine=engine)
        chosen = system.pipeline._engine
        assert type(chosen) is VectorEngine
        # One host cost model: fed by the engine, reset by the profiler,
        # audited by the controller.
        assert chosen.costs is system.profiler.host_costs is system.controller.host_costs

    def test_named_engines_still_selectable(self):
        from repro.engine import ReferenceEngine

        system = DidoSystem(memory_bytes=16 << 20, expected_objects=16384, engine="reference")
        assert type(system.pipeline._engine) is ReferenceEngine

    def test_replan_events_carry_the_fitted_pass_costs(self, system):
        writes = QueryStream(standard_workload("K16-G50-U"), 500, seed=5)
        reads = QueryStream(standard_workload("K16-G95-U"), 500, seed=5)
        for stream in (writes, reads):
            for _ in range(12):
                system.process(stream.next_batch(300))
        events = system.controller.events
        assert events[0].bootstrap and events[0].host_costs == {}  # nothing measured yet
        assert events[-1].reason == "get_ratio"
        audited = events[-1].host_costs
        assert set(audited) == {"search"}
        assert "crossover_rows" in audited["search"]
        for kernel in ("scalar", "columnar"):
            a_us, b_us, samples = audited["search"][kernel]
            assert a_us >= 0.0 and b_us >= 0.0 and samples > 0


class TestAnalyticalPath:
    def test_skew_estimator_feeds_controller(self, system):
        """After processing a skewed stream, the profiler's estimated skew
        is visible in the controller's planned-for profile."""
        stream = QueryStream(standard_workload("K8-G95-S"), 400, seed=7)
        # The first batch closes the bootstrap window; from then on a
        # window closes every WINDOW_QUERIES queries, whatever the batching.
        system.process(stream.next_batch(500))
        assert system.profiler.epoch == 1
        for _ in range(2 * WINDOW_QUERIES // 512):
            system.process(stream.next_batch(512))
        assert system.profiler.epoch == 3
        # The sampled-frequency estimator observed repeated hot keys.
        assert system.controller.planned_profile.zipf_skew > 0.5
