"""Functional-pipeline tests: every configuration computes identical results."""


from repro.core.config_search import enumerate_configs
from repro.core.pipeline_config import PipelineConfig
from repro.kv.protocol import Query, QueryType, ResponseStatus, decode_responses
from repro.kv.store import KVStore
from repro.net.wire import encode_response_window
from repro.pipeline.functional import FunctionalPipeline
from repro.pipeline.megakv import megakv_coupled_config
from repro.workloads.ycsb import QueryStream, standard_workload


def fresh_pipeline(memory=8 << 20, expected=8192):
    store = KVStore(memory_bytes=memory, expected_objects=expected)
    return FunctionalPipeline(store), store


def run_workload(config: PipelineConfig, batches: list[list[Query]]):
    """Run batches through a fresh store; return all response tuples."""
    pipeline, store = fresh_pipeline()
    out = []
    for batch in batches:
        result = pipeline.process_batch(config, batch)
        out.extend((r.status, r.value) for r in result.responses)
    return out


def workload_batches(label="K16-G95-S", batches=4, size=600, seed=5):
    stream = QueryStream(standard_workload(label), num_keys=800, seed=seed)
    return [stream.next_batch(size) for _ in range(batches)]


class TestBasicSemantics:
    def test_set_then_get_within_batch(self):
        """Batch semantics: MM+Insert complete before Searches, so a GET in
        the same batch as its SET finds the value."""
        pipeline, _ = fresh_pipeline()
        batch = [
            Query(QueryType.SET, b"batchkey", b"batchval"),
            Query(QueryType.GET, b"batchkey"),
        ]
        result = pipeline.process_batch(megakv_coupled_config(), batch)
        assert result.responses[0].status is ResponseStatus.STORED
        assert result.responses[1].status is ResponseStatus.OK
        assert result.responses[1].value == b"batchval"

    def test_get_missing(self):
        pipeline, _ = fresh_pipeline()
        result = pipeline.process_batch(
            megakv_coupled_config(), [Query(QueryType.GET, b"nope")]
        )
        assert result.responses[0].status is ResponseStatus.NOT_FOUND

    def test_delete_round_trip(self):
        pipeline, _ = fresh_pipeline()
        config = megakv_coupled_config()
        pipeline.process_batch(config, [Query(QueryType.SET, b"k", b"v")])
        result = pipeline.process_batch(config, [Query(QueryType.DELETE, b"k")])
        assert result.responses[0].status is ResponseStatus.DELETED
        result = pipeline.process_batch(config, [Query(QueryType.GET, b"k")])
        assert result.responses[0].status is ResponseStatus.NOT_FOUND

    def test_delete_missing(self):
        pipeline, _ = fresh_pipeline()
        result = pipeline.process_batch(
            megakv_coupled_config(), [Query(QueryType.DELETE, b"ghost")]
        )
        assert result.responses[0].status is ResponseStatus.NOT_FOUND

    def test_overwrite_within_and_across_batches(self):
        pipeline, _ = fresh_pipeline()
        config = megakv_coupled_config()
        pipeline.process_batch(config, [Query(QueryType.SET, b"k", b"v1")])
        pipeline.process_batch(config, [Query(QueryType.SET, b"k", b"v2")])
        result = pipeline.process_batch(config, [Query(QueryType.GET, b"k")])
        assert result.responses[0].value == b"v2"

    def test_response_frames_decode(self):
        pipeline, _ = fresh_pipeline()
        batch = [Query(QueryType.SET, b"k", b"v"), Query(QueryType.GET, b"k")]
        result = pipeline.process_batch(megakv_coupled_config(), batch)
        decoded = decode_responses(
            encode_response_window(result.response_statuses, result.response_values)[0]
        )
        assert [r.status for r in decoded] == [r.status for r in result.responses]


class TestConfigEquivalence:
    """The core dynamic-pipeline correctness property: all legal
    configurations produce byte-identical responses."""

    def test_all_configs_agree_on_read_heavy(self):
        batches = workload_batches("K16-G95-S")
        reference = None
        for config in enumerate_configs(4, work_stealing=False):
            outcome = run_workload(config, batches)
            if reference is None:
                reference = outcome
            else:
                assert outcome == reference, f"divergence under {config.label}"

    def test_all_configs_agree_on_write_heavy(self):
        batches = workload_batches("K8-G50-U", seed=9)
        reference = run_workload(megakv_coupled_config(), batches)
        for config in enumerate_configs(4, work_stealing=False)[:8]:
            assert run_workload(config, batches) == reference

    def test_work_stealing_preserves_results(self):
        batches = workload_batches("K16-G95-S", seed=13)
        baseline = run_workload(megakv_coupled_config(), batches)
        stealing = run_workload(
            megakv_coupled_config().with_work_stealing(True), batches
        )
        assert stealing == baseline

    def test_reconfiguration_mid_stream(self):
        """Batches processed under different configs as the pipeline adapts
        still yield the same results as a single static config."""
        batches = workload_batches("K16-G95-S", batches=6, seed=17)
        configs = enumerate_configs(4, work_stealing=False)
        pipeline, _ = fresh_pipeline()
        dynamic = []
        for i, batch in enumerate(batches):
            result = pipeline.process_batch(configs[i % len(configs)], batch)
            dynamic.extend((r.status, r.value) for r in result.responses)
        static = run_workload(megakv_coupled_config(), batches)
        assert dynamic == static

