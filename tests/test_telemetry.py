"""Unit and integration tests for the repro.telemetry subsystem."""

import io
import json
import threading

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    EventLog,
    MetricsRegistry,
    Telemetry,
    TraceEvent,
    configure,
    console_summary,
    export_jsonl,
    get_telemetry,
    parse_prometheus,
    prometheus_text,
    read_jsonl,
    replan_event,
    span,
    stage_span,
    timed,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def live_telemetry():
    """Enable the process-wide hub for one test; always disable after."""
    telemetry = configure(enabled=True)
    yield telemetry
    configure(enabled=False)


class TestCounter:
    def test_inc_and_value(self, registry):
        counter = registry.counter("queries_total")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labels_are_independent(self, registry):
        counter = registry.counter("claims_total")
        counter.inc(owner="gpu")
        counter.inc(2, owner="cpu")
        assert counter.value(owner="gpu") == 1
        assert counter.value(owner="cpu") == 2
        assert counter.value(owner="npu") == 0

    def test_counters_only_go_up(self, registry):
        with pytest.raises(TelemetryError):
            registry.counter("c").inc(-1)

    def test_get_or_create_returns_same_instrument(self, registry):
        assert registry.counter("c") is registry.counter("c")

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("c")
        with pytest.raises(TelemetryError):
            registry.gauge("c")

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(TelemetryError):
            registry.counter("bad name")
        with pytest.raises(TelemetryError):
            registry.counter("ok").inc(**{"0bad": "x"})

    def test_thread_safety(self, registry):
        counter = registry.counter("contended")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value() == 4000


class TestGauge:
    def test_set_and_inc(self, registry):
        gauge = registry.gauge("ratio")
        gauge.set(0.95)
        assert gauge.value() == pytest.approx(0.95)
        gauge.inc(0.05)
        gauge.dec(0.5)
        assert gauge.value() == pytest.approx(0.5)

    def test_reset_clears_samples(self, registry):
        gauge = registry.gauge("g")
        gauge.set(7)
        registry.reset()
        assert gauge.value() == 0
        assert registry.get("g") is gauge  # instrument survives reset


class TestHistogram:
    def test_bucketing(self, registry):
        histogram = registry.histogram("t_us", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 99.0, 100.0, 1e6):
            histogram.observe(value)
        # Non-cumulative per-bucket counts, +Inf last: le=1 gets 0.5 and
        # exactly-1.0; le=10 gets 5.0; le=100 gets 99.0 and exactly-100.0.
        assert histogram.bucket_counts() == [2, 1, 2, 1]
        assert histogram.count() == 6
        assert histogram.total() == pytest.approx(0.5 + 1.0 + 5.0 + 99.0 + 100.0 + 1e6)

    def test_buckets_must_increase(self, registry):
        with pytest.raises(TelemetryError):
            registry.histogram("h", buckets=(10.0, 1.0))
        with pytest.raises(TelemetryError):
            registry.histogram("h2", buckets=())

    def test_labelled_histograms(self, registry):
        histogram = registry.histogram("stage_us", buckets=(10.0,))
        histogram.observe(1.0, stage="IN")
        histogram.observe(100.0, stage="IN")
        histogram.observe(5.0, stage="KC")
        assert histogram.bucket_counts(stage="IN") == [1, 1]
        assert histogram.count(stage="KC") == 1


class TestEventLog:
    def test_ring_overflow_keeps_newest(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.append(TraceEvent("span", "e", t_wall=float(i)))
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.t_wall for e in log.snapshot()] == [2.0, 3.0, 4.0]

    def test_overflow_wraps_repeatedly(self):
        log = EventLog(capacity=2)
        for i in range(7):
            log.append(TraceEvent("span", "e", t_wall=float(i)))
        assert [e.t_wall for e in log.snapshot()] == [5.0, 6.0]
        assert log.dropped == 5

    def test_clear(self):
        log = EventLog(capacity=2)
        log.append(TraceEvent("span", "e", t_wall=0.0))
        log.clear()
        assert len(log) == 0
        assert log.dropped == 0

    def test_capacity_validation(self):
        with pytest.raises(TelemetryError):
            EventLog(capacity=0)

    def test_by_kind(self):
        log = EventLog()
        log.append(TraceEvent("span", "a", t_wall=0.0))
        log.append(TraceEvent("replan", "b", t_wall=1.0))
        assert [e.name for e in log.by_kind("replan")] == ["b"]

    def test_replan_event_sanitises_infinite_trigger(self):
        event = replan_event(
            batch_index=1,
            trigger_change=float("inf"),
            old_config=None,
            new_config="[...]CPU",
            estimated_mops=10.0,
            changed=True,
        )
        assert event.fields["trigger_change"] is None
        json.dumps(event.to_dict(), allow_nan=False)  # strict-JSON safe


class TestScoped:
    def test_span_records_duration(self):
        telemetry = Telemetry(enabled=True)
        with span("region", telemetry=telemetry, shard=3):
            pass
        (event,) = telemetry.events.snapshot()
        assert event.kind == "span" and event.name == "region"
        assert event.duration_us >= 0.0
        assert event.fields == {"shard": 3}

    def test_span_noop_when_disabled(self):
        telemetry = Telemetry(enabled=False)
        with span("region", telemetry=telemetry):
            pass
        assert len(telemetry.events) == 0

    def test_timed_records_into_histogram(self):
        telemetry = Telemetry(enabled=True)
        with timed("lat_us", telemetry=telemetry, stage="IN"):
            pass
        histogram = telemetry.registry.get("lat_us")
        assert histogram.count(stage="IN") == 1

    def test_timed_noop_when_disabled(self):
        telemetry = Telemetry(enabled=False)
        with timed("lat_us", telemetry=telemetry):
            pass
        assert telemetry.registry.get("lat_us") is None


class TestJsonlExporter:
    def _populated(self):
        telemetry = Telemetry(enabled=True)
        telemetry.registry.counter("queries_total", help="q").inc(5, node="a")
        telemetry.registry.gauge("ratio").set(0.9)
        telemetry.registry.histogram("t_us", buckets=(1.0, 10.0)).observe(3.0)
        telemetry.events.append(stage_span("[IN]GPU", "IN", "gpu", 12.5, batch=1))
        telemetry.events.append(
            replan_event(2, 0.4, "old", "new", 33.0, True, estimated_tmax_us=100.0)
        )
        return telemetry

    def test_round_trip(self):
        telemetry = self._populated()
        buffer = io.StringIO()
        records = export_jsonl(telemetry, buffer)
        assert records == 1 + 3 + 2  # header + metrics + events
        buffer.seek(0)
        metrics, events = read_jsonl(buffer)
        assert metrics["queries_total"]["samples"] == {"node=a": 5.0}
        assert metrics["ratio"]["samples"] == {"": 0.9}
        assert metrics["t_us"]["samples"][""]["count"] == 1
        assert [e.kind for e in events] == ["span", "replan"]
        assert events[0].fields["task"] == "IN"
        assert events[1].fields["new_config"] == "new"

    def test_round_trip_via_file(self, tmp_path):
        telemetry = self._populated()
        path = str(tmp_path / "trace.jsonl")
        export_jsonl(telemetry, path)
        metrics, events = read_jsonl(path)
        assert "queries_total" in metrics
        assert len(events) == 2

    def test_every_line_is_strict_json(self):
        telemetry = self._populated()
        buffer = io.StringIO()
        export_jsonl(telemetry, buffer)
        for line in buffer.getvalue().splitlines():
            json.loads(line)

    def test_malformed_input_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TelemetryError):
            read_jsonl(str(path))


class TestPrometheusExporter:
    def test_counter_and_gauge_series(self):
        registry = MetricsRegistry()
        registry.counter("claims_total", help="claim sets").inc(3, owner="gpu")
        registry.gauge("skew").set(0.99)
        families = parse_prometheus(prometheus_text(registry))
        assert families["claims_total"]["type"] == "counter"
        assert families["claims_total"]["samples"]['claims_total{owner="gpu"}'] == 3
        assert families["skew"]["samples"]["skew"] == pytest.approx(0.99)

    def test_histogram_series_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("t_us", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 100.0):
            histogram.observe(value)
        families = parse_prometheus(prometheus_text(registry))
        samples = families["t_us"]["samples"]
        assert samples['t_us_bucket{le="1"}'] == 1
        assert samples['t_us_bucket{le="10"}'] == 2
        assert samples['t_us_bucket{le="+Inf"}'] == 3
        assert samples["t_us_count"] == 3
        assert samples["t_us_sum"] == pytest.approx(105.5)

    def test_one_family_per_registry_entry(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(1)
        registry.histogram("c", buckets=(1.0,)).observe(0.5)
        families = parse_prometheus(prometheus_text(registry))
        assert set(families) == {"a", "b", "c"}

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(node='we"ird\\')
        text = prometheus_text(registry)
        parse_prometheus(text)  # must not choke on escaped quotes
        assert '\\"' in text


class TestHub:
    def test_default_hub_starts_disabled(self):
        assert get_telemetry().enabled is False

    def test_configure_resets_and_preserves_identity(self):
        hub = get_telemetry()
        telemetry = configure(enabled=True)
        assert telemetry is hub
        telemetry.registry.counter("x").inc()
        configure(enabled=False)
        assert hub.enabled is False
        assert hub.registry.counter("x").value() == 0

    def test_emit_respects_enabled(self):
        telemetry = Telemetry(enabled=False)
        telemetry.emit(TraceEvent("span", "e", t_wall=0.0))
        assert len(telemetry.events) == 0
        telemetry.enable()
        telemetry.emit(TraceEvent("span", "e", t_wall=0.0))
        assert len(telemetry.events) == 1


class TestInstrumentedSystem:
    """The acceptance demo as a test: a dynamic workload leaves a full trace."""

    @staticmethod
    def drive(engine=None):
        from repro import DidoSystem, QueryStream, standard_workload

        system = DidoSystem(memory_bytes=48 << 20, expected_objects=20_000, engine=engine)
        for label in ("K8-G95-S", "K128-G95-S", "K8-G50-U"):
            stream = QueryStream(standard_workload(label), num_keys=2_000, seed=3)
            for _ in range(2):
                system.process(stream.next_batch(512))
        return system

    @pytest.fixture
    def traced_system(self, live_telemetry):
        return self.drive(), live_telemetry

    def test_replan_events_with_before_after_configs(self, traced_system):
        _, telemetry = traced_system
        replans = telemetry.events.by_kind("replan")
        assert len(replans) >= 1
        bootstrap = replans[0]
        assert bootstrap.fields["old_config"] is None
        assert bootstrap.fields["new_config"]
        switches = [e for e in replans[1:] if e.fields["changed"]]
        assert switches, "the phase shifts must change the pipeline"
        for event in switches:
            assert event.fields["old_config"] != event.fields["new_config"]
            assert event.fields["estimated_mops"] > 0

    def test_replan_events_say_why_and_what_they_cost(self, traced_system):
        system, telemetry = traced_system
        replans = telemetry.events.by_kind("replan")
        assert replans[0].fields["reason"] == "bootstrap"
        reasons = {e.fields["reason"] for e in replans[1:]}
        assert reasons <= {"get_ratio", "key_size", "value_size", "skew"}
        assert "key_size" in reasons or "value_size" in reasons  # K8 -> K128
        histogram = telemetry.registry.get("repro_replan_seconds")
        for event, record in zip(system.controller.events, replans):
            assert record.fields["window_queries"] == event.window_queries >= 512
            assert record.fields["search_ms"] == pytest.approx(event.search_seconds * 1e3)
        assert sum(slot.count for _, slot in histogram.samples()) == len(replans)
        assert histogram.count(reason="bootstrap") == 1
        assert histogram.total(reason="bootstrap") == pytest.approx(
            system.controller.events[0].search_seconds
        )

    def test_spans_cover_all_eight_tasks(self, traced_system):
        _, telemetry = traced_system
        spans = [e for e in telemetry.events.snapshot() if e.name == "pipeline_stage"]
        tasks = {e.fields["task"] for e in spans}
        assert tasks == {"RV", "PP", "MM", "IN", "KC", "RD", "WR", "SD"}

    def test_kernel_placement_is_visible_from_the_running_system(self, traced_system):
        system, telemetry = traced_system
        mix = telemetry.registry.get("repro_pass_kernel_total")
        scalar = mix.value(**{"pass": "search", "kernel": "scalar"})
        columnar = mix.value(**{"pass": "search", "kernel": "columnar"})
        assert scalar > 0 and columnar > 0
        assert scalar + columnar == system.report().batches
        replans = telemetry.events.by_kind("replan")
        assert replans[0].fields["host_costs"] == {}  # bootstrap: nothing measured yet
        # (This drive's later re-plans each follow a key-size shift, which
        # has just dropped the Search fits; tests/test_dido_system.py reads
        # fitted lines off a GET-ratio re-plan.)
        assert [r.fields["host_costs"] for r in replans] == [
            e.host_costs for e in system.controller.events
        ]

    def test_steal_claims_counted_per_owner(self, live_telemetry):
        self.drive(engine="stealing")
        counter = live_telemetry.registry.get("repro_steal_claims_total")
        assert counter is not None
        assert counter.value(owner="gpu", stolen="false") > 0
        assert counter.value(owner="cpu", stolen="true") > 0

    def test_profiler_gauges_exposed(self, traced_system):
        _, telemetry = traced_system
        get_ratio = telemetry.registry.get("repro_profile_get_ratio")
        assert get_ratio is not None
        assert 0.0 <= get_ratio.value() <= 1.0
        # The last *closed* window: the K8-G50-U shift closed one early on
        # its first 512-query batch; the batch after it is still open.
        assert telemetry.registry.get("repro_profile_window_queries").value() == 512

    def test_window_gauge_counts_every_batch_of_the_window(self, live_telemetry):
        from repro import DidoSystem, QueryStream, standard_workload

        system = DidoSystem(memory_bytes=48 << 20, expected_objects=20_000)
        stream = QueryStream(standard_workload("K8-G95-S"), num_keys=2_000, seed=3)
        gauge = lambda: live_telemetry.registry.get("repro_profile_window_queries").value()
        system.process(stream.next_batch(500))
        assert gauge() == 500  # the bootstrap window is the first batch
        for _ in range(7):
            system.process(stream.next_batch(512))
        assert (system.profiler.epoch, gauge()) == (1, 500)  # window still open
        system.process(stream.next_batch(512))
        assert (system.profiler.epoch, gauge()) == (2, 4096)

    def test_trace_exports_round_trip(self, traced_system, tmp_path):
        _, telemetry = traced_system
        path = str(tmp_path / "trace.jsonl")
        export_jsonl(telemetry, path)
        metrics, events = read_jsonl(path)
        assert "repro_pipeline_queries_total" in metrics
        assert any(e.kind == "replan" for e in events)
        families = parse_prometheus(prometheus_text(telemetry.registry))
        assert len(families) == len(telemetry.registry.instruments())

    def test_console_summary_renders(self, traced_system):
        _, telemetry = traced_system
        text = console_summary(telemetry)
        assert "replans" in text
        assert "repro_pipeline_batches_total" in text

    def test_executor_measurement_spans(self, live_telemetry):
        from repro.hardware.specs import APU_A10_7850K
        from repro.pipeline.executor import PipelineExecutor
        from repro.pipeline.megakv import megakv_coupled_config

        from conftest import profile_for

        executor = PipelineExecutor(APU_A10_7850K)
        executor.measure(megakv_coupled_config(), profile_for("K16-G95-S"))
        spans = live_telemetry.events.by_kind("span")
        tasks = {e.fields["task"] for e in spans}
        assert tasks == {"RV", "PP", "MM", "IN", "KC", "RD", "WR", "SD"}
        assert live_telemetry.registry.get("repro_executor_measurements_total").value() == 1
        assert live_telemetry.registry.get("repro_batch_period_us").count() == 1


class TestLogArenaTelemetry:
    def test_arena_series_and_console_section(self, live_telemetry):
        from repro.kv.logarena import LogValueArena
        from repro.kv.store import KVStore

        store = KVStore(
            1 << 20, 4096, heap=LogValueArena(1 << 16, segment_bytes=1 << 12)
        )
        for i in range(700):  # ~72 KiB live against a 64 KiB budget
            store.set(b"key-%04d" % i, b"x" * 100)
        assert store.maintenance() > 0
        registry = live_telemetry.registry
        assert registry.get("repro_logarena_live_bytes").value() <= 1 << 16
        assert registry.get("repro_logarena_dead_bytes").value() >= 0
        assert registry.get("repro_logarena_compactions_total").value() >= 1
        text = console_summary(live_telemetry)
        assert "log arena" in text
        assert "repro_logarena_live_bytes" in text
        assert "repro_logarena_dead_bytes" in text
        assert "repro_logarena_compactions_total" in text

    def test_maintenance_streams_and_relocation_counters(self, live_telemetry):
        from repro.kv.logarena import LogValueArena
        from repro.kv.store import KVStore

        heap = LogValueArena(1 << 20, segment_bytes=1 << 12)
        store = KVStore(1 << 20, 4096, heap=heap)
        for i in range(300):
            store.set(b"key-%04d" % i, b"a" * 100)
        for i in range(0, 300, 2):  # every segment of the load: half dead
            store.set(b"key-%04d" % i, b"b" * 100)
        assert heap.needs_maintenance
        assert store.maintenance() == 0  # rewrite, not eviction
        assert heap.stats.relocations > 0
        registry = live_telemetry.registry
        assert (
            registry.get("repro_logarena_relocations_total").value()
            == heap.stats.relocations
        )
        assert (
            registry.get("repro_logarena_relocated_bytes_total").value()
            == heap.stats.relocated_bytes
            == 100 * heap.stats.relocations
        )
        spent = registry.get("repro_maintenance_ns")
        assert spent.count(stream="compaction") == 1
        assert spent.total(stream="compaction") > 0
        # A tick with nothing due observes nothing.
        store.maintenance()
        assert spent.count(stream="compaction") == 1
        text = prometheus_text(live_telemetry.registry)
        assert 'repro_maintenance_ns_count{stream="compaction"} 1' in text
        assert "repro_logarena_relocations_total" in console_summary(live_telemetry)

    def test_maintenance_emits_nothing_when_disabled(self):
        from repro.kv.logarena import LogValueArena
        from repro.kv.store import KVStore

        telemetry = get_telemetry()
        assert not telemetry.enabled
        before = telemetry.registry.snapshot()
        store = KVStore(
            1 << 20, 4096, heap=LogValueArena(1 << 16, segment_bytes=1 << 12)
        )
        for i in range(700):
            store.set(b"key-%04d" % i, b"x" * 100)
        assert store.maintenance() > 0
        assert telemetry.registry.snapshot() == before


class TestDisabledOverheadPath:
    def test_disabled_system_records_nothing(self):
        from repro import DidoSystem, QueryStream, standard_workload

        telemetry = get_telemetry()
        assert not telemetry.enabled
        before_events = len(telemetry.events)
        system = DidoSystem(memory_bytes=16 << 20, expected_objects=4_096)
        stream = QueryStream(standard_workload("K16-G95-S"), num_keys=500, seed=1)
        system.process(stream.next_batch(256))
        assert len(telemetry.events) == before_events
