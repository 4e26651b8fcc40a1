"""Unit tests for the Mega-KV baseline (coupled and discrete)."""


from repro.core.tasks import IndexOp, Task
from repro.hardware.specs import APU_A10_7850K, DISCRETE_MEGAKV, ProcessorKind
from repro.pipeline.megakv import (
    MEGAKV_PORT_OVERHEAD,
    measure_megakv,
    megakv_coupled_config,
    megakv_discrete_config,
    megakv_executor,
)

from conftest import profile_for


class TestConfigs:
    def test_coupled_static_pipeline(self):
        config = megakv_coupled_config()
        assert config.stages[1].tasks == (Task.IN,)
        assert config.stages[1].processor is ProcessorKind.GPU
        assert not config.work_stealing
        assert not config.insert_on_cpu and not config.delete_on_cpu

    def test_all_index_ops_on_gpu(self):
        config = megakv_coupled_config()
        assert set(config.gpu_stage.index_ops) == set(IndexOp)

    def test_discrete_uses_all_xeon_cores(self):
        config = megakv_discrete_config()
        assert sum(s.cores for s in config.stages if s.cores) == 16


class TestPortOverhead:
    def test_port_overhead_slows_coupled_baseline(self):
        """Mega-KV (Coupled) is an OpenCL port: its CPU-side work carries
        overhead relative to DIDO's native implementation."""
        from repro.pipeline.executor import PipelineExecutor

        profile = profile_for("K16-G95-S")
        native = PipelineExecutor(APU_A10_7850K).measure(
            megakv_coupled_config(), profile
        )
        ported = megakv_executor(APU_A10_7850K).measure(
            megakv_coupled_config(), profile
        )
        assert ported.throughput_mops < native.throughput_mops
        assert MEGAKV_PORT_OVERHEAD > 1.0

    def test_discrete_has_no_port_overhead(self):
        """The discrete baseline is the original native CUDA system."""
        from repro.core.tasks import DEFAULT_CALIBRATION

        ex = megakv_executor(DISCRETE_MEGAKV)
        assert ex.task_model.constants == DEFAULT_CALIBRATION


class TestMeasurements:
    def test_measure_coupled(self):
        m = measure_megakv(APU_A10_7850K, profile_for("K16-G95-S"))
        assert m.throughput_mops > 0

    def test_measure_discrete_faster(self):
        """Figure 16: the discrete testbed far outruns the APU."""
        profile = profile_for("K8-G95-U")
        coupled = measure_megakv(APU_A10_7850K, profile)
        discrete = measure_megakv(DISCRETE_MEGAKV, profile)
        assert discrete.throughput_mops > 3 * coupled.throughput_mops

    def test_discrete_gap_larger_for_small_kv(self):
        """The discrete advantage shrinks for large values (PCIe and host
        processing matter more)."""
        gap = {}
        for label in ("K8-G95-U", "K128-G95-U"):
            profile = profile_for(label)
            coupled = measure_megakv(APU_A10_7850K, profile).throughput_mops
            discrete = measure_megakv(DISCRETE_MEGAKV, profile).throughput_mops
            gap[label] = discrete / coupled
        assert gap["K8-G95-U"] != gap["K128-G95-U"]  # workload-dependent gap
        assert min(gap.values()) > 2.0
