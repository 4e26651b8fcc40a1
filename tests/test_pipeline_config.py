"""Unit tests for pipeline partitioning and index-assignment configs."""

import pytest

from repro.core.pipeline_config import PipelineConfig, StageSpec, gpu_segments
from repro.core.tasks import TASK_ORDER, IndexOp, Task
from repro.errors import ConfigurationError
from repro.hardware.specs import ProcessorKind


class TestStageSpec:
    def test_valid_cpu_stage(self):
        stage = StageSpec((Task.RV, Task.PP, Task.MM), ProcessorKind.CPU, cores=2)
        assert Task.PP in stage
        assert stage.label == "[RV, PP, MM]CPU"

    def test_valid_gpu_stage(self):
        stage = StageSpec((Task.IN, Task.KC), ProcessorKind.GPU)
        assert stage.label == "[IN, KC]GPU"

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            StageSpec((), ProcessorKind.CPU, cores=1)

    def test_rejects_noncontiguous(self):
        with pytest.raises(ConfigurationError):
            StageSpec((Task.RV, Task.MM), ProcessorKind.CPU, cores=1)

    def test_rejects_cpu_only_task_on_gpu(self):
        with pytest.raises(ConfigurationError):
            StageSpec((Task.MM, Task.IN), ProcessorKind.GPU)

    def test_rejects_cpu_stage_without_cores(self):
        with pytest.raises(ConfigurationError):
            StageSpec((Task.RV,), ProcessorKind.CPU, cores=0)

    def test_rejects_gpu_stage_with_cores(self):
        with pytest.raises(ConfigurationError):
            StageSpec((Task.IN,), ProcessorKind.GPU, cores=2)


class TestAssemble:
    def test_megakv_shape(self):
        config = PipelineConfig.assemble((Task.IN,), total_cpu_cores=4, prefix_cores=2)
        assert config.num_stages == 3
        assert config.stages[0].tasks == (Task.RV, Task.PP, Task.MM)
        assert config.stages[1].tasks == (Task.IN,)
        assert config.stages[2].tasks == (Task.KC, Task.RD, Task.WR, Task.SD)
        assert config.stages[0].cores + config.stages[2].cores == 4

    def test_full_gpu_segment(self):
        config = PipelineConfig.assemble(
            (Task.IN, Task.KC, Task.RD), total_cpu_cores=4
        )
        assert config.stages[2].tasks == (Task.WR, Task.SD)

    def test_cpu_only(self):
        config = PipelineConfig.assemble((), total_cpu_cores=4)
        assert config.num_stages == 1
        assert config.gpu_stage is None
        assert set(config.stages[0].index_ops) == set(IndexOp)

    def test_index_ops_default_on_gpu(self):
        config = PipelineConfig.assemble((Task.IN,), total_cpu_cores=4)
        gpu = config.gpu_stage
        assert set(gpu.index_ops) == set(IndexOp)

    def test_insert_delete_reassignment(self):
        config = PipelineConfig.assemble(
            (Task.IN,), total_cpu_cores=4, insert_on_cpu=True, delete_on_cpu=True
        )
        assert config.gpu_stage.index_ops == (IndexOp.SEARCH,)
        prefix_ops = set(config.stages[0].index_ops)
        assert prefix_ops == {IndexOp.INSERT, IndexOp.DELETE}

    def test_stage_of_index_op(self):
        config = PipelineConfig.assemble(
            (Task.IN,), total_cpu_cores=4, insert_on_cpu=True
        )
        assert config.stage_of_index_op(IndexOp.SEARCH).processor is ProcessorKind.GPU
        assert config.stage_of_index_op(IndexOp.INSERT).processor is ProcessorKind.CPU
        assert config.stage_of_index_op(IndexOp.DELETE).processor is ProcessorKind.GPU

    def test_reassignment_without_gpu_search_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.assemble((), total_cpu_cores=4, insert_on_cpu=True)

    def test_noncontiguous_gpu_segment_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.assemble((Task.IN, Task.RD), total_cpu_cores=4)

    def test_cpu_only_task_in_gpu_segment_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.assemble((Task.MM, Task.IN), total_cpu_cores=4)

    def test_prefix_cores_bounds(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.assemble((Task.IN,), total_cpu_cores=4, prefix_cores=4)
        with pytest.raises(ConfigurationError):
            PipelineConfig.assemble((Task.IN,), total_cpu_cores=4, prefix_cores=0)

    def test_single_core_cpu_rejected_for_three_stages(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.assemble((Task.IN,), total_cpu_cores=1)

    def test_stage_of(self):
        config = PipelineConfig.assemble((Task.IN,), total_cpu_cores=4)
        assert config.stage_of(Task.RV) is config.stages[0]
        assert config.stage_of(Task.KC) is config.stages[2]


class TestConfigInvariants:
    def test_tasks_cover_order_exactly(self):
        for segment in gpu_segments():
            config = PipelineConfig.assemble(segment, total_cpu_cores=4)
            covered = tuple(t for s in config.stages for t in s.tasks)
            assert covered == TASK_ORDER

    def test_direct_construction_validates_coverage(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(
                stages=(
                    StageSpec((Task.RV, Task.PP), ProcessorKind.CPU, cores=4),
                )
            )

    def test_first_last_cpu(self):
        stages = (
            StageSpec(TASK_ORDER[:3], ProcessorKind.CPU, cores=2),
            StageSpec((Task.IN,), ProcessorKind.GPU),
            StageSpec(TASK_ORDER[4:], ProcessorKind.CPU, cores=2),
        )
        config = PipelineConfig(stages=stages)
        assert config.stages[0].processor is ProcessorKind.CPU

    def test_with_work_stealing(self):
        config = PipelineConfig.assemble((Task.IN,), total_cpu_cores=4)
        off = config.with_work_stealing(False)
        assert not off.work_stealing
        assert off.stages == config.stages

    def test_label_mentions_reassignment(self):
        config = PipelineConfig.assemble(
            (Task.IN,), total_cpu_cores=4, insert_on_cpu=True, delete_on_cpu=True
        )
        assert "Insert@CPU" in config.label
        assert "Delete@CPU" in config.label


class TestHashing:
    def test_hash_is_cached_and_consistent_with_equality(self):
        a = PipelineConfig.assemble((Task.IN,), total_cpu_cores=4, prefix_cores=2)
        b = PipelineConfig.assemble((Task.IN,), total_cpu_cores=4, prefix_cores=2)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert a.__dict__["_hash"] == hash(a)
        assert {a: 1}[b] == 1
        assert hash(a.with_work_stealing(False)) != hash(a)

    def test_cached_hash_does_not_travel_in_a_pickle(self):
        """Enum hashes are per-process (string hash randomisation)."""
        import pickle

        config = PipelineConfig.assemble((Task.IN, Task.KC), total_cpu_cores=4)
        hash(config)
        clone = pickle.loads(pickle.dumps(config))
        assert "_hash" not in clone.__dict__
        assert clone == config and hash(clone) == hash(config)


class TestGpuSegments:
    def test_segments_start_at_in(self):
        segments = gpu_segments()
        assert () in segments
        for segment in segments:
            if segment:
                assert segment[0] is Task.IN

    def test_expected_segments(self):
        names = {tuple(t.name for t in s) for s in gpu_segments()}
        assert names == {(), ("IN",), ("IN", "KC"), ("IN", "KC", "RD")}
