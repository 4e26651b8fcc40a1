"""Unit tests for configuration enumeration and search."""

import pytest

from repro.core.config_search import (
    ConfigurationSearch,
    best_config_for,
    enumerate_configs,
)
from repro.core.cost_model import CostModel
from repro.core.tasks import IndexOp, Task
from repro.hardware.specs import APU_A10_7850K
from repro.pipeline.megakv import megakv_coupled_config

from conftest import profile_for


class TestEnumeration:
    def test_all_configs_legal(self):
        for config in enumerate_configs(4):
            covered = tuple(t for s in config.stages for t in s.tasks)
            assert len(covered) == 8

    def test_space_size(self):
        configs = enumerate_configs(4)
        # 1 CPU-only + 3 GPU segments x 3 core splits x 4 index policies.
        assert len(configs) == 1 + 3 * 3 * 4

    def test_contains_megakv_partitioning(self):
        target = megakv_coupled_config().stages
        labels = {tuple(s.tasks for s in c.stages) for c in enumerate_configs(4)}
        assert tuple(s.tasks for s in target) in labels

    def test_contains_paper_pipeline_2(self):
        """Figure 8's pipeline 2: [RV,PP,MM] -> [IN,KC,RD]GPU -> [WR,SD]."""
        shapes = {tuple(s.tasks for s in c.stages) for c in enumerate_configs(4)}
        expected = (
            (Task.RV, Task.PP, Task.MM),
            (Task.IN, Task.KC, Task.RD),
            (Task.WR, Task.SD),
        )
        assert expected in shapes

    def test_work_stealing_flag_propagates(self):
        assert all(c.work_stealing for c in enumerate_configs(4, work_stealing=True))
        assert not any(c.work_stealing for c in enumerate_configs(4, work_stealing=False))

    def test_cpu_only_excludable(self):
        configs = enumerate_configs(4, include_cpu_only=False)
        assert all(c.gpu_stage is not None for c in configs)

    def test_fixed_pipeline_index_policies(self):
        fixed = megakv_coupled_config()
        policies = enumerate_configs(4, fixed_pipeline=fixed)
        assert len(policies) == 4
        placements = set()
        for c in policies:
            stage_by_op = {op: s for s in c.stages for op in s.index_ops}
            placements.add(
                (stage_by_op[IndexOp.INSERT].processor, stage_by_op[IndexOp.DELETE].processor)
            )
        assert len(placements) == 4

    def test_fixed_pipeline_preserves_partitioning(self):
        fixed = megakv_coupled_config()
        for config in enumerate_configs(4, fixed_pipeline=fixed):
            assert tuple(s.tasks for s in config.stages) == tuple(
                s.tasks for s in fixed.stages
            )


class TestSearch:
    @pytest.fixture(scope="class")
    def search(self):
        return ConfigurationSearch(CostModel(APU_A10_7850K))

    def test_rank_sorted_descending(self, search):
        ranked = search.rank(profile_for("K16-G95-S"))
        throughputs = [r.throughput_mops for r in ranked]
        assert throughputs == sorted(throughputs, reverse=True)

    def test_best_is_first(self, search):
        profile = profile_for("K8-G95-U")
        assert (
            search.best(profile).throughput_mops
            == search.rank(profile)[0].throughput_mops
        )

    def test_best_beats_megakv_partitioning(self, search):
        """The chosen plan is at least as good as the static baseline."""
        profile = profile_for("K8-G95-U")
        best = search.best(profile)
        megakv_est = search.analyzer.estimate(
            megakv_coupled_config().with_work_stealing(True), profile
        )
        assert best.throughput_mops >= megakv_est.throughput_mops

    def test_best_differs_across_workloads(self, search):
        """Dynamic adaptation exists: not all workloads share one plan."""
        labels = ("K8-G100-U", "K8-G50-U", "K128-G95-S", "K128-G50-S")
        plans = {search.best(profile_for(l)).config.label for l in labels}
        assert len(plans) >= 2

    def test_restricted_configs_respected(self, search):
        fixed = megakv_coupled_config()
        policies = enumerate_configs(4, work_stealing=False, fixed_pipeline=fixed)
        best = search.best(profile_for("K16-G95-S"), configs=policies)
        assert tuple(s.tasks for s in best.config.stages) == tuple(
            s.tasks for s in fixed.stages
        )

    def test_best_config_for_helper(self):
        config = best_config_for(APU_A10_7850K, profile_for("K16-G95-S"))
        assert config.num_stages in (1, 3)


class TestPlanShapes:
    """Qualitative planning claims from the paper's Section V-C."""

    @pytest.fixture(scope="class")
    def search(self):
        return ConfigurationSearch(CostModel(APU_A10_7850K))

    def test_small_kv_get_heavy_offloads_more(self, search):
        """Read-intensive small-KV workloads put more than just IN on the
        GPU (paper: [IN, KC, RD]GPU for K8/K16 at 95-100 % GET)."""
        offloaded = 0
        for label in ("K8-G100-U", "K8-G95-U", "K16-G100-U", "K16-G95-U"):
            config = search.best(profile_for(label)).config
            gpu_stage = config.gpu_stage
            if gpu_stage is not None and len(gpu_stage.tasks) > 1:
                offloaded += 1
        assert offloaded >= 2

    def test_write_heavy_keeps_insert_delete_near_mm(self, search):
        """For 95 % GET the paper moves Insert/Delete to the CPU."""
        moved = 0
        for label in ("K8-G95-S", "K16-G95-S", "K32-G95-S", "K128-G95-S"):
            config = search.best(profile_for(label)).config
            if config.insert_on_cpu or config.delete_on_cpu:
                moved += 1
        assert moved >= 2

    def test_gpu_always_used(self, search):
        """On this hardware a pure-CPU pipeline never wins."""
        for label in ("K8-G95-U", "K32-G50-S", "K128-G100-S"):
            assert search.best(profile_for(label)).config.gpu_stage is not None
