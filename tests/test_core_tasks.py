"""Unit tests for the task taxonomy and the per-task demand model."""

import pytest

from repro.core.tasks import (
    AFFINITY_PAIRS,
    CPU_ONLY_TASKS,
    DEFAULT_CALIBRATION,
    GPU_ELIGIBLE_TASKS,
    TASK_ORDER,
    IndexOp,
    StageContext,
    Task,
    TaskModel,
    contiguous_in_order,
)
from repro.errors import ConfigurationError


class TestTaxonomy:
    def test_eight_tasks_in_order(self):
        assert [t.name for t in TASK_ORDER] == ["RV", "PP", "MM", "IN", "KC", "RD", "WR", "SD"]

    def test_cpu_only_and_gpu_eligible_partition(self):
        assert CPU_ONLY_TASKS | GPU_ELIGIBLE_TASKS == set(Task)
        assert not CPU_ONLY_TASKS & GPU_ELIGIBLE_TASKS

    def test_rv_sd_pinned(self):
        assert Task.RV in CPU_ONLY_TASKS
        assert Task.SD in CPU_ONLY_TASKS

    def test_affinity_pairs_adjacent(self):
        for pred, succ in AFFINITY_PAIRS:
            assert succ.value == pred.value + 1

    def test_ordering_operator(self):
        assert Task.RV < Task.SD
        assert not Task.KC < Task.KC

    def test_contiguous_in_order(self):
        assert contiguous_in_order((Task.IN, Task.KC, Task.RD))
        assert contiguous_in_order((Task.RV,))
        assert not contiguous_in_order((Task.IN, Task.RD))
        assert not contiguous_in_order((Task.KC, Task.IN))
        assert not contiguous_in_order(())


@pytest.fixture
def model():
    return TaskModel()


def ctx(**kwargs):
    return StageContext(cache_line_bytes=64, **kwargs)


def demand_of(model, task, batch=1000, key=16.0, value=64.0, get=0.95, context=None):
    return model.demand(
        task, batch, key_size=key, value_size=value, get_ratio=get,
        context=context or ctx(),
    )


class TestFrameSizing:
    def test_queries_per_frame_small_keys(self, model):
        qpf = model.queries_per_frame(8, 8, get_ratio=1.0)
        assert qpf == pytest.approx(1500 / 15, rel=0.01)

    def test_qpf_shrinks_with_set_ratio(self, model):
        all_gets = model.queries_per_frame(16, 1024, get_ratio=1.0)
        half_sets = model.queries_per_frame(16, 1024, get_ratio=0.5)
        assert half_sets < all_gets

    def test_responses_per_frame(self, model):
        rpf = model.responses_per_frame(1024, get_ratio=1.0)
        assert 1.0 <= rpf < 2.0

    def test_response_bytes(self, model):
        assert model.response_bytes(100, get_ratio=0.5) == pytest.approx(5 + 50)


class TestDemands:
    def test_all_noncore_tasks_have_demands(self, model):
        for task in Task:
            if task is Task.IN:
                continue
            d = demand_of(model, task)
            assert d.count > 0
            assert d.instructions > 0

    def test_in_task_requires_index_demand(self, model):
        with pytest.raises(ConfigurationError):
            demand_of(model, Task.IN)

    def test_mm_counts_sets_only(self, model):
        d = demand_of(model, Task.MM, batch=1000, get=0.95)
        assert d.count == pytest.approx(50)

    def test_kc_counts_gets_only(self, model):
        d = demand_of(model, Task.KC, batch=1000, get=0.95)
        assert d.count == pytest.approx(950)

    def test_rd_affinity_removes_random_access(self, model):
        cold = demand_of(model, Task.RD, context=ctx(with_kc=False))
        warm = demand_of(model, Task.RD, context=ctx(with_kc=True))
        assert cold.pattern.memory_accesses > warm.pattern.memory_accesses
        assert warm.pattern.memory_accesses == 0.0

    def test_rd_buffer_write_when_separated_from_wr(self, model):
        plain = demand_of(model, Task.RD, context=ctx(with_kc=True))
        feeding = demand_of(model, Task.RD, context=ctx(with_kc=True, rd_feeds_buffer=True))
        assert feeding.pattern.cache_accesses > plain.pattern.cache_accesses

    def test_wr_sequential_source_when_rd_elsewhere(self, model):
        with_rd = demand_of(model, Task.WR, context=ctx(with_rd=True))
        without = demand_of(model, Task.WR, context=ctx(with_rd=False))
        # Either way WR performs no random accesses: the separation turned
        # them sequential (Section III-A).
        assert with_rd.pattern.memory_accesses == 0.0
        assert without.pattern.memory_accesses == 0.0

    def test_hot_fraction_reduces_kc_memory(self, model):
        cold = demand_of(model, Task.KC)
        hot = demand_of(model, Task.KC, context=ctx(hot_fraction=0.8))
        assert hot.pattern.memory_accesses == pytest.approx(
            0.2 * cold.pattern.memory_accesses
        )

    def test_kc_reads_header_and_key(self, model):
        small = demand_of(model, Task.KC, key=8.0)
        large = demand_of(model, Task.KC, key=128.0)
        # 128+16 B crosses line boundaries -> extra cache accesses.
        assert large.pattern.cache_accesses > small.pattern.cache_accesses

    def test_rv_amortizes_frame_costs(self, model):
        small_vals = demand_of(model, Task.RV, value=8.0, get=0.5)
        large_vals = demand_of(model, Task.RV, value=1024.0, get=0.5)
        # Fewer queries per frame -> more per-query frame overhead.
        assert large_vals.instructions > small_vals.instructions

    def test_total_memory_accesses(self, model):
        d = demand_of(model, Task.KC, batch=2000, get=0.5)
        assert d.total_memory_accesses == pytest.approx(
            d.count * d.pattern.memory_accesses
        )


class TestIndexDemands:
    def test_search_uses_probe_count(self, model):
        d = model.index_demand(IndexOp.SEARCH, 100, search_buckets=1.7, insert_buckets=2.5)
        assert d.pattern.memory_accesses == pytest.approx(1.7)
        assert not d.atomic

    def test_insert_atomic_with_measured_buckets(self, model):
        d = model.index_demand(IndexOp.INSERT, 100, search_buckets=1.7, insert_buckets=2.5)
        assert d.pattern.memory_accesses == pytest.approx(2.5)
        assert d.atomic

    def test_delete_atomic(self, model):
        d = model.index_demand(IndexOp.DELETE, 100, search_buckets=1.7, insert_buckets=2.5)
        assert d.atomic


class TestCalibrationConstants:
    def test_with_cpu_overhead(self):
        heavy = DEFAULT_CALIBRATION.with_cpu_overhead(1.5)
        assert heavy.kc_instr_base == pytest.approx(1.5 * DEFAULT_CALIBRATION.kc_instr_base)
        assert heavy.mm_mem_per_set == pytest.approx(1.5 * DEFAULT_CALIBRATION.mm_mem_per_set)
        # GPU-side index op costs are untouched (same kernels).
        assert heavy.search_instr == DEFAULT_CALIBRATION.search_instr

    def test_with_cpu_overhead_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_CALIBRATION.with_cpu_overhead(0.0)
