"""The decision plane off the per-batch critical path.

Four properties of the profile -> decide -> plan loop:

* steady traffic never re-plans, however it is batched;
* a real shift is adopted within a stated number of queries;
* the interpolating batch-size search returns exactly what doubling and
  bisection returned, in a third of the ``evaluate_batch`` calls;
* the heaps' first-touch log yields the sample a scan of the heap would.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config_search import ConfigurationSearch, enumerate_configs
from repro.core.cost_model import (
    DETAILED_FIDELITY,
    MAX_BATCH,
    MIN_BATCH,
    CostModel,
    PipelineAnalyzer,
)
from repro.core.dido import DidoSystem
from repro.core.profiler import (
    EARLY_CLOSE_MIN_QUERIES,
    WINDOW_QUERIES,
    WorkloadProfile,
)
from repro.hardware.specs import APU_A10_7850K
from repro.kv.objects import TOUCH_LOG_LIMIT
from repro.kv.protocol import Query, QueryType
from repro.kv.store import KVStore
from repro.net.wire import QueryColumns
from repro.pipeline.functional import FunctionalPipeline
from repro.pipeline.megakv import megakv_coupled_config
from repro.workloads.distributions import make_distribution

from conftest import heap_named

NUM_KEYS = 32768
_QTYPES = (None, QueryType.GET, QueryType.SET, QueryType.DELETE)


class Traffic:
    """Seeded columnar batches of one traffic mix over ``NUM_KEYS`` keys
    (the serving benchmark's mixes, rebuilt here: tier-1 tests import
    nothing from ``benchmarks/``)."""

    def __init__(self, key_size, value_size, get, set_, skew, seed=1):
        self.value = b"v" * value_size
        self.keys = [b"%0*d" % (key_size, i) for i in range(NUM_KEYS)]
        self.mix = (get, set_, 1.0 - get - set_)
        self.rng = np.random.default_rng(seed)
        # Popularity ranks land on keys in a seeded order, not id order.
        self.rank_to_key = self.rng.permutation(NUM_KEYS)
        self.distribution = make_distribution(NUM_KEYS, skew, seed=seed)

    def batch(self, size: int) -> QueryColumns:
        ids = self.rank_to_key[self.distribution.sample(size)]
        opcodes = self.rng.choice((1, 2, 3), size=size, p=self.mix).astype(np.uint8)
        keys = [self.keys[i] for i in ids.tolist()]
        values = [self.value if op == 2 else b"" for op in opcodes.tolist()]
        return QueryColumns(
            [_QTYPES[op] for op in opcodes.tolist()],
            keys,
            values,
            opcodes=opcodes,
            key_lens=np.fromiter(map(len, keys), dtype=np.int64, count=size),
            value_lens=np.fromiter(map(len, values), dtype=np.int64, count=size),
        )

    def prefilled_system(self) -> DidoSystem:
        system = DidoSystem(
            memory_bytes=64 << 20, expected_objects=65536, engine="vector"
        )
        system.store.populate([(key, self.value) for key in self.keys])
        return system


#: ``small-dgram`` is the ``read-uniform`` mix at 4 queries per batch.
MIXES = {
    "read-uniform": dict(key_size=16, value_size=64, get=0.95, set_=0.05, skew=0.0),
    "read-skew": dict(key_size=16, value_size=64, get=0.95, set_=0.05, skew=0.99),
    "write-heavy": dict(key_size=32, value_size=256, get=0.50, set_=0.45, skew=0.0),
}


def non_bootstrap(system: DidoSystem) -> list:
    return [event for event in system.controller.events if not event.bootstrap]


# ------------------------------------------------------------ steady traffic


@pytest.mark.parametrize("batch_size", [4, 25, 53, 580, 4096])
@pytest.mark.parametrize("mix", list(MIXES))
def test_steady_traffic_does_not_replan(mix, batch_size):
    """200 batches of one stream: the bootstrap plan (made from the first
    batch alone, so possibly from four queries) may be corrected once when
    the first real sample arrives; after that, nothing."""
    traffic = Traffic(**MIXES[mix])
    system = traffic.prefilled_system()
    for _ in range(200):
        system.process(traffic.batch(batch_size))
    replans = non_bootstrap(system)
    assert len(replans) <= 1, [(e.reason, e.trigger_change, e.window_queries) for e in replans]
    # A window is a sample, not a batch: epochs advance per WINDOW_QUERIES.
    assert system.profiler.epoch <= 2 + 200 * batch_size // WINDOW_QUERIES


def test_between_closes_planning_is_observe_only(monkeypatch):
    """No snapshot, harvest or controller decision until a window closes."""
    traffic = Traffic(**MIXES["read-uniform"])
    system = traffic.prefilled_system()
    system.process(traffic.batch(53))  # bootstrap
    system.process(traffic.batch(WINDOW_QUERIES))  # first real window
    config = system.controller.current_config
    for name in ("snapshot", "observe_frequencies"):
        monkeypatch.setattr(system.profiler, name, None)  # calling it would raise
    monkeypatch.setattr(system.controller, "config_for", None)
    for _ in range(WINDOW_QUERIES // 53 - 1):
        assert system._plan_batch(traffic.batch(53)) is config


# -------------------------------------------------------------- step changes

#: Queries after a GET-ratio or key-size step by which the new value must be
#: the planned-for one: one early close on the mixed window, one on the
#: first EARLY_CLOSE_MIN_QUERIES clean queries, plus batch granularity.
STEP_BUDGET = 4 * EARLY_CLOSE_MIN_QUERIES
#: A skew shift closes no window early: the full window the step lands in
#: is mixed, the next is clean.
SKEW_STEP_BUDGET = 3 * WINDOW_QUERIES


def queries_until(system, traffic, adopted, budget, batch_size=53) -> int:
    sent = 0
    while not adopted(system.controller.planned_profile):
        assert sent < budget, f"not adopted within {budget} queries"
        system.process(traffic.batch(batch_size))
        sent += batch_size
    return sent


def settled_system(traffic, windows=3, batch_size=53) -> DidoSystem:
    system = traffic.prefilled_system()
    for _ in range(windows * WINDOW_QUERIES // batch_size + 1):
        system.process(traffic.batch(batch_size))
    return system


@pytest.mark.parametrize("offset", [0, 1500])
def test_get_ratio_step_is_adopted(offset):
    system = settled_system(Traffic(**MIXES["read-uniform"]))
    after = Traffic(key_size=16, value_size=64, get=0.50, set_=0.45, skew=0.0, seed=2)
    before = Traffic(**MIXES["read-uniform"], seed=3)
    for _ in range(offset // 53):  # land the step mid-window
        system.process(before.batch(53))
    assert system.controller.planned_profile.get_ratio == pytest.approx(0.95, abs=0.02)
    sent = queries_until(
        system, after, lambda p: abs(p.get_ratio - 0.5) < 0.05, STEP_BUDGET
    )
    assert sent >= EARLY_CLOSE_MIN_QUERIES  # never on less than a real sample
    assert system.controller.events[-1].reason == "get_ratio"


def test_key_size_step_is_adopted():
    system = settled_system(Traffic(**MIXES["read-uniform"]))
    after = Traffic(key_size=128, value_size=1024, get=0.95, set_=0.05, skew=0.0, seed=2)
    # New keys are unknown to the store; the profiler sees them all the same.
    queries_until(system, after, lambda p: p.avg_key_size == 128.0, STEP_BUDGET)
    assert system.controller.planned_profile.avg_value_size == 1024.0


def test_skew_step_is_adopted():
    system = settled_system(Traffic(**MIXES["read-uniform"]))
    uniform_estimate = system.controller.planned_profile.zipf_skew
    after = Traffic(**MIXES["read-skew"], seed=2)
    # Adopted = planned for a skew within the 10 % band of the new stream's
    # estimate (about 0.5 on this key space, against 0.12 for uniform).
    queries_until(
        system, after, lambda p: p.zipf_skew > uniform_estimate + 0.2, SKEW_STEP_BUDGET
    )
    assert system.controller.events[-1].reason == "skew"


# -------------------------------------------------------- search equivalence


def bisected_batch(analyzer, config, profile, interval_ns) -> int:
    """The doubling-then-bisection sizing this repo used before: the
    reference the interpolating search must agree with."""

    def fits(batch):
        return analyzer._sized(config, profile, batch).tmax_ns <= interval_ns

    lo = MIN_BATCH
    if not fits(lo):
        return lo
    hi = lo
    while hi < MAX_BATCH and fits(hi * 2):
        hi *= 2
    hi = min(hi * 2, MAX_BATCH)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


SEARCH_GRID = [
    (WorkloadProfile(get, key, value, skew), budget)
    for get in (1.0, 0.95, 0.5, 0.0)
    for key, value in ((8, 8), (32, 256), (21.3, 77.7))
    for skew, budget in ((0.0, 1_000_000.0), (0.57, 300_000.0), (0.99, 5_000_000.0))
]


@pytest.mark.parametrize("profile,budget", SEARCH_GRID)
def test_best_matches_exhaustive_ranking_in_250_evaluations(profile, budget, monkeypatch):
    calls = []
    evaluate_batch = CostModel.evaluate_batch

    def counted(self, *args):
        calls.append(args[-1])
        return evaluate_batch(self, *args)

    monkeypatch.setattr(CostModel, "evaluate_batch", counted)
    search = ConfigurationSearch(CostModel(APU_A10_7850K))  # cold caches
    best = search.best(profile, budget)
    assert len(calls) <= 250
    monkeypatch.undo()

    ranked = ConfigurationSearch(CostModel(APU_A10_7850K)).rank(profile, budget)
    assert len(ranked) == len(enumerate_configs(APU_A10_7850K.cpu.cores))
    top = ranked[0]
    assert best.config == top.config
    assert best.estimate.batch_size == top.estimate.batch_size
    assert best.estimate.throughput_mops == top.estimate.throughput_mops
    # Every configuration's batch, not just the winner's, is the bisection's.
    reference = CostModel(APU_A10_7850K)
    for entry in ranked:
        interval = reference.interval_ns(entry.config, budget)
        assert entry.estimate.batch_size == bisected_batch(
            reference, entry.config, profile, interval
        ), entry.config.label


def test_detailed_fidelity_sizes_to_the_largest_fitting_wavefront_multiple():
    """The simulator schedules whole wavefronts: the same search, rounded
    down to the quantum (the bisection it replaces stopped one wavefront
    short in a quarter of the cells)."""
    analyzer = PipelineAnalyzer(APU_A10_7850K, DETAILED_FIDELITY)
    quantum = DETAILED_FIDELITY.batch_quantum
    for profile, budget in SEARCH_GRID[::7]:
        for config in enumerate_configs(APU_A10_7850K.cpu.cores):
            interval = analyzer.interval_ns(config, budget)
            estimate = analyzer.estimate(config, profile, budget)
            batch = estimate.batch_size
            assert batch % quantum == 0 and batch >= MIN_BATCH
            assert batch == bisected_batch(analyzer, config, profile, interval) // quantum * quantum
            assert estimate.tmax_ns == analyzer._sized(config, profile, batch).tmax_ns
            assert analyzer._sized(config, profile, batch + quantum).tmax_ns > interval


# ------------------------------------------------------- harvest equivalence


def scan_sample(heap, epoch: int) -> list[int]:
    """The harvest as a scan of every live object (the previous rule)."""
    return sorted(
        obj.access_count
        for obj in heap.objects()
        if obj.sample_epoch == epoch and obj.access_count > 0
    )


@pytest.mark.parametrize("heap", ["slab", "log"])
def test_touched_log_matches_heap_scan(heap):
    store = KVStore(8 << 20, 8192, heap=heap_named(heap, 8 << 20))
    keys = [b"key-%05d" % i for i in range(2000)]
    for key in keys:
        store.set(key, b"x" * 100)
    assert store.heap.drain_touched() == []  # writes are not accesses
    rng = np.random.default_rng(5)
    epoch = 7
    for round_no in range(6):
        picked = [keys[i] for i in rng.zipf(1.3, size=400) % len(keys)]
        for key in picked:
            store.get(key, epoch=epoch)
        store.get(picked[0], epoch=epoch)
        # Mid-window churn: touched objects are deleted and replaced, and
        # the heap is compacted under the log.
        store.delete(picked[2])
        store.set(picked[3], b"y" * 100)
        if round_no % 2:
            store.maintenance()
    expected = scan_sample(store.heap, epoch)
    assert len(expected) > 100
    assert sorted(store.heap.drain_touched()) == expected
    assert store.heap.touched == []
    # Next epoch starts from an empty log and counts afresh.
    store.get(keys[10], epoch=epoch + 1)
    assert store.heap.drain_touched() == [1]


def test_touched_log_matches_heap_scan_under_the_vector_engine():
    store = KVStore(8 << 20, 8192)
    epoch = [3]
    pipeline = FunctionalPipeline(store, epoch_source=lambda: epoch[0], engine="vector")
    config = megakv_coupled_config()
    keys = [b"key-%05d" % i for i in range(1000)]
    pipeline.process_batch(config, [Query(QueryType.SET, k, b"v" * 32) for k in keys])
    rng = np.random.default_rng(9)
    for _ in range(4):
        batch = [
            Query(QueryType.GET, keys[i]) for i in rng.zipf(1.2, size=600) % len(keys)
        ] + [Query(QueryType.SET, keys[int(rng.integers(1000))], b"w" * 32)]
        pipeline.process_batch(config, batch)
    assert sorted(store.heap.drain_touched()) == scan_sample(store.heap, epoch[0])


@pytest.mark.parametrize("heap", ["slab", "log"])
def test_touched_log_is_bounded_and_pins_nothing(heap):
    store = KVStore(32 << 20, 16384, heap=heap_named(heap, 32 << 20))
    keys = [b"key-%05d" % i for i in range(TOUCH_LOG_LIMIT + 500)]
    for key in keys:
        store.set(key, b"x" * 16)
    for key in keys:
        store.get(key, epoch=1)
    assert len(store.heap.touched) == TOUCH_LOG_LIMIT
    assert all(isinstance(entry, int) for entry in store.heap.touched)  # locations
    for key in keys:
        store.delete(key)
    assert store.heap.drain_touched() == []  # all freed: nothing to report
    assert store.heap.touched == []
