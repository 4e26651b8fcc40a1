"""YCSB-style workload specifications and query-stream generation.

A :class:`WorkloadSpec` names a dataset, a GET ratio, and a key
distribution, matching the paper's ``K<size>-G<getpct>-<U|S>`` notation; the
24 combinations of {K8,K16,K32,K128} x {100,95,50} x {U,S} form
``STANDARD_WORKLOADS``.  GET ratios map onto YCSB workloads C (100 %),
B (95 %) and A (50 %).

:class:`QueryStream` turns a spec into batches of :class:`~repro.kv.protocol.Query`
objects, drawing key ranks from the distribution; SETs write the rank's
deterministic value so later GETs can be verified byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.kv.protocol import Query, QueryType
from repro.workloads.datasets import DATASETS, Dataset, dataset_by_name
from repro.workloads.distributions import KeyDistribution, make_distribution

#: Zipf exponent of the paper's skewed workloads (YCSB default).
SKEWED_ZIPF = 0.99


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: dataset x GET ratio x key distribution.

    ``get_ratio`` is a fraction in [0, 1]; non-GET queries are SETs (the
    paper's mixes contain no client-issued DELETEs — deletes arise from
    eviction).
    """

    dataset: Dataset
    get_ratio: float
    zipf_skew: float  # 0.0 = uniform, 0.99 = the paper's skewed setting

    def __post_init__(self) -> None:
        if not 0.0 <= self.get_ratio <= 1.0:
            raise WorkloadError("get_ratio must be within [0, 1]")
        if self.zipf_skew < 0.0:
            raise WorkloadError("zipf_skew must be non-negative")

    @property
    def skewed(self) -> bool:
        return self.zipf_skew > 0.0

    @property
    def label(self) -> str:
        """Paper notation, e.g. ``K32-G95-U``."""
        pct = round(self.get_ratio * 100)
        dist = "S" if self.skewed else "U"
        return f"{self.dataset.name}-G{pct}-{dist}"


def standard_workload(label: str) -> WorkloadSpec:
    """Parse a paper-style label like ``"K16-G95-S"`` into a spec."""
    try:
        dataset_name, get_part, dist_part = label.strip().split("-")
        dataset = dataset_by_name(dataset_name)
        if not get_part.upper().startswith("G"):
            raise ValueError
        get_ratio = int(get_part[1:]) / 100.0
        skew = {"U": 0.0, "S": SKEWED_ZIPF}[dist_part.upper()]
    except (ValueError, KeyError):
        raise WorkloadError(f"malformed workload label {label!r}") from None
    return WorkloadSpec(dataset=dataset, get_ratio=get_ratio, zipf_skew=skew)


def _standard_grid() -> tuple[WorkloadSpec, ...]:
    specs = []
    for dataset in DATASETS:
        for get_pct in (100, 95, 50):
            for skew in (0.0, SKEWED_ZIPF):
                specs.append(WorkloadSpec(dataset, get_pct / 100.0, skew))
    return tuple(specs)


#: The paper's 24 evaluation workloads (Section V-A).
STANDARD_WORKLOADS: tuple[WorkloadSpec, ...] = _standard_grid()


class QueryStream:
    """Deterministic batch generator for one workload spec.

    Parameters
    ----------
    spec:
        The workload to generate.
    num_keys:
        Size of the key space (usually the store's object capacity).
    seed:
        RNG seed; identical seeds yield identical streams.
    """

    def __init__(self, spec: WorkloadSpec, num_keys: int, seed: int = 0):
        if num_keys <= 0:
            raise WorkloadError("num_keys must be positive")
        self.spec = spec
        self.num_keys = num_keys
        self._distribution: KeyDistribution = make_distribution(
            num_keys, spec.zipf_skew, seed=seed
        )
        self._rng = np.random.default_rng(seed ^ 0x5EED)

    def next_batch(self, count: int) -> list[Query]:
        """Generate ``count`` queries with the spec's GET/SET mix."""
        if count <= 0:
            return []
        ranks = self._distribution.sample(count)
        is_get = self._rng.random(count) < self.spec.get_ratio
        dataset = self.spec.dataset
        queries: list[Query] = []
        for rank, get in zip(ranks.tolist(), is_get.tolist()):
            key = dataset.key_for_rank(rank)
            if get:
                queries.append(Query(QueryType.GET, key))
            else:
                queries.append(Query(QueryType.SET, key, dataset.value_for_rank(rank)))
        return queries

    def populate_items(self, count: int | None = None) -> list[tuple[bytes, bytes]]:
        """Warm-up items covering the ``count`` most popular ranks."""
        n = self.num_keys if count is None else min(count, self.num_keys)
        dataset = self.spec.dataset
        return [(dataset.key_for_rank(r), dataset.value_for_rank(r)) for r in range(n)]
