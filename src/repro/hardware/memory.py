"""Cache/memory access-cost model shared by the cost model and the simulator.

The paper (Section IV-B) estimates the cost of touching a key-value object
of size ``L`` as one random memory access plus ``ceil(L / C) - 1`` cache-line
accesses, because hardware prefetchers turn the trailing sequential lines
into cache hits.  Two workload factors modulate this:

* **task affinity** — if the preceding task on the *same* pipeline stage
  already pulled the object into cache (e.g. KC before RD), the leading
  random access also becomes a cache access;
* **key popularity** — under a Zipf-skewed key distribution the hot set fits
  in the CPU cache; a fraction ``P`` of random accesses become cache hits,
  where ``P`` is the cumulative access frequency of the cached objects.

This module provides those calculations plus a small bandwidth model used by
the interference microbenchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ConfigurationError
from repro.hardware.specs import PlatformSpec, ProcessorKind, ProcessorSpec


@dataclass(frozen=True)
class AccessPattern:
    """Memory touches of one task execution for a single query.

    ``memory_accesses`` are uncached random DRAM accesses (``N^M_F``) and
    ``cache_accesses`` are L2 hits (``N^C_F``), per paper Table I.
    """

    memory_accesses: float
    cache_accesses: float

    def __add__(self, other: "AccessPattern") -> "AccessPattern":
        return AccessPattern(
            self.memory_accesses + other.memory_accesses,
            self.cache_accesses + other.cache_accesses,
        )

    def scaled(self, factor: float) -> "AccessPattern":
        """Scale both components, e.g. by a per-query probability."""
        return AccessPattern(self.memory_accesses * factor, self.cache_accesses * factor)

    def with_hot_fraction(self, hot_fraction: float) -> "AccessPattern":
        """Convert a fraction ``P`` of random accesses into cache hits.

        Implements the paper's popularity correction: ``N^M -> (1 - P) N^M``
        and ``N^C -> N^C + P N^M``.
        """
        if not 0.0 <= hot_fraction <= 1.0:
            raise ConfigurationError(f"hot fraction must be in [0, 1], got {hot_fraction}")
        moved = self.memory_accesses * hot_fraction
        return AccessPattern(self.memory_accesses - moved, self.cache_accesses + moved)


def object_access_pattern(
    object_bytes: int,
    cache_line_bytes: int,
    *,
    already_cached: bool = False,
    sequential: bool = False,
) -> AccessPattern:
    """Access pattern for reading/writing one key-value object of ``object_bytes``.

    Parameters
    ----------
    object_bytes:
        Total bytes touched (key + value + header as appropriate).
    cache_line_bytes:
        ``C^XPU`` of the processor doing the touching.
    already_cached:
        Task affinity: a previous task in the same stage brought the object
        into cache, so even the first line is an L2 hit.
    sequential:
        The object sits in a sequentially written buffer (the RD/WR
        separation trick, Section III-A): prefetch covers every line, so the
        leading access is a cache access too.
    """
    if object_bytes <= 0:
        return AccessPattern(0.0, 0.0)
    lines = max(1, math.ceil(object_bytes / cache_line_bytes))
    if already_cached or sequential:
        return AccessPattern(0.0, float(lines))
    return AccessPattern(1.0, float(lines - 1))


def access_cost_ns(
    pattern: AccessPattern,
    proc: ProcessorSpec,
    *,
    interference: float = 1.0,
) -> float:
    """Time in ns for one query's memory traffic on ``proc``.

    Random accesses pay ``L_M`` divided by the core's memory-level
    parallelism (independent misses overlap); cache accesses pay ``L_C``.
    ``interference`` is the paper's ``mu`` factor (>= 1).
    """
    if interference < 1.0:
        raise ConfigurationError(f"interference factor must be >= 1, got {interference}")
    random_ns = pattern.memory_accesses * proc.mem_latency_ns / proc.mem_parallelism
    cached_ns = pattern.cache_accesses * proc.cache_latency_ns
    return (random_ns + cached_ns) * interference


class MemorySystem:
    """Shared-memory capacity/bandwidth bookkeeping for one platform.

    Answers two questions the cost model needs:

    * how many key-value objects of a given average size fit in the
      shareable region (Section V-A stores as many objects as fit in the
      1,908 MB CPU/GPU-shared allocation);
    * what fraction of a Zipf-skewed access stream hits the CPU cache
      (Section IV-B, factor ``P``).
    """

    #: Per-object bookkeeping overhead: slab header, LRU links, access
    #: counter and sampling timestamp (Section IV-B's frequency sampler).
    OBJECT_OVERHEAD_BYTES = 40

    def __init__(self, platform: PlatformSpec):
        self._platform = platform

    @property
    def platform(self) -> PlatformSpec:
        return self._platform

    def object_capacity(self, key_size: int, value_size: int) -> int:
        """Number of key-value objects that fit in the shared region."""
        per_object = key_size + value_size + self.OBJECT_OVERHEAD_BYTES
        return max(1, self._platform.shared_memory_bytes // per_object)

    def cached_objects(self, kind: ProcessorKind, key_size: int, value_size: int) -> int:
        """Objects that fit in the processor's last-level cache."""
        proc = self._platform.processor(kind)
        per_object = key_size + value_size + self.OBJECT_OVERHEAD_BYTES
        return proc.cache_size_bytes // per_object

    def hot_fraction(
        self,
        kind: ProcessorKind,
        key_size: int,
        value_size: int,
        zipf_skew: float,
        total_objects: int | None = None,
    ) -> float:
        """Fraction ``P`` of object accesses served from cache under Zipf skew.

        ``P = sum_{i<=n'} f_i / sum_{j<=n} f_j`` with ``f_i ~ 1/i^theta``
        (paper Section IV-B).  A uniform workload (``zipf_skew == 0``) gets
        ``P = n'/n`` which is negligible for realistic store sizes.
        """
        n = total_objects or self.object_capacity(key_size, value_size)
        n_cached = min(n, self.cached_objects(kind, key_size, value_size))
        if n <= 0 or n_cached <= 0:
            return 0.0
        if zipf_skew <= 0.0:
            return n_cached / n
        return _zipf_cdf(n_cached, n, zipf_skew)

    def bytes_per_second(self) -> float:
        """Peak shared-memory bandwidth in bytes/second."""
        return self._platform.memory_bandwidth_gbs * 1e9


@lru_cache(maxsize=4096)
def _harmonic(n: int, theta: float) -> float:
    """Generalised harmonic number ``H_{n,theta}``; exact below the cutoff,
    Euler–Maclaurin approximation above it (store sizes reach tens of
    millions of objects, so the exact sum is too slow).

    Cached: a configuration search evaluates hundreds of candidate
    pipelines against one profile, and every ``hot_fraction`` call lands
    on the same few ``(n, theta)`` pairs — without the cache the Python
    head sum dominates whole-server profiles."""
    if n <= 0:
        return 0.0
    cutoff = 10000
    if n <= cutoff:
        return sum(1.0 / (i**theta) for i in range(1, n + 1))
    head = sum(1.0 / (i**theta) for i in range(1, cutoff + 1))
    # integral of x^-theta from cutoff to n (theta == 1 handled separately)
    if abs(theta - 1.0) < 1e-9:
        tail = math.log(n / cutoff)
    else:
        tail = (n ** (1.0 - theta) - cutoff ** (1.0 - theta)) / (1.0 - theta)
    return head + tail


def _zipf_cdf(k: int, n: int, theta: float) -> float:
    """Cumulative access probability of the ``k`` most popular of ``n`` keys."""
    if k >= n:
        return 1.0
    return _harmonic(k, theta) / _harmonic(n, theta)
