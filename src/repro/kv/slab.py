"""Slab allocator with LRU eviction (the MM task's substrate).

Objects are stored in size classes ("slabs"); each class has a fixed chunk
size and a bounded chunk budget.  A SET that finds its class full evicts the
least-recently-used object of that class — which is exactly why, in the
paper's Figure 6 analysis, every SET at steady state generates one Insert
*and* one Delete index operation (Section II-C2).

Locations handed out by the allocator are stable integer handles that the
cuckoo index stores; the simulated "address space" is a dict so the store is
fully functional without real pointer arithmetic.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import CapacityError, ConfigurationError
from repro.kv.objects import KVObject

#: Default geometric growth factor between slab classes, memcached-style.
DEFAULT_GROWTH_FACTOR = 2.0
#: Smallest chunk size.
DEFAULT_MIN_CHUNK = 16


@dataclass
class SlabStats:
    """Allocation/eviction counters for one allocator."""

    allocations: int = 0
    evictions: int = 0
    frees: int = 0
    failed_allocations: int = 0

    @property
    def eviction_rate(self) -> float:
        """Fraction of allocations that had to evict."""
        if self.allocations == 0:
            return 0.0
        return self.evictions / self.allocations


@dataclass
class _SlabClass:
    chunk_size: int
    max_chunks: int
    #: location -> KVObject, in LRU order (oldest first).
    objects: "OrderedDict[int, KVObject]" = field(default_factory=OrderedDict)

    @property
    def used(self) -> int:
        return len(self.objects)

    @property
    def full(self) -> bool:
        return self.used >= self.max_chunks


class SlabAllocator:
    """Size-classed allocator over a fixed memory budget with per-class LRU.

    Parameters
    ----------
    memory_bytes:
        Total budget; divided among classes on demand (first-touch claims
        pages, as memcached does).
    growth_factor, min_chunk:
        Size-class geometry.
    """

    #: Bytes claimed from the global budget at a time ("page" size).
    PAGE_BYTES = 1024 * 1024

    def __init__(
        self,
        memory_bytes: int,
        growth_factor: float = DEFAULT_GROWTH_FACTOR,
        min_chunk: int = DEFAULT_MIN_CHUNK,
    ):
        if memory_bytes <= 0:
            raise ConfigurationError("memory budget must be positive")
        if growth_factor <= 1.0:
            raise ConfigurationError("growth factor must exceed 1")
        self._budget_bytes = memory_bytes
        self._claimed_bytes = 0
        self._growth = growth_factor
        self._min_chunk = min_chunk
        self._classes: dict[int, _SlabClass] = {}
        self._location_to_class: dict[int, int] = {}
        self._next_location = 0
        #: Locations first touched in the open profiler epoch, in touch
        #: order (appended by :meth:`KVObject.record_access`).
        self.touched: list[int] = []
        self.stats = SlabStats()

    # ---------------------------------------------------------------- sizing

    def chunk_size_for(self, payload_bytes: int) -> int:
        """Chunk size of the class that would hold ``payload_bytes``."""
        size = self._min_chunk
        while size < payload_bytes:
            size = int(size * self._growth)
        return size

    def _class_for(self, payload_bytes: int) -> _SlabClass:
        chunk = self.chunk_size_for(payload_bytes)
        slab = self._classes.get(chunk)
        if slab is None:
            slab = _SlabClass(chunk_size=chunk, max_chunks=0)
            self._classes[chunk] = slab
        return slab

    def _grow_class(self, slab: _SlabClass) -> bool:
        """Claim one page from the global budget for ``slab`` if any remains."""
        if self._claimed_bytes + self.PAGE_BYTES > self._budget_bytes:
            return False
        self._claimed_bytes += self.PAGE_BYTES
        slab.max_chunks += max(1, self.PAGE_BYTES // slab.chunk_size)
        return True

    # ------------------------------------------------------------ allocation

    def allocate(self, obj: KVObject) -> tuple[int, KVObject | None]:
        """Store ``obj``; return ``(location, evicted_object_or_None)``.

        When the object's size class is full and the global budget is
        exhausted, the class's LRU object is evicted and returned so the
        caller can issue the corresponding index Delete.  Raises
        :class:`CapacityError` if the class is full *and* empty (object
        larger than any obtainable page share).
        """
        slab = self._class_for(obj.size_bytes)
        evicted: KVObject | None = None
        if slab.full and not self._grow_class(slab):
            if not slab.objects:
                self.stats.failed_allocations += 1
                raise CapacityError(
                    f"object of {obj.size_bytes} B cannot fit in class "
                    f"{slab.chunk_size} with zero chunks"
                )
            evicted_location, evicted = slab.objects.popitem(last=False)
            self._location_to_class.pop(evicted_location, None)
            self.stats.evictions += 1
        location = self._next_location
        self._next_location += 1
        slab.objects[location] = obj
        self._location_to_class[location] = slab.chunk_size
        self.stats.allocations += 1
        return location, evicted

    def free(self, location: int) -> KVObject:
        """Release the object at ``location`` (DELETE query path)."""
        chunk = self._location_to_class.pop(location, None)
        if chunk is None:
            raise CapacityError(f"free of unknown location {location}")
        obj = self._classes[chunk].objects.pop(location)
        self.stats.frees += 1
        return obj

    # ----------------------------------------------------------------- reads

    def get(self, location: int, *, touch: bool = True) -> KVObject | None:
        """Object at ``location``; ``touch`` refreshes its LRU position."""
        chunk = self._location_to_class.get(location)
        if chunk is None:
            return None
        slab = self._classes[chunk]
        obj = slab.objects.get(location)
        if obj is not None and touch:
            slab.objects.move_to_end(location)
        return obj

    def __contains__(self, location: int) -> bool:
        return location in self._location_to_class

    def __len__(self) -> int:
        return len(self._location_to_class)

    @property
    def claimed_bytes(self) -> int:
        """Bytes claimed from the budget so far."""
        return self._claimed_bytes

    @property
    def budget_bytes(self) -> int:
        return self._budget_bytes

    def class_sizes(self) -> list[int]:
        """Chunk sizes of the classes created so far (ascending)."""
        return sorted(self._classes)

    def objects(self) -> list[KVObject]:
        """All live objects (test aid)."""
        out: list[KVObject] = []
        for slab in self._classes.values():
            out.extend(slab.objects.values())
        return out

    def drain_touched(self) -> list[int]:
        """Access counts of the window's touched objects (profiler
        harvest), the log emptied; an object freed or evicted since its
        touch is skipped, as a scan of the live heap would not see it."""
        found = [self.get(location, touch=False) for location in self.touched]
        self.touched.clear()
        return [obj.access_count for obj in found if obj is not None]
