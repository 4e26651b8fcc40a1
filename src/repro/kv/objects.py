"""Key-value object layout and key signatures.

Mega-KV-style IMKVs keep a short fixed-length *signature* of each key in the
index so GPU lookups touch compact, coalescable data; the full key lives
with the object and is verified by the KC (key compare) task.  Each object
also carries the access counter and sampling timestamp that the workload
profiler's skew estimator uses (paper Section IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass

#: 32-bit signature space, matching Mega-KV's compact index entries.
SIGNATURE_BITS = 32
_SIGNATURE_MASK = (1 << SIGNATURE_BITS) - 1

#: FNV-1a parameters (64-bit), used for both signature and bucket hashing.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a hash of ``data``, with an optional ``seed`` mixed in.

    Deterministic across runs (unlike ``hash``), which the simulator relies
    on for reproducible cuckoo placement.
    """
    value = _FNV_OFFSET ^ (seed * _FNV_PRIME & 0xFFFFFFFFFFFFFFFF)
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def key_signature(key: bytes) -> int:
    """Compact 32-bit signature of a key, stored in index buckets.

    Distinct keys may collide (that is why KC exists); equal keys always
    produce equal signatures.
    """
    return fnv1a64(key) & _SIGNATURE_MASK


#: First-touch log capacity per heap: two profile windows' worth of
#: queries (an epoch runs the batch that closed the previous window plus
#: all but the last batch of its own).  A heap nobody drains, or a giant
#: batch, stops logging here instead of growing.
TOUCH_LOG_LIMIT = 8192


@dataclass
class KVObject:
    """One stored key-value object plus profiler bookkeeping.

    Attributes
    ----------
    key, value:
        The payload bytes.
    access_count:
        Accesses observed during the current sampling window.
    sample_epoch:
        Epoch of the last window that touched this object; a mismatch with
        the profiler's current epoch resets ``access_count`` to 1 (the
        paper's lightweight frequency-sampling mechanism).
    """

    key: bytes
    value: bytes
    access_count: int = 0
    sample_epoch: int = -1

    def __post_init__(self) -> None:
        self.signature = key_signature(self.key)

    @property
    def size_bytes(self) -> int:
        """Payload footprint (key + value), the slab-class sizing input."""
        return len(self.key) + len(self.value)

    def record_access(
        self,
        epoch: int,
        touched: list[int] | None = None,
        location: int = -1,
    ) -> int:
        """Count one access within sampling window ``epoch``.

        Returns the updated in-window count.  Implements the paper's
        counter+timestamp scheme: a new epoch restarts the count instead of
        requiring a global reset pass over all objects.  On the first touch
        in an epoch the object's ``location`` is appended to ``touched``
        (the owning heap's first-touch log), so the profiler's harvest
        reads the touched objects back instead of scanning the heap.
        """
        if self.sample_epoch != epoch:
            self.sample_epoch = epoch
            self.access_count = 1
            if touched is not None and len(touched) < TOUCH_LOG_LIMIT:
                touched.append(location)
        else:
            self.access_count += 1
        return self.access_count


def drain_touched(touched: list[int], probe) -> list[int]:
    """In-window access counts of the objects in a heap's first-touch log,
    which is emptied.

    ``probe(location)`` returns the live object or ``None``; an object
    freed, evicted or replaced since its touch is skipped, exactly as a
    scan over the live heap would not have seen it.
    """
    counts = [obj.access_count for obj in map(probe, touched) if obj is not None]
    touched.clear()
    return counts
