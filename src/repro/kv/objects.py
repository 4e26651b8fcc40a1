"""Key-value object layout and key signatures.

Mega-KV-style IMKVs keep a short fixed-length *signature* of each key in the
index so GPU lookups touch compact, coalescable data; the full key lives
with the object and is verified by the KC (key compare) task.  Each object
also carries the access counter and sampling timestamp that the workload
profiler's skew estimator uses (paper Section IV-B).  The store keeps those
as row columns of its key directory; :class:`KVObject` is the standalone
slab allocator's object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: 32-bit signature space, matching Mega-KV's compact index entries.
SIGNATURE_BITS = 32
_SIGNATURE_MASK = (1 << SIGNATURE_BITS) - 1

#: FNV-1a parameters (64-bit), used for both signature and bucket hashing.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: Keys longer than this take the scalar FNV path in
#: :func:`fnv_hash_columns` (the padded matrix would waste cache on a few
#: giants; production keys are tens of bytes).
MAX_VECTOR_KEY_BYTES = 128


def fnv1a64(data: bytes, seed: int = 0) -> int:
    """64-bit FNV-1a hash of ``data``, with an optional ``seed`` mixed in.

    Deterministic across runs (unlike ``hash``), which the simulator relies
    on for reproducible cuckoo placement.
    """
    value = _FNV_OFFSET ^ (seed * _FNV_PRIME & _MASK64)
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def fnv_hash_columns(keys: list[bytes], num_states: int):
    """64-bit FNV-1a of every key under seeds ``0..num_states-1``, batched.

    Returns a ``(num_states, len(keys))`` uint64 array where row ``s``
    equals ``fnv1a64(key, seed=s)`` for every key — bit-exact with the
    scalar hash, which the vector kernel tests assert.  All seed states mix
    the same byte column per step, so the whole batch costs one pass over
    ``max_key_len`` byte columns regardless of how many hash functions the
    index uses.  Keys longer than :data:`MAX_VECTOR_KEY_BYTES` are hashed
    scalar and patched into the result.
    """
    n = len(keys)
    prime = np.uint64(_FNV_PRIME)
    states = np.empty((num_states, n), dtype=np.uint64)
    for seed in range(num_states):
        states[seed, :] = np.uint64(_FNV_OFFSET ^ (seed * _FNV_PRIME & _MASK64))
    if n == 0:
        return states
    lens = np.fromiter(map(len, keys), dtype=np.intp, count=n)
    max_len = int(lens.max())
    uniform = bool((lens == max_len).all())
    if uniform and max_len <= MAX_VECTOR_KEY_BYTES:
        matrix = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(n, max_len)
        for j in range(max_len):
            states = (states ^ matrix[:, j].astype(np.uint64)) * prime
        return states
    # Ragged or oversized keys: pad in-bound keys into a zero matrix and
    # mask each mixing step by key length; hash oversized keys scalar.
    bounded = min(max_len, MAX_VECTOR_KEY_BYTES)
    oversized = lens > MAX_VECTOR_KEY_BYTES
    matrix = np.zeros((n, bounded), dtype=np.uint8)
    for i, key in enumerate(keys):
        if not oversized[i]:
            matrix[i, : lens[i]] = np.frombuffer(key, dtype=np.uint8)
    for j in range(bounded):
        mixed = (states ^ matrix[:, j].astype(np.uint64)) * prime
        states = np.where(lens > j, mixed, states)
    if oversized.any():
        for i in np.nonzero(oversized)[0].tolist():
            for seed in range(num_states):
                states[seed, i] = fnv1a64(keys[i], seed=seed)
    return states


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

