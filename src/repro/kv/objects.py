"""Key signatures and the FNV hash behind them.

Mega-KV-style IMKVs keep a short fixed-length *signature* of each key in the
index so GPU lookups touch compact, coalescable data; the full key lives
with the value and is verified by the KC (key compare) task.  The access
counter and sampling timestamp that the workload profiler's skew estimator
uses (paper Section IV-B) are row columns of the store's key directory.
"""

from __future__ import annotations

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
