"""Hash partitioning: which shard a key lives on.

Mega-KV and MemC3 both partition the store so that index mutations never
contend across cores; DIDO inherits the same idea for its CPU-resident
passes.  The partition function is the same seed-0 FNV-1a hash the index
derives signatures from, so the procshard router
(:class:`~repro.engine.procshard.ProcShardEngine`) can compute a whole
batch's shard assignment with the vectorized hash kernel and get
bit-identical routing.

Because a key always lands on the same shard, the batch read-your-write
discipline (Deletes before Inserts before Searches) holds per shard
exactly as it does on the monolith: queries for different keys never
interact through the data path (only through cuckoo signature false
positives, which KC rejects), so a partitioned store produces
byte-identical responses to an unpartitioned one — a property the
procshard test suite enforces across shard counts and mixed traces.
"""

from __future__ import annotations

from repro.kv.objects import fnv1a64


def shard_of(key: bytes, num_shards: int) -> int:
    """The shard a key lives on: seed-0 FNV-1a modulo the shard count.

    This is deliberately the hash state the vectorized kernel computes in
    row 0 (:func:`repro.engine.vector.fnv_hash_columns`), so scalar and
    batched routing can never disagree.
    """
    return fnv1a64(key) % num_shards
