"""The partitioner: how shuffled records choose their reduce partition."""

from __future__ import annotations

from repro.engine.hashing import stable_hash


class HashPartitioner:
    """Routes a key to ``stable_hash(key) % num_partitions``.

    The partitioner of every key-based shuffle; deterministic across runs.
    """

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ValueError(f"need at least one partition, got {num_partitions}")
        self.num_partitions = num_partitions

    def partition(self, key: object) -> int:
        """Partition index for a key."""
        return stable_hash(key) % self.num_partitions

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HashPartitioner)
            and other.num_partitions == self.num_partitions
        )

    def __hash__(self) -> int:
        return hash(("hash", self.num_partitions))

