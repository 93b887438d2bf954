"""The all-to-all exchange between map and reduce stages.

``exchange`` routes every record of every map partition into one of the
reduce partitions, in memory.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence


def exchange(
    partitions: Sequence[list],
    route: Callable[[object], int],
    num_out: int,
) -> list[list]:
    """Route every record to its reduce partition.

    :param route: record → reduce partition index in [0, num_out).
    :returns: ``num_out`` lists; record order within a bucket follows map
        partition order then record order, so the exchange is
        deterministic for a fixed input partitioning.
    """
    if num_out < 1:
        raise ValueError(f"need at least one output partition, got {num_out}")
    buckets: list[list] = [[] for _ in range(num_out)]
    for partition in partitions:
        for record in partition:
            index = route(record)
            if not 0 <= index < num_out:
                raise ValueError(
                    f"router produced partition {index}, valid range is "
                    f"[0, {num_out})"
                )
            buckets[index].append(record)
    return buckets
