"""The engine entry point: configuration and dataset creation.

An :class:`Engine` plays the role of Spark's session/context: it owns the
partition count and the metrics recorder::

    with Engine(EngineConfig(num_partitions=8)) as engine:
        counts = (
            engine.parallelize(records)
            .map(lambda r: (r.mmsi, 1))
            .combine_by_key(lambda v: v, operator.add, operator.add)
            .collect()
        )
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.engine.dataset import Dataset, _Source
from repro.engine.metrics import MetricsRecorder


@dataclass(frozen=True)
class EngineConfig:
    """Engine tunables.

    :param num_partitions: partitions per source and per shuffle.
    :param collect_metrics: record per-stage timings and row counts.
    """

    num_partitions: int = 8
    collect_metrics: bool = False

    def __post_init__(self) -> None:
        if self.num_partitions < 1:
            raise ValueError(
                f"need at least one partition, got {self.num_partitions}"
            )


class Engine:
    """Creates datasets; their actions evaluate them in the caller's
    thread, one partition after another."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self.num_partitions = self.config.num_partitions
        self.metrics: MetricsRecorder | None = (
            MetricsRecorder() if self.config.collect_metrics else None
        )

    def parallelize(self, data: Iterable) -> Dataset:
        """Create a dataset from an in-memory iterable, split into evenly
        sized partitions (fewer when there are fewer records)."""
        records = list(data)
        parts = max(1, min(self.num_partitions, len(records)))
        size, extra = divmod(len(records), parts)
        partitions: list[list] = []
        start = 0
        for i in range(parts):
            end = start + size + (1 if i < extra else 0)
            partitions.append(records[start:end])
            start = end
        return _Source(self, partitions)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Nothing to release: an engine holds no threads or files."""
