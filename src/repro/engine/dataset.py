"""The Dataset: an immutable, partitioned, lazily evaluated collection.

Transformations build a chain of nodes, each with at most one parent;
terminal actions (``collect``, ``count``) evaluate it.  A node recomputes
on every action unless explicitly ``persist()``-ed, mirroring Spark's
contract.

Narrow transformations (map/filter/flat_map/map_partitions/map_batches)
run one task per partition, in partition order.  Wide transformations
shuffle through :func:`repro.engine.shuffle.exchange` and apply a
reduce-side function per output partition.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from repro.engine.metrics import StageTimer
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import exchange
from repro.obs import registry
from repro.obs import trace as obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.engine.context import Engine

#: One partition's task (one span per partition and stage).
SPAN_PARTITION = registry.register_span(
    "engine.partition", "one partition's task (attr: partition index)"
)


def _run(task: Callable[[int, list], list], partitions: Sequence[list]) -> list[list]:
    """Apply ``task(index, partition)`` to every partition, in order."""
    results = []
    for index, partition in enumerate(partitions):
        with obs.span(SPAN_PARTITION, index=index):
            results.append(task(index, partition))
    return results


class Dataset:
    """One node of the execution chain.  Construct via
    ``Engine.parallelize`` or by transforming another dataset — never
    directly."""

    def __init__(self, engine: "Engine", num_partitions: int, label: str) -> None:
        self.engine = engine
        self.num_partitions = num_partitions
        self.label = label
        self._persisted: list[list] | None = None
        self._persist_requested = False

    # -- narrow transformations ---------------------------------------------

    def map(self, fn: Callable) -> "Dataset":
        """Element-wise transform."""
        return self.map_partitions(
            lambda _, records: map(fn, records), label=f"map({_name(fn)})"
        )

    def filter(self, predicate: Callable) -> "Dataset":
        """Keep elements satisfying the predicate."""
        return self.map_partitions(
            lambda _, records: filter(predicate, records),
            label=f"filter({_name(predicate)})",
        )

    def flat_map(self, fn: Callable) -> "Dataset":
        """Element-wise transform producing zero or more outputs each."""
        return self.map_partitions(
            lambda _, records: itertools.chain.from_iterable(map(fn, records)),
            label=f"flat_map({_name(fn)})",
        )

    def map_partitions(
        self, fn: Callable[[int, list], Iterable], label: str | None = None
    ) -> "Dataset":
        """Partition-wise transform: ``fn(index, records) -> iterable``.

        The most general narrow operation; everything element-wise is
        sugar over it.
        """
        return _MapPartitions(self, fn, label or f"map_partitions({_name(fn)})")

    def map_batches(self, fn: Callable, label: str | None = None) -> "Dataset":
        """Batch-wise transform for datasets whose elements are record
        batches: ``fn(batch) -> batch``.

        The partition-level twin of :meth:`map` for the columnar path —
        one call per batch instead of one per record, with stage metrics
        counting the *rows inside* the batches rather than the batch
        objects (a funnel stage's row counts stay comparable whichever
        representation flows through it).
        """
        return _MapPartitions(
            self,
            lambda _, batches: map(fn, batches),
            label or f"map_batches({_name(fn)})",
            rows=_batch_rows,
        )

    def map_values(self, fn: Callable) -> "Dataset":
        """Transform the value of every (key, value) pair."""
        return self.map_partitions(
            lambda _, records: ((k, fn(v)) for k, v in records),
            label=f"map_values({_name(fn)})",
        )

    # -- wide (shuffle) transformations ---------------------------------------

    def combine_by_key(
        self,
        create: Callable,
        merge_value: Callable,
        merge_combiners: Callable,
        label: str | None = None,
    ) -> "Dataset":
        """The general aggregation: per key, ``create`` builds a combiner
        from the first value, ``merge_value`` folds further values in
        map-side, and ``merge_combiners`` merges partial combiners
        reduce-side.  This is exactly the monoid contract the sketches
        implement."""
        num_out = self.engine.num_partitions
        partitioner = HashPartitioner(num_out)

        def map_side(_index: int, records: list) -> Iterator:
            partials: dict = {}
            for key, value in records:
                if key in partials:
                    partials[key] = merge_value(partials[key], value)
                else:
                    partials[key] = create(value)
            return iter(partials.items())

        def reduce_side(_index: int, records: list) -> list:
            merged: dict = {}
            for key, combiner in records:
                if key in merged:
                    merged[key] = merge_combiners(merged[key], combiner)
                else:
                    merged[key] = combiner
            return list(merged.items())

        combined = self.map_partitions(map_side, label="map_side_combine")
        return _Shuffle(
            combined,
            route=lambda record: partitioner.partition(record[0]),
            num_out=num_out,
            label=label or "combine_by_key",
            post=reduce_side,
        )

    def group_by_key(self) -> "Dataset":
        """Gather all values per key into a list.  Prefer
        :meth:`combine_by_key` with a mergeable summary whenever the
        per-key value count can be large."""
        return self.combine_by_key(
            create=lambda v: [v],
            merge_value=lambda acc, v: (acc.append(v) or acc),
            merge_combiners=lambda a, b: a + b,
            label="group_by_key",
        )

    # -- persistence -----------------------------------------------------------

    def persist(self) -> "Dataset":
        """Keep this node's materialized partitions across actions."""
        self._persist_requested = True
        return self

    # -- actions ----------------------------------------------------------------

    def collect(self) -> list:
        """Materialize every record into one list."""
        return [record for partition in self._materialize() for record in partition]

    def count(self) -> int:
        """Number of records."""
        return sum(len(p) for p in self._materialize())

    # -- evaluation (engine-internal) ---------------------------------------------

    def _compute(self) -> list[list]:
        raise NotImplementedError

    def _materialize(self) -> list[list]:
        if self._persisted is not None:
            return self._persisted
        result = self._compute()
        if self._persist_requested:
            self._persisted = result
        return result


class _Source(Dataset):
    """Leaf node wrapping already-partitioned in-memory data."""

    def __init__(self, engine: "Engine", partitions: list[list]) -> None:
        super().__init__(engine, len(partitions), "source")
        self._partitions = partitions

    def _compute(self) -> list[list]:
        return self._partitions


class _MapPartitions(Dataset):
    """Narrow partition-at-a-time transform; ``rows`` counts a
    partition's rows for the stage metrics."""

    def __init__(
        self,
        parent: Dataset,
        fn: Callable,
        label: str,
        rows: Callable[[list], int] = len,
    ) -> None:
        super().__init__(parent.engine, parent.num_partitions, label)
        self._parent = parent
        self._fn = fn
        self._rows = rows

    def _compute(self) -> list[list]:
        parent_parts = self._parent._materialize()
        fn = self._fn
        rows = self._rows
        with StageTimer(
            self.engine.metrics, self.label, sum(map(rows, parent_parts)),
            len(parent_parts),
        ) as timer:
            result = _run(lambda index, part: list(fn(index, part)), parent_parts)
            timer.rows_out = sum(map(rows, result))
        return result


class _Shuffle(Dataset):
    def __init__(
        self,
        parent: Dataset,
        route: Callable[[object], int],
        num_out: int,
        label: str,
        post: Callable[[int, list], list],
    ) -> None:
        super().__init__(parent.engine, num_out, label)
        self._parent = parent
        self._route = route
        self._post = post

    def _compute(self) -> list[list]:
        parent_parts = self._parent._materialize()
        rows_in = sum(len(p) for p in parent_parts)
        with StageTimer(
            self.engine.metrics, self.label, rows_in, self.num_partitions
        ) as timer:
            buckets = exchange(parent_parts, self._route, self.num_partitions)
            buckets = _run(self._post, buckets)
            timer.rows_out = sum(len(p) for p in buckets)
        return buckets


def _batch_rows(batches: list) -> int:
    return sum(len(batch) for batch in batches)


def _name(fn: Callable) -> str:
    return getattr(fn, "__name__", "<fn>")
