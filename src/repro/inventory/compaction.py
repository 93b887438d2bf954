"""SSTable compaction: k-way merging and the size-tiered policy.

An operational deployment builds one inventory table per ingestion window
(day, week) and periodically compacts them — the LSM pattern.  Because
cell summaries form a monoid, compaction is exact: merging the tables of
disjoint windows yields byte-for-byte the statistics of a single build
over the union.

:func:`merge_tables` streams the inputs through a k-way heap merge in key
order, merging summaries of equal keys, so peak memory is one entry per
input table regardless of table sizes.  The output gets its route
section for free (the writer builds it from the keys it writes), so a
compacted table is immediately servable by
:class:`~repro.inventory.backend.SSTableInventory`.

:class:`CompactionPolicy` is the size-tiered selector the background
maintenance scheduler consults: tables are bucketed into geometric size
tiers, and one compaction merges one *contiguous, same-tier run* of at
least ``fanout`` tables — never the whole table set.  Contiguity in
table-age order is not an optimisation, it is a correctness requirement:
reads and :func:`merge_tables` both fold oldest-source-first, so a merge
may only collapse adjacent elements of that fold (associativity), with
the output spliced back into the run's position.  Merging a
non-contiguous selection would reorder the fold and (for any
non-commutative summary component) change answers.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Any

from repro.inventory.sstable import (
    SSTableReader,
    SSTableWriter,
    _decode_key,
    _decode_summary,
    _inflate,
)
from repro.inventory.summary import CellSummary
from repro.obs import registry

SPAN_TIER_COMPACT = registry.register_span(
    "compaction.tier",
    "merging one contiguous same-tier run of live tables into one output",
)

#: Same-tier tables that trigger a tier merge (0 disables compaction).
DEFAULT_TIER_FANOUT = 4
#: Ceiling of tier 0; tier t spans sizes up to base * fanout**t.
DEFAULT_TIER_BASE_BYTES = 1024 * 1024


@dataclass(frozen=True)
class CompactionTask:
    """One policy decision: merge tables ``[start, stop)`` (age order)."""

    start: int
    stop: int
    tier: int
    input_bytes: int


@dataclass(frozen=True)
class CompactionPolicy:
    """Size-tiered selection over the live table list (oldest first).

    ``tier_of`` buckets a table by size into geometric tiers (tier 0
    up to ``base_bytes``, each subsequent tier ``fanout`` times wider).
    ``choose`` picks the cheapest eligible merge: the smallest-tier
    contiguous run of at least ``fanout`` same-tier tables, oldest run
    on ties.  ``fanout == 0`` disables compaction entirely.
    """

    fanout: int = DEFAULT_TIER_FANOUT
    base_bytes: int = DEFAULT_TIER_BASE_BYTES

    def __post_init__(self) -> None:
        if self.fanout != 0 and self.fanout < 2:
            raise ValueError("tier fanout must be 0 (disabled) or >= 2")
        if self.base_bytes < 1:
            raise ValueError("tier base_bytes must be positive")

    def tier_of(self, size_bytes: int) -> int:
        """The tier a table of ``size_bytes`` belongs to."""
        growth = max(2, self.fanout)
        tier = 0
        ceiling = self.base_bytes
        while size_bytes > ceiling:
            tier += 1
            ceiling *= growth
        return tier

    def _runs(self, sizes: list[int]) -> list[CompactionTask]:
        """Contiguous same-tier runs of at least ``fanout`` tables."""
        if not self.fanout:
            return []
        tiers = [self.tier_of(size) for size in sizes]
        runs: list[CompactionTask] = []
        start = 0
        for stop in range(1, len(tiers) + 1):
            if stop == len(tiers) or tiers[stop] != tiers[start]:
                if stop - start >= self.fanout:
                    runs.append(
                        CompactionTask(
                            start=start,
                            stop=stop,
                            tier=tiers[start],
                            input_bytes=sum(sizes[start:stop]),
                        )
                    )
                start = stop
        return runs

    def choose(self, sizes: list[int]) -> CompactionTask | None:
        """The next merge to run, or ``None`` when no tier is over
        fanout.  Smallest tier first (cheapest merge, and it is where
        fresh flushes pile up); oldest run breaks ties."""
        runs = self._runs(sizes)
        if not runs:
            return None
        return min(runs, key=lambda task: (task.tier, task.start))

    def debt_bytes(self, sizes: list[int]) -> int:
        """Bytes the policy currently wants rewritten — the sum over
        every eligible run.  This is the backpressure valve's second
        input: unbounded debt means compaction is losing the race."""
        return sum(task.input_bytes for task in self._runs(sizes))

    def tier_shape(self, sizes: list[int]) -> list[dict[str, Any]]:
        """Per-tier table counts and bytes for ``stats`` exposure."""
        shape: dict[int, list[int]] = {}
        for size in sizes:
            bucket = shape.setdefault(self.tier_of(size), [0, 0])
            bucket[0] += 1
            bucket[1] += size
        return [
            {"tier": tier, "tables": count, "bytes": total}
            for tier, (count, total) in sorted(shape.items())
        ]


def merge_tables(inputs: list[str | Path], output: str | Path) -> int:
    """Compact several inventory tables into one; returns the entry count.

    Keys appearing in several inputs have their summaries merged (the
    summary monoid, oldest input first); each input must itself be a
    valid table.  A key found in only one input is copied verbatim as
    its checksum-verified stored (deflated) value: the summary roundtrip
    and the deflate are both deterministic, so the output is the table a
    decode/re-encode of every entry would write, and only colliding keys
    pay inflate → merge → encode → deflate.  The output
    path must not name any input: the output file is opened for writing
    up front, so compacting a table onto itself would silently destroy it.
    """
    if not inputs:
        raise ValueError("need at least one input table")
    output_resolved = Path(output).resolve()
    for path in inputs:
        if Path(path).resolve() == output_resolved:
            raise ValueError(
                f"output table {output} is also an input; compaction would "
                "overwrite it mid-read"
            )
    readers: list[SSTableReader] = []
    try:
        for path in inputs:
            readers.append(SSTableReader(path))
        streams = [_stored_entries(reader, index) for index, reader in enumerate(readers)]
        entries = 0
        with SSTableWriter(output) as writer:
            # Equal keys arrive oldest input first (the index tie-break).
            for key_raw, run in groupby(heapq.merge(*streams), key=itemgetter(0)):
                _, index, stored, block_index = next(run)
                key = _decode_key(key_raw, readers[index].path, block_index)
                collisions = list(run)
                if collisions:
                    summary = _merge_item(readers, index, stored, block_index)
                    for _, index, other, block_index in collisions:
                        summary.merge(_merge_item(readers, index, other, block_index))
                    writer.add(key, summary)
                else:
                    writer.add_stored(key, stored)
                entries += 1
        return entries
    finally:
        for reader in readers:
            reader.close()


def _merge_item(
    readers: list[SSTableReader], index: int, stored: bytes, block_index: int
) -> CellSummary:
    """The summary one merge item's stored value holds."""
    path = readers[index].path
    return _decode_summary(_inflate(stored, path, block_index), path, block_index)


def _stored_entries(
    reader: SSTableReader, index: int
) -> Iterator[tuple[bytes, int, bytes, int]]:
    """One input's entries as merge items: raw key, input index, stored
    (deflated) value, block index."""
    for key_raw, stored, block_index in reader.scan_stored():
        yield key_raw, index, stored, block_index
