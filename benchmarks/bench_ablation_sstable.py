"""Ablation — on-disk format tuning: SSTable block size.

The query-vs-scan experiment's "hits" depend on how the inventory is laid
out on disk.  This ablation sweeps the block size: small blocks minimise
bytes touched per point lookup but inflate the sparse index; large blocks
amortise the index but drag more cold bytes through each read.  The
classic storage-engine trade, measured on a real inventory.
"""

from __future__ import annotations

import time

from benchmarks.conftest import write_report
from repro.inventory.keys import GroupingSet
from repro.inventory.sstable import (
    DEFAULT_BLOCK_SIZE,
    SSTableReader,
    SSTableWriter,
    _key_bytes,
)


def test_ablation_sstable_block_size(benchmark, tmp_path_factory,
                                     bench_inventory):
    directory = tmp_path_factory.mktemp("blocks")
    entries = sorted(
        bench_inventory.items(), key=lambda kv: _key_bytes(kv[0])
    )
    probe_keys = [
        key for key, _ in entries if key.grouping_set is GroupingSet.CELL
    ][::37][:100]

    rows = []
    for block_size in (4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024):
        path = directory / f"inv-{block_size}.sst"
        with SSTableWriter(path, block_size=block_size) as writer:
            for key, summary in entries:
                writer.add(key, summary)
        reader = SSTableReader(path)
        start = time.perf_counter()
        touched = 0
        for key in probe_keys:
            assert reader.get(key) is not None
            touched += reader.last_read_bytes
        seconds = time.perf_counter() - start
        rows.append(
            (
                block_size,
                reader.block_count,
                touched / len(probe_keys),
                seconds / len(probe_keys) * 1e3,
                path.stat().st_size,
            )
        )
        reader.close()

    def lookup_default():
        reader = SSTableReader(directory / f"inv-{DEFAULT_BLOCK_SIZE}.sst")
        for key in probe_keys[:10]:
            reader.get(key)
        reader.close()

    benchmark(lookup_default)

    lines = [
        f"SSTable block-size ablation ({len(entries):,} entries, "
        f"{len(probe_keys)} point lookups)",
        f"{'Block':>8} {'Blocks':>8} {'Bytes/get':>10} {'ms/get':>8} "
        f"{'FileMB':>7}",
    ]
    for block_size, blocks, bytes_per_get, ms, size in rows:
        lines.append(
            f"{block_size//1024:>6}KB {blocks:>8,} {bytes_per_get:>10,.0f} "
            f"{ms:>8.3f} {size/1e6:>7.1f}"
        )
    lines.append("")
    lines.append(
        "Shape checks: bytes touched per lookup grows with block size; "
        "block count (index weight) shrinks; file size is ~constant."
    )
    write_report("ablation_sstable", lines)

    bytes_col = [bytes_per_get for _, _, bytes_per_get, _, _ in rows]
    blocks_col = [blocks for _, blocks, _, _, _ in rows]
    sizes = [size for *_ignore, size in rows]
    assert bytes_col == sorted(bytes_col)
    assert blocks_col == sorted(blocks_col, reverse=True)
    assert max(sizes) < 1.1 * min(sizes)
