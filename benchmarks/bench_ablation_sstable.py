"""Ablation — on-disk format tuning: SSTable block size and checksums.

The query-vs-scan experiment's "hits" depend on how the inventory is laid
out on disk.  This ablation sweeps the block size: small blocks minimise
bytes touched per point lookup but inflate the sparse index; large blocks
amortise the index but drag more cold bytes through each read.  The
classic storage-engine trade, measured on a real inventory.

It also measures what format v3's integrity machinery (per-block CRCs +
checksummed footer) costs against v2: write time, cold per-get latency
(every get verifies its block), and warm-cache per-get latency (cache
hits skip verification, so the overhead must be within noise — the
report asserts < 10 %).  The warm passes of the two versions alternate
round by round and each side keeps its best round, so a burst of load
from a neighbour on a shared machine lands on both sides instead of
deciding the ratio.
"""

from __future__ import annotations

import time

from benchmarks.conftest import QUICK, write_report
from repro.inventory.backend import SSTableInventory
from repro.inventory.checksum import DEFAULT_ALGO, algo_name
from repro.inventory.keys import GroupingSet
from repro.inventory.sstable import SSTableReader, SSTableWriter, _key_bytes


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
        reader = SSTableReader(directory / "inv-16384.sst")
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

    # -- v2 vs v3: what do the checksums cost? ---------------------------------
    repeats = 2 if QUICK else 5
    version_rows = {}
    for version in (2, 3):
        path = directory / f"inv-v{version}.sst"
        write_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            with SSTableWriter(path, version=version) as writer:
                for key, summary in entries:
                    writer.add(key, summary)
            write_times.append(time.perf_counter() - start)
        # Cold gets: every v3 get verifies its block's CRC on the way in.
        cold_times = []
        for _ in range(repeats):
            with SSTableReader(path) as reader:
                start = time.perf_counter()
                for key in probe_keys:
                    reader.get(key)
                cold_times.append(time.perf_counter() - start)
        version_rows[version] = (
            min(write_times),
            min(cold_times) / len(probe_keys) * 1e3,
            path.stat().st_size,
        )

    # Warm gets: the block cache serves verified blocks, so checksum work
    # happens once per block, not once per lookup.
    warm_rounds = 10 * repeats
    warm_times: dict[int, list[float]] = {2: [], 3: []}
    with (
        SSTableInventory(directory / "inv-v2.sst", cache_blocks=512) as v2,
        SSTableInventory(directory / "inv-v3.sst", cache_blocks=512) as v3,
    ):
        backends = {2: v2, 3: v3}
        for backend in backends.values():
            for key in probe_keys:  # warm the cache
                backend.get(key)
        for round_index in range(warm_rounds):
            order = (2, 3) if round_index % 2 == 0 else (3, 2)
            for version in order:
                backend = backends[version]
                start = time.perf_counter()
                for key in probe_keys:
                    backend.get(key)
                warm_times[version].append(time.perf_counter() - start)
    warm_ms = {
        version: min(times) / len(probe_keys) * 1e3
        for version, times in warm_times.items()
    }

    lines.append("")
    lines.append(
        f"Format v2 vs v3 checksum overhead ({algo_name(DEFAULT_ALGO)}, "
        f"16KB blocks, min of {repeats} repeats; warm: best of "
        f"{warm_rounds} interleaved rounds)"
    )
    lines.append(
        f"{'Version':>8} {'Write s':>9} {'Cold ms/get':>12} "
        f"{'Warm ms/get':>12} {'FileMB':>7}"
    )
    for version, (write_s, cold_ms, size) in version_rows.items():
        lines.append(
            f"{version:>8} {write_s:>9.3f} {cold_ms:>12.4f} "
            f"{warm_ms[version]:>12.4f} {size/1e6:>7.1f}"
        )
    warm_overhead = warm_ms[3] / warm_ms[2] - 1.0
    lines.append("")
    lines.append(
        f"Warm-cache overhead of v3 over v2: {warm_overhead:+.1%} "
        "(cache hits skip verification; must stay < +10%)"
    )
    write_report("ablation_sstable", lines)

    bytes_col = [bytes_per_get for _, _, bytes_per_get, _, _ in rows]
    blocks_col = [blocks for _, blocks, _, _, _ in rows]
    sizes = [size for *_ignore, size in rows]
    assert bytes_col == sorted(bytes_col)
    assert blocks_col == sorted(blocks_col, reverse=True)
    assert max(sizes) < 1.1 * min(sizes)
    assert warm_overhead < 0.10
