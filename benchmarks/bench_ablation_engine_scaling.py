"""Ablation — execution-framework partitioning (§3.2.2).

The paper "capitalizes on the parallelization capabilities of Apache
Spark" (128 vcores).  Our engine runs partitions one after another in
the caller's thread (DESIGN.md, "Considered alternative: parallel
schedulers"), so this benchmark measures what partitioning alone costs:
the same aggregation job at 1, 8 and 32 partitions, reporting
throughput and asserting that every partition count gives the same
answer.
"""

from __future__ import annotations

import time

from benchmarks.conftest import write_report
from repro.engine import Engine, EngineConfig
from repro.hexgrid import latlng_to_cell

PARTITION_COUNTS = (1, 8, 32)
REPEATS = 3


def _job(engine, reports):
    return sorted(
        engine.parallelize(reports)
        .map(lambda r: (latlng_to_cell(r.lat, r.lon, 6), r.sog))
        .combine_by_key(
            create=lambda v: (1, v),
            merge_value=lambda acc, v: (acc[0] + 1, acc[1] + v),
            merge_combiners=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        .map_values(lambda acc: acc[0])
        .collect()
    )


def test_ablation_engine_scaling(benchmark, bench_world):
    reports = bench_world.positions[:40_000]

    rows = []
    reference = None
    for partitions in PARTITION_COUNTS:
        timings = []
        with Engine(EngineConfig(num_partitions=partitions)) as engine:
            # Best of REPEATS: the first run of the sweep also pays the
            # process's warm-up (grid caches, allocator growth).
            for _ in range(REPEATS):
                start = time.perf_counter()
                answer = _job(engine, reports)
                timings.append(time.perf_counter() - start)
        if reference is None:
            reference = answer
        assert answer == reference  # every partition count, the same answer
        seconds = min(timings)
        rows.append((partitions, seconds, len(reports) / seconds))

    benchmark.pedantic(
        lambda: _job(Engine(EngineConfig(num_partitions=8)), reports),
        rounds=1, iterations=1,
    )

    lines = [
        f"Engine scaling ablation: cell aggregation of {len(reports):,} "
        f"reports into {len(reference):,} cells, best of {REPEATS} runs "
        "(identical per-cell counts asserted across all partition counts)",
        f"{'Partitions':>10} {'Seconds':>9} {'Records/s':>11}",
    ]
    for partitions, seconds, throughput in rows:
        lines.append(f"{partitions:>10} {seconds:>9.2f} {throughput:>11,.0f}")
    lines.append("")
    lines.append(
        "Shape notes: partitions run serially, so the partition count only "
        "moves the map-side combine and shuffle bookkeeping; the paper's "
        "Spark cluster runs the same map-side work in parallel at 128 vcores."
    )
    write_report("ablation_engine_scaling", lines)

    for _partitions, seconds, _throughput in rows:
        assert seconds < 120.0
