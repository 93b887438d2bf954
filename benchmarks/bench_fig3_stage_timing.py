"""Figure 3 — execution flow of the patterns-of-life calculation.

Paper: a flow diagram of the stages executed on Spark (cleaning →
enrichment → trips → projection → feature extraction).

Reproduced: run the pipeline with stage instrumentation and report the
wall-time breakdown per operator, which is the quantitative counterpart of
the flow diagram.  Shape check: the aggregation (reduce) and the per-vessel
grouping (shuffle) dominate, exactly the stages the paper parallelizes.
"""

from __future__ import annotations

from benchmarks.conftest import write_report
from repro import PipelineConfig, build_inventory
from repro.engine import Engine, EngineConfig


def test_fig3_stage_timing(benchmark, bench_world):
    def run():
        with Engine(EngineConfig(num_partitions=8, collect_metrics=True)) as engine:
            return build_inventory(
                bench_world.positions[:50_000],
                bench_world.fleet,
                bench_world.ports,
                PipelineConfig(resolution=6),
                engine=engine,
            )

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    total = sum(result.stage_seconds.values())
    lines = [
        "Figure 3: execution-flow stage timing (50k-record slice)",
        f"{'Stage':<34} {'Seconds':>8} {'Share':>7}",
    ]
    for label, seconds in sorted(
        result.stage_seconds.items(), key=lambda kv: -kv[1]
    ):
        lines.append(f"{label:<34} {seconds:>8.3f} {seconds/total:>6.1%}")
    lines.append(f"{'TOTAL':<34} {total:>8.3f}")
    write_report("fig3_stage_timing", lines)

    assert "aggregate_summaries" in result.stage_seconds
    heavy = max(result.stage_seconds, key=result.stage_seconds.get)
    # The map-reduce heart of the methodology is the expensive part
    # (aggregate_kernel is its columnar form on the batched path); the
    # per-record keying map ahead of the shuffle is the one map stage
    # that can rival it.
    assert heavy in (
        "aggregate_summaries", "aggregate_kernel", "group_by_key",
        "map_side_combine", "map(key_by_mmsi)",
    )
