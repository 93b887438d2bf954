"""``build_batch``: the paper's batch path, archive in, servable table out.

Measured: ``python -m repro build`` over the generated archive, again
and again, wall clock and the child's peak RSS each time.  CSV decode,
the cleaning → trips → projection → aggregation funnel, the sketches
and the SSTable writer do all the work; the server does none.
"""

from __future__ import annotations

import time

from bench import probes, world
from bench.config import Scale
from bench.procs import Session
from bench.result import Outcome
from bench.stats import median
from bench.tracing import Tracer

#: ``repro build --trace`` span name → per-layer metric.
STAGE_SPANS = {
    "pipeline.clean": "pipeline.clean_s",
    "pipeline.enrich": "pipeline.enrich_s",
    "pipeline.trips": "pipeline.trips_s",
    "pipeline.project": "pipeline.project_s",
    "pipeline.aggregate": "pipeline.aggregate_s",
}
#: Engine stage labels that make up the shuffle.
SHUFFLE_LABELS = ("group_by_key", "map_side_combine")


def run(session: Session, scale: Scale, seconds: float, tracer: Tracer | None) -> Outcome:
    """One build_batch run (no seed: the harness chooses nothing here —
    the archive is the whole input, see bench/world.py)."""
    from repro import PipelineConfig, build_inventory
    from repro.engine import Engine, EngineConfig
    from repro.inventory import open_inventory, verify_table
    from repro.world.ports import PORTS

    out = Outcome()
    archive = world.generate(session, scale)
    out.put("setup_s", archive.run.wall_s)
    positions = archive.positions()

    # -- measured: the build, as the user runs it -------------------------------------
    walls: list[float] = []
    peaks: list[float] = []
    table = session.dir / "inventory.sst"
    started = time.perf_counter()
    while len(walls) < scale.min_builds or time.perf_counter() - started < seconds:
        table, run_ = world.build(session, scale, archive, "inventory.sst")
        walls.append(run_.wall_s)
        peaks.append(run_.peak_rss_mb)
    out.attempted = len(walls)
    # Time-boxed, so a faster build is repeated more often; the median
    # does not care how often.
    out.put("build_s", median(walls), len(walls))
    out.put("throughput", len(positions) / median(walls), len(walls))
    out.put("lat_p50_ms", median(walls) * 1e3, len(walls))
    out.put("lat_p99_ms", max(walls) * 1e3, len(walls))
    out.put("peak_rss_mb", median(peaks), len(peaks))
    out.put("build_peak_rss_mb", median(peaks), len(peaks))
    out.put("stored_bytes_per_report", world.table_bytes(table) / len(positions))

    # -- correctness: the table against an in-process reference build -------------------
    check = verify_table(table)
    out.check(check.ok, f"verify_table: {'; '.join(check.lines())}")
    with Engine(EngineConfig(collect_metrics=tracer is not None)) as engine:
        reference = build_inventory(
            positions, archive.fleet(), PORTS, PipelineConfig(resolution=scale.resolution),
            engine=engine,
        )
    expected = {key: summary.records for key, summary in reference.inventory.items()}
    with open_inventory(table) as reader:
        stored = list(reader.scan())
        blocks = reader.block_count
    actual = {key: summary.records for key, summary in stored}
    out.check(
        actual == expected,
        f"built table holds {len(actual)} groups, the in-process reference "
        f"{len(expected)}; {sum(1 for k in expected if actual.get(k) != expected[k])} "
        f"reference groups are missing or differ in records",
    )

    if tracer is not None:
        _probe_layers(session, scale, archive, tracer, out, positions, reference,
                      [summary for _, summary in stored[: scale.probe_ops]], blocks)
    return out


def _probe_layers(
    session: Session,
    scale: Scale,
    archive: world.Archive,
    tracer: Tracer,
    out: Outcome,
    positions: list,
    reference,
    summaries: list,
    blocks: int,
) -> None:
    from repro.ais import read_csv
    from repro.inventory import write_inventory
    from repro.obs import read_trace

    with tracer.span("ais.read_csv"):
        rows = sum(1 for _ in read_csv(archive.path))
    out.put("ais.read_csv_s", tracer.durations("ais.read_csv")[-1])
    out.put("ais.read_csv_rows", rows)

    # Stage walls from the program's own `build --trace` spans.
    trace_path = session.dir / "build.trace"
    session.run_cli(
        "build", "--archive", str(archive.path), "--out",
        str(session.dir / "traced.sst"), "--resolution", str(scale.resolution),
        "--trace", str(trace_path),
    )
    stage_s: dict[str, float] = {}
    for record in read_trace(trace_path):
        stage_s[record["name"]] = stage_s.get(record["name"], 0.0) + record["wall_s"]
    for span_name, metric in STAGE_SPANS.items():
        out.put(metric, stage_s.get(span_name, 0.0))
    out.put("pipeline.rows_raw", reference.funnel["raw"])
    out.put("pipeline.rows_trip", reference.funnel["with_trip_semantics"])
    out.put("pipeline.groups", reference.funnel["inventory_groups"])
    out.put("engine.shuffle_s",
            sum(reference.stage_seconds.get(label, 0.0) for label in SHUFFLE_LABELS))

    probes.probe_hexgrid(tracer, out, positions[: scale.probe_ops], scale.resolution)
    probes.probe_fold(tracer, out, positions[: scale.probe_ops])
    probes.probe_codec(tracer, out, summaries)

    rewritten = session.dir / "rewritten.sst"
    with tracer.span("inventory.sstable.write"):
        entries = write_inventory(reference.inventory, rewritten)
    out.put("inventory.sstable.write_s", tracer.durations("inventory.sstable.write")[-1])
    out.put("inventory.sstable.bytes_per_group", rewritten.stat().st_size / entries)
    out.put("inventory.sstable.blocks", blocks)
