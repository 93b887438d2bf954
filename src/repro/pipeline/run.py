"""End-to-end pipeline orchestration.

:func:`build_inventory` wires the four stages into one engine job graph
and materializes the global inventory, recording the per-stage record
funnel (what Figure 2 depicts on the English Channel subset) and, when the
engine collects metrics, the stage timings behind Figure 3.

Two output modes:

- **in-memory** (default): the result carries a fully materialized
  :class:`~repro.inventory.store.Inventory` — right for notebooks, tests
  and small archives;
- **on-disk** (``output=path``): the archive is split into ingestion
  windows, each window's inventory is persisted as an SSTable, and the
  window tables are compacted with
  :func:`~repro.inventory.compaction.merge_tables` into one servable
  table (the LSM pattern §5 alludes to); a one-window build's table is
  renamed onto the output instead.  The result carries the output
  path instead of a store; serve it with
  :class:`~repro.inventory.backend.SSTableInventory`.

On-disk builds are **resumable**: a build manifest
(:mod:`repro.pipeline.manifest`) is written atomically after every
completed window, and staging tables are kept when a build dies.
Re-running with ``resume=True`` verifies each surviving window table
against its recorded checksum, reuses the verified ones (funnel counts
and cell sets included) and rebuilds only what is missing or damaged —
producing output byte-identical to an uninterrupted build.  A one-window
build that died after renaming its table onto the output, before the
directory fsync, is finished by that fsync alone.  On success
the staging tables and the manifest are removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.ais.messages import PositionReport
from repro.engine.context import Engine
from repro.engine.memory import gc_paused
from repro.inventory import fsio
from repro.inventory.compaction import merge_tables
from repro.inventory.keys import GroupKey
from repro.inventory.sstable import file_checksum, write_inventory
from repro.inventory.store import Inventory
from repro.obs import registry
from repro.obs import trace as obs
from repro.pipeline import cleaning, vectorized
from repro.pipeline import manifest as build_manifests
from repro.pipeline.config import PipelineConfig
from repro.pipeline.features import merge_summaries
from repro.pipeline.geofence import PortIndex
from repro.world.fleet import Vessel
from repro.world.ports import Port

# The paper's Figure-3 execution funnel, one span per stage.  ``repro
# trace`` over a traced build renders exactly this stage set; the CLI
# test pins it.
SPAN_BUILD = registry.register_span(
    "pipeline.build", "one whole build_inventory run (root of a build trace)"
)
SPAN_WINDOW = registry.register_span(
    "pipeline.window",
    "one ingestion window of an on-disk build (attrs: window index, reused)",
)
SPAN_CLEAN = registry.register_span(
    "pipeline.clean",
    "cleaning: field validation, per-vessel dedupe/sort, feasibility filter",
)
SPAN_ENRICH = registry.register_span(
    "pipeline.enrich",
    "enrichment: static-report join, GRT/commercial filters",
)
SPAN_TRIPS = registry.register_span(
    "pipeline.trips",
    "trip extraction: geofenced port calls, trip identity, O/D annotation",
)
SPAN_PROJECT = registry.register_span(
    "pipeline.project",
    "grid projection: trips densified onto hexagonal cells "
    "(forced eagerly only while tracing; lazy inside aggregation otherwise)",
)
SPAN_AGGREGATE = registry.register_span(
    "pipeline.aggregate",
    "feature extraction: grouping-set fan-out and combine_by_key reduce",
)
SPAN_WRITE = registry.register_span(
    "pipeline.write",
    "one window's inventory encoded and written as its staging table",
)
SPAN_COMPACT = registry.register_span(
    "pipeline.compact",
    "k-way merge of window tables into the output table "
    "(one window: its table renamed onto the output)",
)


@dataclass
class PipelineResult:
    """The inventory plus everything needed to reproduce Figures 2 and 3.

    ``inventory`` is ``None`` for on-disk builds — the groups live in the
    table at ``output`` (open it with
    :class:`~repro.inventory.backend.SSTableInventory`).
    """

    inventory: Inventory | None
    funnel: dict[str, int] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Compacted table path for on-disk builds, ``None`` otherwise.
    output: Path | None = None
    #: Entries in the compacted table for on-disk builds.
    entries: int = 0

    def funnel_rows(self) -> list[tuple[str, int]]:
        """(stage, records) rows in pipeline order."""
        return list(self.funnel.items())


def build_inventory(
    positions: list[PositionReport],
    fleet: list[Vessel],
    ports: tuple[Port, ...],
    config: PipelineConfig | None = None,
    engine: Engine | None = None,
    output: str | Path | None = None,
    windows: int = 1,
    resume: bool = False,
) -> PipelineResult:
    """Run the full methodology over a positional-report archive.

    :param positions: raw (dirty) archive, any order.
    :param fleet: static-report inventory to enrich from.
    :param ports: the external port database for geofencing.
    :param engine: an optional pre-configured engine (partition count,
        stage metrics); a default :class:`Engine` otherwise.
    :param output: when given, persist the inventory as a compacted
        SSTable at this path instead of returning an in-memory store.
    :param windows: number of equal-duration ingestion windows for the
        on-disk build (each window becomes one table before compaction).
        Trips straddling a window boundary lose their cross-window
        context, exactly as in a real windowed ingestion.
    :param resume: continue an interrupted on-disk build: windows whose
        staging tables survive and verify against the build manifest are
        reused instead of re-run.  A manifest from different inputs (or
        a damaged one) is discarded and the build starts clean, so
        ``resume=True`` is always safe to pass.
    """
    config = config or PipelineConfig()
    if resume and output is None:
        raise ValueError("resume=True requires an output path")
    engine = engine or Engine()
    with obs.span(
        SPAN_BUILD,
        raw=len(positions),
        windows=windows,
        on_disk=output is not None,
    ):
        if output is None:
            if windows != 1:
                raise ValueError("windowed builds require an output path")
            inventory, funnel = _build_window(
                positions, fleet, ports, config, engine
            )
            funnel["inventory_groups"] = len(inventory)
            funnel["inventory_cells"] = len(inventory.cells())
            return PipelineResult(
                inventory=inventory,
                funnel=funnel,
                stage_seconds=_stage_seconds(engine),
            )
        return _build_to_table(
            positions, fleet, ports, config, engine, Path(output), windows,
            resume=resume,
        )


def _build_to_table(
    positions: list[PositionReport],
    fleet: list[Vessel],
    ports: tuple[Port, ...],
    config: PipelineConfig,
    engine: Engine,
    output: Path,
    windows: int,
    resume: bool = False,
) -> PipelineResult:
    """The on-disk mode: window → per-window table → compact.

    A manifest checkpoints every completed window; on failure the
    staging tables and the manifest are *kept* so a later ``resume=True``
    run picks up where this one died.  Only a successful compaction
    cleans them up.
    """
    if windows < 1:
        raise ValueError(f"need at least one window, got {windows}")
    manifest_file = build_manifests.manifest_path(output)
    fingerprint = build_manifests.build_fingerprint(positions, config, windows)
    manifest = None
    if resume:
        manifest = build_manifests.load_manifest(manifest_file)
        if manifest is not None and manifest.fingerprint != fingerprint:
            manifest = None  # different archive/config/window split: rebuild
    if manifest is None:
        manifest = build_manifests.BuildManifest(fingerprint=fingerprint)

    window_paths: list[Path] = []
    funnel: dict[str, int] = {}
    cells: set[int] = set()
    published = windows == 1 and _published_window(manifest, output)
    completed = False
    try:
        for index, position_window in enumerate(_time_windows(positions, windows)):
            path = output.with_name(f"{output.name}.w{index}")
            with obs.span(SPAN_WINDOW, index=index) as window_span:
                if published:
                    record = manifest.windows[index]
                else:
                    record = manifest.verified_window(index, path)
                window_span.set("reused", record is not None)
                if record is None:
                    inventory, window_funnel = _build_window(
                        position_window, fleet, ports, config, engine
                    )
                    with obs.span(SPAN_WRITE, groups=len(inventory)):
                        write_inventory(inventory, path)
                    record = build_manifests.WindowRecord(
                        index=index,
                        table_name=path.name,
                        entries=len(inventory),
                        table_crc=file_checksum(path),
                        funnel=dict(window_funnel),
                        cells=sorted(inventory.cells()),
                    )
                    manifest.record_window(record)
                    build_manifests.save_manifest(manifest_file, manifest)
            for stage, count in record.funnel.items():
                funnel[stage] = funnel.get(stage, 0) + count
            cells.update(record.cells)
            window_paths.append(path)
        with obs.span(SPAN_COMPACT, tables=len(window_paths)):
            if windows == 1:
                # Merging one table would rewrite it byte for byte:
                # publish it by rename (the commit point), then fsync the
                # directory, which is all a run that died between the
                # two left undone.
                if not published:
                    fsio.rename(window_paths[0], output)
                fsio.fsync_dir(output.parent)
                entries = manifest.windows[0].entries
            else:
                entries = merge_tables(window_paths, output)
        completed = True
    finally:
        if completed:
            for path in window_paths:
                path.unlink(missing_ok=True)
            build_manifests.delete_manifest(manifest_file)
    funnel["inventory_groups"] = entries
    funnel["inventory_cells"] = len(cells)
    return PipelineResult(
        inventory=None,
        funnel=funnel,
        stage_seconds=_stage_seconds(engine),
        output=output,
        entries=entries,
    )


def _published_window(manifest: build_manifests.BuildManifest, output: Path) -> bool:
    """Whether a one-window build died after its publish rename but
    before the directory fsync: the staged table is gone and ``output``
    holds exactly the bytes the manifest recorded for window 0."""
    record = manifest.windows.get(0)
    staged = output.with_name(f"{output.name}.w0")
    if record is None or record.table_name != staged.name or staged.exists():
        return False
    try:
        return file_checksum(output) == record.table_crc
    except OSError:
        return False


def _build_window(
    positions: list[PositionReport],
    fleet: list[Vessel],
    ports: tuple[Port, ...],
    config: PipelineConfig,
    engine: Engine,
) -> tuple[Inventory, dict[str, int]]:
    """One pipeline pass over one window; returns (inventory, funnel).

    Record batches flow between the stages: enrichment emits one
    :class:`CleanBatch` per vessel, trips one :class:`TripBatch` per
    trip, projection runs batch-at-a-time on the engine's
    ``map_batches`` path, and aggregation folds whole partitions of
    :class:`CellBatch` es into partial summaries
    (:func:`~repro.pipeline.vectorized.aggregate_partition`) before the
    combine shuffle.  Each kernel is the columnar twin of a per-record
    stage function (``enrich_track``, ``annotate_trips``,
    ``project_trip``, ``fan_out``/``make_update``), which stay as the
    readable specification; the per-stage oracle in
    ``tests/test_pipeline_batches.py`` pins each pair bit for bit.
    """
    static_by_mmsi = {vessel.mmsi: vessel for vessel in fleet}
    port_index = PortIndex(
        ports, index_resolution=config.geofence_index_resolution
    )
    funnel: dict[str, int] = {"raw": len(positions)}

    # The stages' named functions: a stage is labelled by its function's
    # name (``map(enrich)``, ``flat_map(trips)``) in the Fig. 3 profile.
    def feasible(reports):
        return cleaning.feasibility_filter(reports, config.max_transition_speed_kn)

    def enrich(track):
        return vectorized.enrich_track_batch(
            track[0],
            track[1],
            static_by_mmsi,
            min_grt=config.min_grt,
            commercial_only=config.commercial_only,
        )

    def commercial(batch):
        return batch is not None  # enrich drops what the fleet filter drops

    def trips(batch):
        return vectorized.annotate_trips_batch(
            batch, port_index, stop_speed_kn=config.stop_speed_kn
        )

    with obs.span(SPAN_CLEAN, rows_in=len(positions)) as clean_span:
        raw = engine.parallelize(positions)
        valid = raw.filter(cleaning.validate).persist()
        funnel["valid_fields"] = valid.count()

        tracks = (
            valid.map(cleaning.key_by_mmsi)
            .group_by_key()
            .map_values(cleaning.sort_and_dedupe)
            .map_values(feasible)
            .persist()
        )
        funnel["feasible"] = sum(
            len(reports) for _, reports in tracks.collect()
        )
        clean_span.set("rows_out", funnel["feasible"])

    with obs.span(SPAN_ENRICH, rows_in=funnel["feasible"]) as enrich_span:
        enriched = tracks.map(enrich).filter(commercial).persist()
        funnel["commercial"] = sum(len(batch) for batch in enriched.collect())
        enrich_span.set("rows_out", funnel["commercial"])

    with obs.span(SPAN_TRIPS, rows_in=funnel["commercial"]) as trips_span:
        trip_batches = enriched.flat_map(trips).persist()
        funnel["with_trip_semantics"] = sum(
            len(trip) for trip in trip_batches.collect()
        )
        trips_span.set("rows_out", funnel["with_trip_semantics"])

    with obs.span(SPAN_PROJECT):
        cell_batches = trip_batches.map_batches(
            lambda trip: vectorized.project_batch(
                trip,
                config.resolution,
                densify=config.densify_transitions,
                extra_features=config.extra_features,
            ),
            label="project_batches",
        )
        if obs.enabled():
            # Projection is lazy — it would otherwise run (and be billed)
            # inside the aggregation span.  Force it here while tracing so
            # the Fig. 3 profile attributes its cost to the right stage;
            # untraced builds keep the fused lazy plan.
            cell_batches = cell_batches.persist()
            cell_batches.count()

    with obs.span(SPAN_AGGREGATE) as agg_span:
        summary_config = config.effective_summary
        partials = cell_batches.map_partitions(
            lambda _index, batches: vectorized.aggregate_partition(
                batches, summary_config
            ),
            label="aggregate_kernel",
        )
        # Partition-local keys are already unique, so map-side combine
        # is a pass-through; the shuffle + reduce-side merge folds the
        # partials in partition order.
        grouped = partials.combine_by_key(
            create=lambda summary: summary,
            merge_value=merge_summaries,
            merge_combiners=merge_summaries,
            label="aggregate_summaries",
        )

        inventory = Inventory(config.resolution, summary_config)
        # collect() drives the whole lazy chain (kernel, shuffle,
        # reduce), which allocates one summary per live group; pausing
        # the cyclic collector for the stage avoids gen-2 re-scans of
        # that growing, fully-reachable population (~4x on summary
        # creation).
        with gc_paused():
            for key_tuple, summary in grouped.collect():
                inventory.put(GroupKey.from_tuple(key_tuple), summary)
        agg_span.set("groups", len(inventory))
    return inventory, funnel


def _time_windows(
    positions: list[PositionReport], windows: int
) -> list[list[PositionReport]]:
    """Split an archive into equal-duration ingestion windows by report
    timestamp (window count is preserved even when some come out empty)."""
    if windows == 1 or not positions:
        return [positions]
    start = min(report.epoch_ts for report in positions)
    end = max(report.epoch_ts for report in positions)
    span = (end - start) or 1.0
    sliced: list[list[PositionReport]] = [[] for _ in range(windows)]
    for report in positions:
        index = min(int((report.epoch_ts - start) / span * windows), windows - 1)
        sliced[index].append(report)
    return sliced


def _stage_seconds(engine: Engine) -> dict[str, float]:
    return dict(engine.metrics.by_label()) if engine.metrics is not None else {}

