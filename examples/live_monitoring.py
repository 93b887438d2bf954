"""Live monitoring: live ingestion + online anomaly screening.

The operational loop the paper's stakeholders run: a historical inventory
provides the model of normalcy; a :class:`~repro.inventory.live.LiveInventory`
keeps extending it as live AIS arrives; and every completed trip is
screened against the normalcy model as it is ingested.

Usage::

    python examples/live_monitoring.py
"""

from __future__ import annotations

import tempfile
from itertools import groupby
from operator import attrgetter

from repro import PipelineConfig, WorldConfig, build_inventory, generate_dataset
from repro.apps import AnomalyDetector
from repro.inventory.live import LiveInventory
from repro.inventory.memtable import IngestRecord
from repro.pipeline import PortIndex, cleaning
from repro.pipeline.projection import project_trip
from repro.pipeline.trips import annotate_trips


def vessel_tracks(world, config):
    """Per-vessel cleaned, enriched tracks (§3.3.1), vessel by vessel."""
    by_mmsi: dict[int, list] = {}
    for report in world.positions:
        if cleaning.validate(report):
            by_mmsi.setdefault(report.mmsi, []).append(report)
    static = world.static_by_mmsi()
    for mmsi, reports in sorted(by_mmsi.items()):
        track = cleaning.feasibility_filter(
            cleaning.sort_and_dedupe(reports), config.max_transition_speed_kn
        )
        records = cleaning.enrich_track(
            mmsi, track, static,
            min_grt=config.min_grt, commercial_only=config.commercial_only,
        )
        if records:
            yield records


def ingest_records(trip, resolution):
    """One trip's records as live-ingest records (cell transitions included)."""
    return [
        IngestRecord(
            mmsi=record.mmsi, ts=record.ts, lat=record.lat, lon=record.lon,
            sog=record.sog, cog=record.cog, vessel_type=record.vessel_type,
            heading=record.heading, trip_id=record.trip_id,
            origin=record.origin, destination=record.destination,
            eto_s=record.eto_s, ata_s=record.ata_s,
            next_cell=cell_record.next_cell,
        )
        # Without densification projection is one cell record per record.
        for record, cell_record in zip(trip, project_trip(trip, resolution))
    ]


def main() -> None:
    print("bootstrapping the normalcy inventory from history ...")
    history = generate_dataset(
        WorldConfig(seed=71, n_vessels=24, days=16.0, report_interval_s=600.0)
    )
    config = PipelineConfig(resolution=6)
    normalcy = build_inventory(
        history.positions, history.fleet, history.ports, config
    ).inventory
    detector = AnomalyDetector(normalcy)
    print(f"normalcy model: {len(normalcy):,} groups")

    print("\ningesting live traffic ...")
    feed = generate_dataset(
        WorldConfig(seed=72, n_vessels=24, days=12.0, report_interval_s=900.0)
    )
    port_index = PortIndex(
        feed.ports, index_resolution=config.geofence_index_resolution
    )
    static = feed.static_by_mmsi()

    flagged = screened = examples_shown = trips = 0
    with tempfile.TemporaryDirectory() as directory, LiveInventory(
        directory, resolution=config.resolution
    ) as live:
        for track in vessel_tracks(feed, config):
            annotated = annotate_trips(
                track, port_index, stop_speed_kn=config.stop_speed_kn
            )
            for _, trip in groupby(annotated, key=attrgetter("trip_id")):
                trip = list(trip)
                trips += 1
                live.ingest(ingest_records(trip, config.resolution))
                # A trip just completed: screen its track against normalcy.
                for record in trip[:: max(1, len(trip) // 10)]:
                    screened += 1
                    score = detector.score(
                        record.lat, record.lon, record.sog, record.cog,
                        vessel_type=record.vessel_type,
                    )
                    if score.is_anomalous:
                        flagged += 1
                        if examples_shown < 3:
                            examples_shown += 1
                            vessel = static[record.mmsi]
                            print(f"  ⚑ {vessel.name}: {score.reasons[0]}")

        stats = live.ingest_stats()
        print("\nlive inventory:")
        print(f"  raw reports in feed:  {len(feed.positions):,}")
        print(f"  trips ingested:       {trips}")
        print(f"  records ingested:     {stats['records_ingested']:,}")
        print(f"  tables flushed:       {stats['flushes']}")
        print(f"\nscreened {screened} completed-trip positions against "
              f"normalcy: {flagged} flagged ({flagged/max(1, screened):.1%})")

        print("\nmerging the live inventory into the normalcy model "
              "(tomorrow's baseline) ...")
        before = len(normalcy)
        for key, summary in live.items():
            normalcy.put(key, summary)
    print(f"normalcy model grew {before:,} -> {len(normalcy):,} groups")


if __name__ == "__main__":
    main()
