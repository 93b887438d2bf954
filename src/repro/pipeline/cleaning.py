"""Data cleaning and preprocessing (§3.3.1).

In the paper's words: partition by vessel identifier, drop out-of-range
field values, sort by reported timestamp, compute pairwise time gaps and
haversine distances, drop non-feasible transitions (implied speed over 50
knots), annotate with static vessel information, and drop non-commercial
vessels.  All functions here are module-level, so the engine's stage
labels name them (``filter(validate)``, ``map(key_by_mmsi)``).
"""

from __future__ import annotations

from repro.ais.messages import HEADING_NOT_AVAILABLE, PositionReport
from repro.ais.validation import is_valid_position_report
from repro.ais.vesseltypes import COMMERCIAL_SEGMENTS
from repro.geo.distance import speed_between_knots
from repro.pipeline.records import CleanRecord
from repro.world.fleet import Vessel


def key_by_mmsi(report: PositionReport) -> tuple[int, PositionReport]:
    """Partitioning key: the vessel identifier."""
    return report.mmsi, report


def sort_and_dedupe(reports: list[PositionReport]) -> list[PositionReport]:
    """Order one vessel's reports by reported timestamp and drop exact
    duplicates (same timestamp and position)."""
    reports = sorted(reports, key=lambda r: r.epoch_ts)
    deduped: list[PositionReport] = []
    last_signature: tuple | None = None
    for report in reports:
        signature = (report.epoch_ts, report.lat, report.lon)
        if signature == last_signature:
            continue
        deduped.append(report)
        last_signature = signature
    return deduped


def feasibility_filter(
    reports: list[PositionReport], max_speed_kn: float = 50.0
) -> list[PositionReport]:
    """Drop reports implying impossible jumps from the last accepted one.

    A single GPS teleport spike is rejected because the jump *to* it is
    infeasible, and the following genuine report is then re-checked
    against the pre-spike position, which it passes.
    """
    accepted: list[PositionReport] = []
    for report in reports:
        if accepted:
            previous = accepted[-1]
            implied = speed_between_knots(
                previous.lat,
                previous.lon,
                previous.epoch_ts,
                report.lat,
                report.lon,
                report.epoch_ts,
            )
            if implied > max_speed_kn:
                continue
        accepted.append(report)
    return accepted


def commercial_vessel(
    mmsi: int,
    static_by_mmsi: dict[int, Vessel],
    min_grt: int = 5_000,
    commercial_only: bool = True,
) -> Vessel | None:
    """The fleet filter shared by the scalar and batch enrichment paths.

    Returns the vessel's static record, or ``None`` when the vessel is
    filtered out (unknown MMSI, non-commercial segment, or below the
    tonnage threshold).
    """
    vessel = static_by_mmsi.get(mmsi)
    if vessel is None:
        return None
    if commercial_only and vessel.segment not in COMMERCIAL_SEGMENTS:
        return None
    if vessel.grt < min_grt:
        return None
    return vessel


def enrich_track(
    mmsi: int,
    reports: list[PositionReport],
    static_by_mmsi: dict[int, Vessel],
    min_grt: int = 5_000,
    commercial_only: bool = True,
) -> list[CleanRecord] | None:
    """Attach static vessel data; apply the commercial-fleet filter.

    Returns ``None`` when the whole vessel is filtered out (unknown MMSI,
    non-commercial segment, or below the tonnage threshold).
    """
    vessel = commercial_vessel(
        mmsi, static_by_mmsi, min_grt=min_grt, commercial_only=commercial_only
    )
    if vessel is None:
        return None
    segment = vessel.segment.value
    return [
        CleanRecord(
            mmsi=report.mmsi,
            ts=report.epoch_ts,
            lat=report.lat,
            lon=report.lon,
            sog=report.sog,
            cog=report.cog,
            heading=(
                None if report.heading == HEADING_NOT_AVAILABLE else report.heading
            ),
            status=report.status,
            vessel_type=segment,
            grt=vessel.grt,
        )
        for report in reports
    ]


def validate(report: PositionReport) -> bool:
    """The per-record protocol validation predicate."""
    return is_valid_position_report(report)
