"""Tests for end-to-end dataset generation."""

import pytest

from repro.ais.vesseltypes import COMMERCIAL_SEGMENTS
from repro.geo.polygon import BoundingBox
from repro.world.dataset import EPOCH_2022, WorldConfig, generate_dataset


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        WorldConfig(seed=77, n_vessels=12, days=8.0, report_interval_s=900.0)
    )


def test_positions_nonempty_and_time_sorted(dataset):
    assert len(dataset.positions) > 1000
    timestamps = [report.epoch_ts for report in dataset.positions]
    assert timestamps == sorted(timestamps)


def test_window_respected(dataset):
    for report in dataset.positions:
        assert EPOCH_2022 <= report.epoch_ts < dataset.config.end_ts + 86400.0


def test_fleet_covers_all_reporting_mmsis(dataset):
    fleet_mmsis = {vessel.mmsi for vessel in dataset.fleet}
    report_mmsis = {report.mmsi for report in dataset.positions}
    assert report_mmsis <= fleet_mmsis


def test_voyages_only_for_commercial_vessels(dataset):
    static = dataset.static_by_mmsi()
    for plan in dataset.voyages:
        assert static[plan.mmsi].segment in COMMERCIAL_SEGMENTS


def test_determinism_same_seed(dataset):
    again = generate_dataset(
        WorldConfig(seed=77, n_vessels=12, days=8.0, report_interval_s=900.0)
    )
    assert len(again.positions) == len(dataset.positions)
    sample = slice(0, 500)
    assert [
        (r.mmsi, r.epoch_ts, r.lat, r.lon) for r in again.positions[sample]
    ] == [(r.mmsi, r.epoch_ts, r.lat, r.lon) for r in dataset.positions[sample]]
    assert again.defects.total() == dataset.defects.total()


def test_different_seed_differs(dataset):
    other = generate_dataset(
        WorldConfig(seed=78, n_vessels=12, days=8.0, report_interval_s=900.0)
    )
    assert [r.lat for r in other.positions[:200]] != [
        r.lat for r in dataset.positions[:200]
    ]


def test_defects_injected_by_default(dataset):
    assert dataset.defects.total() > 0


def test_clean_mode_injects_nothing():
    clean = generate_dataset(
        WorldConfig(seed=77, n_vessels=6, days=4.0, report_interval_s=900.0,
                    clean=True)
    )
    assert clean.defects.total() == 0
    from repro.ais.validation import is_valid_position_report

    assert all(is_valid_position_report(r) for r in clean.positions)


def test_region_restriction():
    baltic = BoundingBox(53.0, 61.0, 9.0, 31.0)
    regional = generate_dataset(
        WorldConfig(seed=5, n_vessels=8, days=6.0, report_interval_s=900.0,
                    region=baltic)
    )
    for plan in regional.voyages:
        # Voyages are between Baltic ports only.
        assert plan.origin != plan.destination
    grown = baltic.expand(8.0)
    inside = sum(
        1 for r in regional.positions if grown.contains(r.lat, r.lon)
    )
    assert inside / len(regional.positions) > 0.95


def test_region_needs_two_ports():
    empty_ocean = BoundingBox(-50.0, -40.0, -40.0, -20.0)
    with pytest.raises(ValueError):
        generate_dataset(WorldConfig(region=empty_ocean))


def test_voyage_arrival_after_departure(dataset):
    for plan in dataset.voyages[:10]:
        assert dataset.voyage_arrival_ts(plan) > plan.depart_ts
