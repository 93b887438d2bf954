"""Tests for the COLREGS starboard lane offset in the simulator.

Opposing flows of the same route must separate laterally (rule 10 traffic
separation), which is what makes per-cell course statistics coherent —
the property Figures 1 and 4 rely on.
"""

import random

import pytest

from repro.geo.distance import cross_track_distance_m
from repro.world.routing import SeaRouter
from repro.world.simulator import TrackSimulator
from repro.world.voyages import VoyagePlan


@pytest.fixture(scope="module")
def router():
    return SeaRouter()


def _plan(router, origin, destination):
    return VoyagePlan(
        mmsi=235000001, origin=origin, destination=destination,
        depart_ts=0.0, speed_kn=14.0,
        route_nodes=tuple(router.route_nodes(origin, destination)),
    )


def _mid_ocean_offsets(router, track, node_a, node_b):
    """Signed cross-track offsets of track points from the leg A→B.

    Points are windowed to the leg's interior by longitude so that other
    (nearly collinear) legs of the same route don't leak in.
    """
    lat_a, lon_a = router.node_position(node_a)
    lat_b, lon_b = router.node_position(node_b)
    lon_lo, lon_hi = sorted((lon_a, lon_b))
    margin = 0.15 * (lon_hi - lon_lo)
    offsets = []
    for report in track:
        if not lon_lo + margin < report.lon < lon_hi - margin:
            continue
        offsets.append(
            cross_track_distance_m(
                report.lat, report.lon, lat_a, lon_a, lat_b, lon_b
            )
        )
    return offsets


def test_opposing_directions_take_opposite_sides(router):
    simulator = TrackSimulator(router, report_interval_s=600.0)
    rng = random.Random(1)
    # A mid-length route with a long open-water leg.
    eastbound = simulator.voyage_track(
        _plan(router, "ESALG", "GRPIR"), end_ts=1e12, rng=rng
    )
    westbound = simulator.voyage_track(
        _plan(router, "GRPIR", "ESALG"), end_ts=1e12, rng=rng
    )
    # Offsets relative to the same directed leg GIB→MEDC.
    east_offsets = _mid_ocean_offsets(router, eastbound, "GIB", "MEDC")
    west_offsets = _mid_ocean_offsets(router, westbound, "GIB", "MEDC")
    assert east_offsets and west_offsets
    import statistics

    east_mean = statistics.fmean(east_offsets)
    west_mean = statistics.fmean(west_offsets)
    # Starboard-of-own-course puts the two flows on opposite signed sides
    # of the shared centerline.
    assert east_mean * west_mean < 0
    assert abs(east_mean - west_mean) > 2_000


def test_offset_tapers_at_ports(router):
    from repro.geo import haversine_m
    from repro.world.ports import port_by_id

    simulator = TrackSimulator(router, report_interval_s=600.0)
    track = simulator.voyage_track(
        _plan(router, "ESALG", "GRPIR"), end_ts=1e12, rng=random.Random(2)
    )
    origin = port_by_id("ESALG")
    destination = port_by_id("GRPIR")
    # First and last reports are inside the geofences despite the offset.
    assert haversine_m(track[0].lat, track[0].lon,
                       origin.lat, origin.lon) <= origin.radius_m
    assert haversine_m(track[-1].lat, track[-1].lon,
                       destination.lat, destination.lon) <= destination.radius_m


def test_per_cell_course_coherence_emerges(router):
    """Both directions sailed repeatedly: per-cell circular course spread
    stays small because directions occupy different cells.

    Resolution 7 (4.3 km cell spacing) fully separates the ±3.5 km
    starboard offsets; at res 6 the separation is marginal (≈7 km of lane
    separation vs 10.4 km cells) and coherence only emerges with the wider
    per-vessel spread of a full fleet (verified in the Figure 1 benchmark).
    """
    from repro.hexgrid import latlng_to_cell
    from repro.sketches import CircularMoments

    simulator = TrackSimulator(router, report_interval_s=600.0)
    rng = random.Random(3)
    cells: dict[int, CircularMoments] = {}
    for _ in range(3):
        for origin, destination in [("ESALG", "GRPIR"), ("GRPIR", "ESALG")]:
            for report in simulator.voyage_track(
                _plan(router, origin, destination), end_ts=1e12, rng=rng
            ):
                cell = latlng_to_cell(report.lat, report.lon, 7)
                cells.setdefault(cell, CircularMoments()).update(report.cog)
    dense = [m for m in cells.values() if m.count >= 3]
    assert dense
    coherent = sum(1 for m in dense if (m.std_deg or 180.0) < 45.0)
    assert coherent / len(dense) > 0.8
