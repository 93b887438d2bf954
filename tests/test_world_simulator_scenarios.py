"""Tests for the track simulator, corruption model and scenarios."""

import random

import pytest

from repro.ais.messages import NavigationStatus
from repro.geo import haversine_m
from repro.world.ports import port_by_id
from repro.world.routing import SeaRouter
from repro.world.scenarios import PortShutdown, SuezBlockage
from repro.world.simulator import NoiseModel, TrackSimulator
from repro.world.voyages import VoyagePlan


@pytest.fixture(scope="module")
def router():
    return SeaRouter()


@pytest.fixture(scope="module")
def simulator(router):
    return TrackSimulator(router, report_interval_s=600.0)


def _plan(router, origin="SGSIN", destination="MYPKG", speed=14.0, depart=0.0):
    return VoyagePlan(
        mmsi=235000001,
        origin=origin,
        destination=destination,
        depart_ts=depart,
        speed_kn=speed,
        route_nodes=tuple(router.route_nodes(origin, destination)),
    )


class TestVoyageTrack:
    def test_track_starts_in_origin_and_ends_in_destination(self, router, simulator):
        plan = _plan(router)
        track = simulator.voyage_track(plan, end_ts=30 * 86400.0, rng=random.Random(1))
        assert track
        origin = port_by_id(plan.origin)
        destination = port_by_id(plan.destination)
        assert haversine_m(track[0].lat, track[0].lon, origin.lat, origin.lon) \
            <= origin.radius_m
        assert haversine_m(track[-1].lat, track[-1].lon,
                           destination.lat, destination.lon) <= destination.radius_m

    def test_timestamps_monotone_at_interval(self, router, simulator):
        plan = _plan(router)
        track = simulator.voyage_track(plan, end_ts=30 * 86400.0, rng=random.Random(2))
        diffs = {round(b.epoch_ts - a.epoch_ts) for a, b in zip(track, track[1:])}
        assert diffs == {600}

    def test_transitions_are_feasible(self, router, simulator):
        from repro.geo import speed_between_knots

        plan = _plan(router)
        track = simulator.voyage_track(plan, end_ts=30 * 86400.0, rng=random.Random(3))
        for a, b in zip(track, track[1:]):
            implied = speed_between_knots(
                a.lat, a.lon, a.epoch_ts, b.lat, b.lon, b.epoch_ts
            )
            assert implied < 50.0

    def test_speed_slows_near_ports(self, router, simulator):
        plan = _plan(router, origin="CNSHA", destination="SGSIN")
        track = simulator.voyage_track(plan, end_ts=60 * 86400.0, rng=random.Random(4))
        start_speed = track[0].sog
        mid_speed = track[len(track) // 2].sog
        assert start_speed < mid_speed

    def test_truncation_at_window_end(self, router, simulator):
        plan = _plan(router, origin="CNSHA", destination="NLRTM")
        track = simulator.voyage_track(plan, end_ts=86400.0, rng=random.Random(5))
        assert all(report.epoch_ts < 86400.0 for report in track)
        destination = port_by_id("NLRTM")
        # Far from done: the truncated track must not have arrived.
        assert haversine_m(track[-1].lat, track[-1].lon,
                           destination.lat, destination.lon) > 1_000_000

    def test_reports_carry_valid_fields(self, router, simulator):
        from repro.ais.validation import is_valid_position_report

        plan = _plan(router)
        track = simulator.voyage_track(plan, end_ts=30 * 86400.0, rng=random.Random(6))
        assert all(is_valid_position_report(report) for report in track)


class TestDwellAndLocal:
    def test_dwell_reports_moored_near_port(self, router, simulator):
        port = port_by_id("NLRTM")
        track = simulator.dwell_track(port, 235000001, 0.0, 86400.0, random.Random(7))
        assert track
        for report in track:
            assert report.status == int(NavigationStatus.MOORED)
            assert report.sog < 1.0
            assert haversine_m(report.lat, report.lon, port.lat, port.lon) < 5_000

    def test_local_track_stays_near_home(self, router, simulator):
        port = port_by_id("SGSIN")
        track = simulator.local_track(
            335000001, port, 0.0, 5 * 86400.0, random.Random(8)
        )
        assert track
        for report in track:
            assert haversine_m(report.lat, report.lon, port.lat, port.lon) < 120_000
            assert report.status == int(NavigationStatus.FISHING)


class TestCorruption:
    def test_injection_counts_match_stats(self, router):
        noisy = TrackSimulator(
            router,
            noise=NoiseModel(p_bad_field=0.05, p_duplicate=0.05,
                             p_out_of_order=0.05, p_teleport=0.02),
            report_interval_s=600.0,
        )
        plan = _plan(router, origin="CNSHA", destination="SGSIN")
        clean = noisy.voyage_track(plan, end_ts=60 * 86400.0, rng=random.Random(9))
        corrupted, stats = noisy.corrupt(clean, random.Random(10))
        assert stats.total() > 0
        assert len(corrupted) == len(clean) + stats.duplicate
        # Out-of-order swaps leave non-monotone timestamps behind.
        inversions = sum(
            1 for a, b in zip(corrupted, corrupted[1:]) if b.epoch_ts < a.epoch_ts
        )
        assert inversions >= stats.out_of_order * 0.5

    def test_bad_fields_fail_validation(self, router):
        from repro.ais.validation import is_valid_position_report

        noisy = TrackSimulator(
            router,
            noise=NoiseModel(p_bad_field=0.2, p_duplicate=0.0,
                             p_out_of_order=0.0, p_teleport=0.0),
        )
        plan = _plan(router)
        clean = noisy.voyage_track(plan, end_ts=30 * 86400.0, rng=random.Random(11))
        corrupted, stats = noisy.corrupt(clean, random.Random(12))
        invalid = sum(1 for r in corrupted if not is_valid_position_report(r))
        assert invalid == stats.bad_field > 0

    def test_zero_noise_is_identity(self, router):
        quiet = TrackSimulator(
            router,
            noise=NoiseModel(p_bad_field=0.0, p_duplicate=0.0,
                             p_out_of_order=0.0, p_teleport=0.0),
        )
        plan = _plan(router)
        clean = quiet.voyage_track(plan, end_ts=30 * 86400.0, rng=random.Random(13))
        corrupted, stats = quiet.corrupt(list(clean), random.Random(14))
        assert stats.total() == 0
        assert corrupted == clean

    def test_interval_validation(self, router):
        with pytest.raises(ValueError):
            TrackSimulator(router, report_interval_s=0.0)


class TestScenarios:
    def test_suez_blockage_rewrites_affected_voyages(self, router):
        plan_in_window = _plan(router, origin="CNSHA", destination="NLRTM", depart=10.0)
        plan_outside = _plan(router, origin="CNSHA", destination="NLRTM",
                             depart=10 * 86400.0)
        plan_unrelated = _plan(router, origin="USLAX", destination="JPTYO", depart=10.0)
        scenario = SuezBlockage(start_ts=0.0, end_ts=86400.0)
        rewritten = scenario.apply(
            [plan_in_window, plan_outside, plan_unrelated], router
        )
        assert "GOOD" in rewritten[0].route_nodes
        assert rewritten[0].origin == plan_in_window.origin
        assert rewritten[1].route_nodes == plan_outside.route_nodes
        assert rewritten[2].route_nodes == plan_unrelated.route_nodes

    def test_port_shutdown_diverts_arrivals(self, router):
        plan = _plan(router, origin="CNSHA", destination="CNSZX", depart=10.0)
        scenario = PortShutdown(port_id="CNSZX", start_ts=0.0, end_ts=86400.0)
        rewritten = scenario.apply([plan], router)[0]
        assert rewritten.destination != "CNSZX"
        assert rewritten.origin == "CNSHA"
        # Diverted to a *nearby* alternative.
        old = port_by_id("CNSZX")
        new = port_by_id(rewritten.destination)
        assert haversine_m(old.lat, old.lon, new.lat, new.lon) < 1_000_000

    def test_port_shutdown_ignores_window_outside(self, router):
        plan = _plan(router, origin="CNSHA", destination="CNSZX", depart=5 * 86400.0)
        scenario = PortShutdown(port_id="CNSZX", start_ts=0.0, end_ts=86400.0)
        assert scenario.apply([plan], router)[0].destination == "CNSZX"
