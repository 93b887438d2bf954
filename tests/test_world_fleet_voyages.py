"""Tests for fleet synthesis and voyage scheduling."""

import random
from collections import Counter

import pytest

from repro.ais.vesseltypes import MarketSegment
from repro.world.fleet import build_fleet, imo_check_digit, make_imo
from repro.world.routing import SeaRouter
from repro.world.voyages import pick_home_routes, schedule_voyages


class TestFleet:
    def test_size_and_determinism(self):
        fleet_a = build_fleet(50, seed=9)
        fleet_b = build_fleet(50, seed=9)
        assert len(fleet_a) == 50
        assert fleet_a == fleet_b

    def test_different_seeds_differ(self):
        assert build_fleet(20, seed=1) != build_fleet(20, seed=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_fleet(0)

    def test_mmsi_unique_and_nine_digits(self):
        fleet = build_fleet(200, seed=3)
        mmsis = [vessel.mmsi for vessel in fleet]
        assert len(set(mmsis)) == 200
        for mmsi in mmsis:
            assert 100_000_000 <= mmsi <= 999_999_999

    def test_imo_check_digits_valid(self):
        for vessel in build_fleet(100, seed=4):
            assert vessel.imo % 10 == imo_check_digit(vessel.imo // 10)

    def test_known_imo_check_digit(self):
        # IMO 9074729 is the canonical example: base 907472 → check 9.
        assert make_imo(907472) == 9074729

    def test_make_imo_validation(self):
        with pytest.raises(ValueError):
            make_imo(99_999)

    def test_segment_mix_roughly_respected(self):
        fleet = build_fleet(600, seed=5)
        counts = Counter(vessel.segment for vessel in fleet)
        assert counts[MarketSegment.CONTAINER] > counts[MarketSegment.TUG]
        commercial = sum(1 for v in fleet if v.is_commercial)
        assert 0.6 < commercial / 600 < 0.95

    def test_commercial_requires_tonnage(self):
        fleet = build_fleet(300, seed=6)
        for vessel in fleet:
            if vessel.segment is MarketSegment.FISHING:
                assert not vessel.is_commercial
            if vessel.is_commercial:
                assert vessel.grt >= 5_000

    def test_ship_type_codes_match_segments(self):
        from repro.ais.vesseltypes import segment_for_type

        for vessel in build_fleet(100, seed=7):
            assert segment_for_type(vessel.ship_type) is vessel.segment

    def test_speeds_plausible(self):
        for vessel in build_fleet(100, seed=8):
            assert 6.0 <= vessel.design_speed_kn <= 25.0


class TestVoyages:
    @pytest.fixture(scope="class")
    def router(self):
        return SeaRouter()

    def test_home_routes_are_sailable(self, router):
        rng = random.Random(1)
        routes = pick_home_routes(MarketSegment.CONTAINER, rng, router)
        assert 1 <= len(routes) <= 3
        for origin, destination in routes:
            assert origin != destination
            router.route_nodes(origin, destination)

    def test_passenger_routes_stay_short(self, router):
        from repro.geo import haversine_m
        from repro.world.ports import port_by_id

        rng = random.Random(2)
        for _ in range(5):
            routes = pick_home_routes(MarketSegment.PASSENGER, rng, router)
            for origin, destination in routes:
                a, b = port_by_id(origin), port_by_id(destination)
                assert haversine_m(a.lat, a.lon, b.lat, b.lon) <= 1_500_000

    def test_schedule_covers_window(self, router):
        rng = random.Random(3)
        plans = schedule_voyages(
            mmsi=235000001,
            segment=MarketSegment.CARGO,
            design_speed_kn=13.0,
            router=router,
            start_ts=0.0,
            end_ts=45 * 86_400.0,
            rng=rng,
        )
        assert plans
        departures = [plan.depart_ts for plan in plans]
        assert departures == sorted(departures)
        assert departures[0] < 3 * 86_400.0

    def test_consecutive_voyages_chain_positions(self, router):
        rng = random.Random(4)
        plans = schedule_voyages(
            mmsi=235000002,
            segment=MarketSegment.TANKER,
            design_speed_kn=13.5,
            router=router,
            start_ts=0.0,
            end_ts=90 * 86_400.0,
            rng=rng,
        )
        for previous, current in zip(plans, plans[1:]):
            assert current.origin == previous.destination

    def test_route_nodes_start_and_end_at_ports(self, router):
        rng = random.Random(5)
        plans = schedule_voyages(
            mmsi=235000003,
            segment=MarketSegment.CONTAINER,
            design_speed_kn=18.0,
            router=router,
            start_ts=0.0,
            end_ts=60 * 86_400.0,
            rng=rng,
        )
        for plan in plans:
            assert plan.route_nodes[0] == plan.origin
            assert plan.route_nodes[-1] == plan.destination
