"""Tests for the sea router."""

import random

import pytest

from repro.world.routing import SeaRouter
from repro.world.ports import PORTS


@pytest.fixture(scope="module")
def router():
    return SeaRouter()


def test_all_port_pairs_sampled_are_routable(router):
    rng = random.Random(42)
    ids = [port.port_id for port in PORTS]
    for _ in range(200):
        a, b = rng.sample(ids, 2)
        nodes = router.route_nodes(a, b)
        assert nodes[0] == a
        assert nodes[-1] == b


def test_same_port_route_is_trivial(router):
    assert router.route_nodes("SGSIN", "SGSIN") == ["SGSIN"]


def test_unknown_port_raises_keyerror(router):
    with pytest.raises(KeyError):
        router.route_nodes("NOPE1", "NLRTM")


def test_asia_europe_uses_suez(router):
    assert router.uses_canal("CNSHA", "NLRTM", "suez")
    assert not router.uses_canal("CNSHA", "NLRTM", "panama")


def test_transpacific_to_us_east_uses_panama(router):
    assert router.uses_canal("USLAX", "USNYC", "panama")


def test_blocked_suez_reroutes_via_cape():
    blocked = SeaRouter(blocked_canals={"suez"})
    nodes = blocked.route_nodes("CNSHA", "NLRTM")
    assert "GOOD" in nodes
    assert "SUZN" not in nodes
    normal = SeaRouter()
    # The paper's motivating fact: the Cape diversion adds thousands of km.
    extra = blocked.route_length_m("CNSHA", "NLRTM") - normal.route_length_m(
        "CNSHA", "NLRTM"
    )
    assert extra > 4_000_000


def test_blocked_panama_still_routable():
    blocked = SeaRouter(blocked_canals={"panama"})
    nodes = blocked.route_nodes("USLAX", "USNYC")
    assert "PANP" not in nodes or "PANC" not in nodes


def test_route_length_at_least_great_circle(router):
    from repro.geo import haversine_m
    from repro.world.ports import port_by_id

    for origin, destination in [("SGSIN", "NLRTM"), ("USLAX", "JPTYO")]:
        a = port_by_id(origin)
        b = port_by_id(destination)
        direct = haversine_m(a.lat, a.lon, b.lat, b.lon)
        assert router.route_length_m(origin, destination) >= direct * 0.99


def test_short_coastal_hop_is_direct(router):
    # Los Angeles ↔ Long Beach share a basin: no ocean hub detour.
    nodes = router.route_nodes("USLAX", "USLGB")
    assert nodes == ["USLAX", "USLGB"]


def test_panama_isthmus_has_no_land_hop(router):
    # Balboa and Colon are ~80 km apart but on different oceans: the route
    # must use the canal nodes, not a direct hop through the land bridge.
    nodes = router.route_nodes("PAPTY", "PAONX")
    assert len(nodes) > 2


def test_routes_are_cached_and_copied(router):
    first = router.route_nodes("SGSIN", "NLRTM")
    first.append("TAMPERED")
    second = router.route_nodes("SGSIN", "NLRTM")
    assert "TAMPERED" not in second


def test_route_positions_match_nodes(router):
    nodes = router.route_nodes("SGSIN", "MYPKG")
    positions = router.route_positions("SGSIN", "MYPKG")
    assert len(nodes) == len(positions)
    for position in positions:
        assert -90 <= position[0] <= 90
