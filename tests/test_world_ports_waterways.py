"""Integrity tests for the port database and the sea-lane graph."""

import pytest

from repro.geo import haversine_m
from repro.world.ports import PORTS, Port, port_by_id, ports_dataframe_rows
from repro.world.waterways import CANAL_EDGES, SEA_EDGES, WAYPOINTS


class TestPorts:
    def test_database_size(self):
        assert len(PORTS) >= 100

    def test_ids_unique(self):
        ids = [port.port_id for port in PORTS]
        assert len(ids) == len(set(ids))

    def test_coordinates_valid(self):
        for port in PORTS:
            assert -90.0 <= port.lat <= 90.0
            assert -180.0 <= port.lon <= 180.0

    def test_every_gateway_exists(self):
        for port in PORTS:
            assert port.gateways, port.port_id
            for gateway in port.gateways:
                assert gateway in WAYPOINTS, (port.port_id, gateway)

    def test_gateways_are_within_plausible_reach(self):
        # A gateway more than ~5000 km from its port would be a data bug.
        for port in PORTS:
            nearest = min(
                haversine_m(
                    port.lat, port.lon,
                    WAYPOINTS[g].lat, WAYPOINTS[g].lon,
                )
                for g in port.gateways
            )
            assert nearest < 5_000_000, port.port_id

    def test_lookup_by_id(self):
        assert port_by_id("NLRTM").name == "Rotterdam"
        with pytest.raises(KeyError):
            port_by_id("XXXXX")

    def test_famous_ports_present(self):
        for port_id in ["SGSIN", "CNSHA", "NLRTM", "USLAX", "AEJEA", "BRSSZ"]:
            port_by_id(port_id)

    def test_weight_and_radius_positive(self):
        for port in PORTS:
            assert port.weight > 0
            assert port.radius_m > 0

    def test_port_validation(self):
        with pytest.raises(ValueError):
            Port("BAD01", "Bad", "XX", 95.0, 0.0, 1.0, ("GIB",))
        with pytest.raises(ValueError):
            Port("BAD02", "Bad", "XX", 0.0, 0.0, 0.0, ("GIB",))

    def test_dataframe_rows(self):
        rows = ports_dataframe_rows()
        assert len(rows) == len(PORTS)
        assert set(rows[0]) == {
            "port_id", "name", "country", "lat", "lon", "weight", "radius_m"
        }

    def test_baltic_region_has_enough_ports_for_figure4(self):
        baltic = [
            p for p in PORTS
            if 53.0 <= p.lat <= 61.0 and 9.0 <= p.lon <= 31.0
        ]
        assert len(baltic) >= 10


class TestWaterways:
    def test_edges_reference_known_waypoints(self):
        for a, b in SEA_EDGES:
            assert a in WAYPOINTS, a
            assert b in WAYPOINTS, b

    def test_canal_edges_reference_known_waypoints(self):
        for a, b, tag in CANAL_EDGES:
            assert a in WAYPOINTS
            assert b in WAYPOINTS
            assert tag in ("suez", "panama")

    def test_no_duplicate_edges(self):
        seen = set()
        for a, b in SEA_EDGES:
            key = frozenset((a, b))
            assert key not in seen, (a, b)
            seen.add(key)

    def test_no_self_loops(self):
        for a, b in SEA_EDGES:
            assert a != b

    def test_canal_endpoints_are_close(self):
        for a, b, _tag in CANAL_EDGES:
            wa, wb = WAYPOINTS[a], WAYPOINTS[b]
            assert haversine_m(wa.lat, wa.lon, wb.lat, wb.lon) < 250_000

    def test_graph_is_connected(self):
        adjacency: dict[str, set[str]] = {}
        for a, b in list(SEA_EDGES) + [(a, b) for a, b, _ in CANAL_EDGES]:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        start = next(iter(WAYPOINTS))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency.get(node, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        assert seen == set(WAYPOINTS)
