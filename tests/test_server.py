"""Tests for the concurrent query server (repro.server).

Three layers of guarantees:

- **protocol** — frames round-trip, summaries cross the wire
  bit-identically, limits are enforced from the length prefix;
- **equivalence** — every query type answered over TCP equals the
  in-process backend's answer on the same build (the serving layer adds
  transport, not interpretation);
- **fault isolation** — a malformed, oversized, stalled or slow client
  hurts only its own connection: concurrent clients keep their latency,
  the server keeps serving, and shutdown drains in-flight requests
  before closing.
"""

from __future__ import annotations

import base64
import io
import socket
import struct
import threading
import time

import pytest

from repro.apps import DestinationPredictor, EtaEstimator
from repro.inventory import (
    GroupKey,
    Inventory,
    SSTableInventory,
    write_inventory,
)
from repro.hexgrid import cell_to_latlng, latlng_to_cell
from repro.inventory.codec import CodecError, encode
from repro.inventory.keys import GroupingSet
from repro.inventory.live import LiveInventory
from repro.inventory.sstable import SSTableReader, SSTableWriter, _deflate, _key_from_bytes
from repro.inventory.summary import CellSummary
from repro.server import (
    InventoryClient,
    InventoryServer,
    InventoryService,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server import protocol
from repro.server.server import INLINE_MULTI_GET_KEYS


# -- helpers ---------------------------------------------------------------------


def _tiny_inventory(cells: int = 2) -> Inventory:
    """A small in-memory inventory for fault tests (no pipeline run)."""
    inventory = Inventory(resolution=6)
    for i in range(cells):
        lat, lon = 5.0 + i, 100.0 + i
        summary = CellSummary()
        for j in range(3):
            summary.update(
                mmsi=100_000_000 + j, sog=8.0 + i + j, cog=45.0, heading=45,
                trip_id=f"t{i}{j}", eto_s=60.0, ata_s=120.0,
                origin="CNSHA", destination="NLRTM", next_cell=None,
            )
        inventory.put(
            GroupKey(cell=latlng_to_cell(lat, lon, 6)), summary
        )
    return inventory


def _state_without_ships() -> dict:
    state = CellSummary().to_dict()
    del state["ships"]
    return state


class _SlowService:
    """Wraps a service so chosen request types block for a while."""

    def __init__(self, inner, delay_s: float, slow_types=("ping",)) -> None:
        self.inner = inner
        self.delay_s = delay_s
        self.slow_types = slow_types

    def handle(self, request: dict) -> dict:
        if request.get("type") in self.slow_types:
            time.sleep(self.delay_s)
        return self.inner.handle(request)


def _raw_exchange(address, payload: bytes, read_response: bool = True):
    """Send raw bytes on a fresh socket; optionally read one frame back."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(payload)
        if not read_response:
            return None
        return protocol.read_frame_blocking(sock.makefile("rb").read)


# -- protocol round-trips --------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip(self):
        message = {"id": 7, "type": "ping", "nested": {"a": [1, 2.5, None]}}
        frame = protocol.encode_frame(message)
        buffer = io.BytesIO(frame)
        assert protocol.read_frame_blocking(buffer.read) == message
        assert protocol.read_frame_blocking(buffer.read) is None  # clean EOF

    def test_multiple_frames_in_one_stream(self):
        frames = [{"id": i, "type": "ping"} for i in range(3)]
        stream = io.BytesIO(b"".join(protocol.encode_frame(f) for f in frames))
        assert [protocol.read_frame_blocking(stream.read) for _ in range(3)] == frames

    def test_oversized_frame_rejected_at_encode_and_decode(self):
        with pytest.raises(protocol.FrameTooLargeError):
            protocol.encode_frame({"blob": "x" * 2048}, max_bytes=1024)
        huge_header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(protocol.FrameTooLargeError):
            protocol.read_frame_blocking(io.BytesIO(huge_header).read)

    def test_truncated_frame_raises(self):
        frame = protocol.encode_frame({"id": 1, "type": "ping"})
        stream = io.BytesIO(frame[:-3])  # payload cut short
        with pytest.raises(protocol.TruncatedFrameError):
            protocol.read_frame_blocking(stream.read)

    def test_truncated_header_raises(self):
        stream = io.BytesIO(b"\x00\x00")
        with pytest.raises(protocol.TruncatedFrameError):
            protocol.read_frame_blocking(stream.read)

    def test_non_json_payload_rejected(self):
        payload = b"\xff\xfenot json"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.read_frame_blocking(io.BytesIO(frame).read)
        assert excinfo.value.code == protocol.ERR_BAD_FRAME

    def test_non_object_payload_rejected(self):
        frame = struct.pack(">I", 2) + b"[]"
        with pytest.raises(protocol.ProtocolError):
            protocol.read_frame_blocking(io.BytesIO(frame).read)

    def test_summary_wire_round_trip(self):
        inventory = _tiny_inventory()
        _, summary = next(iter(inventory.items()))
        wire = protocol.summary_to_wire(summary)
        assert isinstance(wire, str)
        restored = protocol.summary_from_wire(wire)
        assert restored.to_dict() == summary.to_dict()

    def test_undecodable_summary_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.summary_from_wire("AAAA")

    @pytest.mark.parametrize(
        "value",
        [{"x": 1}, [1, 2], _state_without_ships()],
        ids=["foreign-dict", "list", "missing-field"],
    )
    def test_non_summary_payload_is_a_bad_frame(self, value):
        """Bytes that decode but are not a summary are the peer's bad
        frame, never a bare KeyError/TypeError out of the client."""
        raw = encode(value)
        with pytest.raises(CodecError):
            CellSummary.decode(raw)
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.summary_from_wire(base64.b64encode(raw).decode("ascii"))
        assert excinfo.value.code == protocol.ERR_BAD_FRAME

    @pytest.mark.parametrize("value", [5, ["x"]], ids=["int", "list"])
    def test_non_string_summary_field_is_a_bad_frame(self, value):
        """A summary field that is not a base64 string at all is the
        peer's bad frame too, never a bare AttributeError."""
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.summary_from_wire(value)
        assert excinfo.value.code == protocol.ERR_BAD_FRAME


# -- equivalence against the in-process backend ----------------------------------


@pytest.fixture(scope="module")
def served_backend(small_inventory, tmp_path_factory):
    """(address, disk backend) for a server over the small world's table."""
    path = tmp_path_factory.mktemp("served") / "inventory.sst"
    write_inventory(small_inventory, path)
    with SSTableInventory(path, cache_blocks=128) as backend:
        service = InventoryService(backend)
        with ServerThread(service) as handle:
            yield handle.address, backend


@pytest.fixture()
def client(served_backend):
    address, _ = served_backend
    with InventoryClient(*address) as connection:
        yield connection


@pytest.fixture(scope="module")
def cell_probes(small_inventory):
    """(lat, lon) probes over known cells plus one guaranteed miss."""
    probes = []
    for key, _ in small_inventory.items():
        if key.grouping_set is GroupingSet.CELL:
            probes.append(cell_to_latlng(key.cell))
            if len(probes) >= 8:
                break
    probes.append((-55.0, -130.0))  # southern-ocean miss
    return probes


class TestEquivalence:
    def test_ping(self, client):
        assert client.ping() is True

    def test_summary_at_matches_backend(self, served_backend, client, cell_probes):
        _, backend = served_backend
        for lat, lon in cell_probes:
            local = backend.summary_at(lat, lon)
            remote = client.summary_at(lat, lon)
            if local is None:
                assert remote is None
            else:
                assert remote.to_dict() == local.to_dict()

    def test_top_destinations_matches_backend(
        self, served_backend, client, cell_probes
    ):
        _, backend = served_backend
        for lat, lon in cell_probes:
            assert client.top_destinations_at(lat, lon) == (
                backend.top_destinations_at(lat, lon)
            )

    def test_route_cells_matches_backend(self, served_backend, client,
                                         small_inventory):
        _, backend = served_backend
        route_key = next(
            (key for key, _ in small_inventory.items()
             if key.grouping_set is GroupingSet.CELL_OD_TYPE),
            None,
        )
        if route_key is None:
            pytest.skip("small world produced no route groups")
        local = backend.route_cells(
            route_key.origin, route_key.destination, route_key.vessel_type
        )
        remote = client.route_cells(
            route_key.origin, route_key.destination, route_key.vessel_type
        )
        assert sorted(remote) == sorted(local)
        for cell, summary in local.items():
            assert remote[cell].to_dict() == summary.to_dict()

    def test_eta_matches_in_process_estimator(self, served_backend, client,
                                              small_inventory):
        _, backend = served_backend
        estimator = EtaEstimator(backend)
        sample = next(
            ((key, summary) for key, summary in small_inventory.items()
             if key.grouping_set is GroupingSet.CELL_OD_TYPE
             and summary.ata.count >= 3),
            None,
        )
        if sample is None:
            pytest.skip("small world produced no dense route cells")
        key, _ = sample
        lat, lon = cell_to_latlng(key.cell)
        local = estimator.estimate(
            lat, lon, vessel_type=key.vessel_type,
            origin=key.origin, destination=key.destination,
        )
        remote = client.eta(
            lat, lon, vessel_type=key.vessel_type,
            origin=key.origin, destination=key.destination,
        )
        assert local is not None and remote is not None
        assert remote == local  # both frozen dataclasses, field-exact

    def test_destination_matches_in_process_predictor(
        self, served_backend, client, cell_probes
    ):
        _, backend = served_backend
        track = cell_probes[:4]
        local = DestinationPredictor(backend).predict_track(list(track))
        remote = client.destination(list(track))
        assert remote["best"] == local.best()
        assert remote["observations"] == local.observations
        assert remote["matched_observations"] == local.matched_observations
        for (dest_r, share_r), (dest_l, share_l) in zip(
            remote["ranking"], local.ranking()
        ):
            assert dest_r == dest_l
            assert share_r == pytest.approx(share_l)

    def test_stats_exposes_inventory_and_server_views(self, client):
        stats = client.stats()
        assert stats["inventory"]["entries"] > 0
        assert "cache" in stats["inventory"]
        counters = stats["server"]["counters"]
        assert counters["server.requests"] >= 1
        assert counters["server.connections.opened"] >= 1

    def test_bad_request_reports_code(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.request("summary_at", lat="north", lon=3.0)
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST
        # Position-query invariants surface as bad_request too.
        with pytest.raises(ServerError) as excinfo:
            client.request("summary_at", lat=1.0, lon=2.0, origin="CNSHA")
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST

    def test_unknown_request_type_keeps_connection_alive(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.request("teleport")
        assert excinfo.value.code == protocol.ERR_UNKNOWN_TYPE
        assert client.ping() is True  # same connection still serves


class TestNonFinitePositions:
    """JSON decoding accepts ``NaN`` and ``±Infinity``; the grid would map
    them to an arbitrary cell, so a garbage position is a bad request,
    never an answer of "no data" for some other cell."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "request_type", ["summary_at", "eta", "top_destinations_at"]
    )
    def test_point_queries_reject(self, request_type, value):
        service = InventoryService(_tiny_inventory())
        with pytest.raises(protocol.BadRequestError, match="lat must be a finite number"):
            service.handle({"type": request_type, "lat": value, "lon": 100.0})
        with pytest.raises(protocol.BadRequestError, match="lon must be a finite number"):
            service.handle({"type": request_type, "lat": 5.0, "lon": value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_multi_get_names_the_key(self, value):
        service = InventoryService(_tiny_inventory())
        keys = [{"lat": 5.0, "lon": 100.0}, {"lat": value, "lon": 100.0}]
        with pytest.raises(
            protocol.BadRequestError, match=r"keys\[1\]: lat must be a finite number"
        ):
            service.handle({"type": "multi_get", "keys": keys})

    def test_integer_beyond_float_range_rejects(self):
        service = InventoryService(_tiny_inventory())
        with pytest.raises(protocol.BadRequestError, match="finite number"):
            service.handle({"type": "summary_at", "lat": 10**400, "lon": 0.0})

    @pytest.mark.parametrize("literal", [b"NaN", b"Infinity", b"-Infinity"])
    def test_json_literal_over_the_wire(self, served_backend, literal):
        address, _ = served_backend
        payload = b'{"id":1,"type":"summary_at","lat":%s,"lon":3.0}' % literal
        response = _raw_exchange(address, struct.pack(">I", len(payload)) + payload)
        assert response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_BAD_REQUEST
        assert "finite number" in response["error"]["message"]


# -- fault isolation -------------------------------------------------------------


class TestFaults:
    @pytest.fixture()
    def fault_server(self):
        service = InventoryService(_tiny_inventory())
        config = ServerConfig(
            max_concurrency=4, request_timeout_s=2.0, idle_timeout_s=10.0,
            max_frame_bytes=64 * 1024, drain_timeout_s=5.0,
        )
        with ServerThread(service, config) as handle:
            yield handle

    def test_oversized_frame_gets_error_then_close(self, fault_server):
        huge = struct.pack(">I", 10 * 1024 * 1024)
        response = _raw_exchange(fault_server.address, huge)
        assert response is not None and response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_FRAME_TOO_LARGE
        # The connection was dropped, but the server still serves.
        with InventoryClient(*fault_server.address) as client:
            assert client.ping() is True

    def test_truncated_frame_drops_only_that_connection(self, fault_server):
        frame = protocol.encode_frame({"id": 1, "type": "ping"})
        _raw_exchange(fault_server.address, frame[:-2], read_response=False)
        time.sleep(0.1)
        with InventoryClient(*fault_server.address) as client:
            assert client.ping() is True
        counters = fault_server.server.metrics.counters
        assert counters.value(f"server.errors.{protocol.ERR_TRUNCATED}") >= 1

    def test_garbage_payload_rejected_cleanly(self, fault_server):
        payload = b"\xff\xfe\xfd garbage"
        frame = struct.pack(">I", len(payload)) + payload
        response = _raw_exchange(fault_server.address, frame)
        assert response is not None and response["ok"] is False
        assert response["error"]["code"] == protocol.ERR_BAD_FRAME

    def test_request_deadline_exceeded(self):
        service = _SlowService(InventoryService(_tiny_inventory()), delay_s=1.5)
        config = ServerConfig(request_timeout_s=0.2, drain_timeout_s=0.5)
        with ServerThread(service, config) as handle:
            with InventoryClient(*handle.address) as client:
                started = time.perf_counter()
                with pytest.raises(ServerError) as excinfo:
                    client.ping()
                elapsed = time.perf_counter() - started
        assert excinfo.value.code == protocol.ERR_DEADLINE
        assert elapsed < 1.0  # the answer was the deadline, not the sleep

    def test_stalled_writer_does_not_delay_other_clients(self, fault_server):
        """A connection that declares a frame and never finishes sending
        it must not add latency to well-behaved clients."""
        stalled = socket.create_connection(fault_server.address, timeout=5.0)
        try:
            stalled.sendall(struct.pack(">I", 512) + b"partial")
            time.sleep(0.05)  # let the server start (and block) reading it
            with InventoryClient(*fault_server.address) as client:
                latencies = []
                for _ in range(20):
                    started = time.perf_counter()
                    assert client.ping() is True
                    latencies.append(time.perf_counter() - started)
            assert max(latencies) < 0.5
        finally:
            stalled.close()

    def test_slow_request_does_not_block_fast_client(self):
        """One client stuck in a slow handler; another gets fast answers
        concurrently (bounded concurrency > 1 really is concurrent)."""
        service = _SlowService(
            InventoryService(_tiny_inventory()), delay_s=1.0,
            slow_types=("stats",),
        )
        config = ServerConfig(max_concurrency=4, request_timeout_s=5.0)
        with ServerThread(service, config) as handle:
            slow_done = threading.Event()

            def slow_caller():
                with InventoryClient(*handle.address) as slow_client:
                    slow_client.stats()
                slow_done.set()

            slow_thread = threading.Thread(target=slow_caller)
            slow_thread.start()
            time.sleep(0.1)  # the slow request is now in a worker thread
            with InventoryClient(*handle.address) as fast_client:
                started = time.perf_counter()
                for _ in range(5):
                    assert fast_client.ping() is True
                fast_elapsed = time.perf_counter() - started
            slow_thread.join(timeout=10)
        assert slow_done.is_set()
        assert fast_elapsed < 0.5

    def test_concurrent_clients_get_isolated_responses(self, served_backend):
        """Many threads, each with its own connection and its own probe:
        every response must match that client's request (no cross-talk)."""
        address, backend = served_backend
        probes = []
        for key, _ in backend.items():
            if key.grouping_set is GroupingSet.CELL:
                probes.append(cell_to_latlng(key.cell))
                if len(probes) >= 6:
                    break
        expected = [backend.summary_at(lat, lon) for lat, lon in probes]
        failures: list[str] = []

        def worker(index):
            lat, lon = probes[index % len(probes)]
            want = expected[index % len(probes)]
            with InventoryClient(address[0], address[1]) as worker_client:
                for _ in range(10):
                    got = worker_client.summary_at(lat, lon)
                    if (got is None) != (want is None) or (
                        got is not None and got.to_dict() != want.to_dict()
                    ):
                        failures.append(f"client {index} got a foreign answer")
                        return

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

    def test_graceful_shutdown_drains_in_flight_requests(self):
        """A request already executing when shutdown starts still gets its
        response; the connection closes afterwards."""
        service = _SlowService(InventoryService(_tiny_inventory()), delay_s=0.4)
        config = ServerConfig(request_timeout_s=5.0, drain_timeout_s=5.0)
        handle = ServerThread(service, config).start()
        results: dict = {}

        def in_flight_caller():
            try:
                with InventoryClient(*handle.address) as draining_client:
                    results["pong"] = draining_client.ping()
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                results["error"] = exc

        caller = threading.Thread(target=in_flight_caller)
        caller.start()
        time.sleep(0.1)  # request is mid-handler now
        started = time.perf_counter()
        handle.stop()  # graceful drain
        drained_in = time.perf_counter() - started
        caller.join(timeout=10)
        assert results.get("pong") is True, results.get("error")
        assert drained_in < 4.0
        # After shutdown nothing is listening anymore.
        with pytest.raises(OSError):
            socket.create_connection(handle.address, timeout=0.5)

    def test_shutdown_with_idle_connections_is_prompt(self):
        service = InventoryService(_tiny_inventory())
        config = ServerConfig(idle_timeout_s=60.0, drain_timeout_s=5.0)
        handle = ServerThread(service, config).start()
        idle = socket.create_connection(handle.address, timeout=5.0)
        try:
            started = time.perf_counter()
            handle.stop()
            assert time.perf_counter() - started < 3.0
        finally:
            idle.close()


# -- config plumbing -------------------------------------------------------------


def test_server_config_validation():
    with pytest.raises(ValueError):
        ServerConfig(max_concurrency=0)
    with pytest.raises(ValueError):
        ServerConfig(request_timeout_s=0.0)


def test_cli_serve_config_plumbing():
    from repro.cli import _build_parser, _serve_config

    parser = _build_parser()
    args = parser.parse_args([
        "serve", "--inventory", "inv.sst", "--host", "0.0.0.0",
        "--port", "9000", "--max-concurrency", "8",
        "--request-timeout", "2.5", "--idle-timeout", "7.5",
    ])
    config = _serve_config(args)
    assert (config.host, config.port) == ("0.0.0.0", 9000)
    assert config.max_concurrency == 8
    assert config.request_timeout_s == 2.5
    assert config.idle_timeout_s == 7.5
    assert args.handler is not None


def test_server_address_requires_start():
    with pytest.raises(RuntimeError):
        InventoryServer(InventoryService(_tiny_inventory())).address


# -- storage corruption under a live server --------------------------------------


class TestCorruptionResponses:
    """A checksum failure under a query becomes a typed ``data_corruption``
    error response on a live connection — never a wrong answer, never a
    dead socket — and is counted for operators."""

    @pytest.fixture(params=["v3-block-scribble", "v3-undecodable-value"])
    def corrupt_served(self, request, tmp_path):
        path = tmp_path / "inventory.sst"
        if request.param == "v3-block-scribble":
            inventory = _tiny_inventory()
            write_inventory(inventory, path)
            payload = bytearray(path.read_bytes())
            # Scribble over the first data block (footer and index
            # intact, so the backend opens cleanly and fails only when a
            # query actually reads the damaged block).
            for offset in range(40, 90):
                payload[offset] ^= 0xFF
            path.write_bytes(bytes(payload))
            probe = cell_to_latlng(
                next(key for key, _ in inventory.items()).cell
            )
            query = "summary_at"
        else:
            # A value that passes its block checksum but is not a summary
            # (a writer bug, not disk damage): summary_at serves stored
            # bytes as they are, so probe with a request the server
            # decodes.  It must still read as storage damage, not as the
            # client's bad request.
            key = GroupKey(cell=latlng_to_cell(10.0, 10.0, 6))
            with SSTableWriter(path) as writer:
                writer.add_stored(key, _deflate(b"Z"))
            probe = cell_to_latlng(key.cell)
            query = "top_destinations_at"
        with SSTableInventory(path, resolution=6, cache_blocks=8) as backend:
            service = InventoryService(backend)
            with ServerThread(service) as handle:
                yield handle, probe, query

    def test_corruption_is_typed_and_connection_survives(self, corrupt_served):
        handle, (lat, lon), query = corrupt_served
        with InventoryClient(*handle.address) as client:
            with pytest.raises(ServerError) as exc_info:
                getattr(client, query)(lat, lon)
            assert exc_info.value.code == protocol.ERR_CORRUPTION
            # Same connection, next request: still alive, still typed.
            assert client.ping() is True
            with pytest.raises(ServerError) as exc_info:
                getattr(client, query)(lat, lon)
            assert exc_info.value.code == protocol.ERR_CORRUPTION

    def test_corruption_is_counted(self, corrupt_served):
        from repro.server.metrics import CORRUPTION_TOTAL

        handle, (lat, lon), query = corrupt_served
        with InventoryClient(*handle.address) as client:
            with pytest.raises(ServerError):
                getattr(client, query)(lat, lon)
            counters = client.stats()["server"]["counters"]
        assert counters[CORRUPTION_TOTAL] == 1
        assert counters[f"server.errors.{protocol.ERR_CORRUPTION}"] == 1
        assert handle.server.metrics.corruption_errors == 1


# -- served bytes are stored bytes -----------------------------------------------


def _stored_values(path, step: int = 3) -> dict:
    """{key: stored value bytes} of every ``step``-th entry of a table,
    read raw (no codec)."""
    with SSTableReader(path) as reader:
        entries = list(reader.scan_raw())[::step]
    return {_key_from_bytes(key_raw): value_raw for key_raw, value_raw, _ in entries}


def _served(service: InventoryService, keys: list) -> dict:
    """{key: codec bytes} a service answers for each key's position and
    breakdown, asserting ``summary_at`` and ``multi_get`` agree."""
    params = []
    for key in keys:
        lat, lon = cell_to_latlng(key.cell)
        dims = {"vessel_type": key.vessel_type, "origin": key.origin,
                "destination": key.destination}
        params.append({"lat": lat, "lon": lon,
                       **{k: v for k, v in dims.items() if v is not None}})
    singles = [service.handle({"type": "summary_at", **p})["summary"] for p in params]
    batched: list = []
    for at in range(0, len(params), 64):
        batched += service.handle(
            {"type": "multi_get", "keys": params[at : at + 64]}
        )["summaries"]
    assert batched == singles
    return {
        key: None if wire is None else base64.b64decode(wire)
        for key, wire in zip(keys, singles)
    }


class TestServedBytes:
    """A point answer's bytes are the stored value bytes, whatever the
    backend: what the byte-identity contracts (served == table, routed ==
    single-node) rest on once the served path stops re-encoding."""

    def test_table_serves_its_stored_bytes(self, small_inventory, tmp_path):
        path = tmp_path / "inventory.sst"
        write_inventory(small_inventory, path)
        stored = _stored_values(path)
        miss = GroupKey(cell=latlng_to_cell(-55.0, -130.0, small_inventory.resolution))
        with SSTableInventory(path, cache_blocks=8) as backend:
            served = _served(InventoryService(backend), [*stored, miss])
        assert served == {**stored, miss: None}

    def test_in_memory_inventory_serves_the_table_bytes(self, small_inventory,
                                                        tmp_path):
        path = tmp_path / "inventory.sst"
        write_inventory(small_inventory, path)
        stored = _stored_values(path)
        assert _served(InventoryService(small_inventory), list(stored)) == stored

    def test_live_inventory_serves_its_flushed_table_bytes(self, tmp_path):
        records = [
            {"mmsi": 563_000_000 + i % 3, "ts": 1_700_000_000.0 + 30.0 * i,
             "lat": 1.25 + (i % 2), "lon": 103.8, "sog": 9.0 + i % 5,
             "cog": float(i * 37 % 360), "vessel_type": "cargo",
             "origin": "SGSIN", "destination": "NLRTM", "trip_id": f"t{i % 3}"}
            for i in range(24)
        ]
        with LiveInventory(tmp_path / "live", resolution=6,
                           background_maintenance=False) as live:
            live.ingest_records(records)
            stored = _stored_values(live.flush(), step=1)
            assert len(stored) == 6  # 2 cells x 3 grouping sets
            assert _served(InventoryService(live), list(stored)) == stored

    def test_table_serves_stored_bytes_without_decoding(
        self, small_inventory, tmp_path, monkeypatch
    ):
        path = tmp_path / "inventory.sst"
        write_inventory(small_inventory, path)
        stored = _stored_values(path)
        with SSTableInventory(path, cache_blocks=8) as backend:
            service = InventoryService(backend)

            def no_decode(payload):
                raise AssertionError("the served path decoded a summary")

            for target in ("repro.inventory.codec.decode",
                           "repro.inventory.sstable.decode",
                           "repro.inventory.backend.decode"):
                monkeypatch.setattr(target, no_decode, raising=False)
            assert _served(service, list(stored)) == stored


# -- multi-request frames --------------------------------------------------------


class TestMultiRequests:
    """multi_get / multi_query: one frame, N sub-requests, ordered answers."""

    def test_multi_get_matches_n_singles(self, served_backend, client,
                                         cell_probes):
        _, backend = served_backend
        keys = [{"lat": lat, "lon": lon} for lat, lon in cell_probes]
        batched = client.multi_get(keys)
        assert len(batched) == len(keys)
        for (lat, lon), remote in zip(cell_probes, batched):
            local = backend.summary_at(lat, lon)
            if local is None:
                assert remote is None
            else:
                assert remote.to_dict() == local.to_dict()

    def test_multi_get_respects_per_key_filters(self, served_backend, client,
                                                small_inventory):
        _, backend = served_backend
        key = next(
            (k for k, _ in small_inventory.items()
             if k.grouping_set is GroupingSet.CELL_TYPE),
            None,
        )
        if key is None:
            pytest.skip("small world produced no per-type groups")
        lat, lon = cell_to_latlng(key.cell)
        plain, typed = client.multi_get([
            {"lat": lat, "lon": lon},
            {"lat": lat, "lon": lon, "vessel_type": key.vessel_type},
        ])
        local = backend.summary_at(lat, lon, vessel_type=key.vessel_type)
        assert typed is not None and local is not None
        assert typed.to_dict() == local.to_dict()
        assert plain is not None  # the unfiltered cell group exists too

    def test_multi_query_mixed_types_in_order(self, served_backend, client,
                                              cell_probes):
        _, backend = served_backend
        lat, lon = cell_probes[0]
        out = client.multi_query([
            {"type": "ping"},
            {"type": "summary_at", "lat": lat, "lon": lon},
            {"type": "top_destinations_at", "lat": lat, "lon": lon},
            {"type": "stats"},
        ])
        assert [entry["ok"] for entry in out] == [True] * 4
        assert out[0]["result"] == {"pong": True}
        raw = out[1]["result"]["summary"]
        local = backend.summary_at(lat, lon)
        assert protocol.summary_from_wire(raw).to_dict() == local.to_dict()
        assert out[3]["result"]["inventory"]["resolution"] == backend.resolution

    def test_multi_query_isolates_per_item_errors(self, client, cell_probes):
        lat, lon = cell_probes[0]
        out = client.multi_query([
            {"type": "summary_at", "lat": lat, "lon": lon},
            {"type": "summary_at", "lat": "bogus", "lon": lon},
            {"type": "no_such_type"},
            {"type": "ping"},
        ])
        assert [entry["ok"] for entry in out] == [True, False, False, True]
        assert out[1]["error"]["code"] == protocol.ERR_BAD_REQUEST
        assert "requests[1]" in out[1]["error"]["message"]
        assert out[2]["error"]["code"] == protocol.ERR_UNKNOWN_TYPE

    def test_item_cap_violation_is_typed_with_index(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.multi_query(
                [{"type": "ping"}] * (protocol.MAX_MULTI_ITEMS + 1)
            )
        err = exc_info.value
        assert err.code == protocol.ERR_FRAME_TOO_LARGE
        assert err.details == {"index": protocol.MAX_MULTI_ITEMS}
        assert str(protocol.MAX_MULTI_ITEMS) in str(err)
        # The violation was answered, not dropped: same connection works.
        assert client.ping() is True

    def test_byte_budget_violation_names_offending_index(self, small_inventory):
        # A service with a tiny frame budget: the second summary cannot
        # fit, and the error names sub-request 1 on a live connection.
        probe_key = next(
            key for key, _ in small_inventory.items()
            if key.grouping_set is GroupingSet.CELL
        )
        lat, lon = cell_to_latlng(probe_key.cell)
        wire = protocol.summary_to_wire(
            small_inventory.get(probe_key)
        )
        service = InventoryService(
            small_inventory, max_frame_bytes=1024 + len(wire) + 10
        )
        with ServerThread(service) as handle:
            with InventoryClient(*handle.address) as client:
                key = {"lat": lat, "lon": lon}
                [only] = client.multi_get([key])
                assert only is not None
                with pytest.raises(ServerError) as exc_info:
                    client.multi_get([key, key])
                err = exc_info.value
                assert err.code == protocol.ERR_FRAME_TOO_LARGE
                assert err.details == {"index": 1}
                assert client.ping() is True  # connection survived

    def test_nesting_rejected(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.multi_query(
                [{"type": "multi_get", "keys": [{"lat": 0.0, "lon": 0.0}]}]
            )
        assert exc_info.value.code == protocol.ERR_BAD_REQUEST

    def test_empty_and_malformed_lists_rejected(self, client):
        for params in ({"keys": []}, {"keys": "nope"}, {}):
            with pytest.raises(ServerError) as exc_info:
                client.request("multi_get", **params)
            assert exc_info.value.code == protocol.ERR_BAD_REQUEST
        with pytest.raises(ServerError) as exc_info:
            client.request("multi_get", keys=[42])
        assert exc_info.value.code == protocol.ERR_BAD_REQUEST
        assert "keys[0]" in str(exc_info.value)

    def test_bad_key_error_names_index(self, client):
        with pytest.raises(ServerError) as exc_info:
            client.multi_get(
                [{"lat": 0.0, "lon": 0.0}, {"lat": 0.0}]  # lon missing
            )
        err = exc_info.value
        assert err.code == protocol.ERR_BAD_REQUEST
        assert "keys[1]" in str(err)

    def test_multi_counters(self, small_inventory):
        from repro.server.metrics import MULTI_REJECTED, REQUESTS_BATCHED

        service = InventoryService(small_inventory)
        with ServerThread(service) as handle:
            with InventoryClient(*handle.address) as client:
                client.multi_get([{"lat": 0.0, "lon": 0.0}] * 3)
                client.multi_query([{"type": "ping"}] * 4)
                with pytest.raises(ServerError):
                    client.multi_query(
                        [{"type": "ping"}] * (protocol.MAX_MULTI_ITEMS + 1)
                    )
                counters = client.stats()["server"]["counters"]
        assert counters[REQUESTS_BATCHED] == 7
        assert counters[MULTI_REJECTED] == 1
        assert counters["server.requests.multi_get"] == 1
        assert counters["server.requests.multi_query"] == 1


class TestBindRetry:
    """EADDRINUSE resilience: parallel CI runners (and back-to-back test
    servers) transiently hold fixed ports; a bounded bind retry absorbs
    the window instead of failing the whole run."""

    def _occupy(self) -> socket.socket:
        blocker = socket.socket()
        blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        return blocker

    def test_retries_until_port_frees(self, small_inventory):
        blocker = self._occupy()
        port = blocker.getsockname()[1]
        # Free the port shortly after the first bind attempt fails.
        releaser = threading.Timer(0.3, blocker.close)
        releaser.start()
        try:
            config = ServerConfig(
                port=port, bind_retries=10, bind_retry_delay_s=0.1
            )
            with ServerThread(InventoryService(small_inventory), config) as handle:
                assert handle.address == ("127.0.0.1", port)
                with InventoryClient(*handle.address) as client:
                    assert client.ping()
        finally:
            releaser.cancel()
            blocker.close()

    def test_no_retries_raises_immediately(self, small_inventory):
        blocker = self._occupy()
        port = blocker.getsockname()[1]
        try:
            config = ServerConfig(port=port, bind_retries=0)
            handle = ServerThread(InventoryService(small_inventory), config)
            started = time.perf_counter()
            with pytest.raises(OSError):
                handle.start()
            assert time.perf_counter() - started < 2.0  # no retry loop
        finally:
            blocker.close()

    def test_ephemeral_port_never_retries(self, small_inventory):
        # Port 0 cannot collide; the retry knob must not add latency.
        config = ServerConfig(bind_retries=10, bind_retry_delay_s=5.0)
        started = time.perf_counter()
        with ServerThread(InventoryService(small_inventory), config) as handle:
            assert handle.address is not None
        assert time.perf_counter() - started < 5.0

    def test_bind_retry_validation(self):
        with pytest.raises(ValueError, match="bind retry"):
            ServerConfig(bind_retries=-1)
        with pytest.raises(ValueError, match="bind retry"):
            ServerConfig(bind_retry_delay_s=-0.1)


# -- inline dispatch of point reads ------------------------------------------------


_LOOP_THREAD = "repro-server-loop"  # ServerThread's event-loop thread


def _recording_threads(backend) -> list[str]:
    """Wrap a backend's ``get_encoded`` to record which thread ran each
    lookup; returns the (live) list of thread names."""
    threads: list[str] = []
    inner = backend.get_encoded

    def recorded(key):
        threads.append(threading.current_thread().name)
        return inner(key)

    backend.get_encoded = recorded
    return threads


class TestInlineDispatch:
    """Bounded point reads on a read-only table or an in-memory inventory
    run on the event loop; everything else keeps the worker pool."""

    POINT_READS = {"summary_at", "top_destinations_at", "eta", "multi_get"}

    @pytest.fixture()
    def table(self, small_inventory, tmp_path):
        path = tmp_path / "inventory.sst"
        write_inventory(small_inventory, path)
        return path

    def test_inline_types_by_backend(self, table, tmp_path):
        with SSTableInventory(table) as backend:
            assert InventoryService(backend).inline_types == {"ping"} | self.POINT_READS
        assert InventoryService(_tiny_inventory()).inline_types == (
            {"ping"} | self.POINT_READS
        )
        with LiveInventory(tmp_path / "live", resolution=6,
                           background_maintenance=False) as live:
            assert InventoryService(live).inline_types == {"ping"}

    def test_point_reads_run_on_the_loop_thread(self, table, cell_probes):
        big = INLINE_MULTI_GET_KEYS + 1
        with SSTableInventory(table, cache_blocks=8) as backend:
            threads = _recording_threads(backend)
            with ServerThread(InventoryService(backend)) as handle:
                with InventoryClient(*handle.address) as client:
                    lat, lon = cell_probes[0]
                    client.summary_at(lat, lon)
                    # serve_uniform's batch size stays on the loop ...
                    client.multi_get([{"lat": lat, "lon": lon}] * 16)
                    # ... a batch over the limit goes to the pool.
                    client.multi_get([{"lat": lat, "lon": lon}] * big)
                    client.multi_query([{"type": "summary_at", "lat": lat, "lon": lon}])
        assert threads[:17] == [_LOOP_THREAD] * 17
        assert len(threads) == 17 + big + 1
        # The large multi_get and multi_query keep the pool.
        assert _LOOP_THREAD not in threads[17:]

    def test_slow_pool_request_does_not_delay_inline_reads(self, table,
                                                           cell_probes):
        with SSTableInventory(table, cache_blocks=8) as backend:
            inner = backend.route_cells

            def slow_route_cells(*args, **kwargs):
                time.sleep(1.0)
                return inner(*args, **kwargs)

            backend.route_cells = slow_route_cells
            # One worker: the slow request holds the whole pool.
            config = ServerConfig(max_concurrency=1, request_timeout_s=5.0)
            with ServerThread(InventoryService(backend), config) as handle:
                slow_done = threading.Event()

                def slow_caller():
                    with InventoryClient(*handle.address) as slow_client:
                        slow_client.route_cells("CNSHA", "NLRTM", "cargo")
                    slow_done.set()

                slow_thread = threading.Thread(target=slow_caller)
                slow_thread.start()
                time.sleep(0.1)  # the slow request now holds the worker
                latencies = []
                with InventoryClient(*handle.address) as fast_client:
                    for lat, lon in cell_probes:
                        started = time.perf_counter()
                        fast_client.summary_at(lat, lon)
                        fast_client.top_destinations_at(lat, lon)
                        latencies.append(time.perf_counter() - started)
                still_slow = not slow_done.is_set()
                slow_thread.join(timeout=10)
        assert slow_done.is_set()
        assert still_slow, "the point reads finished only after the slow request"
        assert max(latencies) < 0.5

    def test_inline_corruption_is_typed_counted_and_survivable(self, tmp_path):
        from repro.server.metrics import CORRUPTION_TOTAL

        path = tmp_path / "inventory.sst"
        inventory = _tiny_inventory()
        write_inventory(inventory, path)
        payload = bytearray(path.read_bytes())
        for offset in range(40, 90):  # the first data block
            payload[offset] ^= 0xFF
        path.write_bytes(bytes(payload))
        lat, lon = cell_to_latlng(next(key for key, _ in inventory.items()).cell)
        with SSTableInventory(path, resolution=6, cache_blocks=8) as backend:
            threads = _recording_threads(backend)
            with ServerThread(InventoryService(backend)) as handle:
                with InventoryClient(*handle.address) as client:
                    for _ in range(2):
                        with pytest.raises(ServerError) as exc_info:
                            client.summary_at(lat, lon)
                        assert exc_info.value.code == protocol.ERR_CORRUPTION
                        assert client.ping() is True  # same connection lives
                    counters = client.stats()["server"]["counters"]
        assert threads == [_LOOP_THREAD] * 2
        assert counters[CORRUPTION_TOTAL] == 2
        assert counters[f"server.errors.{protocol.ERR_CORRUPTION}"] == 2

    def test_inline_requests_are_counted_with_zero_queue_wait(self, table,
                                                              cell_probes):
        with SSTableInventory(table) as backend:
            with ServerThread(InventoryService(backend)) as handle:
                with InventoryClient(*handle.address) as client:
                    for lat, lon in cell_probes:
                        client.summary_at(lat, lon)
                        client.eta(lat, lon)
                        client.ping()
                    server = client.stats()["server"]
                snapshot = handle.server.metrics.snapshot()
        inline = 3 * len(cell_probes)
        assert server["counters"]["server.requests"] >= inline
        # Every request, inline or pooled, records one queue wait.
        requests = snapshot["counters"]["server.requests"]
        assert requests == inline + 1  # + the stats request
        assert snapshot["queue_wait_ms"]["count"] == requests
        assert server["queue_wait_ms"]["p50_ms"] == 0.0

    def test_max_multi_get_on_the_loop_stalls_ping_briefly(self, table,
                                                           small_inventory):
        """The largest multi_get: 1 024 keys over every cell, against a
        cache far smaller than the table, so most keys read a block.  A
        batch this size runs on a worker thread; the loop only frames it,
        so a concurrent ping does not wait behind its lookups."""
        cells = sorted(small_inventory.cells())
        keys = []
        while len(keys) < protocol.MAX_MULTI_ITEMS:
            for cell in cells[: protocol.MAX_MULTI_ITEMS - len(keys)]:
                lat, lon = cell_to_latlng(cell)
                keys.append({"lat": lat, "lon": lon})
        frame_budget = 16 * protocol.MAX_FRAME_BYTES  # 1 024 summaries
        config = ServerConfig(max_frame_bytes=frame_budget)
        with SSTableInventory(table, cache_blocks=4) as backend:
            service = InventoryService(backend, max_frame_bytes=frame_budget)
            with ServerThread(service, config) as handle:
                stop = threading.Event()
                stalls: list[float] = []

                def batches():
                    with InventoryClient(*handle.address,
                                         max_frame_bytes=frame_budget) as client:
                        while not stop.is_set():
                            # Undecoded: keeps this process's client-side
                            # decoding out of the server's stall.
                            result = client.request("multi_get", keys=keys)
                            assert len(result["summaries"]) == len(keys)

                loader = threading.Thread(target=batches)
                loader.start()
                try:
                    with InventoryClient(*handle.address) as client:
                        deadline = time.perf_counter() + 1.5
                        while time.perf_counter() < deadline:
                            started = time.perf_counter()
                            assert client.ping() is True
                            stalls.append(time.perf_counter() - started)
                finally:
                    stop.set()
                    loader.join(timeout=10)
        assert stalls
        assert max(stalls) < 0.5
