"""A synchronous client for the inventory query server.

:class:`InventoryClient` speaks the length-prefixed JSON protocol over
one TCP connection and maps responses back into the library's own types
(:class:`~repro.inventory.summary.CellSummary`,
:class:`~repro.apps.eta.EtaEstimate`), so code written against a local
:class:`~repro.inventory.backend.QueryableInventory` ports to the remote
server by swapping the object — the position-query methods carry the
same names and signatures.

The client is deliberately synchronous (plain sockets, no asyncio): the
consumers are tests, benchmarks' closed-loop load generators, and
scripts, all of which want a blocking call per request.  One client is
one connection and is **not** thread-safe; concurrent load uses one
client per thread, which is also how it exercises the server's
concurrency for real.
"""

from __future__ import annotations

import itertools
import socket

from repro.apps.eta import EtaEstimate
from repro.inventory.summary import CellSummary
from repro.server import protocol


class ServerError(Exception):
    """An error response from the server, tagged with its code.

    ``details`` carries the error's structured payload when the server
    sent one — e.g. a rejected multi frame's ``{"index": n}`` naming the
    offending sub-request.
    """

    def __init__(
        self, code: str, message: str, details: dict | None = None
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.details = details


class InventoryClient:
    """One blocking connection to an inventory query server."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")
        self._ids = itertools.count(1)

    # -- transport -----------------------------------------------------------------

    def request(self, request_type: str, **params) -> dict:
        """Send one request, wait for its response, return the result.

        Raises :class:`ServerError` for error responses and
        :class:`~repro.server.protocol.ProtocolError` for transport
        faults (truncated or oversized frames).
        """
        request_id = next(self._ids)
        frame = {"id": request_id, "type": request_type, **params}
        self._sock.sendall(protocol.encode_frame(frame, self.max_frame_bytes))
        response = protocol.read_frame_blocking(
            self._file.read, self.max_frame_bytes
        )
        if response is None:
            raise ServerError(
                protocol.ERR_TRUNCATED, "server closed the connection"
            )
        if response.get("id") not in (request_id, None):
            raise ServerError(
                protocol.ERR_BAD_FRAME,
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}",
            )
        if not response.get("ok"):
            error = response.get("error") or {}
            details = error.get("details")
            raise ServerError(
                error.get("code", protocol.ERR_INTERNAL),
                error.get("message", "unspecified server error"),
                details if isinstance(details, dict) else None,
            )
        result = response.get("result")
        if not isinstance(result, dict):
            raise ServerError(
                protocol.ERR_BAD_FRAME, f"malformed result payload: {result!r}"
            )
        return result

    def close(self) -> None:
        """Close the connection."""
        self._file.close()
        self._sock.close()

    def __enter__(self) -> "InventoryClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the query surface ---------------------------------------------------------

    def ping(self) -> bool:
        """Liveness probe."""
        return bool(self.request("ping").get("pong"))

    def stats(self) -> dict:
        """Inventory + server observability snapshot."""
        return self.request("stats")

    def trace(self, n: int = 50) -> dict:
        """The live tail of the server's trace ring buffer.

        Returns ``{"enabled": bool, "spans": [span records]}`` — empty
        spans (not an error) when the server runs without tracing.
        """
        return self.request("trace", n=n)

    def summary_at(
        self,
        lat: float,
        lon: float,
        vessel_type: str | None = None,
        origin: str | None = None,
        destination: str | None = None,
    ) -> CellSummary | None:
        """Remote twin of :meth:`QueryableInventory.summary_at`."""
        result = self.request(
            "summary_at",
            **_position_params(lat, lon, vessel_type, origin, destination),
        )
        raw = result.get("summary")
        return None if raw is None else protocol.summary_from_wire(raw)

    def multi_get(self, keys: list[dict]) -> list[CellSummary | None]:
        """Fetch summaries for many positions in ONE round trip.

        Prefer this over a loop of :meth:`summary_at` calls whenever the
        positions are known up front: all lookups travel in a single
        frame, so framing and network round-trip cost is paid once
        instead of ``len(keys)`` times (the dominant cost for warm point
        lookups — compare ``python -m bench run --workload serve_uniform``
        with ``--workload serve_hot``).

        Each key is a dict of the :meth:`summary_at` parameters:
        ``{"lat": …, "lon": …}`` plus optional ``vessel_type`` /
        ``origin`` / ``destination``.  Summaries return in key order,
        ``None`` where the cell is empty.

        A fan-out too large for one response frame fails with a typed
        ``frame_too_large`` :class:`ServerError` whose
        ``details["index"]`` names the first offending sub-request —
        split the batch there and retry; the connection stays usable.
        """
        result = self.request("multi_get", keys=list(keys))
        return [
            None if raw is None else protocol.summary_from_wire(raw)
            for raw in result.get("summaries", [])
        ]

    def ingest(self, records: list[dict]) -> dict:
        """Send a batch of live records to a ``--live`` server.

        Each record is the wire form of an
        :class:`~repro.inventory.memtable.IngestRecord` — required
        ``mmsi``/``ts``/``lat``/``lon``/``sog``/``cog`` plus optional
        ``vessel_type``, ``heading``, trip fields and ``extras`` (see
        ``IngestRecord.to_wire``).  Returns the ack:
        ``{"accepted": n, "durable": bool, "flushed": bool}`` — a record
        is durable once its WAL entry is fsynced, so ``durable`` is
        always true under the default ``sync_every=1`` policy.

        A read-only backend answers a typed ``bad_request``
        :class:`ServerError`; so does a malformed record, with the
        message naming ``records[i]`` and the bad field.  The fan-out
        cap of the multi requests applies (split large batches).
        """
        result = self.request("ingest", records=list(records))
        return dict(result.get("ingest", {}))

    def multi_query(self, requests: list[dict]) -> list[dict]:
        """Send many (non-multi) requests in ONE round trip.

        Each item is a full request body, e.g. ``{"type": "eta",
        "lat": …, "lon": …}``.  Responses return in request order as
        per-item envelopes: ``{"ok": True, "result": …}`` on success,
        ``{"ok": False, "error": {"code", "message"}}`` per failed item
        — one bad sub-request does not fail the batch.  Like
        :meth:`multi_get`, an oversized fan-out fails typed with the
        offending index in ``details`` on a live connection.
        """
        result = self.request("multi_query", requests=list(requests))
        return list(result.get("responses", []))

    def top_destinations_at(
        self, lat: float, lon: float, vessel_type: str | None = None, n: int = 5
    ) -> list[tuple[str, int]]:
        """Remote twin of :meth:`QueryableInventory.top_destinations_at`."""
        params: dict = {"lat": lat, "lon": lon, "n": n}
        if vessel_type is not None:
            params["vessel_type"] = vessel_type
        result = self.request("top_destinations_at", **params)
        return [(dest, count) for dest, count in result.get("destinations", [])]

    def route_cells(
        self, origin: str, destination: str, vessel_type: str
    ) -> dict[int, CellSummary]:
        """Remote twin of :meth:`QueryableInventory.route_cells`."""
        result = self.request(
            "route_cells",
            origin=origin,
            destination=destination,
            vessel_type=vessel_type,
        )
        return {
            int(cell): protocol.summary_from_wire(raw)
            for cell, raw in result.get("cells", {}).items()
        }

    def eta(
        self,
        lat: float,
        lon: float,
        vessel_type: str | None = None,
        origin: str | None = None,
        destination: str | None = None,
    ) -> EtaEstimate | None:
        """Remote twin of :meth:`~repro.apps.eta.EtaEstimator.estimate`."""
        result = self.request(
            "eta", **_position_params(lat, lon, vessel_type, origin, destination)
        )
        payload = result.get("eta")
        if payload is None:
            return None
        return EtaEstimate(
            mean_s=payload["mean_s"],
            p10_s=payload["p10_s"],
            p50_s=payload["p50_s"],
            p90_s=payload["p90_s"],
            samples=payload["samples"],
            grouping=payload["grouping"],
            destination_matched=payload["destination_matched"],
        )

    def destination(
        self,
        track: list[tuple[float, float]],
        vessel_type: str | None = None,
    ) -> dict:
        """Remote twin of
        :meth:`~repro.apps.destination.DestinationPredictor.predict_track`:
        returns ``{"best", "ranking", "observations", "matched_observations"}``
        with ``ranking`` as (destination, share) tuples."""
        params: dict = {"track": [[lat, lon] for lat, lon in track]}
        if vessel_type is not None:
            params["vessel_type"] = vessel_type
        result = self.request("destination", **params)
        result["ranking"] = [
            (dest, share) for dest, share in result.get("ranking", [])
        ]
        return result


def _position_params(
    lat: float,
    lon: float,
    vessel_type: str | None,
    origin: str | None,
    destination: str | None,
) -> dict:
    params: dict = {"lat": lat, "lon": lon}
    if vessel_type is not None:
        params["vessel_type"] = vessel_type
    if origin is not None:
        params["origin"] = origin
    if destination is not None:
        params["destination"] = destination
    return params
