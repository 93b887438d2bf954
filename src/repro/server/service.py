"""Request dispatch: one :class:`QueryableInventory`, every query type.

The service is the server's pure core — a dict in, a dict out, no I/O,
no clocks — so the whole query surface is unit-testable without opening
a socket, and the asyncio layer stays a thin shell of timeouts and
framing.  The handlers deliberately reuse the *same* app classes the
in-process callers use (:class:`~repro.apps.eta.EtaEstimator`,
:class:`~repro.apps.destination.DestinationPredictor`): remote answers
equal local answers because they run the same code against the same
backend, not because two implementations happen to agree.

The service also decides, once, where each request type runs
(:attr:`InventoryService.inline_types`).  ``ping`` and, on a read-only
table or an in-memory inventory, the bounded point reads
(:data:`POINT_READS`) are answered on the server's event loop: each costs
a few lookups of at most one block read apiece, cheaper than a hop to a
worker thread that the GIL would serialise anyway.  Everything else runs
on the server's worker threads, many at a time, against one shared
backend — the reason :class:`~repro.inventory.backend.BlockCache`,
:class:`~repro.engine.metrics.CounterSet` and the table reader take
locks.
"""

from __future__ import annotations

import json
import math

from repro.apps.destination import DestinationPredictor
from repro.apps.eta import EtaEstimator
from repro.hexgrid import latlng_to_cell
from repro.inventory.backend import (
    QueryableInventory,
    SSTableInventory,
    check_breakdown,
)
from repro.inventory.keys import GroupKey
from repro.inventory.sstable import SSTableError
from repro.inventory.store import Inventory
from repro.obs import trace as obs
from repro.obs.sinks import RingBufferSink
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    MAX_MULTI_ITEMS,
    BadRequestError,
    FanOutTooLargeError,
    IngestBackpressureError,
    ProtocolError,
    UnknownRequestError,
    encoded_to_wire,
    summary_to_wire,
)

#: Bounded point reads: a few lookups each (``multi_get`` at most
#: ``MAX_MULTI_ITEMS``), and a lookup reads at most one block.
POINT_READS = frozenset({"summary_at", "top_destinations_at", "eta", "multi_get"})

#: The parsed arguments of one position query: lat, lon, vessel type,
#: origin, destination.
_PointArgs = tuple[float, float, str | None, str | None, str | None]


class InventoryService:
    """Answers decoded protocol requests from one inventory backend."""

    def __init__(
        self,
        inventory: QueryableInventory,
        min_eta_samples: int = 3,
        top_n: int = 5,
        max_multi_items: int = MAX_MULTI_ITEMS,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.inventory = inventory
        self.eta = EtaEstimator(inventory, min_samples=min_eta_samples)
        self.predictor = DestinationPredictor(inventory, top_n=top_n)
        self.max_multi_items = max_multi_items
        # Multi responses must fit one frame.  The budget leaves slack for
        # the response envelope so a fan-out the service accepts is a
        # fan-out the framing layer can actually send.
        self._multi_budget = max_frame_bytes - 1024
        self._handlers = {
            "ping": self._ping,
            "stats": self._stats,
            "summary_at": self._summary_at,
            "top_destinations_at": self._top_destinations_at,
            "route_cells": self._route_cells,
            "eta": self._eta,
            "destination": self._destination,
            "trace": self._trace,
            "multi_get": self._multi_get,
            "multi_query": self._multi_query,
            "ingest": self._ingest,
        }
        # Which requests the server may answer on its event loop.  Only a
        # read-only table or an in-memory inventory bounds a point read
        # by one block read: a live read waits on the memtable lock that
        # ingest holds and merges across every table, and ``route_cells``
        # reads a block per cell of the route.
        self.inline_types: frozenset[str] = frozenset({"ping"})
        if isinstance(inventory, (SSTableInventory, Inventory)):
            self.inline_types |= POINT_READS

    def handle(self, request: dict) -> dict:
        """Dispatch one request to its handler; returns the result payload.

        Raises :class:`UnknownRequestError` / :class:`BadRequestError`
        for requests the protocol layer turns into error responses.
        """
        handler = self._handlers.get(request.get("type"))
        if handler is None:
            raise UnknownRequestError(request.get("type"))
        return handler(request)

    # -- handlers ------------------------------------------------------------------

    def _ping(self, request: dict) -> dict:
        return {"pong": True}

    def _stats(self, request: dict) -> dict:
        inventory = self.inventory
        stats: dict = {"resolution": inventory.resolution}
        try:
            stats["entries"] = len(inventory)  # type: ignore[arg-type]
        except TypeError:
            pass
        cache_stats = getattr(inventory, "cache_stats", None)
        if callable(cache_stats):
            stats["cache"] = cache_stats()
        # A live (WAL + memtable) backend reports its write-path state —
        # memtable fill, table count, WAL watermarks — the same way.
        ingest_stats = getattr(inventory, "ingest_stats", None)
        if callable(ingest_stats):
            stats["ingest"] = ingest_stats()
        return {"inventory": stats}

    def _ingest(self, request: dict) -> dict:
        """Accept a batch of live records (write path).

        Only backends exposing ``ingest_records`` (the
        :class:`~repro.inventory.live.LiveInventory` hook) accept
        writes; every other backend is read-only and answers a typed
        ``bad_request``.  The fan-out cap and response-budget rules of
        the multi requests apply: one frame, bounded work.
        """
        sink = getattr(self.inventory, "ingest_records", None)
        if not callable(sink):
            raise BadRequestError(
                "backend is read-only: ingest requires a live inventory "
                "(repro serve --live)"
            )
        # Only a live backend gets here: a read-only server never loads
        # the write path.
        from repro.inventory.maintenance import IngestBackpressure

        records = self._fanout_items(request, "records")
        try:
            ack = sink(records)
        except SSTableError:
            raise  # storage damage is data_corruption, never bad_request
        except IngestBackpressure as exc:
            # The valve sits before the WAL append, so the batch was
            # never applied and a paced retry is always safe.
            raise IngestBackpressureError(
                str(exc),
                frozen_memtables=exc.frozen_memtables,
                debt_bytes=exc.debt_bytes,
                waited_s=exc.waited_s,
            ) from None
        except ValueError as exc:
            # The hook names the offending record index (records[i]: ...).
            raise BadRequestError(str(exc)) from None
        return {"ingest": ack}

    def _trace(self, request: dict) -> dict:
        # The live tail of the tracer's ring buffer (``repro serve
        # --trace-ring``).  With tracing off (or no ring installed) the
        # answer is an empty, clearly-flagged tail — not an error, so
        # probes can poll it unconditionally.
        n = _int(request, "n", default=50, minimum=1)
        ring = obs.find_sink(RingBufferSink)
        return {
            "enabled": obs.enabled(),
            "spans": [] if ring is None else ring.spans(n),
        }

    def _summary_at(self, request: dict) -> dict:
        return {"summary": _to_wire(self._encoded_at(_point_args(request)))}

    def _encoded_at(self, args: _PointArgs) -> bytes | None:
        """One validated point answer as the backend's codec bytes (the
        stored value bytes on a table backend: no decode, no re-encode)."""
        lat, lon, vessel_type, origin, destination = args
        key = GroupKey(
            cell=latlng_to_cell(lat, lon, self.inventory.resolution),
            vessel_type=vessel_type,
            origin=origin,
            destination=destination,
        )
        try:
            return self.inventory.get_encoded(key)
        except SSTableError:
            raise  # storage fault, not a bad request: keep it typed
        except ValueError as exc:
            raise BadRequestError(str(exc))

    def _top_destinations_at(self, request: dict) -> dict:
        lat, lon = _position(request)
        n = _int(request, "n", default=5, minimum=1)
        top = self.inventory.top_destinations_at(
            lat, lon, vessel_type=_string(request, "vessel_type"), n=n
        )
        return {"destinations": [[dest, count] for dest, count in top]}

    def _route_cells(self, request: dict) -> dict:
        origin = _string(request, "origin", required=True)
        destination = _string(request, "destination", required=True)
        vessel_type = _string(request, "vessel_type", required=True)
        cells = self.inventory.route_cells(origin, destination, vessel_type)
        # JSON object keys are strings; the client restores the int cells.
        return {
            "cells": {
                str(cell): summary_to_wire(summary)
                for cell, summary in cells.items()
            }
        }

    def _eta(self, request: dict) -> dict:
        lat, lon = _position(request)
        try:
            estimate = self.eta.estimate(
                lat,
                lon,
                vessel_type=_string(request, "vessel_type"),
                origin=_string(request, "origin"),
                destination=_string(request, "destination"),
            )
        except SSTableError:
            raise  # storage fault, not a bad request: keep it typed
        except ValueError as exc:
            raise BadRequestError(str(exc))
        if estimate is None:
            return {"eta": None}
        return {
            "eta": {
                "mean_s": estimate.mean_s,
                "p10_s": estimate.p10_s,
                "p50_s": estimate.p50_s,
                "p90_s": estimate.p90_s,
                "samples": estimate.samples,
                "grouping": estimate.grouping,
                "destination_matched": estimate.destination_matched,
            }
        }

    def _destination(self, request: dict) -> dict:
        track = request.get("track")
        if not isinstance(track, list) or not track:
            raise BadRequestError("destination requires a non-empty track")
        points = []
        for point in track:
            if (
                not isinstance(point, (list, tuple))
                or len(point) != 2
                or not all(isinstance(c, (int, float)) for c in point)
            ):
                raise BadRequestError(
                    "track points must be [lat, lon] pairs of numbers"
                )
            points.append((float(point[0]), float(point[1])))
        state = self.predictor.predict_track(
            points, vessel_type=_string(request, "vessel_type")
        )
        return {
            "best": state.best(),
            "ranking": [[dest, share] for dest, share in state.ranking()],
            "observations": state.observations,
            "matched_observations": state.matched_observations,
        }

    # -- multi requests ------------------------------------------------------------

    def _fanout_items(self, request: dict, name: str) -> list:
        """Validate a multi frame's sub-request list (shape + item cap)."""
        items = request.get(name)
        if not isinstance(items, list) or not items:
            raise BadRequestError(
                f"{request.get('type')} requires a non-empty {name} list"
            )
        cap = self.max_multi_items
        if len(items) > cap:
            raise FanOutTooLargeError(
                cap,
                f"{name} fan-out of {len(items)} exceeds the {cap}-item "
                f"limit; sub-request {cap} is the first over — split the "
                f"batch and retry",
            )
        return items

    def _check_multi_budget(self, size: int, index: int) -> None:
        """Fail fast, naming ``index``, once the accumulated response
        bytes can no longer fit one frame."""
        if size > self._multi_budget:
            raise FanOutTooLargeError(
                index,
                f"cumulative response of {size:,} bytes exceeds the "
                f"{self._multi_budget:,}-byte frame budget at sub-request "
                f"{index} — split the batch and retry",
            )

    def _multi_get(self, request: dict) -> dict:
        # N summary_at point lookups in one frame; summaries come back in
        # key order (None where the cell is empty).  Every key is
        # validated before the first lookup, so the first invalid key
        # fails the batch with a ``keys[i]: ...`` error and no lookup
        # runs.  The running byte count is exact for the payload (base64
        # needs no JSON escaping): each summary costs len(wire) + quotes
        # + comma, a miss costs `null` + comma.
        keys = self._fanout_items(request, "keys")
        parsed = [self._validate_multi_key(key, index) for index, key in enumerate(keys)]
        summaries: list[str | None] = []
        size = 0
        for index, args in enumerate(parsed):
            raw = self._encoded_at(args)
            wire = _to_wire(raw)
            size += 5 if wire is None else len(wire) + 3
            self._check_multi_budget(size, index)
            summaries.append(wire)
        return {"summaries": summaries}

    def _validate_multi_key(self, key: object, index: int) -> _PointArgs:
        """Everything a ``multi_get`` key can be rejected for, named by
        its index; returns the parsed arguments the lookup uses."""
        if not isinstance(key, dict):
            raise BadRequestError(
                f"keys[{index}] must be an object, got {type(key).__name__}"
            )
        try:
            return _point_args(key)
        except BadRequestError as exc:
            raise BadRequestError(f"keys[{index}]: {exc}")

    def _multi_query(self, request: dict) -> dict:
        # A pipelined batch of arbitrary (non-multi) requests.  Responses
        # come back in request order as per-item envelopes: one bad
        # sub-request yields one error entry, not a failed batch — only a
        # fan-out that cannot fit the response frame fails whole, typed,
        # with the offending index.
        subs = self._fanout_items(request, "requests")
        responses: list[dict] = []
        size = 0
        for index, sub in enumerate(subs):
            if not isinstance(sub, dict):
                raise BadRequestError(
                    f"requests[{index}] must be an object, got "
                    f"{type(sub).__name__}"
                )
            sub_type = sub.get("type")
            if isinstance(sub_type, str) and sub_type in ("multi_get", "multi_query"):
                raise BadRequestError(
                    f"requests[{index}]: {sub_type} does not nest inside "
                    f"multi_query"
                )
            try:
                entry: dict = {"ok": True, "result": self.handle(sub)}
            except SSTableError:
                raise  # storage fault, not a bad request: keep it typed
            except ProtocolError as exc:
                entry = {
                    "ok": False,
                    "error": {
                        "code": exc.code,
                        "message": f"requests[{index}]: {exc}",
                    },
                }
            size += len(json.dumps(entry, separators=(",", ":"))) + 1
            self._check_multi_budget(size, index)
            responses.append(entry)
        return {"responses": responses}


def _to_wire(raw: bytes | None) -> str | None:
    return None if raw is None else encoded_to_wire(raw)


# -- parameter validation --------------------------------------------------------


def _point_args(request: dict) -> _PointArgs:
    """A position query's arguments, breakdown pairing rules included."""
    lat, lon = _position(request)
    vessel_type = _string(request, "vessel_type")
    origin = _string(request, "origin")
    destination = _string(request, "destination")
    try:
        check_breakdown(vessel_type, origin, destination)
    except ValueError as exc:
        raise BadRequestError(str(exc))
    return lat, lon, vessel_type, origin, destination


def _position(request: dict) -> tuple[float, float]:
    return _float(request, "lat"), _float(request, "lon")


def _float(request: dict, name: str) -> float:
    # JSON decoding accepts NaN and ±Infinity, and the grid maps them to
    # an arbitrary cell: a garbage position must not read as "no data".
    value = request.get(name)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise BadRequestError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise BadRequestError(f"{name} must be a finite number, got {value!r}")
    return number


def _int(request: dict, name: str, default: int, minimum: int) -> int:
    value = request.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise BadRequestError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _string(
    request: dict, name: str, required: bool = False
) -> str | None:
    value = request.get(name)
    if value is None:
        if required:
            raise BadRequestError(f"{name} is required")
        return None
    if not isinstance(value, str) or not value:
        raise BadRequestError(f"{name} must be a non-empty string, got {value!r}")
    return value
