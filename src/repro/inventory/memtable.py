"""The in-memory half of the live write path: records and memtables.

An :class:`IngestRecord` is one enriched position report as it crosses
the live write path — the same feature tuple the batch pipeline's
:class:`~repro.pipeline.records.CellRecord` carries, minus the cell
(the memtable derives it from (lat, lon) at apply time so a feed never
has to know the grid resolution).  It has two serial forms:

- :meth:`IngestRecord.to_payload` / :meth:`from_payload` — the compact
  binary form (via :mod:`repro.inventory.codec`) that goes into WAL
  entries, so replaying a WAL rebuilds exactly the memtable that was
  lost;
- :meth:`IngestRecord.to_wire` / :meth:`from_wire` — the JSON-safe dict
  form the ``ingest`` server request carries; ``from_wire`` validates
  every field and raises :class:`ValueError` naming the offender, which
  the service layer surfaces as a typed ``bad_request``.

A :class:`Memtable` folds records into
:class:`~repro.inventory.summary.CellSummary` sketches keyed by
:class:`~repro.inventory.keys.GroupKey`, using the *same* fan-out
(:func:`~repro.inventory.keys.keys_for_record`) and the same
``CellSummary.update`` folding as the batch pipeline
(:mod:`repro.pipeline.features`) — so a flushed memtable is
byte-identical to what a batch build of the same records would have
produced, and the summary merge laws make (tables ⊕ memtable) reads
exact.  The memtable itself is a plain dict with no locking: the owning
:class:`~repro.inventory.live.LiveInventory` serialises writers and
snapshots readers.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.hexgrid import latlng_to_cell
from repro.inventory.codec import decode, encode
from repro.inventory.keys import GroupKey, GroupingSet, keys_for_record
from repro.inventory.summary import (
    DEFAULT_SUMMARY_CONFIG,
    CellSummary,
    SummaryConfig,
)

#: Payload schema version (first element of the encoded list), so the
#: WAL entry format can evolve without guessing.
_PAYLOAD_VERSION = 1


@dataclass(frozen=True, slots=True)
class IngestRecord:
    """One live position report with optional trip enrichment.

    ``heading`` is ``None`` for the transponder's 511 sentinel; trip
    fields are ``None`` for records outside any detected trip.  Such a
    record still feeds the CELL and CELL_TYPE grouping sets here,
    whereas the batch pipeline drops it
    (:func:`~repro.pipeline.trips.trip_spans` keeps only records inside a
    complete port-to-port trip).
    """

    mmsi: int
    ts: float
    lat: float
    lon: float
    sog: float
    cog: float
    vessel_type: str = "unknown"
    heading: int | None = None
    trip_id: str | None = None
    origin: str | None = None
    destination: str | None = None
    eto_s: float | None = None
    ata_s: float | None = None
    next_cell: int | None = None
    extras: tuple[float | None, ...] = ()

    # -- WAL binary form -----------------------------------------------------------

    def to_payload(self) -> bytes:
        """Compact binary form for WAL entries."""
        return encode(
            [
                _PAYLOAD_VERSION,
                self.mmsi,
                self.ts,
                self.lat,
                self.lon,
                self.sog,
                self.cog,
                self.vessel_type,
                self.heading,
                self.trip_id,
                self.origin,
                self.destination,
                self.eto_s,
                self.ata_s,
                self.next_cell,
                list(self.extras),
            ]
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "IngestRecord":
        """Inverse of :meth:`to_payload` (raises ``ValueError`` on shape
        mismatch — a CRC-valid entry that does not decode is a format
        bug, not disk damage)."""
        data = decode(payload)
        if not isinstance(data, list) or len(data) != 16:
            raise ValueError("malformed ingest payload")
        if data[0] != _PAYLOAD_VERSION:
            raise ValueError(f"unsupported ingest payload version {data[0]!r}")
        return cls(
            mmsi=int(data[1]),
            ts=float(data[2]),
            lat=float(data[3]),
            lon=float(data[4]),
            sog=float(data[5]),
            cog=float(data[6]),
            vessel_type=str(data[7]),
            heading=None if data[8] is None else int(data[8]),
            trip_id=None if data[9] is None else str(data[9]),
            origin=None if data[10] is None else str(data[10]),
            destination=None if data[11] is None else str(data[11]),
            eto_s=None if data[12] is None else float(data[12]),
            ata_s=None if data[13] is None else float(data[13]),
            next_cell=None if data[14] is None else int(data[14]),
            extras=tuple(
                None if value is None else float(value) for value in data[15]
            ),
        )

    # -- JSON wire form ------------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe dict for the ``ingest`` request (omits ``None``s)."""
        out: dict[str, Any] = {
            "mmsi": self.mmsi,
            "ts": self.ts,
            "lat": self.lat,
            "lon": self.lon,
            "sog": self.sog,
            "cog": self.cog,
            "vessel_type": self.vessel_type,
        }
        for name in ("heading", "trip_id", "origin", "destination", "eto_s", "ata_s", "next_cell"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.extras:
            out["extras"] = list(self.extras)
        return out

    @classmethod
    def from_wire(cls, data: object) -> "IngestRecord":
        """Validate and parse one wire record (``ValueError`` names the
        offending field, surfaced as a ``bad_request`` by the server)."""
        if not isinstance(data, dict):
            raise ValueError("record must be an object")

        def _req_num(name: str) -> float:
            value = data.get(name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"field {name!r} must be a number")
            return float(value)

        mmsi = data.get("mmsi")
        if not isinstance(mmsi, int) or isinstance(mmsi, bool):
            raise ValueError("field 'mmsi' must be an integer")
        lat = _req_num("lat")
        lon = _req_num("lon")
        if not -90.0 <= lat <= 90.0:
            raise ValueError("field 'lat' out of range")
        if not -180.0 <= lon <= 180.0:
            raise ValueError("field 'lon' out of range")
        vessel_type = data.get("vessel_type", "unknown")
        if not isinstance(vessel_type, str) or not vessel_type:
            raise ValueError("field 'vessel_type' must be a non-empty string")

        def _opt_num(name: str) -> float | None:
            value = data.get(name)
            if value is None:
                return None
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"field {name!r} must be a number")
            return float(value)

        def _opt_str(name: str) -> str | None:
            value = data.get(name)
            if value is None:
                return None
            if not isinstance(value, str):
                raise ValueError(f"field {name!r} must be a string")
            return value

        heading = data.get("heading")
        if heading is not None and (not isinstance(heading, int) or isinstance(heading, bool)):
            raise ValueError("field 'heading' must be an integer")
        next_cell = data.get("next_cell")
        if next_cell is not None and (
            not isinstance(next_cell, int) or isinstance(next_cell, bool)
        ):
            raise ValueError("field 'next_cell' must be an integer")
        extras_raw = data.get("extras", [])
        if not isinstance(extras_raw, list):
            raise ValueError("field 'extras' must be a list")
        extras = []
        for value in extras_raw:
            if value is None:
                extras.append(None)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                extras.append(float(value))
            else:
                raise ValueError("field 'extras' must hold numbers or nulls")
        return cls(
            mmsi=mmsi,
            ts=_req_num("ts"),
            lat=lat,
            lon=lon,
            sog=_req_num("sog"),
            cog=_req_num("cog"),
            vessel_type=vessel_type,
            heading=heading,
            trip_id=_opt_str("trip_id"),
            origin=_opt_str("origin"),
            destination=_opt_str("destination"),
            eto_s=_opt_num("eto_s"),
            ata_s=_opt_num("ata_s"),
            next_cell=next_cell,
            extras=tuple(extras),
        )


@dataclass
class Memtable:
    """Unsorted in-memory (GroupKey → CellSummary) accumulator.

    Apply-only until frozen by the owner; ``records_applied`` is the
    flush-threshold input.  Folding matches the batch pipeline exactly
    (same fan-out, same ``CellSummary.update`` arguments), which is what
    makes flushed tables byte-identical to batch-built ones.
    """

    resolution: int
    config: SummaryConfig = DEFAULT_SUMMARY_CONFIG
    groups: dict[GroupKey, CellSummary] = field(default_factory=dict)
    records_applied: int = 0

    def apply(self, record: IngestRecord) -> int:
        """Fold one record in; returns the cell it mapped to."""
        cell = int(latlng_to_cell(record.lat, record.lon, self.resolution))
        for key in keys_for_record(
            cell=cell,
            vessel_type=record.vessel_type,
            origin=record.origin,
            destination=record.destination,
        ):
            summary = self.groups.get(key)
            if summary is None:
                summary = CellSummary(self.config)
                self.groups[key] = summary
            summary.update(
                mmsi=record.mmsi,
                sog=record.sog,
                cog=record.cog,
                heading=record.heading,
                trip_id=record.trip_id,
                eto_s=record.eto_s,
                ata_s=record.ata_s,
                origin=record.origin,
                destination=record.destination,
                next_cell=record.next_cell,
                extras=record.extras,
            )
        self.records_applied += 1
        return cell

    def __len__(self) -> int:
        return len(self.groups)

    def get(self, key: GroupKey) -> CellSummary | None:
        """The live summary for one group (shared state — callers copy)."""
        return self.groups.get(key)

    def items(self) -> Iterator[tuple[GroupKey, CellSummary]]:
        """All (key, summary) pairs, unsorted (flush sorts)."""
        return iter(self.groups.items())

    def cells(self) -> set[int]:
        """Every cell with at least one group."""
        return {key.cell for key in self.groups}

    def route_groups(
        self, origin: str, destination: str, vessel_type: str
    ) -> dict[int, CellSummary]:
        """CELL_OD_TYPE summaries for one route (live references)."""
        out: dict[int, CellSummary] = {}
        for key, summary in self.groups.items():
            if (
                key.grouping_set is GroupingSet.CELL_OD_TYPE
                and key.origin == origin
                and key.destination == destination
                and key.vessel_type == vessel_type
            ):
                out[key.cell] = summary
        return out
