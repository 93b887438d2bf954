"""The cell summary: Table 3 as a mergeable product of sketches.

One :class:`CellSummary` holds every (feature × statistic) cell of the
paper's Table 3:

=============  ===================================================
Records        count
Ships          distinct count (HyperLogLog)
Course         circular mean* + 30° bins
Heading        circular mean* + 30° bins
Speed          mean, std, p10/p50/p90 (t-digest)
Trips          distinct count (HyperLogLog)
ETO            mean, std, p10/p50/p90
ATA            mean, std, p10/p50/p90
Origin         top-N (Space-Saving)
Destination    top-N (Space-Saving)
Transitions    top-N of next-cell ids (Space-Saving)
=============  ===================================================

Because every component is a commutative monoid, the summary itself is
one: ``update`` folds a record in, ``merge`` folds another summary in, and
any partitioning of the input produces the same result (up to sketch
approximation), which is what lets the engine build the inventory with
``combine_by_key``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.inventory import codec
from repro.sketches.circular import CircularMoments
from repro.sketches.histogram import DirectionHistogram
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.moments import MomentsSketch
from repro.sketches.spacesaving import SpaceSaving
from repro.sketches.tdigest import TDigest


@dataclass(frozen=True)
class SummaryConfig:
    """Sketch sizing knobs (accuracy ↔ memory).

    The default HLL precision (10 → ~3.2 % standard error) matches the
    accuracy class of Spark's ``approx_count_distinct`` default (5 % rsd)
    that the paper's stack would have used, at a quarter of the memory of
    p=12 — which matters when an inventory holds millions of groups, each
    with two HLLs.

    ``extra_names`` declares fused non-AIS features (§5 future work, e.g.
    wind speed): each gets a mergeable moments sketch per group, fed from
    the matching slot of a record's extras tuple.
    """

    hll_precision: int = 10
    tdigest_compression: float = 100.0
    topn_capacity: int = 32
    direction_bin_deg: float = 30.0
    extra_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.topn_capacity < 1:
            raise ValueError("topn_capacity must be positive")
        if len(set(self.extra_names)) != len(self.extra_names):
            raise ValueError("extra feature names must be unique")

    def to_dict(self) -> dict:
        """The stored form: a summary's ``config`` entry and the live
        directory manifest's ``summary`` entry."""
        return {
            "hll": self.hll_precision,
            "td": self.tdigest_compression,
            "topn": self.topn_capacity,
            "bin": self.direction_bin_deg,
            "extra_names": list(self.extra_names),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SummaryConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(
            hll_precision=int(data["hll"]),
            tdigest_compression=float(data["td"]),
            topn_capacity=int(data["topn"]),
            direction_bin_deg=float(data["bin"]),
            extra_names=tuple(data.get("extra_names", ())),
        )


DEFAULT_SUMMARY_CONFIG = SummaryConfig()

#: The sketch fields of a summary, in stored order: attribute, stored
#: key, sketch class, and the :class:`SummaryConfig` knob its
#: constructor takes (``None``: no argument).  The stored dict is
#: ``config``, ``records``, these fields, then ``extras`` — the codec
#: writes dicts in insertion order, so this order is part of the format.
_SKETCH_FIELDS: tuple[tuple[str, str, Any, str | None], ...] = (
    ("ships", "ships", HyperLogLog, "hll_precision"),
    ("course", "course", CircularMoments, None),
    ("course_bins", "course_bins", DirectionHistogram, "direction_bin_deg"),
    ("heading", "heading", CircularMoments, None),
    ("heading_bins", "heading_bins", DirectionHistogram, "direction_bin_deg"),
    ("speed", "speed", MomentsSketch, None),
    ("speed_quantiles", "speed_q", TDigest, "tdigest_compression"),
    ("trips", "trips", HyperLogLog, "hll_precision"),
    ("eto", "eto", MomentsSketch, None),
    ("eto_quantiles", "eto_q", TDigest, "tdigest_compression"),
    ("ata", "ata", MomentsSketch, None),
    ("ata_quantiles", "ata_q", TDigest, "tdigest_compression"),
    ("origins", "origins", SpaceSaving, "topn_capacity"),
    ("destinations", "destinations", SpaceSaving, "topn_capacity"),
    ("transitions", "transitions", SpaceSaving, "topn_capacity"),
)
_SKETCH_ATTRS = tuple(attr for attr, _, _, _ in _SKETCH_FIELDS)

#: What bytes that are not a summary raise on their way through
#: ``codec.decode`` and :meth:`CellSummary.from_dict` (a missing field, a
#: wrong shape, an unhashable key, invalid UTF-8).
_SHAPE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, IndexError)


class CellSummary:
    """Mergeable per-group statistics (one row of the global inventory)."""

    __slots__ = ("config", "records", *_SKETCH_ATTRS, "extras")

    # Declared for static type checkers only: slots, construction, merge
    # and the stored form all follow ``_SKETCH_FIELDS``.
    config: SummaryConfig
    records: int
    ships: HyperLogLog
    course: CircularMoments
    course_bins: DirectionHistogram
    heading: CircularMoments
    heading_bins: DirectionHistogram
    speed: MomentsSketch
    speed_quantiles: TDigest
    trips: HyperLogLog
    eto: MomentsSketch
    eto_quantiles: TDigest
    ata: MomentsSketch
    ata_quantiles: TDigest
    origins: SpaceSaving
    destinations: SpaceSaving
    transitions: SpaceSaving
    extras: dict[str, MomentsSketch]

    def __init__(self, config: SummaryConfig = DEFAULT_SUMMARY_CONFIG) -> None:
        self.config = config
        self.records = 0
        for attr, _, sketch_cls, knob in _SKETCH_FIELDS:
            setattr(
                self,
                attr,
                sketch_cls() if knob is None else sketch_cls(getattr(config, knob)),
            )
        self.extras = {name: MomentsSketch() for name in config.extra_names}

    def update(
        self,
        mmsi: int,
        sog: float,
        cog: float,
        heading: int | None,
        trip_id: str | None = None,
        eto_s: float | None = None,
        ata_s: float | None = None,
        origin: str | None = None,
        destination: str | None = None,
        next_cell: int | None = None,
        extras: tuple[float | None, ...] = (),
    ) -> None:
        """Fold one enriched position report into the summary.

        Trip-related arguments are ``None`` for records without trip
        semantics; heading is ``None`` when the transponder reported the
        511 'not available' sentinel.  ``extras`` values align with the
        config's ``extra_names`` (``None`` slots are skipped).
        """
        self.records += 1
        self.ships.update(mmsi)
        self.course.update(cog)
        self.course_bins.update(cog)
        if heading is not None:
            self.heading.update(float(heading))
            self.heading_bins.update(float(heading))
        self.speed.update(sog)
        self.speed_quantiles.update(sog)
        if trip_id is not None:
            self.trips.update(trip_id)
        if eto_s is not None:
            self.eto.update(eto_s)
            self.eto_quantiles.update(eto_s)
        if ata_s is not None:
            self.ata.update(ata_s)
            self.ata_quantiles.update(ata_s)
        if origin is not None:
            self.origins.update(origin)
        if destination is not None:
            self.destinations.update(destination)
        if next_cell is not None:
            self.transitions.update(next_cell)
        if extras:
            for name, value in zip(self.config.extra_names, extras):
                if value is not None:
                    self.extras[name].update(value)

    def merge(self, other: "CellSummary") -> "CellSummary":
        """Fold another summary in; returns self for reduce-style chaining."""
        self.records += other.records
        for attr in _SKETCH_ATTRS:
            getattr(self, attr).merge(getattr(other, attr))
        for name, sketch in other.extras.items():
            if name in self.extras:
                self.extras[name].merge(sketch)
            else:
                self.extras[name] = sketch
        return self

    # -- derived views ----------------------------------------------------------

    def mean_speed_kn(self) -> float | None:
        """Average speed over ground, or ``None`` for an empty summary."""
        return self.speed.mean if self.speed.count else None

    def mean_course_deg(self) -> float | None:
        """Circular mean course, or ``None`` when undefined."""
        return self.course.mean_deg

    def mean_ata_s(self) -> float | None:
        """Average actual-time-to-arrival in seconds (Figure 5's value)."""
        return self.ata.mean if self.ata.count else None

    def speed_percentiles(self) -> tuple[float, float, float] | None:
        """The paper's (p10, p50, p90) for speed."""
        if self.speed.count == 0:
            return None
        q = self.speed_quantiles.quantile
        return (q(0.10), q(0.50), q(0.90))

    def top_destination(self) -> str | None:
        """Most frequent destination (Figure 6's value)."""
        top = self.destinations.top(1)
        return top[0].value if top else None

    def top_transitions(self, n: int = 6) -> list[tuple[int, int]]:
        """Most frequent (next_cell, count) transitions."""
        return [(item.value, item.count) for item in self.transitions.top(n)]

    # -- the stored form ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialisable state (what :meth:`encode` stores; also JSON export)."""
        out = {"config": self.config.to_dict(), "records": self.records}
        for attr, key, _, _ in _SKETCH_FIELDS:
            out[key] = getattr(self, attr).to_dict()
        out["extras"] = {
            name: sketch.to_dict() for name, sketch in self.extras.items()
        }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CellSummary":
        """Reconstruct from :meth:`to_dict` output."""
        summary = cls.__new__(cls)
        summary.config = SummaryConfig.from_dict(data["config"])
        summary.records = int(data["records"])
        for attr, key, sketch_cls, _ in _SKETCH_FIELDS:
            setattr(summary, attr, sketch_cls.from_dict(data[key]))
        summary.extras = {
            name: MomentsSketch.from_dict(payload)
            for name, payload in data.get("extras", {}).items()
        }
        return summary

    def encode(self) -> bytes:
        """The stored bytes: the codec encoding of :meth:`to_dict` — what
        tables hold, what the server sends, what a flush writes."""
        return codec.encode(self.to_dict())

    @classmethod
    def decode(cls, raw: bytes) -> "CellSummary":
        """Inverse of :meth:`encode`.  Bytes that do not decode, or that
        decode to something other than a summary (a missing field, a
        wrong shape), raise :class:`~repro.inventory.codec.CodecError`."""
        try:
            return cls.from_dict(codec.decode(raw))  # type: ignore[arg-type]
        except codec.CodecError:
            raise
        except _SHAPE_ERRORS as exc:
            raise codec.CodecError(f"not a cell summary: {exc!r}") from exc
