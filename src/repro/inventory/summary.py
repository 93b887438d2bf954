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


DEFAULT_SUMMARY_CONFIG = SummaryConfig()


class CellSummary:
    """Mergeable per-group statistics (one row of the global inventory)."""

    __slots__ = (
        "config",
        "records",
        "ships",
        "course",
        "course_bins",
        "heading",
        "heading_bins",
        "speed",
        "speed_quantiles",
        "trips",
        "eto",
        "eto_quantiles",
        "ata",
        "ata_quantiles",
        "origins",
        "destinations",
        "transitions",
        "extras",
    )

    def __init__(self, config: SummaryConfig = DEFAULT_SUMMARY_CONFIG) -> None:
        self.config = config
        self.records = 0
        self.ships = HyperLogLog(config.hll_precision)
        self.course = CircularMoments()
        self.course_bins = DirectionHistogram(config.direction_bin_deg)
        self.heading = CircularMoments()
        self.heading_bins = DirectionHistogram(config.direction_bin_deg)
        self.speed = MomentsSketch()
        self.speed_quantiles = TDigest(config.tdigest_compression)
        self.trips = HyperLogLog(config.hll_precision)
        self.eto = MomentsSketch()
        self.eto_quantiles = TDigest(config.tdigest_compression)
        self.ata = MomentsSketch()
        self.ata_quantiles = TDigest(config.tdigest_compression)
        self.origins = SpaceSaving(config.topn_capacity)
        self.destinations = SpaceSaving(config.topn_capacity)
        self.transitions = SpaceSaving(config.topn_capacity)
        self.extras: dict[str, MomentsSketch] = {
            name: MomentsSketch() for name in config.extra_names
        }

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
        self.ships.merge(other.ships)
        self.course.merge(other.course)
        self.course_bins.merge(other.course_bins)
        self.heading.merge(other.heading)
        self.heading_bins.merge(other.heading_bins)
        self.speed.merge(other.speed)
        self.speed_quantiles.merge(other.speed_quantiles)
        self.trips.merge(other.trips)
        self.eto.merge(other.eto)
        self.eto_quantiles.merge(other.eto_quantiles)
        self.ata.merge(other.ata)
        self.ata_quantiles.merge(other.ata_quantiles)
        self.origins.merge(other.origins)
        self.destinations.merge(other.destinations)
        self.transitions.merge(other.transitions)
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

    def to_dict(self) -> dict:
        """Serialisable state (used by the binary codec and JSON export)."""
        return {
            "config": {
                "hll": self.config.hll_precision,
                "td": self.config.tdigest_compression,
                "topn": self.config.topn_capacity,
                "bin": self.config.direction_bin_deg,
                "extra_names": list(self.config.extra_names),
            },
            "records": self.records,
            "ships": self.ships.to_dict(),
            "course": self.course.to_dict(),
            "course_bins": self.course_bins.to_dict(),
            "heading": self.heading.to_dict(),
            "heading_bins": self.heading_bins.to_dict(),
            "speed": self.speed.to_dict(),
            "speed_q": self.speed_quantiles.to_dict(),
            "trips": self.trips.to_dict(),
            "eto": self.eto.to_dict(),
            "eto_q": self.eto_quantiles.to_dict(),
            "ata": self.ata.to_dict(),
            "ata_q": self.ata_quantiles.to_dict(),
            "origins": self.origins.to_dict(),
            "destinations": self.destinations.to_dict(),
            "transitions": self.transitions.to_dict(),
            "extras": {
                name: sketch.to_dict() for name, sketch in self.extras.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellSummary":
        """Reconstruct from :meth:`to_dict` output."""
        cfg = data["config"]
        summary = cls(
            SummaryConfig(
                hll_precision=int(cfg["hll"]),
                tdigest_compression=float(cfg["td"]),
                topn_capacity=int(cfg["topn"]),
                direction_bin_deg=float(cfg["bin"]),
                extra_names=tuple(cfg.get("extra_names", ())),
            )
        )
        summary.records = int(data["records"])
        summary.ships = HyperLogLog.from_dict(data["ships"])
        summary.course = CircularMoments.from_dict(data["course"])
        summary.course_bins = DirectionHistogram.from_dict(data["course_bins"])
        summary.heading = CircularMoments.from_dict(data["heading"])
        summary.heading_bins = DirectionHistogram.from_dict(data["heading_bins"])
        summary.speed = MomentsSketch.from_dict(data["speed"])
        summary.speed_quantiles = TDigest.from_dict(data["speed_q"])
        summary.trips = HyperLogLog.from_dict(data["trips"])
        summary.eto = MomentsSketch.from_dict(data["eto"])
        summary.eto_quantiles = TDigest.from_dict(data["eto_q"])
        summary.ata = MomentsSketch.from_dict(data["ata"])
        summary.ata_quantiles = TDigest.from_dict(data["ata_q"])
        summary.origins = SpaceSaving.from_dict(data["origins"])
        summary.destinations = SpaceSaving.from_dict(data["destinations"])
        summary.transitions = SpaceSaving.from_dict(data["transitions"])
        summary.extras = {
            name: MomentsSketch.from_dict(payload)
            for name, payload in data.get("extras", {}).items()
        }
        return summary
