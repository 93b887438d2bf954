"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hexgrid import MAX_RESOLUTION
from repro.inventory.summary import SummaryConfig
from repro.pipeline.extras import ExtraFeature


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the methodology.

    Defaults follow the paper: H3-equivalent resolution 6, the 50-knot
    feasibility threshold, commercial vessels above 5000 GRT only.
    """

    resolution: int = 6
    max_transition_speed_kn: float = 50.0
    #: In-geofence records slower than this are port stops; faster ones
    #: are transits and stay part of the trip (§3.3.2).
    stop_speed_kn: float = 2.0
    min_grt: int = 5_000
    commercial_only: bool = True
    #: Trace the lattice line between non-adjacent consecutive cells so
    #: transition counts stay neighbor-to-neighbor even when the reporting
    #: interval spans several cells.
    densify_transitions: bool = False
    #: Resolution of the geofence port index (coarser than the analysis
    #: resolution; only used for candidate lookup).
    geofence_index_resolution: int = 5
    summary: SummaryConfig = field(default_factory=SummaryConfig)
    #: Fused non-AIS features (§5 future work), e.g.
    #: :func:`repro.pipeline.extras.wind_features`.
    extra_features: tuple[ExtraFeature, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.resolution <= MAX_RESOLUTION:
            raise ValueError(f"resolution out of range: {self.resolution}")
        if self.max_transition_speed_kn <= 0.0:
            raise ValueError("feasibility threshold must be positive")

    @property
    def effective_summary(self) -> SummaryConfig:
        """The summary config with the extra-feature names wired in."""
        names = tuple(feature.name for feature in self.extra_features)
        if names == self.summary.extra_names:
            return self.summary
        from dataclasses import replace

        return replace(self.summary, extra_names=names)
