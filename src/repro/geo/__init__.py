"""Geodesy primitives shared by every other subsystem.

The maritime pipeline constantly converts between positions, distances,
bearings and tracks.  This package implements those primitives on a
spherical earth model (sufficient for AIS analytics, where positional noise
dwarfs the ellipsoidal correction):

- :mod:`repro.geo.distance` — haversine distances, initial bearings,
  destination points and cross-track errors.
- :mod:`repro.geo.greatcircle` — great-circle interpolation and sampling,
  used by the voyage simulator to lay tracks between waypoints.
- :mod:`repro.geo.circular` — statistics on angular quantities (course,
  heading), where the arithmetic mean of 359° and 1° must be 0°, not 180°.
- :mod:`repro.geo.polygon` — point-in-polygon and bounding-box tests used
  by the port geofencing stage.
"""

import importlib
from typing import Any

# Resolved on first use (PEP 562), so importing one submodule does not
# load its siblings.
_EXPORTS = {
    "repro.geo.constants": ("EARTH_RADIUS_M",),
    "repro.geo.distance": (
        "cross_track_distance_m",
        "destination_point",
        "haversine_m",
        "haversine_nm",
        "initial_bearing_deg",
        "speed_between_knots",
    ),
    "repro.geo.greatcircle": ("interpolate", "sample_track", "track_length_m"),
    "repro.geo.circular": (
        "angular_difference_deg",
        "circular_mean_deg",
        "circular_std_deg",
        "normalize_deg",
    ),
    "repro.geo.polygon": ("BoundingBox", "point_in_polygon", "polygon_bbox"),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
