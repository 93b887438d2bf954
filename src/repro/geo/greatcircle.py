"""Great-circle track interpolation and sampling.

The voyage simulator lays each leg of a route as a great circle between
consecutive waypoints and samples positions along it at the AIS reporting
cadence.  Interpolation uses spherical linear interpolation (slerp) on the
unit sphere, which is exact for great circles.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.geo.distance import haversine_m


def _to_vector(lat: float, lon: float) -> tuple[float, float, float]:
    phi = math.radians(lat)
    lmb = math.radians(lon)
    return (
        math.cos(phi) * math.cos(lmb),
        math.cos(phi) * math.sin(lmb),
        math.sin(phi),
    )


def _to_latlon(x: float, y: float, z: float) -> tuple[float, float]:
    hyp = math.hypot(x, y)
    lat = math.degrees(math.atan2(z, hyp))
    lon = math.degrees(math.atan2(y, x))
    return lat, lon


def interpolate(
    lat1: float, lon1: float, lat2: float, lon2: float, fraction: float
) -> tuple[float, float]:
    """Point a given fraction of the way along the great circle from 1 to 2.

    ``fraction`` is clamped to [0, 1].  Antipodal endpoints (where the great
    circle is ambiguous) fall back to the starting point for fraction < 0.5
    and the end point otherwise — the simulator never generates such legs,
    but the function must not produce NaNs for arbitrary inputs.
    """
    fraction = min(1.0, max(0.0, fraction))
    v1 = _to_vector(lat1, lon1)
    v2 = _to_vector(lat2, lon2)
    dot = sum(a * b for a, b in zip(v1, v2))
    dot = min(1.0, max(-1.0, dot))
    omega = math.acos(dot)
    if omega < 1e-12:
        return lat1, lon1
    sin_omega = math.sin(omega)
    if sin_omega < 1e-12:
        return (lat1, lon1) if fraction < 0.5 else (lat2, lon2)
    w1 = math.sin((1.0 - fraction) * omega) / sin_omega
    w2 = math.sin(fraction * omega) / sin_omega
    vec = tuple(w1 * a + w2 * b for a, b in zip(v1, v2))
    return _to_latlon(*vec)


def sample_track(
    lat1: float,
    lon1: float,
    lat2: float,
    lon2: float,
    spacing_m: float,
    include_end: bool = True,
) -> list[tuple[float, float]]:
    """Sample points every ``spacing_m`` along the great circle from 1 to 2.

    Always includes the start point; includes the exact end point when
    ``include_end`` is true.  ``spacing_m`` must be positive.
    """
    if spacing_m <= 0.0:
        raise ValueError(f"spacing_m must be positive, got {spacing_m}")
    total = haversine_m(lat1, lon1, lat2, lon2)
    points = [(lat1, lon1)]
    if total == 0.0:
        return points
    steps = int(total // spacing_m)
    for i in range(1, steps + 1):
        frac = (i * spacing_m) / total
        if frac >= 1.0:
            break
        points.append(interpolate(lat1, lon1, lat2, lon2, frac))
    if include_end:
        points.append((lat2, lon2))
    return points


def track_length_m(waypoints: Sequence[tuple[float, float]]) -> float:
    """Total great-circle length of a polyline of (lat, lon) waypoints."""
    total = 0.0
    for (lat1, lon1), (lat2, lon2) in zip(waypoints, waypoints[1:]):
        total += haversine_m(lat1, lon1, lat2, lon2)
    return total
