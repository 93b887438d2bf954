"""Integer axial-coordinate hexagon mathematics.

Pure lattice geometry with no knowledge of resolutions or the earth: cells
are pointy-top hexagons addressed by axial coordinates ``(q, r)``.  The
conversion to plane metres (with per-resolution scale and rotation) lives
in :mod:`repro.hexgrid.lattice`.

Conventions (Red Blob Games axial system, pointy-top):

- basis vectors: ``q`` steps east, ``r`` steps south-east;
- cube coordinates satisfy ``x + y + z = 0`` with ``x=q, z=r, y=−q−r``;
- the six neighbor directions are fixed in :data:`AXIAL_DIRECTIONS`.
"""

from __future__ import annotations

import math

#: The six axial direction vectors, counter-clockwise starting east.
AXIAL_DIRECTIONS: tuple[tuple[int, int], ...] = (
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
)

#: sqrt(3), the center-to-center distance of adjacent hexes in units of
#: circumradius.
SQRT3 = math.sqrt(3.0)


def axial_to_plane(q: float, r: float, size: float) -> tuple[float, float]:
    """Axial (possibly fractional) coordinates to unrotated plane coords.

    ``size`` is the hexagon circumradius (center-to-vertex distance).
    """
    x = size * (SQRT3 * q + SQRT3 / 2.0 * r)
    y = size * (1.5 * r)
    return x, y


def plane_to_axial(x: float, y: float, size: float) -> tuple[float, float]:
    """Unrotated plane coordinates to fractional axial coordinates."""
    q = (SQRT3 / 3.0 * x - 1.0 / 3.0 * y) / size
    r = (2.0 / 3.0 * y) / size
    return q, r


def axial_round(q: float, r: float) -> tuple[int, int]:
    """Round fractional axial coordinates to the containing cell.

    Standard cube rounding: round each cube coordinate and fix the one with
    the largest rounding error so that x+y+z stays zero.
    """
    x, z = q, r
    y = -x - z
    rx, ry, rz = round(x), round(y), round(z)
    dx, dy, dz = abs(rx - x), abs(ry - y), abs(rz - z)
    if dx > dy and dx > dz:
        rx = -ry - rz
    elif dy > dz:
        ry = -rx - rz
    else:
        rz = -rx - ry
    return int(rx), int(rz)


def hex_distance(q1: int, r1: int, q2: int, r2: int) -> int:
    """Grid distance (minimum number of neighbor steps) between two cells."""
    dq = q1 - q2
    dr = r1 - r2
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


def hex_neighbors(q: int, r: int) -> list[tuple[int, int]]:
    """The six adjacent cells, counter-clockwise starting east."""
    return [(q + dq, r + dr) for dq, dr in AXIAL_DIRECTIONS]


def hex_ring(q: int, r: int, k: int) -> list[tuple[int, int]]:
    """Cells at exactly grid distance ``k`` (the k-th ring).

    ``k == 0`` yields the cell itself.  Raises on negative ``k``.
    """
    if k < 0:
        raise ValueError(f"ring radius must be non-negative, got {k}")
    if k == 0:
        return [(q, r)]
    results: list[tuple[int, int]] = []
    # Start k steps in direction 4 (south-west) and walk the hexagonal ring.
    cq = q + AXIAL_DIRECTIONS[4][0] * k
    cr = r + AXIAL_DIRECTIONS[4][1] * k
    for side in range(6):
        for _ in range(k):
            results.append((cq, cr))
            cq += AXIAL_DIRECTIONS[side][0]
            cr += AXIAL_DIRECTIONS[side][1]
    return results


def hex_disk(q: int, r: int, k: int) -> list[tuple[int, int]]:
    """All cells within grid distance ``k``, center first, ring by ring."""
    if k < 0:
        raise ValueError(f"disk radius must be non-negative, got {k}")
    results: list[tuple[int, int]] = []
    for ring in range(k + 1):
        results.extend(hex_ring(q, r, ring))
    return results


def hex_line(q1: int, r1: int, q2: int, r2: int) -> list[tuple[int, int]]:
    """Cells on the straight lattice line between two cells, inclusive.

    Linear interpolation in cube space with rounding; the classic hex
    line-drawing algorithm.  Consecutive results are always neighbors.
    """
    n = hex_distance(q1, r1, q2, r2)
    if n == 0:
        return [(q1, r1)]
    # Nudge endpoints slightly to break ties deterministically when the
    # line passes exactly through a cell corner.
    eps = 1e-6
    aq, ar = q1 + eps, r1 + 2 * eps
    bq, br = q2 + eps, r2 + 2 * eps
    line: list[tuple[int, int]] = []
    for i in range(n + 1):
        t = i / n
        fq = aq + (bq - aq) * t
        fr = ar + (br - ar) * t
        line.append(axial_round(fq, fr))
    return line


def hex_corners(q: int, r: int, size: float) -> list[tuple[float, float]]:
    """The six vertices of a pointy-top hexagon in unrotated plane coords."""
    cx, cy = axial_to_plane(q, r, size)
    corners = []
    for i in range(6):
        angle = math.radians(60.0 * i - 30.0)
        corners.append((cx + size * math.cos(angle), cy + size * math.sin(angle)))
    return corners


def point_in_hex(px: float, py: float, q: int, r: int, size: float) -> bool:
    """Whether an unrotated plane point falls in a cell, via cube rounding."""
    fq, fr = plane_to_axial(px, py, size)
    return axial_round(fq, fr) == (q, r)
