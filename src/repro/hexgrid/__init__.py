"""A hierarchical hexagonal discrete global grid (the paper's H3 substitute).

The paper indexes every AIS report with Uber's H3.  This package provides a
from-scratch grid with the same contract the paper demands of its spatial
index (§3.2.1):

1. **Global** — every (lat, lon) maps to exactly one cell at each
   resolution 0–15.
2. **Approximately equal-area** — cells are hexagons laid on a Lambert
   cylindrical *equal-area* projection, so every cell at a resolution has
   *exactly* the same geodesic area (better than H3, whose areas vary ±60 %).
3. **Hexagonal neighborhood** — every cell has exactly six neighbors at one
   fixed center distance (H3 has twelve pentagons; we have none).
4. **Hierarchical** — aperture-7 parent/child relation with the classical
   ≈19.107° inter-resolution lattice rotation, exactly like H3's.

Known deviations from true H3, documented in DESIGN.md: cell *shapes*
distort toward the poles (the projection preserves area, not conformality),
and there is a lattice seam at the antimeridian where neighbor topology is
cut.  Neither affects aggregation semantics: indexing is still a pure
function of position.

Cell ids are 64-bit integers packing (resolution, axial q, axial r); use
:func:`cell_to_string` for the canonical 15-hex-digit text form.
"""

# Eager: every importer of the grid maps positions to cells, so ``grid``
# (which loads the rest of the package) is loaded anyway.
from repro.hexgrid.cellid import (
    MAX_RESOLUTION,
    cell_to_string,
    get_resolution,
    is_valid_cell,
    pack_cell,
    string_to_cell,
    unpack_cell,
)
from repro.hexgrid.lattice import (
    cell_area_km2,
    cell_edge_length_km,
    cells_count,
)
from repro.hexgrid.grid import (
    are_neighbor_cells,
    cell_to_boundary,
    cell_to_center_child,
    cell_to_children,
    cell_to_latlng,
    cell_to_parent,
    grid_disk,
    grid_distance,
    grid_path_cells,
    grid_ring,
    latlng_to_cell,
)

__all__ = [
    "MAX_RESOLUTION",
    "pack_cell",
    "unpack_cell",
    "get_resolution",
    "is_valid_cell",
    "cell_to_string",
    "string_to_cell",
    "cell_area_km2",
    "cell_edge_length_km",
    "cells_count",
    "latlng_to_cell",
    "cell_to_latlng",
    "cell_to_boundary",
    "cell_to_parent",
    "cell_to_children",
    "cell_to_center_child",
    "grid_disk",
    "grid_ring",
    "grid_distance",
    "grid_path_cells",
    "are_neighbor_cells",
]
