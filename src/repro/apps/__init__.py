"""Use-case applications over the global inventory (§4.1).

- :mod:`repro.apps.render` — pictorial knowledge extraction: the per-cell
  feature rasters behind Figures 1, 4, 5 and 6 (PPM/PGM/ASCII output).
- :mod:`repro.apps.eta` — estimated time of arrival from the historical
  ATA statistics (§4.1.2), with a great-circle baseline for comparison.
- :mod:`repro.apps.destination` — streaming destination prediction by
  top-N voting along a live track (§4.1.3).
- :mod:`repro.apps.routing` — route forecasting: the per-route transition
  graph and an A* search over it (§4.1.3).
- :mod:`repro.apps.anomaly` — the model-of-normalcy outlier detector the
  introduction motivates (off-lane positions, abnormal speed/course).
"""

import importlib
from typing import Any

# Resolved on first use (PEP 562), so importing one submodule does not
# load its siblings.
_EXPORTS = {
    "repro.apps.render": (
        "COLORMAPS",
        "RasterGrid",
        "ascii_map",
        "raster_from_inventory",
        "write_pgm",
        "write_ppm",
    ),
    "repro.apps.eta": ("EtaEstimator", "great_circle_baseline_s"),
    "repro.apps.destination": ("DestinationPredictor",),
    "repro.apps.routing": ("RouteForecaster", "TransitionGraph", "astar"),
    "repro.apps.anomaly": ("AnomalyDetector",),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
