"""Patterns of Life: a global inventory of maritime mobility patterns.

A faithful, self-contained reproduction of *"Patterns of Life: Global
Inventory for maritime mobility patterns"* (Spiliopoulos et al., EDBT
2024): a pipeline that compresses AIS vessel-tracking archives into a
queryable inventory of per-hexagonal-cell statistical summaries, plus the
use cases the paper builds on it (ETA estimation, destination prediction,
route forecasting, anomaly detection).

Quickstart::

    from repro import generate_dataset, build_inventory, WorldConfig

    data = generate_dataset(WorldConfig(n_vessels=30, days=14))
    result = build_inventory(data.positions, data.fleet, data.ports)
    summary = result.inventory.summary_at(51.9, 3.9)   # off Rotterdam
    print(summary.mean_speed_kn(), summary.top_destination())

Subsystems (each documented in its own subpackage):

- :mod:`repro.geo` — geodesy and circular statistics
- :mod:`repro.hexgrid` — hierarchical hexagonal global grid (H3 substitute)
- :mod:`repro.ais` — AIS protocol: messages, NMEA codec, validation
- :mod:`repro.sketches` — mergeable statistical summaries
- :mod:`repro.engine` — mini map-reduce engine (Spark substitute)
- :mod:`repro.world` — synthetic maritime world and AIS simulator
- :mod:`repro.pipeline` — the paper's methodology
- :mod:`repro.inventory` — the global inventory and its on-disk format
- :mod:`repro.apps` — the use-case applications
"""

import importlib
from typing import Any

__version__ = "1.0.0"

# Resolved on first use (PEP 562): ``import repro.cli`` loads this package
# and must not load the simulator or the pipeline with it.
_EXPORTS = {
    "repro.world.dataset": ("WorldConfig", "generate_dataset"),
    "repro.pipeline.config": ("PipelineConfig",),
    "repro.pipeline.run": ("build_inventory",),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
