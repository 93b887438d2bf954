"""The Patterns-of-Life pipeline: the paper's methodology (§3).

Stages, in the execution-flow order of Figure 3, each implemented as a
job over the :mod:`repro.engine` operator algebra:

1. **Cleaning & preprocessing** (§3.3.1, :mod:`repro.pipeline.cleaning`) —
   protocol range validation, per-vessel timestamp ordering,
   deduplication, the 50-knot transition-feasibility filter, static-data
   enrichment and the commercial-fleet filter.
2. **Trip semantics extraction** (§3.3.2, :mod:`repro.pipeline.trips`) —
   geofencing against the port database, trip segmentation between
   consecutive port stops, ETO/ATA annotation; unannotatable records are
   excluded.
3. **Projection to the spatial index** (§3.3.3,
   :mod:`repro.pipeline.projection`) — cell assignment at the configured
   resolution and per-trip cell-transition derivation.
4. **Feature extraction** (§3.3.4, :mod:`repro.pipeline.features`) —
   grouping-set fan-out (Table 2) and summary aggregation (Table 3) via
   ``combine_by_key`` over the :class:`~repro.inventory.summary.CellSummary`
   monoid.

:func:`repro.pipeline.run.build_inventory` chains all four and returns the
inventory plus the per-stage record funnel (Figure 2) and stage timings
(Figure 3).
"""

# Eager: every importer of the pipeline runs a build, which loads the
# port index anyway.
from repro.pipeline.geofence import PortIndex

__all__ = ["PortIndex"]
