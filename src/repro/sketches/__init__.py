"""Mergeable one-pass statistical summaries (the reduce phase's algebra).

Table 3 of the paper assigns each mobility feature a set of statistics:
counts, distinct counts, means, standard deviations, approximate
percentiles, fixed-width bins and top-N frequent values.  The methodology
computes them with MapReduce, which imposes one algebraic requirement on
every statistic: it must be a *commutative monoid* — updatable one record
at a time, mergeable across partitions in any order, with an identity
(the empty sketch).

Every class here satisfies that contract (``update`` / ``merge`` /
``to_dict`` / ``from_dict``), and the property-based tests verify
merge-associativity and split-merge consistency:

- :class:`~repro.sketches.moments.MomentsSketch` — count/mean/std/min/max
  via Welford's method with Chan's parallel merge.
- :class:`~repro.sketches.circular.CircularMoments` — circular mean and
  dispersion for course/heading (the asterisked means of Table 3).
- :class:`~repro.sketches.tdigest.TDigest` — approximate percentiles
  (the paper's 10th/50th/90th) via the merging t-digest.
- :class:`~repro.sketches.gk.GKQuantiles` — Greenwald–Khanna quantiles,
  the classic deterministic-error alternative, kept for the sketch
  ablation benchmark.
- :class:`~repro.sketches.hyperloglog.HyperLogLog` — distinct counts
  (ships, trips).
- :class:`~repro.sketches.spacesaving.SpaceSaving` — top-N frequent values
  (origins, destinations, cell transitions).
- :class:`~repro.sketches.histogram.DirectionHistogram` — the 30° course/
  heading bins.
"""

import importlib
from typing import Any

# Resolved on first use (PEP 562), so importing one submodule does not
# load its siblings.
_EXPORTS = {
    "repro.sketches.moments": ("MomentsSketch",),
    "repro.sketches.circular": ("CircularMoments",),
    "repro.sketches.tdigest": ("TDigest",),
    "repro.sketches.gk": ("GKQuantiles",),
    "repro.sketches.hyperloglog": ("HyperLogLog",),
    "repro.sketches.spacesaving": ("SpaceSaving",),
    "repro.sketches.histogram": ("DirectionHistogram",),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
