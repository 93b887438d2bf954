"""A miniature MapReduce/RDD engine (the paper's Apache Spark substitute).

The methodology is explicitly MapReduce: the grouping set is the map
phase, the statistical summaries the reduce phase (§3.3.4).  This package
provides the operator algebra the pipeline code programs against, shaped
after Spark's RDD API so the jobs read like the originals:

- :class:`~repro.engine.context.Engine` — entry point: configuration
  (partition count, stage metrics) and dataset creation.
- :class:`~repro.engine.dataset.Dataset` — an immutable, partitioned,
  lazily-evaluated collection with narrow transformations (``map``,
  ``filter``, ``flat_map``, ``map_partitions``, ``map_batches``,
  ``map_values``) and shuffle transformations (``combine_by_key``,
  ``group_by_key``).
- :mod:`~repro.engine.partitioner` — the hash partitioner over a
  process-stable hash.
- :mod:`~repro.engine.shuffle` — the in-memory all-to-all exchange.
- :mod:`~repro.engine.metrics` — per-stage instrumentation used by the
  Figure 3 stage-timing benchmark.

Deliberate scope cuts versus Spark: partitions run one after another in
the caller's thread (on CPython, threads and forked workers measured no
faster on this job; see DESIGN.md), no lineage-based fault tolerance or
task retries, no disk spill, no SQL/catalyst layer, no broadcast
variables (closures capture small tables directly).
"""

import importlib
from typing import Any

# Resolved on first use (PEP 562), so importing one submodule does not
# load its siblings.
_EXPORTS = {
    "repro.engine.context": ("Engine", "EngineConfig"),
    "repro.engine.hashing": ("stable_hash",),
    "repro.engine.partitioner": ("HashPartitioner",),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
