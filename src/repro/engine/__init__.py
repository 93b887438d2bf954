"""A miniature MapReduce/RDD engine (the paper's Apache Spark substitute).

The methodology is explicitly MapReduce: the grouping set is the map
phase, the statistical summaries the reduce phase (§3.3.4).  This package
provides the operator algebra the pipeline code programs against, shaped
after Spark's RDD API so the jobs read like the originals:

- :class:`~repro.engine.context.Engine` — entry point: configuration
  (partition count, scheduler, spill directory) and dataset creation.
- :class:`~repro.engine.dataset.Dataset` — an immutable, partitioned,
  lazily-evaluated collection with narrow transformations (``map``,
  ``filter``, ``flat_map``, ``map_partitions``) and shuffle
  transformations (``reduce_by_key``, ``combine_by_key``,
  ``group_by_key``, ``join``, ``sort_by``, ``distinct``,
  ``repartition``).
- :mod:`~repro.engine.partitioner` — hash and range partitioners over a
  process-stable hash.
- :mod:`~repro.engine.shuffle` — the all-to-all exchange, with optional
  disk spill for outsize buckets.
- :mod:`~repro.engine.scheduler` — serial, thread-pool and process-pool
  execution backends.
- :mod:`~repro.engine.metrics` — per-stage instrumentation used by the
  Figure 3 stage-timing benchmark.

Deliberate scope cuts versus Spark: no lineage-based fault tolerance (a
single host has nothing to recover from), no SQL/catalyst layer, no
broadcast variables (closures capture small tables directly).
"""

import importlib
from typing import Any

# Resolved on first use (PEP 562), so importing one submodule does not
# load its siblings.
_EXPORTS = {
    "repro.engine.context": ("Engine", "EngineConfig"),
    "repro.engine.hashing": ("stable_hash",),
    "repro.engine.partitioner": ("HashPartitioner", "RangePartitioner"),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
