"""The global inventory: the paper's primary artefact.

An inventory maps *group identifiers* (Table 2: cell / cell+type /
cell+origin+destination+type) to *cell summaries* (Table 3: the per-group
statistical sketches).  This package provides:

- :mod:`repro.inventory.keys` — grouping sets and group-identifier keys.
- :mod:`repro.inventory.summary` — :class:`CellSummary`, the mergeable
  product of sketches that a reduce builds per group.
- :mod:`repro.inventory.backend` — the :class:`QueryableInventory`
  protocol the apps consume, the LRU block cache, and the
  :class:`SSTableInventory` backend that serves queries straight from a
  persisted table.
- :mod:`repro.inventory.store` — the in-memory inventory with the query
  API the use cases consume (point lookups, top destinations, transition
  sets per route key).
- :mod:`repro.inventory.codec` — a compact self-describing binary codec
  for summary payloads.
- :mod:`repro.inventory.sstable` — the on-disk format: sorted key blocks
  with a sparse index, giving point lookups without scanning, which is
  what the paper's "99.7 % fewer hits" claim is about.
- :mod:`repro.inventory.compaction` — the k-way table merge behind
  ``repro compact`` and windowed builds, and the size-tiered policy the
  live path compacts with.
- :mod:`repro.inventory.wal`, :mod:`repro.inventory.memtable`,
  :mod:`repro.inventory.live` — the live write path: a checksummed
  write-ahead log, the in-memory memtable it protects, and the
  :class:`LiveInventory` LSM backend that serves snapshot-isolated
  queries while absorbing a feed.
"""

import importlib
from typing import Any

# Resolved on first use (PEP 562), so a process that only reads tables does
# not load the live write path (WAL, memtable, maintenance) with them.
_EXPORTS = {
    "repro.inventory.keys": ("GroupKey", "GroupingSet"),
    "repro.inventory.backend": (
        "BlockCache",
        "QueryableInventory",
        "SSTableInventory",
        "open_backend",
    ),
    "repro.inventory.store": ("Inventory",),
    "repro.inventory.sstable": (
        "CorruptionError",
        "SSTableError",
        "SSTableReader",
        "SSTableWriter",
        "open_inventory",
        "verify_table",
        "write_inventory",
    ),
    "repro.inventory.compaction": ("merge_tables",),
    "repro.inventory.memtable": ("IngestRecord", "Memtable"),
    "repro.inventory.wal": ("WalWriter",),
    "repro.inventory.live": ("LiveInventory",),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
