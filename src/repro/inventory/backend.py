"""Pluggable inventory backends: one query API, two storage engines.

"Stakeholders can retrieve the historical statistical summary for each
cell area … by querying for a specific location" (§1).  The paper's
serving story only works if those queries can be answered without first
materializing the whole inventory in memory.  This module makes the
query surface a *protocol* so the use-case apps and the CLI are agnostic
to where the summaries live:

- :class:`QueryableInventory` — the structural protocol every backend
  satisfies (point lookup, ``summary_at``, ``top_destinations_at``,
  ``route_cells``, ``cells``, ``items``, and the codec-bytes form
  ``get_encoded`` the server answers with);
- :class:`InventoryQueryMixin` — the shared position-query logic,
  expressed purely in terms of ``get`` + ``resolution`` so both backends
  answer identically by construction;
- :class:`SSTableInventory` — serves queries straight from a persisted
  table through an LRU :class:`BlockCache` (hit/miss/eviction counters in
  an :class:`~repro.engine.metrics.CounterSet`), using the table's
  route section so ``route_cells`` needs no full scan, and handing
  ``get_encoded`` the checksum-verified stored value inflated, without a
  decode;
- the in-memory :class:`~repro.inventory.store.Inventory` conforms by
  inheriting the mixin.

A point lookup through :class:`SSTableInventory` touches exactly one
data block (a cache miss) or zero bytes of disk (a hit) — the bounded
I/O behind the paper's "99.7 % fewer hits" claim, now measurable via the
cache counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterator
from pathlib import Path
from types import TracebackType
from typing import Protocol, runtime_checkable

from repro.engine.metrics import CounterSet
from repro.hexgrid import get_resolution, latlng_to_cell
from repro.inventory import sstable
from repro.inventory.keys import GroupKey
from repro.inventory.summary import CellSummary
from repro.obs import registry
from repro.obs import trace as obs

#: One disk-backed point lookup (find block, load via cache, scan entries).
SPAN_GET = registry.register_span(
    "inventory.get",
    "one disk-backed point lookup through the block cache "
    "(attrs: found; counter deltas: block_cache.hits / block_cache.misses)",
)


def check_breakdown(
    vessel_type: str | None, origin: str | None, destination: str | None
) -> None:
    """The pairing rules of a position query's breakdown: origin and
    destination come together, and only with a vessel type (no grouping
    set stores anything else).  Raises :class:`ValueError`."""
    if (origin is None) != (destination is None):
        raise ValueError("origin and destination must be provided together")
    if origin is not None and vessel_type is None:
        raise ValueError("route breakdowns require a vessel type")


@runtime_checkable
class QueryableInventory(Protocol):
    """What the use-case apps require of an inventory, regardless of
    whether it lives in memory or on disk."""

    resolution: int

    def get(self, key: GroupKey) -> CellSummary | None:
        """Exact-key point lookup."""
        ...

    def get_encoded(self, key: GroupKey) -> bytes | None:
        """Exact-key point lookup as the summary's codec bytes."""
        ...

    def summary_at(
        self,
        lat: float,
        lon: float,
        vessel_type: str | None = None,
        origin: str | None = None,
        destination: str | None = None,
    ) -> CellSummary | None:
        """The summary for the cell containing a position."""
        ...

    def top_destinations_at(
        self, lat: float, lon: float, vessel_type: str | None = None, n: int = 5
    ) -> list[tuple[str, int]]:
        """Most frequent historical destinations at a position."""
        ...

    def route_cells(
        self, origin: str, destination: str, vessel_type: str
    ) -> dict[int, CellSummary]:
        """All cells known for an (origin, destination, type) key."""
        ...

    def cells(self) -> set[int]:
        """Distinct cells present (over all grouping sets)."""
        ...

    def items(self) -> Iterator[tuple[GroupKey, CellSummary]]:
        """All (key, summary) pairs."""
        ...


class InventoryQueryMixin:
    """Position-query sugar shared by every backend.

    Everything here reduces to ``self.get`` and ``self.resolution``, so a
    backend that answers point lookups correctly answers the position
    queries correctly too — the cross-backend equivalence the tests
    assert is structural, not coincidental.
    """

    resolution: int

    def get(self, key: GroupKey) -> CellSummary | None:  # pragma: no cover
        """Exact-key point lookup (each backend provides its own)."""
        raise NotImplementedError

    def get_encoded(self, key: GroupKey) -> bytes | None:
        """Exact-key point lookup as the summary's stored bytes — what the
        server puts on the wire.  This default encodes :meth:`get`'s
        answer; a backend that already holds the bytes returns them
        instead."""
        summary = self.get(key)
        return None if summary is None else summary.encode()

    def summary_at(
        self,
        lat: float,
        lon: float,
        vessel_type: str | None = None,
        origin: str | None = None,
        destination: str | None = None,
    ) -> CellSummary | None:
        """The summary for the cell containing a position.

        Provide ``vessel_type`` for the per-market breakdown and both
        ``origin`` and ``destination`` for the per-route breakdown.
        """
        check_breakdown(vessel_type, origin, destination)
        return self.get(
            GroupKey(
                cell=latlng_to_cell(lat, lon, self.resolution),
                vessel_type=vessel_type,
                origin=origin,
                destination=destination,
            )
        )

    def top_destinations_at(
        self, lat: float, lon: float, vessel_type: str | None = None, n: int = 5
    ) -> list[tuple[str, int]]:
        """Most frequent historical destinations of vessels crossing the
        cell at a position: the destination-prediction primitive."""
        cell = latlng_to_cell(lat, lon, self.resolution)
        best: list[tuple[str, int]] = []
        if vessel_type is not None:
            summary = self.get(GroupKey(cell=cell, vessel_type=vessel_type))
            if summary is not None:
                best = [
                    (item.value, item.count)
                    for item in summary.destinations.top(n)
                ]
        if not best:
            summary = self.get(GroupKey(cell=cell))
            if summary is not None:
                best = [
                    (item.value, item.count)
                    for item in summary.destinations.top(n)
                ]
        return best


class _CachedBlock:
    """One verified data block, plus the values inflated from it so far.

    A repeated lookup of a key takes its inflated value from here instead
    of calling zlib again.  That matters beyond the ≈ 3 µs saved: every
    zlib call releases the GIL, and CPython only forces a GIL handoff to
    a waiting thread after its holder kept the GIL a whole switch
    interval (5 ms).  A reader thread that releases it on every lookup
    never triggers that, so a maintenance thread writing a table beside
    it could starve.
    """

    __slots__ = ("data", "inflated")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.inflated: dict[bytes, bytes] = {}


class BlockCache:
    """A tiny LRU cache of SSTable data blocks.

    Capacity is counted in blocks (≈ ``block_size`` bytes each, 4 KiB by
    default), so the memory ceiling is ``capacity × block_size`` plus the
    values inflated from the cached blocks (at most ≈ 4× the block
    bytes), regardless of table size.
    Hits, misses and evictions are surfaced through a
    :class:`~repro.engine.metrics.CounterSet` for benchmarks and tests.

    ``get``/``put`` are thread-safe: under the query server one cache is
    shared by every worker thread answering requests, and the LRU
    reordering (``move_to_end``) corrupts the ``OrderedDict`` if two
    threads interleave it.
    """

    HITS = registry.register_counter(
        "block_cache.hits",
        "point lookups answered from a cached SSTable block (zero disk I/O)",
    )
    MISSES = registry.register_counter(
        "block_cache.misses",
        "point lookups that had to read (and verify) a block from disk",
    )
    EVICTIONS = registry.register_counter(
        "block_cache.evictions",
        "cached blocks dropped because the LRU cache was at capacity",
    )

    def __init__(self, capacity: int = 64, counters: CounterSet | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.counters = counters if counters is not None else CounterSet()
        self._blocks: OrderedDict[int, _CachedBlock] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, block_index: int) -> _CachedBlock | None:
        """The cached block, refreshed to most-recently-used, or ``None``."""
        with self._lock:
            block = self._blocks.get(block_index)
            if block is not None:
                self._blocks.move_to_end(block_index)
        if block is None:
            self.counters.increment(self.MISSES)
            return None
        self.counters.increment(self.HITS)
        return block

    def put(self, block_index: int, block: _CachedBlock) -> None:
        """Insert a block, evicting the least recently used at capacity."""
        evictions = 0
        with self._lock:
            self._blocks[block_index] = block
            self._blocks.move_to_end(block_index)
            while len(self._blocks) > self.capacity:
                self._blocks.popitem(last=False)
                evictions += 1
        if evictions:
            self.counters.increment(self.EVICTIONS, evictions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    @property
    def hits(self) -> int:
        """Lookups answered from cache so far."""
        return self.counters.value(self.HITS)

    @property
    def misses(self) -> int:
        """Lookups that went to disk so far."""
        return self.counters.value(self.MISSES)

    @property
    def evictions(self) -> int:
        """Blocks evicted by the LRU policy so far."""
        return self.counters.value(self.EVICTIONS)

    def clear(self) -> None:
        """Drop every cached block (counters are preserved)."""
        with self._lock:
            self._blocks.clear()


class SSTableInventory(InventoryQueryMixin):
    """A read-only inventory served directly from a persisted table.

    Point lookups touch at most one data block, route lookups go through
    the table's route section (read on the first ``route_cells``; damage
    there is a :class:`~repro.inventory.sstable.CorruptionError` from
    every ``route_cells`` call, never a rescan), and repeated access to
    hot blocks is absorbed by the LRU :class:`BlockCache`.  Nothing here
    ever materializes the full store.
    """

    def __init__(
        self,
        path: str | Path,
        resolution: int | None = None,
        cache_blocks: int = 64,
        counters: CounterSet | None = None,
    ) -> None:
        """
        :param path: a table written by :class:`SSTableWriter` /
            :func:`write_inventory` / :func:`merge_tables`.
        :param resolution: the grid resolution; inferred from the table's
            first key when omitted (cell ids encode their resolution).
        :param cache_blocks: block-cache capacity, in blocks.
        :param counters: an external :class:`CounterSet` to share cache
            counters with (a fresh one otherwise).
        """
        self._path = Path(path)
        self._reader = sstable.SSTableReader(path)
        self.cache = BlockCache(cache_blocks, counters)
        self._route_index: dict[tuple[str, str, str], set[int]] | None = None
        self._route_lock = threading.Lock()
        if resolution is None:
            try:
                resolution = self._infer_resolution()
            except BaseException:
                self._reader.close()  # no one else can: the caller gets no object
                raise
        self.resolution = resolution

    # -- lifecycle -----------------------------------------------------------------

    @property
    def path(self) -> Path:
        """The table file being served."""
        return self._path

    @property
    def reader(self) -> sstable.SSTableReader:
        """The underlying table reader (for format-level introspection)."""
        return self._reader

    def close(self) -> None:
        """Release the table file handle."""
        self._reader.close()

    def __enter__(self) -> "SSTableInventory":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def cache_stats(self) -> dict[str, int]:
        """Current block-cache counters (hits, misses, evictions)."""
        return self.cache.counters.as_dict()

    # -- inspection ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._reader.entry_count

    def __contains__(self, key: GroupKey) -> bool:
        return self._lookup(key) is not None

    def items(self) -> Iterator[tuple[GroupKey, CellSummary]]:
        """All (key, summary) pairs in key order.

        Full scans bypass the block cache on purpose: one pass over a
        large table must not evict the hot blocks point lookups rely on.
        """
        return self._reader.scan()

    def cells(self) -> set[int]:
        """Distinct cells present (one full key scan; answers that need
        to stay cheap should come from point or route lookups)."""
        return {key.cell for key, _ in self.items()}

    # -- queries -------------------------------------------------------------------

    def get(self, key: GroupKey) -> CellSummary | None:
        """Point lookup through the block cache: at most one block read."""
        found = self._lookup(key)
        if found is None:
            return None
        raw, block_index = found
        return sstable._decode_summary(raw, self._path, block_index)

    def get_encoded(self, key: GroupKey) -> bytes | None:
        """Point lookup as the summary's encoded bytes
        (:meth:`CellSummary.encode`): one inflate of the stored value, no
        codec work (the block checksum was verified when the block was
        read)."""
        found = self._lookup(key)
        return None if found is None else found[0]

    def route_cells(
        self, origin: str, destination: str, vessel_type: str
    ) -> dict[int, CellSummary]:
        """All cells for which the (origin, destination, type) key exists,
        resolved via the table's route section + cached point lookups."""
        if self._route_index is None:
            with self._route_lock:
                if self._route_index is None:
                    self._route_index = self._reader.read_routes()
        cells = self._route_index.get((origin, destination, vessel_type), set())
        result = {}
        for cell in sorted(cells):
            summary = self.get(
                GroupKey(
                    cell=cell,
                    vessel_type=vessel_type,
                    origin=origin,
                    destination=destination,
                )
            )
            if summary is not None:
                result[cell] = summary
        return result

    # -- internals -----------------------------------------------------------------

    def _lookup(self, key: GroupKey) -> tuple[bytes, int] | None:
        """The raw point lookup behind :meth:`get` and
        :meth:`get_encoded`: find the block, load it through the cache,
        scan its entries, inflate the value (once per cached block).
        Returns (encoded summary bytes, block index)."""
        with obs.span(SPAN_GET) as sp:
            key_raw = sstable._key_bytes(key)
            block_index = self._reader.find_block(key_raw)
            if block_index is not None:
                block = self._load_block(block_index, sp)
                raw = block.inflated.get(key_raw)
                if raw is None:
                    for entry_key, stored in self._reader.parse_entries(block.data):
                        if entry_key == key_raw:
                            raw = sstable._inflate(stored, self._path, block_index)
                            block.inflated[key_raw] = raw
                            break
                        if entry_key > key_raw:
                            break
                if raw is not None:
                    sp.set("found", True)
                    return raw, block_index
            sp.set("found", False)
            return None

    def _load_block(
        self, block_index: int, sp: obs.SpanLike = obs.NOOP_SPAN
    ) -> _CachedBlock:
        block = self.cache.get(block_index)
        if block is None:
            sp.add(BlockCache.MISSES)
            block = _CachedBlock(self._reader.read_block(block_index))
            self.cache.put(block_index, block)
        else:
            sp.add(BlockCache.HITS)
        return block

    def _infer_resolution(self) -> int:
        for key, _ in self.items():
            return get_resolution(key.cell)
        raise ValueError(
            f"cannot infer the resolution of an empty table {self._path}; "
            "pass resolution= explicitly"
        )


def open_backend(
    path: str | Path,
    resolution: int | None = None,
    cache_blocks: int = 64,
) -> SSTableInventory:
    """Open a persisted table as a servable :class:`QueryableInventory`."""
    return SSTableInventory(path, resolution=resolution, cache_blocks=cache_blocks)
