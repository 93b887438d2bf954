"""Tests for the pluggable inventory backends.

The load-bearing properties:

- the raw-byte key encoding orders exactly like ``GroupKey.sort_key``
  (the sparse index's binary search silently corrupts lookups if these
  ever diverge) — pinned by a hypothesis property test;
- :class:`SSTableInventory` answers ``summary_at`` /
  ``top_destinations_at`` / ``route_cells`` identically to the in-memory
  :class:`Inventory` on the same build;
- a point lookup reads a bounded number of blocks (block-cache miss
  counters), and the LRU evicts at capacity;
- the route index is a section inside the table: damage there is a typed
  error from ``route_cells`` and ``verify_table`` while point lookups
  still answer;
- all four use-case apps run against the disk backend without ever
  constructing an in-memory store.
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.metrics import CounterSet
from repro.hexgrid import cell_to_latlng, latlng_to_cell
from repro.inventory import (
    BlockCache,
    GroupKey,
    Inventory,
    QueryableInventory,
    SSTableInventory,
    merge_tables,
    open_backend,
    write_inventory,
)
from repro.inventory.keys import GroupingSet
from repro.inventory.sstable import (
    CorruptionError,
    SSTableReader,
    SSTableWriter,
    _deflate,
    _key_bytes,
    _key_from_bytes,
    salvage_table,
    verify_table,
)
from repro.inventory.summary import CellSummary


def _summary(records=3, destination="NLRTM", origin="CNSHA", next_cell=None):
    summary = CellSummary()
    for i in range(records):
        summary.update(
            mmsi=100_000_000 + i, sog=10.0 + i, cog=90.0, heading=90,
            trip_id=f"t{i}", eto_s=50.0, ata_s=100.0, origin=origin,
            destination=destination, next_cell=next_cell,
        )
    return summary


def _cell(lat, lon, res=6):
    return latlng_to_cell(lat, lon, res)


def _routeful_inventory(n_cells=30):
    """An inventory exercising all three grouping sets and two routes of
    different-length vessel types (the ordering trap)."""
    inventory = Inventory(resolution=6)
    routes = [
        ("CNSHA", "NLRTM", "cargo"),
        ("CNSHA", "NLRTM", "passenger"),  # longer type than "cargo"
        ("SGSIN", "USLAX", "tanker"),
    ]
    for i in range(n_cells):
        cell = _cell(5.0 + (i % 10) * 0.7, 100.0 + (i // 10) * 0.9)
        inventory.put(GroupKey(cell=cell), _summary(records=1 + i % 4))
        for origin, destination, vessel_type in routes:
            inventory.put(
                GroupKey(cell=cell, vessel_type=vessel_type),
                _summary(records=2, destination=destination, origin=origin),
            )
            inventory.put(
                GroupKey(
                    cell=cell,
                    vessel_type=vessel_type,
                    origin=origin,
                    destination=destination,
                ),
                _summary(records=1, destination=destination, origin=origin),
            )
    return inventory


@pytest.fixture()
def backends(tmp_path):
    """(in-memory inventory, disk backend) over the identical build."""
    inventory = _routeful_inventory()
    path = tmp_path / "inv.sst"
    write_inventory(inventory, path)
    backend = SSTableInventory(path)
    yield inventory, backend
    backend.close()


# -- key-encoding order property ---------------------------------------------------

_DIM = st.one_of(
    st.none(),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)),
        min_size=0,
        max_size=8,
    ),
)
_KEYS = st.builds(
    GroupKey,
    cell=st.integers(min_value=0, max_value=2**62 - 1),
    vessel_type=_DIM,
    origin=_DIM,
    destination=_DIM,
)


@settings(max_examples=300)
@given(a=_KEYS, b=_KEYS)
def test_key_bytes_order_matches_sort_key(a, b):
    """Byte order of the on-disk encoding == tuple order of sort_key.

    The SSTable's sparse index bisects raw bytes while everything
    in-memory sorts by ``sort_key()``; lookups silently corrupt if these
    orders ever diverge (e.g. the length-prefixed encoding this replaced
    ordered "tanker" < "passenger").
    """
    byte_order = _key_bytes(a) < _key_bytes(b)
    tuple_order = a.sort_key() < b.sort_key()
    assert byte_order == tuple_order
    assert (_key_bytes(a) == _key_bytes(b)) == (a.sort_key() == b.sort_key())


@settings(max_examples=200)
@given(key=_KEYS)
def test_key_bytes_roundtrip(key):
    decoded = _key_from_bytes(_key_bytes(key))
    # None and "" intentionally collapse (sort_key treats them equally).
    assert decoded.sort_key() == key.sort_key()


# -- protocol conformance ----------------------------------------------------------

def test_both_backends_satisfy_protocol(backends):
    inventory, backend = backends
    assert isinstance(inventory, QueryableInventory)
    assert isinstance(backend, QueryableInventory)


def test_resolution_is_inferred_from_keys(backends):
    _, backend = backends
    assert backend.resolution == 6


def test_empty_table_requires_explicit_resolution(tmp_path):
    path = tmp_path / "empty.sst"
    write_inventory(Inventory(resolution=6), path)
    with pytest.raises(ValueError):
        SSTableInventory(path)
    with SSTableInventory(path, resolution=6) as backend:
        assert len(backend) == 0
        assert backend.summary_at(0.0, 0.0) is None


# -- cross-backend equivalence -----------------------------------------------------

def test_point_lookups_agree(backends):
    inventory, backend = backends
    for key, summary in inventory.items():
        stored = backend.get(key)
        assert stored is not None
        assert stored.records == summary.records
    assert backend.get(GroupKey(cell=_cell(-60.0, -170.0))) is None


def test_summary_at_agrees(backends):
    inventory, backend = backends
    for cell in inventory.cells():
        lat, lon = cell_to_latlng(cell)
        for kwargs in (
            {},
            {"vessel_type": "cargo"},
            {"vessel_type": "nosuch"},
            {"vessel_type": "cargo", "origin": "CNSHA", "destination": "NLRTM"},
        ):
            a = inventory.summary_at(lat, lon, **kwargs)
            b = backend.summary_at(lat, lon, **kwargs)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.records == b.records
                assert a.speed.mean == pytest.approx(b.speed.mean)


def test_undecodable_value_is_typed_corruption(tmp_path):
    """A value that passes its block checksum but is not a summary (a
    writer bug, not disk damage) must surface from a point lookup as
    storage corruption naming the table and block."""
    path = tmp_path / "inv.sst"
    good, bad = GroupKey(cell=_cell(10.0, 10.0)), GroupKey(cell=_cell(20.0, 20.0))
    with SSTableWriter(path) as writer:
        for key, value in sorted(
            [(good, _summary().encode()), (bad, b"Z")],
            key=lambda entry: _key_bytes(entry[0]),
        ):
            writer.add_stored(key, _deflate(value))
    with SSTableInventory(path, resolution=6) as backend:
        assert backend.get(good).records == 3
        with pytest.raises(CorruptionError) as excinfo:
            backend.get(bad)
    assert excinfo.value.path == path
    assert excinfo.value.block_index == 0


def test_summary_at_validates_arguments_on_disk_backend(backends):
    _, backend = backends
    with pytest.raises(ValueError):
        backend.summary_at(0.0, 0.0, origin="A")
    with pytest.raises(ValueError):
        backend.summary_at(0.0, 0.0, origin="A", destination="B")


def test_top_destinations_agree(backends):
    inventory, backend = backends
    for cell in inventory.cells():
        lat, lon = cell_to_latlng(cell)
        for vessel_type in (None, "cargo", "passenger", "nosuch"):
            assert inventory.top_destinations_at(
                lat, lon, vessel_type=vessel_type
            ) == backend.top_destinations_at(lat, lon, vessel_type=vessel_type)


def test_route_cells_agree(backends, tmp_path):
    """The written table, a merge of two disjoint halves of it and a
    salvage of a copy whose route section is damaged all answer
    ``route_cells`` as the in-memory store does: the writer builds the
    route section from the keys it writes."""
    inventory, backend = backends
    halves = [tmp_path / "even.sst", tmp_path / "odd.sst"]
    items = sorted(inventory.items(), key=lambda item: item[0].sort_key())
    for path, part in zip(halves, (items[0::2], items[1::2])):
        half = Inventory(resolution=6)
        for key, summary in part:
            half.put(key, summary)
        write_inventory(half, path)
    merge_tables(halves, tmp_path / "merged.sst")
    damaged = tmp_path / "damaged.sst"
    damaged.write_bytes(backend.path.read_bytes())
    _flip_route_section_byte(damaged)
    salvage_table(damaged, tmp_path / "salvaged.sst")
    tables = [backend.path, tmp_path / "merged.sst", tmp_path / "salvaged.sst"]
    for path in tables:
        with open_backend(path) as disk_backend:
            for route in [
                ("CNSHA", "NLRTM", "cargo"),
                ("CNSHA", "NLRTM", "passenger"),
                ("SGSIN", "USLAX", "tanker"),
                ("SGSIN", "USLAX", "cargo"),  # absent route
            ]:
                mem = inventory.route_cells(*route)
                disk = disk_backend.route_cells(*route)
                assert set(mem) == set(disk), (path.name, route)
                for cell in mem:
                    assert mem[cell].records == disk[cell].records


def test_cells_and_items_agree(backends):
    inventory, backend = backends
    assert inventory.cells() == backend.cells()
    assert len(inventory) == len(backend)
    assert {key for key, _ in inventory.items()} == {
        key for key, _ in backend.items()
    }


# -- block cache -------------------------------------------------------------------

def test_point_lookup_reads_at_most_one_block(backends):
    _, backend = backends
    counters = backend.cache.counters
    counters.clear()
    key = next(iter(backend.items()))[0]
    assert backend.get(key) is not None
    assert counters.value(BlockCache.MISSES) <= 1
    assert counters.value(BlockCache.HITS) == 0


def test_repeated_lookups_hit_the_cache(backends):
    _, backend = backends
    key = next(iter(backend.items()))[0]
    backend.cache.counters.clear()
    for _ in range(5):
        assert backend.get(key) is not None
    assert backend.cache.misses == 1
    assert backend.cache.hits == 4
    assert backend.reader.total_read_bytes > 0


def test_cache_evicts_at_capacity(tmp_path):
    inventory = _routeful_inventory(n_cells=60)
    path = tmp_path / "inv.sst"
    write_inventory(inventory, path)
    with SSTableInventory(path, cache_blocks=2) as backend:
        assert backend.reader.block_count > 3
        for key, _ in inventory.items():
            backend.get(key)
        assert len(backend.cache) <= 2
        assert backend.cache.evictions > 0


def test_cached_block_inflates_each_value_once(tmp_path, monkeypatch):
    """Repeated lookups of a key in a cached block reuse its inflated
    value: a reader thread then holds the GIL between lookups instead of
    releasing it in zlib on every one, which would starve a thread
    writing a table beside it."""
    import repro.inventory.sstable as sstable

    path = tmp_path / "inv.sst"
    keys = sorted(
        (GroupKey(cell=_cell(10.0 + i, 10.0)) for i in range(3)), key=_key_bytes
    )
    with SSTableWriter(path) as writer:
        for key in keys:
            writer.add(key, _summary())
    inflated = []
    real_inflate = sstable._inflate

    def counting_inflate(stored, path=None, block_index=None):
        inflated.append(stored)
        return real_inflate(stored, path, block_index)

    monkeypatch.setattr(sstable, "_inflate", counting_inflate)
    with SSTableInventory(path, resolution=6) as backend:
        for _ in range(3):
            for key in keys:
                assert backend.get_encoded(key) == _summary().encode()
                assert backend.get(key).records == 3
        assert len(inflated) == len(keys)
        backend.cache.clear()
        backend.get(keys[0])
        assert len(inflated) == len(keys) + 1  # the memo leaves with its block


def test_concurrent_lookups_share_a_small_cache_exactly(tmp_path):
    """Threads filling and evicting the same cached blocks' inflated
    values under a tiny switch interval still answer every lookup with
    the exact stored encoding."""
    path = tmp_path / "inv.sst"
    expected = {
        GroupKey(cell=_cell(10.0 + i * 0.5, 20.0)): _summary(records=1 + i % 4)
        for i in range(40)
    }
    with SSTableWriter(path, block_size=1024) as writer:
        for key in sorted(expected, key=_key_bytes):
            writer.add(key, expected[key])
    encoded = {key: summary.encode() for key, summary in expected.items()}
    failures: list[str] = []
    with SSTableInventory(path, resolution=6, cache_blocks=2) as backend:
        assert backend.reader.block_count > 4

        def reader(offset: int) -> None:
            keys = list(encoded)
            for round_ in range(5):
                for key in keys[offset:] + keys[:offset]:
                    if backend.get_encoded(key) != encoded[key]:
                        failures.append(f"wrong bytes for {key} in round {round_}")

        threads = [threading.Thread(target=reader, args=(i * 7,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive(), "reader thread hung"
        finally:
            sys.setswitchinterval(interval)
        assert backend.cache.evictions > 0
    assert failures == []


def test_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        BlockCache(capacity=0)


def test_cache_counters_can_be_shared():
    counters = CounterSet()
    cache = BlockCache(capacity=2, counters=counters)
    cache.put(0, b"x")
    cache.get(0)
    cache.get(1)
    assert counters.value(BlockCache.HITS) == 1
    assert counters.value(BlockCache.MISSES) == 1


# -- the route section ---------------------------------------------------------------

def _flip_route_section_byte(path):
    with SSTableReader(path) as reader:
        offset, length = reader._route_span
    data = bytearray(path.read_bytes())
    data[offset + length // 2] ^= 0x01
    path.write_bytes(bytes(data))


def test_damaged_route_section_is_typed_corruption(tmp_path):
    """A flipped byte in the route section fails ``route_cells`` with a
    typed error on every call (never a rescan), fails ``verify_table``,
    and leaves point lookups on the same table answering."""
    inventory = _routeful_inventory()
    path = tmp_path / "inv.sst"
    write_inventory(inventory, path)
    _flip_route_section_byte(path)
    with SSTableInventory(path) as backend:
        for _ in range(2):
            with pytest.raises(CorruptionError, match="route section") as excinfo:
                backend.route_cells("CNSHA", "NLRTM", "cargo")
            assert excinfo.value.path == path
        for key, summary in inventory.items():
            assert backend.get(key).records == summary.records
    check = verify_table(path)
    assert not check.ok
    assert check.route_section == "corrupt"
    assert check.bad_blocks == []


def test_compacted_table_serves_routes(tmp_path):
    """merge_tables output of overlapping inputs is immediately servable:
    its route section is built from the merged keys."""
    a = _routeful_inventory(n_cells=10)
    b = _routeful_inventory(n_cells=20)
    path_a, path_b = tmp_path / "a.sst", tmp_path / "b.sst"
    write_inventory(a, path_a)
    write_inventory(b, path_b)
    out = tmp_path / "merged.sst"
    merge_tables([path_a, path_b], out)
    # One file per table: no route sidecar beside a written or merged one.
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "a.sst", "b.sst", "merged.sst",
    ]
    merged = Inventory(resolution=6).merge(a).merge(b)
    with open_backend(out) as backend:
        for route in [("CNSHA", "NLRTM", "cargo"), ("SGSIN", "USLAX", "tanker")]:
            assert set(backend.route_cells(*route)) == set(
                merged.route_cells(*route)
            )


# -- incremental route index on the in-memory store --------------------------------

def test_put_updates_existing_route_index_incrementally():
    inventory = Inventory(resolution=6)
    first = GroupKey(cell=_cell(1.0, 103.0), vessel_type="cargo",
                     origin="A", destination="B")
    inventory.put(first, _summary())
    assert len(inventory.route_cells("A", "B", "cargo")) == 1  # index built
    built_index = inventory._route_index
    second = GroupKey(cell=_cell(2.0, 104.0), vessel_type="cargo",
                      origin="A", destination="B")
    inventory.put(second, _summary())
    # The index object was updated in place, not invalidated.
    assert inventory._route_index is built_index
    assert set(inventory.route_cells("A", "B", "cargo")) == {
        first.cell, second.cell
    }


def test_merge_keeps_route_index_live():
    target = Inventory(resolution=6)
    key = GroupKey(cell=_cell(1.0, 103.0), vessel_type="cargo",
                   origin="A", destination="B")
    target.put(key, _summary())
    target.route_cells("A", "B", "cargo")  # force the index into existence
    other = Inventory(resolution=6)
    other.put(
        GroupKey(cell=_cell(3.0, 105.0), vessel_type="tanker",
                 origin="C", destination="D"),
        _summary(),
    )
    target.merge(other)
    assert target._route_index is not None
    assert len(target.route_cells("C", "D", "tanker")) == 1


# -- apps end-to-end on the disk backend -------------------------------------------

def test_apps_run_against_disk_backend(tmp_path, small_inventory):
    """The acceptance path: every use-case app served straight from a
    compacted table, no in-memory Inventory constructed."""
    from repro.apps import (
        AnomalyDetector,
        DestinationPredictor,
        EtaEstimator,
        RouteForecaster,
    )

    staging = tmp_path / "staging.sst"
    write_inventory(small_inventory, staging)
    table = tmp_path / "serving.sst"
    merge_tables([staging], table)

    # A real route key present in the build, plus a cell on it.
    route_key = next(
        key
        for key, _ in small_inventory.items()
        if key.grouping_set is GroupingSet.CELL_OD_TYPE
    )
    lat, lon = cell_to_latlng(route_key.cell)
    origin, destination = route_key.origin, route_key.destination
    vessel_type = route_key.vessel_type

    with open_backend(table) as backend:
        reference_eta = EtaEstimator(small_inventory).estimate(
            lat, lon, vessel_type=vessel_type,
            origin=origin, destination=destination,
        )
        eta = EtaEstimator(backend).estimate(
            lat, lon, vessel_type=vessel_type,
            origin=origin, destination=destination,
        )
        assert (eta is None) == (reference_eta is None)
        if eta is not None:
            assert eta.mean_s == pytest.approx(reference_eta.mean_s)
            assert eta.grouping == reference_eta.grouping

        predictor = DestinationPredictor(backend)
        state = predictor.predict_track([(lat, lon)], vessel_type=vessel_type)
        reference = DestinationPredictor(small_inventory).predict_track(
            [(lat, lon)], vessel_type=vessel_type
        )
        assert state.best() == reference.best()

        forecaster = RouteForecaster(backend)
        goal_cells = sorted(
            small_inventory.route_cells(origin, destination, vessel_type)
        )
        goal_lat, goal_lon = cell_to_latlng(goal_cells[-1])
        path = forecaster.forecast(
            lat, lon, origin, destination, vessel_type, goal_lat, goal_lon
        )
        reference_path = RouteForecaster(small_inventory).forecast(
            lat, lon, origin, destination, vessel_type, goal_lat, goal_lon
        )
        assert path == reference_path

        detector = AnomalyDetector(backend)
        score = detector.score(
            lat, lon, sog=10.0, cog=90.0, vessel_type=vessel_type,
            origin=origin, destination=destination,
        )
        reference_score = AnomalyDetector(small_inventory).score(
            lat, lon, sog=10.0, cog=90.0, vessel_type=vessel_type,
            origin=origin, destination=destination,
        )
        assert score.off_lane == reference_score.off_lane
        assert score.is_anomalous == reference_score.is_anomalous
