"""Tests for the Inventory store and the on-disk SSTable."""

import pytest

from repro.hexgrid import cell_to_latlng, latlng_to_cell
from repro.inventory import (
    GroupKey,
    GroupingSet,
    Inventory,
    SSTableReader,
    SSTableWriter,
    open_inventory,
    write_inventory,
)
from repro.inventory.codec import encode
from repro.inventory.summary import CellSummary


def _summary(records=3, destination="NLRTM"):
    summary = CellSummary()
    for i in range(records):
        summary.update(
            mmsi=100_000_000 + i, sog=10.0 + i, cog=90.0, heading=90,
            trip_id=f"t{i}", eto_s=50.0, ata_s=100.0, origin="CNSHA",
            destination=destination, next_cell=None,
        )
    return summary


def _cell(lat, lon, res=6):
    return latlng_to_cell(lat, lon, res)


class TestInventoryStore:
    def test_put_and_get(self):
        inventory = Inventory(resolution=6)
        key = GroupKey(cell=_cell(1.0, 103.0))
        inventory.put(key, _summary())
        assert inventory.get(key).records == 3
        assert key in inventory
        assert len(inventory) == 1

    def test_put_merges_existing(self):
        inventory = Inventory(resolution=6)
        key = GroupKey(cell=_cell(1.0, 103.0))
        inventory.put(key, _summary(records=2))
        inventory.put(key, _summary(records=5))
        assert inventory.get(key).records == 7

    def test_summary_at_queries_by_position(self):
        inventory = Inventory(resolution=6)
        cell = _cell(51.9, 3.9)
        inventory.put(GroupKey(cell=cell), _summary())
        inventory.put(GroupKey(cell=cell, vessel_type="cargo"), _summary(records=1))
        lat, lon = cell_to_latlng(cell)
        assert inventory.summary_at(lat, lon).records == 3
        assert inventory.summary_at(lat, lon, vessel_type="cargo").records == 1
        assert inventory.summary_at(lat, lon, vessel_type="tanker") is None
        assert inventory.summary_at(0.0, 0.0) is None

    def test_summary_at_validates_arguments(self):
        inventory = Inventory(resolution=6)
        with pytest.raises(ValueError):
            inventory.summary_at(0.0, 0.0, origin="A")
        with pytest.raises(ValueError):
            inventory.summary_at(0.0, 0.0, origin="A", destination="B")

    def test_top_destinations_falls_back_to_cell(self):
        inventory = Inventory(resolution=6)
        cell = _cell(10.0, 10.0)
        inventory.put(GroupKey(cell=cell), _summary(destination="SGSIN"))
        lat, lon = cell_to_latlng(cell)
        # No cargo breakdown exists: falls back to the pure-cell group.
        assert inventory.top_destinations_at(lat, lon, vessel_type="cargo") == [
            ("SGSIN", 3)
        ]
        assert inventory.top_destinations_at(0.0, -90.0) == []

    def test_route_cells_index(self):
        inventory = Inventory(resolution=6)
        cells = [_cell(1.0, 103.0 + 0.2 * i) for i in range(4)]
        for cell in cells:
            inventory.put(
                GroupKey(cell=cell, vessel_type="cargo", origin="CNSHA",
                         destination="NLRTM"),
                _summary(),
            )
        route = inventory.route_cells("CNSHA", "NLRTM", "cargo")
        assert set(route) == set(cells)
        assert inventory.route_cells("CNSHA", "NLRTM", "tanker") == {}

    def test_route_index_invalidated_on_put(self):
        inventory = Inventory(resolution=6)
        key = GroupKey(cell=_cell(1.0, 103.0), vessel_type="cargo",
                       origin="A", destination="B")
        assert inventory.route_cells("A", "B", "cargo") == {}
        inventory.put(key, _summary())
        assert len(inventory.route_cells("A", "B", "cargo")) == 1

    def test_merge_combines_and_validates_resolution(self):
        a = Inventory(resolution=6)
        b = Inventory(resolution=6)
        shared = GroupKey(cell=_cell(1.0, 103.0))
        a.put(shared, _summary(records=2))
        b.put(shared, _summary(records=3))
        b.put(GroupKey(cell=_cell(5.0, 5.0)), _summary(records=1))
        a.merge(b)
        assert a.get(shared).records == 5
        assert len(a) == 2
        with pytest.raises(ValueError):
            a.merge(Inventory(resolution=7))

    def test_group_count_and_cells(self):
        inventory = Inventory(resolution=6)
        cell = _cell(1.0, 103.0)
        inventory.put(GroupKey(cell=cell), _summary())
        inventory.put(GroupKey(cell=cell, vessel_type="cargo"), _summary())
        assert inventory.group_count(GroupingSet.CELL) == 1
        assert inventory.group_count(GroupingSet.CELL_TYPE) == 1
        assert inventory.group_count(GroupingSet.CELL_OD_TYPE) == 0
        assert inventory.cells() == {cell}


class TestSSTable:
    def _populated(self, n=200):
        inventory = Inventory(resolution=6)
        for i in range(n):
            cell = _cell(10.0 + (i % 50) * 0.5, 100.0 + (i // 50) * 0.5)
            inventory.put(GroupKey(cell=cell), _summary(records=1 + i % 5))
            inventory.put(
                GroupKey(cell=cell, vessel_type="cargo"), _summary(records=1)
            )
        return inventory

    def test_write_read_roundtrip(self, tmp_path):
        inventory = self._populated()
        path = tmp_path / "inv.sst"
        written = write_inventory(inventory, path)
        assert written == len(inventory)
        with open_inventory(path) as reader:
            assert reader.entry_count == written
            for key, summary in inventory.items():
                stored = reader.get(key)
                assert stored is not None
                assert stored.records == summary.records

    def test_get_missing_key_returns_none(self, tmp_path):
        path = tmp_path / "inv.sst"
        write_inventory(self._populated(20), path)
        with open_inventory(path) as reader:
            assert reader.get(GroupKey(cell=_cell(-60.0, -170.0))) is None
            assert reader.get(GroupKey(cell=0)) is None  # before first key

    def test_point_lookup_touches_one_block(self, tmp_path):
        inventory = self._populated(300)
        path = tmp_path / "inv.sst"
        write_inventory(inventory, path)
        total_size = path.stat().st_size
        with open_inventory(path) as reader:
            key = next(iter(dict(inventory.items())))
            reader.get(key)
            assert 0 < reader.last_read_bytes < total_size / 4

    def test_scan_yields_sorted_everything(self, tmp_path):
        inventory = self._populated(100)
        path = tmp_path / "inv.sst"
        write_inventory(inventory, path)
        with open_inventory(path) as reader:
            entries = list(reader.scan())
        assert len(entries) == len(inventory)
        keys = [key.sort_key() for key, _ in entries]
        assert keys == sorted(keys)

    def test_encoded_entries_round_trip_as_stored_bytes(self, tmp_path):
        """``add_encoded`` stores the given bytes and ``scan_raw`` yields
        them back: a table written that way equals one from ``add``."""
        inventory = self._populated(60)
        items = sorted(inventory.items(), key=lambda item: item[0].sort_key())
        encoded = [(key, encode(summary.to_dict())) for key, summary in items]
        via_add, via_encoded = tmp_path / "add.sst", tmp_path / "encoded.sst"
        write_inventory(inventory, via_add)
        with SSTableWriter(via_encoded) as writer:
            for key, value_raw in encoded:
                writer.add_encoded(key, value_raw)
        assert via_encoded.read_bytes() == via_add.read_bytes()
        with open_inventory(via_encoded) as reader:
            stored = [value_raw for _, value_raw, _ in reader.scan_raw()]
        assert stored == [value_raw for _, value_raw in encoded]

    def test_writer_enforces_key_order(self, tmp_path):
        path = tmp_path / "bad.sst"
        with pytest.raises(ValueError):
            with SSTableWriter(path) as writer:
                writer.add(GroupKey(cell=10), _summary())
                writer.add(GroupKey(cell=5), _summary())

    def test_writer_rejects_tiny_blocks(self, tmp_path):
        with pytest.raises(ValueError):
            SSTableWriter(tmp_path / "x.sst", block_size=16)

    def test_reader_rejects_non_table(self, tmp_path):
        path = tmp_path / "junk.sst"
        path.write_bytes(b"this is not an inventory table at all........")
        with pytest.raises(ValueError):
            SSTableReader(path)

    def test_empty_inventory_roundtrip(self, tmp_path):
        path = tmp_path / "empty.sst"
        write_inventory(Inventory(resolution=6), path)
        with open_inventory(path) as reader:
            assert reader.entry_count == 0
            assert list(reader.scan()) == []
            assert reader.get(GroupKey(cell=123456)) is None

    def test_full_small_inventory_persists(self, tmp_path, small_inventory):
        path = tmp_path / "world.sst"
        write_inventory(small_inventory, path)
        with open_inventory(path) as reader:
            sample = list(small_inventory.items())[:50]
            for key, summary in sample:
                stored = reader.get(key)
                assert stored.records == summary.records
                assert stored.speed.mean == pytest.approx(summary.speed.mean)
