"""Tests for the Inventory store and the on-disk SSTable."""

import hashlib

import pytest
from hypothesis import given, strategies as st

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
from repro.inventory.backend import SSTableInventory
from repro.inventory.codec import encode
from repro.inventory.sstable import (
    _VALUE_DICT,
    CorruptionError,
    SSTableError,
    _deflate,
    _inflate,
    salvage_table,
    verify_table,
)
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
        """``add_stored`` writes the given bytes, ``scan_stored`` yields
        them back and ``scan_raw`` their encodings: a table written that
        way equals one from ``add``."""
        inventory = self._populated(60)
        items = sorted(inventory.items(), key=lambda item: item[0].sort_key())
        encoded = [(key, encode(summary.to_dict())) for key, summary in items]
        via_add, via_stored = tmp_path / "add.sst", tmp_path / "stored.sst"
        write_inventory(inventory, via_add)
        with SSTableWriter(via_stored) as writer:
            for key, value_raw in encoded:
                writer.add_stored(key, _deflate(value_raw))
        assert via_stored.read_bytes() == via_add.read_bytes()
        with open_inventory(via_stored) as reader:
            stored = [value for _, value, _ in reader.scan_stored()]
            raw = [value for _, value, _ in reader.scan_raw()]
        assert stored == [_deflate(value_raw) for _, value_raw in encoded]
        assert raw == [value_raw for _, value_raw in encoded]

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


class TestStoredValues:
    """Each value is stored deflated against one frozen dictionary; a
    value that does not inflate is typed corruption even when its block
    checksum (computed over the stored bytes) is intact."""

    def test_value_dictionary_is_pinned(self):
        # Every table ever written inflates against these exact bytes.
        assert len(_VALUE_DICT) == 857
        assert hashlib.sha256(_VALUE_DICT).hexdigest() == (
            "e36c4d2b31770e2f7afc45124ecc9f05e98a123f813b9179d93ff16b3b965ea4"
        )

    @given(st.binary(max_size=4096))
    def test_inflate_inverts_deflate(self, raw):
        assert _inflate(_deflate(raw)) == raw

    def test_values_are_stored_deflated(self, tmp_path):
        path = tmp_path / "inv.sst"
        key, summary = GroupKey(cell=_cell(10.0, 10.0)), _summary()
        with SSTableWriter(path) as writer:
            writer.add(key, summary)
        with open_inventory(path) as reader:
            [(_, stored, _)] = reader.scan_stored()
        assert stored == _deflate(summary.encode())
        assert len(stored) < len(summary.encode()) / 3

    @staticmethod
    def _damaged_table(tmp_path, damage):
        """Five one-entry blocks; the value of block 2 is ``damage``
        applied to its deflated bytes, written through ``add_stored`` so
        the block checksum covers the damaged bytes."""
        path = tmp_path / "damaged.sst"
        keys = sorted(
            (GroupKey(cell=_cell(10.0 + i, 10.0)) for i in range(5)),
            key=lambda key: key.sort_key(),
        )
        with SSTableWriter(path, block_size=256) as writer:
            for i, key in enumerate(keys):
                stored = _deflate(_summary(records=4 + i).encode())
                writer.add_stored(key, damage(stored) if i == 2 else stored)
        with open_inventory(path) as reader:
            assert reader.block_count == 5
        return path, keys

    @pytest.mark.parametrize(
        "damage",
        [
            lambda stored: stored[:-4],
            lambda stored: stored + b"\x00trailing",
            lambda stored: b"\xff\xfegarbage" + stored[8:],
        ],
        ids=["truncated-stream", "trailing-bytes", "garbage"],
    )
    def test_undeflatable_value_is_typed_corruption(self, tmp_path, damage):
        path, keys = self._damaged_table(tmp_path, damage)
        bad = keys[2]

        def assert_names_block(excinfo):
            assert excinfo.value.path == path
            assert excinfo.value.block_index == 2

        with open_inventory(path) as reader:
            assert reader.get(keys[1]).records == 5
            with pytest.raises(CorruptionError) as excinfo:
                reader.get(bad)
            assert_names_block(excinfo)
            with pytest.raises(CorruptionError) as excinfo:
                list(reader.scan())
            assert_names_block(excinfo)
            with pytest.raises(CorruptionError) as excinfo:
                list(reader.scan_raw())
            assert_names_block(excinfo)
        with SSTableInventory(path, resolution=6) as backend:
            assert backend.get_encoded(keys[3]) == _summary(records=7).encode()
            with pytest.raises(CorruptionError) as excinfo:
                backend.get_encoded(bad)
            assert_names_block(excinfo)
            with pytest.raises(CorruptionError) as excinfo:
                backend.get(bad)
            assert_names_block(excinfo)

        check = verify_table(path)
        assert not check.ok
        assert check.bad_blocks == [2]
        assert check.entries_readable == 4
        report = salvage_table(path, tmp_path / "salvaged.sst")
        assert report.blocks_skipped == [2]
        assert (report.entries_recovered, report.entries_lost) == (4, 1)
        assert verify_table(tmp_path / "salvaged.sst").ok

    def test_previous_format_says_to_rebuild(self, tmp_path):
        path = tmp_path / "v4.sst"
        write_inventory(self._one_entry(), path)
        data = path.read_bytes().replace(b"POLINV5\n", b"POLINV4\n")
        path.write_bytes(data)
        with pytest.raises(SSTableError, match="format v4 .*rebuild"):
            SSTableReader(path)
        check = verify_table(path)
        assert not check.ok
        assert check.status == "needs rebuild (format v4)"

    @staticmethod
    def _one_entry():
        inventory = Inventory(resolution=6)
        inventory.put(GroupKey(cell=_cell(1.0, 103.0)), _summary())
        return inventory
