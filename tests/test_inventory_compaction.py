"""Tests for SSTable compaction."""

import pytest

from repro.hexgrid import latlng_to_cell
from repro.inventory import GroupKey, Inventory, open_inventory, write_inventory
from repro.inventory.compaction import merge_tables
from repro.inventory.sstable import CorruptionError, SSTableWriter, _deflate
from repro.inventory.summary import CellSummary


def _summary(records, base=0):
    summary = CellSummary()
    for i in range(records):
        summary.update(
            mmsi=100_000_000 + base + i, sog=8.0 + i, cog=90.0, heading=90,
            trip_id=f"t{base + i}", eto_s=10.0, ata_s=20.0,
            origin="AAAAA", destination="BBBBB",
        )
    return summary


def _write(tmp_path, name, cells_and_counts, base=0):
    inventory = Inventory(resolution=6)
    for cell, count in cells_and_counts:
        inventory.put(GroupKey(cell=cell), _summary(count, base=base))
    path = tmp_path / name
    write_inventory(inventory, path)
    return path


def test_merge_requires_inputs(tmp_path):
    with pytest.raises(ValueError):
        merge_tables([], tmp_path / "out.sst")


def test_merge_rejects_output_aliasing_an_input(tmp_path):
    cell = latlng_to_cell(10.0, 10.0, 6)
    table = _write(tmp_path, "a.sst", [(cell, 3)])
    other = _write(tmp_path, "b.sst", [(cell, 2)])
    before = table.read_bytes()
    with pytest.raises(ValueError):
        merge_tables([other, table], table)
    # Relative-path alias of the same file is caught too.
    with pytest.raises(ValueError):
        merge_tables([other, table], tmp_path / "sub" / ".." / "a.sst")
    assert table.read_bytes() == before  # input never clobbered


def test_merge_closes_readers_when_an_input_is_invalid(tmp_path, monkeypatch):
    """A bad input mid-list must not leak the readers opened before it."""
    import repro.inventory.compaction as compaction

    opened = []
    real_reader = compaction.SSTableReader

    class TrackingReader(real_reader):
        def __init__(self, path):
            super().__init__(path)
            opened.append(self)
            self.closed = False

        def close(self):
            self.closed = True
            super().close()

    monkeypatch.setattr(compaction, "SSTableReader", TrackingReader)
    cell = latlng_to_cell(10.0, 10.0, 6)
    good = _write(tmp_path, "good.sst", [(cell, 3)])
    bad = tmp_path / "bad.sst"
    bad.write_bytes(b"definitely not an inventory table..........")
    with pytest.raises(ValueError):
        merge_tables([good, bad], tmp_path / "out.sst")
    assert len(opened) == 1
    assert all(reader.closed for reader in opened)


def test_disjoint_tables_concatenate(tmp_path):
    cell_a = latlng_to_cell(10.0, 10.0, 6)
    cell_b = latlng_to_cell(20.0, 20.0, 6)
    a = _write(tmp_path, "a.sst", [(cell_a, 3)])
    b = _write(tmp_path, "b.sst", [(cell_b, 5)])
    out = tmp_path / "merged.sst"
    assert merge_tables([a, b], out) == 2
    with open_inventory(out) as reader:
        assert reader.get(GroupKey(cell=cell_a)).records == 3
        assert reader.get(GroupKey(cell=cell_b)).records == 5


def test_overlapping_keys_merge_summaries(tmp_path):
    cell = latlng_to_cell(10.0, 10.0, 6)
    a = _write(tmp_path, "a.sst", [(cell, 3)], base=0)
    b = _write(tmp_path, "b.sst", [(cell, 4)], base=100)
    out = tmp_path / "merged.sst"
    assert merge_tables([a, b], out) == 1
    with open_inventory(out) as reader:
        merged = reader.get(GroupKey(cell=cell))
        assert merged.records == 7
        assert merged.ships.cardinality() == 7  # disjoint vessel ids


def test_output_stays_sorted(tmp_path):
    import random

    rng = random.Random(4)
    cells = [latlng_to_cell(rng.uniform(-60, 60), rng.uniform(-170, 170), 6)
             for _ in range(40)]
    a = _write(tmp_path, "a.sst", [(c, 1) for c in cells[:25]])
    b = _write(tmp_path, "b.sst", [(c, 2) for c in cells[20:]])
    out = tmp_path / "merged.sst"
    merge_tables([a, b], out)
    with open_inventory(out) as reader:
        keys = [key.sort_key() for key, _ in reader.scan()]
        assert keys == sorted(keys)


def test_single_input_is_a_copy(tmp_path):
    cell = latlng_to_cell(5.0, 5.0, 6)
    a = _write(tmp_path, "a.sst", [(cell, 2)])
    out = tmp_path / "copy.sst"
    assert merge_tables([a], out) == 1
    with open_inventory(out) as reader:
        assert reader.get(GroupKey(cell=cell)).records == 2


def test_windowed_builds_compact_to_whole(tmp_path, small_world):
    """The LSM claim end-to-end: per-window tables compacted equal one
    whole-archive build (for groups unaffected by window-boundary trip
    loss, i.e. build windows on trip boundaries by splitting vessels)."""
    from repro import PipelineConfig, build_inventory

    # Split by vessel (not time) so no trips straddle a window.
    mmsis = sorted({r.mmsi for r in small_world.positions})
    half = set(mmsis[: len(mmsis) // 2])
    window_a = [r for r in small_world.positions if r.mmsi in half]
    window_b = [r for r in small_world.positions if r.mmsi not in half]
    config = PipelineConfig()
    table_paths = []
    for name, window in [("a.sst", window_a), ("b.sst", window_b)]:
        inventory = build_inventory(
            window, small_world.fleet, small_world.ports, config
        ).inventory
        path = tmp_path / name
        write_inventory(inventory, path)
        table_paths.append(path)
    out = tmp_path / "compacted.sst"
    merge_tables(table_paths, out)

    whole = build_inventory(
        small_world.positions, small_world.fleet, small_world.ports, config
    ).inventory
    with open_inventory(out) as reader:
        compacted = {key: summary for key, summary in reader.scan()}
    assert len(compacted) == len(whole)
    for key, summary in whole.items():
        assert compacted[key].records == summary.records


# -- raw copy: byte-identical to decoding and re-encoding every entry ----------------


def _reference_merge(inputs, output):
    """Compaction by decoding every entry, merging equal keys oldest
    input first, and re-encoding everything — the output raw copy must
    reproduce byte for byte."""
    merged = {}
    for path in inputs:
        with open_inventory(path) as reader:
            for key, summary in reader.scan():
                if key in merged:
                    merged[key].merge(summary)
                else:
                    merged[key] = summary
    with SSTableWriter(output) as writer:
        for key in sorted(merged, key=GroupKey.sort_key):
            writer.add(key, merged[key])
    return len(merged)


@pytest.fixture(scope="module")
def groups(small_inventory):
    """A slice of the small world's groups, all three grouping sets."""
    items = sorted(small_inventory.items(), key=lambda item: item[0].sort_key())
    return items[:600]


def _table(tmp_path, name, items):
    inventory = Inventory(resolution=6)
    for key, summary in items:
        inventory.put(key, summary)
    path = tmp_path / name
    write_inventory(inventory, path)
    return path


def _assert_merge_matches_reference(tmp_path, inputs):
    out, ref = tmp_path / "merged.sst", tmp_path / "reference.sst"
    assert merge_tables(inputs, out) == _reference_merge(inputs, ref)
    assert out.read_bytes() == ref.read_bytes()  # route section included


def test_raw_copy_disjoint_inputs_are_byte_identical(tmp_path, groups):
    inputs = [
        _table(tmp_path, "even.sst", groups[0::2]),
        _table(tmp_path, "odd.sst", groups[1::2]),
    ]
    _assert_merge_matches_reference(tmp_path, inputs)


def test_single_source_entries_are_copied_verbatim(tmp_path, groups, monkeypatch):
    """A key found in one input keeps its stored (deflated) bytes: no
    value is deflated again, and a one-input merge is its input, byte
    for byte, route section included."""
    import repro.inventory.sstable as sstable

    table = _table(tmp_path, "one.sst", groups)

    def no_deflate(raw):
        raise AssertionError("a single-source entry was deflated again")

    monkeypatch.setattr(sstable, "_deflate", no_deflate)
    out = tmp_path / "copy.sst"
    assert merge_tables([table], out) == len(groups)
    assert out.read_bytes() == table.read_bytes()


def test_raw_copy_overlapping_inputs_are_byte_identical(tmp_path, groups):
    # Keys in one, two and all three inputs: raw copies beside merges.
    inputs = [
        _table(tmp_path, "a.sst", groups[:400]),
        _table(tmp_path, "b.sst", groups[200:]),
        _table(tmp_path, "c.sst", groups[::3]),
    ]
    _assert_merge_matches_reference(tmp_path, inputs)


def test_raw_copy_single_input_is_byte_identical(tmp_path, groups):
    _assert_merge_matches_reference(tmp_path, [_table(tmp_path, "one.sst", groups)])


def test_undecodable_colliding_summary_raises_corruption(tmp_path):
    # A value that passes its block checksum but is not a summary: a key
    # in one input is copied as stored, so only a collision decodes it.
    key = GroupKey(cell=latlng_to_cell(10.0, 10.0, 6))
    good = _table(tmp_path, "good.sst", [(key, _summary(3))])
    bad = tmp_path / "bad.sst"
    with SSTableWriter(bad) as writer:
        writer.add_stored(key, _deflate(b"\xee"))
    out = tmp_path / "out.sst"
    with pytest.raises(CorruptionError, match="undecodable summary"):
        merge_tables([good, bad], out)
    assert not out.exists()


def test_v3_bit_flip_stays_typed(tmp_path, groups):
    table = _table(tmp_path, "flip.sst", groups[:50])
    data = bytearray(table.read_bytes())
    data[64] ^= 0x01  # inside the first data block
    table.write_bytes(bytes(data))
    out = tmp_path / "out.sst"
    with pytest.raises(CorruptionError, match="checksum"):
        merge_tables([table], out)
    assert not out.exists()
