"""Tests for group keys and the CellSummary monoid."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.inventory.codec import encode
from repro.inventory.keys import (
    ALL_GROUPING_SETS,
    GroupingSet,
    GroupKey,
    keys_for_record,
)
from repro.inventory.sstable import SSTableReader, write_inventory
from repro.inventory.summary import CellSummary, SummaryConfig


class TestGroupKey:
    def test_grouping_set_classification(self):
        assert GroupKey(cell=1).grouping_set is GroupingSet.CELL
        assert GroupKey(cell=1, vessel_type="cargo").grouping_set \
            is GroupingSet.CELL_TYPE
        assert GroupKey(
            cell=1, vessel_type="cargo", origin="A", destination="B"
        ).grouping_set is GroupingSet.CELL_OD_TYPE

    def test_tuple_roundtrip(self):
        key = GroupKey(cell=42, vessel_type="tanker", origin="X", destination="Y")
        assert GroupKey.from_tuple(key.to_tuple()) == key

    def test_keys_are_hashable_and_distinct(self):
        keys = {
            GroupKey(cell=1),
            GroupKey(cell=1, vessel_type="cargo"),
            GroupKey(cell=2),
        }
        assert len(keys) == 3

    def test_sort_key_orders_by_cell_first(self):
        a = GroupKey(cell=1, vessel_type="zzz")
        b = GroupKey(cell=2)
        assert a.sort_key() < b.sort_key()

    def test_sort_key_none_before_strings(self):
        bare = GroupKey(cell=1)
        typed = GroupKey(cell=1, vessel_type="cargo")
        assert bare.sort_key() < typed.sort_key()


class TestKeysForRecord:
    def test_with_trip_yields_three(self):
        keys = keys_for_record(7, "cargo", "A", "B")
        assert len(keys) == 3
        assert {key.grouping_set for key in keys} == set(ALL_GROUPING_SETS)

    def test_without_trip_yields_two(self):
        keys = keys_for_record(7, "cargo", None, None)
        assert len(keys) == 2
        assert all(
            key.grouping_set is not GroupingSet.CELL_OD_TYPE for key in keys
        )

    def test_subset_of_grouping_sets(self):
        keys = keys_for_record(7, "cargo", "A", "B",
                               grouping_sets=(GroupingSet.CELL,))
        assert keys == [GroupKey(cell=7)]


def _update(summary, mmsi=1, sog=10.0, cog=90.0, heading=89, trip="t1",
            eto=100.0, ata=900.0, origin="A", destination="B", next_cell=None):
    summary.update(
        mmsi=mmsi, sog=sog, cog=cog, heading=heading, trip_id=trip,
        eto_s=eto, ata_s=ata, origin=origin, destination=destination,
        next_cell=next_cell,
    )


_FINITE = {"allow_nan": False, "allow_infinity": False}
_RECORDS = st.fixed_dictionaries({
    "mmsi": st.integers(min_value=0, max_value=999_999_999),
    "sog": st.floats(min_value=0.0, max_value=60.0, **_FINITE),
    "cog": st.floats(min_value=0.0, max_value=359.99, **_FINITE),
    "heading": st.one_of(st.none(), st.integers(min_value=0, max_value=359)),
    "trip": st.one_of(st.none(), st.sampled_from(["t1", "t2", "t3"])),
    "eto": st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6, **_FINITE)),
    "ata": st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6, **_FINITE)),
    "origin": st.one_of(st.none(), st.sampled_from(["A", "B", "CNSHA"])),
    "destination": st.one_of(st.none(), st.sampled_from(["X", "NLRTM"])),
    "next_cell": st.one_of(st.none(), st.integers(min_value=0, max_value=2**40)),
})


class TestCellSummary:
    def test_empty_summary_views(self):
        summary = CellSummary()
        assert summary.records == 0
        assert summary.mean_speed_kn() is None
        assert summary.mean_course_deg() is None
        assert summary.mean_ata_s() is None
        assert summary.speed_percentiles() is None
        assert summary.top_destination() is None
        assert summary.top_transitions() == []

    def test_single_update_populates_all_features(self):
        summary = CellSummary()
        _update(summary, next_cell=99)
        assert summary.records == 1
        assert summary.ships.cardinality() == 1
        assert summary.trips.cardinality() == 1
        assert summary.mean_speed_kn() == pytest.approx(10.0)
        assert summary.mean_course_deg() == pytest.approx(90.0)
        assert summary.mean_ata_s() == pytest.approx(900.0)
        assert summary.top_destination() == "B"
        assert summary.origins.top(1)[0].value == "A"
        assert summary.top_transitions() == [(99, 1)]
        assert summary.course_bins.counts[3] == 1  # 90° → bin 3 of 30° bins
        assert summary.heading_bins.total == 1

    def test_none_heading_skips_heading_stats(self):
        summary = CellSummary()
        _update(summary, heading=None)
        assert summary.heading.count == 0
        assert summary.heading_bins.total == 0
        assert summary.course.count == 1

    def test_record_without_trip_fields(self):
        summary = CellSummary()
        summary.update(mmsi=5, sog=8.0, cog=10.0, heading=10)
        assert summary.records == 1
        assert summary.trips.cardinality() == 0
        assert summary.eto.count == 0
        assert summary.top_destination() is None

    def test_merge_matches_single_pass(self):
        rng = random.Random(8)
        whole = CellSummary()
        left = CellSummary()
        right = CellSummary()
        for i in range(400):
            kwargs = dict(
                mmsi=rng.randrange(20),
                sog=rng.uniform(0, 20),
                cog=rng.uniform(0, 359.9),
                heading=rng.randrange(360),
                trip=f"trip-{rng.randrange(40)}",
                eto=rng.uniform(0, 1e5),
                ata=rng.uniform(0, 1e5),
                origin=rng.choice("ABC"),
                destination=rng.choice("XYZ"),
                next_cell=rng.randrange(5),
            )
            _update(whole, **kwargs)
            _update(left if i % 2 else right, **kwargs)
        merged = left.merge(right)
        assert merged.records == whole.records
        assert merged.speed.mean == pytest.approx(whole.speed.mean)
        assert merged.speed.std == pytest.approx(whole.speed.std)
        assert merged.course.mean_deg == pytest.approx(whole.course.mean_deg)
        assert merged.ships.cardinality() == whole.ships.cardinality()
        assert merged.trips.cardinality() == whole.trips.cardinality()
        assert merged.course_bins.counts == whole.course_bins.counts
        assert [t.value for t in merged.destinations.top(3)] == [
            t.value for t in whole.destinations.top(3)
        ]

    def test_dict_roundtrip_preserves_everything(self):
        rng = random.Random(9)
        summary = CellSummary(SummaryConfig(hll_precision=8, topn_capacity=8))
        for _ in range(150):
            _update(
                summary,
                mmsi=rng.randrange(30),
                sog=rng.uniform(0, 25),
                cog=rng.uniform(0, 359.9),
                next_cell=rng.randrange(7),
            )
        restored = CellSummary.from_dict(summary.to_dict())
        assert restored.records == summary.records
        assert restored.config == summary.config
        assert restored.speed.mean == pytest.approx(summary.speed.mean)
        assert restored.ships.cardinality() == summary.ships.cardinality()
        assert restored.course_bins.counts == summary.course_bins.counts
        assert restored.speed_percentiles() == pytest.approx(
            summary.speed_percentiles()
        )
        assert [t.value for t in restored.transitions.top(3)] == [
            t.value for t in summary.transitions.top(3)
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(_RECORDS, max_size=40),
        split=st.integers(min_value=0, max_value=40),
        config=st.sampled_from(
            [SummaryConfig(), SummaryConfig(hll_precision=6, topn_capacity=3)]
        ),
    )
    def test_codec_roundtrip_is_byte_exact(self, records, split, config):
        """``CellSummary.decode`` then ``encode`` is the identity on
        stored bytes, and ``encode`` is the codec of ``to_dict`` — what lets the server answer with the stored value
        bytes instead of decoding and re-encoding them, and lets
        compaction copy a value it does not merge."""
        left, right = CellSummary(config), CellSummary(config)
        for index, record in enumerate(records):
            _update(left if index < split else right, **record)
        left.merge(right)  # a merged summary, as compaction stores it
        for summary in (left, right):
            stored = summary.encode()
            assert stored == encode(summary.to_dict())
            assert CellSummary.decode(stored).encode() == stored

    def test_percentiles_ordered(self):
        rng = random.Random(10)
        summary = CellSummary()
        for _ in range(500):
            _update(summary, sog=rng.lognormvariate(2, 0.5))
        p10, p50, p90 = summary.speed_percentiles()
        assert p10 <= p50 <= p90


#: SHA-256 over the small world's stored (key, value) entries in table
#: order.  It pins the stored summary bytes (field order, key names,
#: sketch state), not the file around them: block framing, index and
#: checksums are outside it.
SMALL_WORLD_ENTRIES_SHA256 = (
    "49650fc7b01fd9be50bfa05e089ca720ebf76d03414dcd02186c4a7e670e4a89"
)


def test_stored_entries_are_pinned(small_result, tmp_path):
    path = tmp_path / "inventory.sst"
    write_inventory(small_result.inventory, path)
    digest = hashlib.sha256()
    with SSTableReader(path) as reader:
        for key_raw, value_raw, _ in reader.scan_raw():
            digest.update(key_raw)
            digest.update(value_raw)
            assert CellSummary.decode(value_raw).encode() == value_raw
    assert digest.hexdigest() == SMALL_WORLD_ENTRIES_SHA256
