"""The live inventory's read/write semantics.

The contracts under test:

- **Snapshot equivalence**: answers are the same before and after a
  flush (byte-identical — same sources, same merge order) and reopening
  a directory replays the WAL into the exact memtable that was lost.
- **Reference equivalence**: however records are split across flushes
  and compactions, the served answers agree *semantically* with a
  single in-memory fold of the same records (exact for counts, key
  sets and distinct-vessel estimates; tolerant for float moments, since
  partitioned ``merge`` is not bit-identical to sequential ``update``).
- **Lifecycle**: auto-flush and auto-compaction thresholds, manifest
  commits, WAL retirement, orphan sweeps and wire-record validation.
"""

import json
import threading
from dataclasses import replace

import pytest

from repro.hexgrid import latlng_to_cell
from repro.inventory import GroupKey
from repro.inventory.codec import encode
from repro.inventory.live import MANIFEST_NAME, LiveInventory, manifest_tables
from repro.inventory.memtable import IngestRecord, Memtable
from repro.inventory.sstable import CorruptionError
from repro.inventory.wal import list_segments

RESOLUTION = 6
PORTS = ["SGSIN", "NLRTM", "USNYC"]
TYPES = ["cargo", "tanker"]


def _records(n, start=0):
    """Deterministic enriched records across a handful of cells/routes."""
    out = []
    for i in range(start, start + n):
        on_trip = i % 3 != 2
        origin = PORTS[i % len(PORTS)] if on_trip else None
        destination = PORTS[(i + 1) % len(PORTS)] if on_trip else None
        out.append(
            IngestRecord(
                mmsi=200_000_000 + (i % 7),
                ts=1_700_000_000.0 + i * 60.0,
                lat=1.0 + (i % 11) * 0.35,
                lon=103.0 + (i % 5) * 0.4,
                sog=8.0 + (i % 9),
                cog=float((i * 37) % 360),
                vessel_type=TYPES[i % len(TYPES)],
                heading=((i * 37) % 360) if i % 4 else None,
                trip_id=f"trip-{i % 5}" if on_trip else None,
                origin=origin,
                destination=destination,
                eto_s=3600.0 * (i % 6) if on_trip else None,
                ata_s=3500.0 * (i % 6) if on_trip and i % 2 else None,
                extras=(float(i % 13), None) if i % 2 else (),
            )
        )
    return out


def _reference(records):
    memtable = Memtable(RESOLUTION)
    for record in records:
        memtable.apply(record)
    return memtable


def _answers(inventory):
    """Every group's encoded summary — the byte-level read snapshot."""
    return {
        key: encode(summary.to_dict()) for key, summary in inventory.items()
    }


def _assert_semantically_equal(inventory, reference):
    """Served answers match an in-memory fold of the same records.

    Partitioned merge is not bit-identical to sequential update (t-digest
    centroid arrangement, float-sum ordering), so the comparison is per
    metric: exact where the sketch's merge is exact, tolerant for float
    moments.
    """
    got = dict(inventory.items())
    assert set(got) == set(reference.groups)
    for key, expected in reference.groups.items():
        summary = got[key]
        assert summary.records == expected.records, key
        assert summary.ships.cardinality() == expected.ships.cardinality(), key
        assert summary.mean_speed_kn() == pytest.approx(
            expected.mean_speed_kn(), rel=1e-9
        ), key


class TestFreshAndReopen:
    def test_fresh_directory_requires_resolution(self, tmp_path):
        with pytest.raises(ValueError):
            LiveInventory(tmp_path / "live")

    def test_resolution_remembered_and_checked(self, tmp_path):
        with LiveInventory(tmp_path / "live", resolution=RESOLUTION) as inv:
            inv.ingest(_records(5))
        with LiveInventory(tmp_path / "live") as inv:
            assert inv.resolution == RESOLUTION
        with pytest.raises(ValueError):
            LiveInventory(tmp_path / "live", resolution=RESOLUTION + 1)

    def test_reopen_replays_the_wal_byte_exact(self, tmp_path):
        records = _records(40)
        with LiveInventory(tmp_path / "live", resolution=RESOLUTION) as inv:
            ack = inv.ingest(records)
            assert ack.accepted == len(records) and ack.durable
            before = _answers(inv)
        with LiveInventory(tmp_path / "live") as inv:
            stats = inv.ingest_stats()
            assert stats["replayed"] == len(records)
            assert stats["memtable_records"] == len(records)
            assert _answers(inv) == before

    def test_reopen_after_flush_replays_only_the_tail(self, tmp_path):
        with LiveInventory(tmp_path / "live", resolution=RESOLUTION) as inv:
            inv.ingest(_records(30))
            inv.flush()
            inv.ingest(_records(10, start=30))
            before = _answers(inv)
        with LiveInventory(tmp_path / "live") as inv:
            stats = inv.ingest_stats()
            assert stats["replayed"] == 10  # flushed records live in the table
            assert stats["tables"] == 1
            assert _answers(inv) == before

    @pytest.mark.parametrize("damage", ["garbage", "wrong-version"])
    def test_damaged_manifest_is_typed_corruption(self, tmp_path, damage):
        directory = tmp_path / "live"
        with LiveInventory(directory, resolution=RESOLUTION) as inv:
            inv.ingest(_records(5))
            inv.flush()
        path = directory / MANIFEST_NAME
        if damage == "garbage":
            path.write_bytes(b"\x00\xff not a manifest {")
        else:
            manifest = json.loads(path.read_bytes())
            manifest["version"] += 1
            path.write_text(json.dumps(manifest))
        with pytest.raises(CorruptionError):
            LiveInventory(directory)
        with pytest.raises(CorruptionError):
            manifest_tables(directory)


class TestFlush:
    # With tier_base_bytes=1 every flushed table joins a merge as soon as
    # it has a same-tier neighbour, so the cascade can unlink the table
    # the flush just wrote before flush() returns.
    @pytest.mark.parametrize(
        "rounds, kwargs",
        [
            (1, {}),
            (3, dict(tier_fanout=2, tier_base_bytes=1, background_maintenance=False)),
            (3, dict(tier_fanout=2, tier_base_bytes=1)),
        ],
        ids=["once", "tier-cascade-inline", "tier-cascade-background"],
    )
    def test_flush_preserves_answers_byte_exact(self, tmp_path, rounds, kwargs):
        with LiveInventory(tmp_path / "live", resolution=RESOLUTION, **kwargs) as inv:
            for n in range(rounds):
                inv.ingest(_records(50, start=50 * n))
                before = _answers(inv)
                path = inv.flush()
                assert path is not None and path.exists()
                assert path in inv.table_paths
                assert _answers(inv) == before
                assert inv.ingest_stats()["memtable_records"] == 0

    def test_empty_flush_is_a_noop(self, tmp_path):
        with LiveInventory(tmp_path / "live", resolution=RESOLUTION) as inv:
            assert inv.flush() is None

    def test_flush_commits_manifest_and_retires_segments(self, tmp_path):
        with LiveInventory(tmp_path / "live", resolution=RESOLUTION) as inv:
            inv.ingest(_records(20))
            pre_segments = [seq for seq, _ in list_segments(inv.directory)]
            inv.flush()
            tables = manifest_tables(inv.directory)
            assert [p.name for p in tables] == ["tab-00000001.sst"]
            post_segments = [seq for seq, _ in list_segments(inv.directory)]
            # Every pre-flush segment was retired; appends continue in a
            # fresh one.
            assert not set(pre_segments) & set(post_segments)

    def test_auto_flush_at_threshold(self, tmp_path):
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION, flush_records=25
        ) as inv:
            ack = inv.ingest(_records(30))
            # ``flushed`` means sealed-and-scheduled: the table write
            # itself runs on the maintenance thread.
            assert ack.flushed
            assert inv.ingest_stats()["memtable_records"] == 0
            inv.wait_maintenance()
            stats = inv.ingest_stats()
            assert stats["tables"] == 1
            assert stats["flushes"] == 1
            assert stats["frozen_memtables"] == 0

    def test_multiple_flushes_accumulate_tables(self, tmp_path):
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION, tier_fanout=0
        ) as inv:
            for start in (0, 20, 40):
                inv.ingest(_records(20, start=start))
                inv.flush()
            assert inv.ingest_stats()["tables"] == 3
            _assert_semantically_equal(inv, _reference(_records(60)))


class TestCompaction:
    def test_compaction_merges_to_one_table(self, tmp_path):
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION, tier_fanout=0
        ) as inv:
            for start in (0, 15, 30):
                inv.ingest(_records(15, start=start))
                inv.flush()
            before = _answers(inv)
            inv.compact()
            stats = inv.ingest_stats()
            assert stats["tables"] == 1
            assert stats["compactions"] == 1
            assert _answers(inv) == before
            # The stale generations are gone from disk, and no table
            # has a second file.
            tables = sorted(p.name for p in inv.directory.glob("tab-*"))
            assert tables == ["tab-00000004.sst"]

    def test_auto_compaction_at_threshold(self, tmp_path):
        # Two same-tier tables with fanout 2: the flush job's policy
        # check submits a tier merge, and flush() waits for the cascade.
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION, tier_fanout=2
        ) as inv:
            for start in (0, 10):
                inv.ingest(_records(10, start=start))
                inv.flush()
            assert inv.ingest_stats()["tables"] == 1
            assert inv.ingest_stats()["compactions"] == 1

    def test_compacted_directory_reopens_equivalent(self, tmp_path):
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION, tier_fanout=0
        ) as inv:
            for start in (0, 15):
                inv.ingest(_records(15, start=start))
                inv.flush()
            inv.ingest(_records(10, start=30))  # unflushed tail
            inv.compact()
            before = _answers(inv)
        with LiveInventory(tmp_path / "live") as inv:
            assert _answers(inv) == before
            _assert_semantically_equal(inv, _reference(_records(40)))


class TestReferenceEquivalence:
    def test_partitioned_history_matches_single_fold(self, tmp_path):
        records = _records(120)
        with LiveInventory(
            tmp_path / "live",
            resolution=RESOLUTION,
            flush_records=40,
            tier_fanout=3,
        ) as inv:
            for i in range(0, len(records), 17):  # uneven batches
                inv.ingest(records[i : i + 17])
            inv.wait_maintenance()
            _assert_semantically_equal(inv, _reference(records))

    def test_point_and_route_queries_cross_sources(self, tmp_path):
        records = _records(60)
        reference = _reference(records)
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION, tier_fanout=0
        ) as inv:
            inv.ingest(records[:30])
            inv.flush()
            inv.ingest(records[30:])  # half in a table, half in memory
            for key, expected in reference.groups.items():
                got = inv.get(key)
                assert got is not None and got.records == expected.records
            missing = GroupKey(cell=latlng_to_cell(-60.0, -150.0, RESOLUTION))
            assert inv.get(missing) is None
            assert inv.cells() == reference.cells()
            route = inv.route_cells("SGSIN", "NLRTM", "cargo")
            ref_route = reference.route_groups("SGSIN", "NLRTM", "cargo")
            assert {c: s.records for c, s in route.items()} == {
                c: s.records for c, s in ref_route.items()
            }


class TestConcurrentReads:
    def test_reader_thread_during_flushes_sees_consistent_counts(self, tmp_path):
        """A reader racing flushes/compactions never sees a torn view:
        per-key record counts only ever step through the ingested
        prefixes, never double-count and never go backwards."""
        records = _records(200)
        key = GroupKey(
            cell=latlng_to_cell(records[0].lat, records[0].lon, RESOLUTION)
        )
        valid = set()
        count = 0
        for record in records:
            cell = latlng_to_cell(record.lat, record.lon, RESOLUTION)
            if cell == key.cell:
                count += 1
            valid.add(count)
        errors = []
        stop = threading.Event()

        with LiveInventory(
            tmp_path / "live",
            resolution=RESOLUTION,
            flush_records=30,
            tier_fanout=3,
        ) as inv:

            def read_loop():
                last = 0
                while not stop.is_set():
                    summary = inv.get(key)
                    seen = 0 if summary is None else summary.records
                    if seen not in valid and seen != 0:
                        errors.append(f"impossible count {seen}")
                        return
                    if seen < last:
                        errors.append(f"count went backwards {last}->{seen}")
                        return
                    last = seen

            reader = threading.Thread(target=read_loop)
            reader.start()
            try:
                for i in range(0, len(records), 10):
                    inv.ingest(records[i : i + 10])
            finally:
                stop.set()
                reader.join()
        assert errors == []


class TestReadsAreSideEffectFree:
    def test_reads_between_batches_do_not_change_the_flushed_table(
        self, tmp_path
    ):
        """Reads serialise shared active-memtable summaries; that must not
        move the t-digest centroids later records fold into.  Two cells
        and distinct speeds give each digest a long, varied buffer."""
        records = [
            replace(
                record,
                lat=1.0 + (i % 2) * 0.35,
                lon=103.0,
                sog=(i * 7919 % 1009) / 50.0,
            )
            for i, record in enumerate(_records(3000))
        ]
        key = GroupKey(
            cell=latlng_to_cell(records[0].lat, records[0].lon, RESOLUTION)
        )

        def flushed_bytes(directory, read):
            with LiveInventory(
                directory,
                resolution=RESOLUTION,
                flush_records=0,
                background_maintenance=False,
            ) as inv:
                for i in range(0, len(records), 50):
                    inv.ingest(records[i : i + 50])
                    if read:
                        inv.get(key)
                        list(inv.items())
                return inv.flush().read_bytes()

        assert flushed_bytes(tmp_path / "read", True) == flushed_bytes(
            tmp_path / "quiet", False
        )


class TestWireRecords:
    def test_ingest_records_parses_and_acks(self, tmp_path):
        with LiveInventory(tmp_path / "live", resolution=RESOLUTION) as inv:
            ack = inv.ingest_records([r.to_wire() for r in _records(5)])
            assert ack == {"accepted": 5, "durable": True, "flushed": False}

    def test_bad_record_names_its_index(self, tmp_path):
        with LiveInventory(tmp_path / "live", resolution=RESOLUTION) as inv:
            good = _records(1)[0].to_wire()
            bad = dict(good, lat=123.0)
            with pytest.raises(ValueError, match=r"records\[1\].*'lat'"):
                inv.ingest_records([good, bad])
            # Validation happens before any append: nothing was ingested.
            assert inv.ingest_stats()["records_ingested"] == 0

    def test_wire_roundtrip_preserves_every_field(self):
        for record in _records(8):
            assert IngestRecord.from_wire(record.to_wire()) == record

    def test_payload_roundtrip_preserves_every_field(self):
        for record in _records(8):
            assert IngestRecord.from_payload(record.to_payload()) == record


class TestLifecycle:
    def test_closed_inventory_rejects_writes(self, tmp_path):
        inv = LiveInventory(tmp_path / "live", resolution=RESOLUTION)
        inv.close()
        with pytest.raises(ValueError):
            inv.ingest(_records(1))
        inv.close()  # idempotent

    def test_orphan_table_swept_on_open(self, tmp_path):
        with LiveInventory(tmp_path / "live", resolution=RESOLUTION) as inv:
            inv.ingest(_records(10))
            directory = inv.directory
        # A crashed flush can leave a published-but-uncommitted table
        # and a staging file; recovery must delete both (their records
        # are still in the WAL).
        orphan = directory / "tab-00000009.sst"
        orphan.write_bytes(b"partial table bytes")
        staging = directory / "tab-00000010.sst.tmp"
        staging.write_bytes(b"staging bytes")
        with LiveInventory(tmp_path / "live") as inv:
            assert not orphan.exists()
            assert not staging.exists()
            assert inv.ingest_stats()["memtable_records"] == 10

    def test_manifest_tables_helper(self, tmp_path):
        assert manifest_tables(tmp_path) == []
        with LiveInventory(tmp_path / "live", resolution=RESOLUTION) as inv:
            inv.ingest(_records(5))
            inv.flush()
        assert [p.name for p in manifest_tables(tmp_path / "live")] == [
            "tab-00000001.sst"
        ]

    def test_sync_forces_durability(self, tmp_path):
        with LiveInventory(
            tmp_path / "live", resolution=RESOLUTION, sync_every=1000
        ) as inv:
            ack = inv.ingest(_records(3))
            assert not ack.durable
            inv.sync()
        with LiveInventory(tmp_path / "live") as inv:
            assert inv.ingest_stats()["memtable_records"] == 3
