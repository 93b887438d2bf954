"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli")
    path = directory / "archive.csv"
    code = main([
        "generate", "--seed", "5", "--vessels", "8", "--days", "5",
        "--interval", "900", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def inventory_table(archive):
    path = archive.parent / "inventory.sst"
    code = main([
        "build", "--archive", str(archive), "--out", str(path),
    ])
    assert code == 0
    return path


def test_generate_writes_archive_and_sidecar(archive):
    assert archive.exists()
    sidecar = archive.with_suffix(".fleet.csv")
    assert sidecar.exists()
    header = archive.read_text().splitlines()[0]
    assert header.startswith("MMSI,BaseDateTime")
    assert "segment" in sidecar.read_text().splitlines()[0]


def test_generate_is_deterministic(tmp_path, archive):
    again = tmp_path / "again.csv"
    main([
        "generate", "--seed", "5", "--vessels", "8", "--days", "5",
        "--interval", "900", "--out", str(again),
    ])
    assert again.read_text() == archive.read_text()


def test_build_creates_table(inventory_table):
    assert inventory_table.exists()
    assert inventory_table.stat().st_size > 1000


def test_info_reports_groups(inventory_table, capsys):
    code = main(["info", "--inventory", str(inventory_table)])
    assert code == 0
    output = capsys.readouterr().out
    assert "entries:" in output
    assert "cell_od_type" in output


def test_query_hits_a_known_cell(inventory_table, capsys):
    # Find a cell we know exists by scanning the table first.
    from repro.hexgrid import cell_to_latlng
    from repro.inventory import open_inventory
    from repro.inventory.keys import GroupingSet

    with open_inventory(inventory_table) as reader:
        key = next(
            key for key, _ in reader.scan()
            if key.grouping_set is GroupingSet.CELL
        )
    lat, lon = cell_to_latlng(key.cell)
    code = main([
        "query", "--inventory", str(inventory_table),
        "--lat", str(lat), "--lon", str(lon),
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "records:" in output
    assert "speed kn:" in output


def test_query_miss_returns_nonzero(inventory_table, capsys):
    code = main([
        "query", "--inventory", str(inventory_table),
        "--lat", "-55.0", "--lon", "-140.0",
    ])
    assert code == 1
    assert "no data" in capsys.readouterr().out


def test_render_writes_ppm(inventory_table, tmp_path):
    out = tmp_path / "map.ppm"
    code = main([
        "render", "--inventory", str(inventory_table),
        "--feature", "count", "--out", str(out),
        "--width", "90", "--height", "45",
    ])
    assert code == 0
    assert out.read_bytes().startswith(b"P6\n90 45\n255\n")


def test_windowed_build_creates_compacted_table(archive, tmp_path, capsys):
    out = tmp_path / "windowed.sst"
    code = main([
        "build", "--archive", str(archive), "--out", str(out),
        "--windows", "2",
    ])
    assert code == 0
    assert out.exists()
    assert not list(tmp_path.glob("windowed.sst.w*"))
    assert "(2 windows)" in capsys.readouterr().out


def test_compact_merges_tables(inventory_table, tmp_path, capsys):
    out = tmp_path / "compacted.sst"
    code = main([
        "compact", "--inputs", str(inventory_table), "--out", str(out),
    ])
    assert code == 0
    assert out.exists()
    assert "groups" in capsys.readouterr().out
    from repro.inventory import open_inventory

    with open_inventory(inventory_table) as a, open_inventory(out) as b:
        assert a.entry_count == b.entry_count


def test_compact_onto_input_is_a_clean_error(inventory_table, capsys):
    code = main([
        "compact", "--inputs", str(inventory_table),
        "--out", str(inventory_table),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_query_with_route_breakdown(inventory_table, capsys):
    from repro.hexgrid import cell_to_latlng
    from repro.inventory import open_inventory
    from repro.inventory.keys import GroupingSet

    with open_inventory(inventory_table) as reader:
        key = next(
            key for key, _ in reader.scan()
            if key.grouping_set is GroupingSet.CELL_OD_TYPE
        )
    lat, lon = cell_to_latlng(key.cell)
    code = main([
        "query", "--inventory", str(inventory_table),
        "--lat", str(lat), "--lon", str(lon),
        "--vessel-type", key.vessel_type,
        "--origin", key.origin, "--destination", key.destination,
    ])
    assert code == 0
    assert "records:" in capsys.readouterr().out


def test_missing_archive_is_a_clean_error(tmp_path, capsys):
    code = main([
        "build", "--archive", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "x.sst"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fsck_clean_table(inventory_table, capsys):
    code = main(["fsck", "--inventory", str(inventory_table)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok" in out
    assert "format v5" in out
    assert "route section: ok" in out


def test_fsck_corrupt_table_salvages(inventory_table, tmp_path, capsys):
    damaged = tmp_path / "damaged.sst"
    payload = bytearray(inventory_table.read_bytes())
    for offset in range(40, 80):
        payload[offset] ^= 0xFF
    damaged.write_bytes(bytes(payload))
    salvaged = tmp_path / "salvaged.sst"
    code = main([
        "fsck", "--inventory", str(damaged), "--salvage", str(salvaged),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "CORRUPT" in out
    assert "salvaged" in out
    # The salvaged table must itself pass fsck.
    assert main(["fsck", "--inventory", str(salvaged)]) == 0


def test_fsck_earlier_format_needs_rebuild(inventory_table, tmp_path, capsys):
    """An intact table of an earlier format is not damage: fsck says to
    rebuild it, exits non-zero, and does not try to salvage it."""
    stale = tmp_path / "v4.sst"
    stale.write_bytes(inventory_table.read_bytes().replace(b"POLINV5\n", b"POLINV4\n"))
    salvaged = tmp_path / "salvaged.sst"
    code = main(["fsck", "--inventory", str(stale), "--salvage", str(salvaged)])
    out = capsys.readouterr().out
    assert code == 1
    assert f"{stale}: needs rebuild (format v4)" in out
    assert "CORRUPT" not in out
    assert "salvaged" not in out
    assert not salvaged.exists()


def test_build_resume_flag(archive, tmp_path, capsys):
    out_table = tmp_path / "resumed.sst"
    code = main([
        "build", "--archive", str(archive), "--out", str(out_table),
        "--windows", "2", "--resume",
    ])
    assert code == 0
    assert out_table.exists()
    assert not (tmp_path / "resumed.sst.manifest").exists()


# -- tracing (repro build --trace / repro trace) ---------------------------------

#: The paper's Fig. 3 funnel: every stage of a build must appear in a
#: recorded trace, by exactly these span names.
FIG3_FUNNEL_SPANS = {
    "pipeline.clean",
    "pipeline.enrich",
    "pipeline.trips",
    "pipeline.project",
    "pipeline.aggregate",
}


@pytest.fixture(scope="module")
def build_trace(archive):
    """A fresh traced build: (trace path, table path)."""
    directory = archive.parent
    table = directory / "traced.sst"
    trace_path = directory / "build.trace"
    code = main([
        "build", "--archive", str(archive), "--out", str(table),
        "--windows", "2", "--trace", str(trace_path),
    ])
    assert code == 0
    return trace_path, table


def test_build_trace_records_the_fig3_funnel(build_trace):
    import json

    trace_path, _ = build_trace
    names = {
        json.loads(line)["name"]
        for line in trace_path.read_text().splitlines() if line.strip()
    }
    assert FIG3_FUNNEL_SPANS <= names, (
        f"missing funnel stages: {FIG3_FUNNEL_SPANS - names}"
    )
    # the build skeleton is traced too, table writes included
    assert {
        "pipeline.build", "pipeline.window", "pipeline.write", "pipeline.compact",
    } <= names
    assert "engine.partition" in names


def test_trace_command_renders_the_per_stage_profile(build_trace, capsys):
    trace_path, _ = build_trace
    code = main(["trace", "--trace", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:3] == ["span", "count", "errors"]
    rendered_spans = {line.split()[0] for line in lines[1:] if line.strip()}
    assert FIG3_FUNNEL_SPANS <= rendered_spans, (
        f"profile is missing funnel stages: {FIG3_FUNNEL_SPANS - rendered_spans}"
    )
    for line in lines[1:]:
        if line.split() and line.split()[0] in FIG3_FUNNEL_SPANS:
            assert "ms" in line and "%" in line  # timed, with a share


def test_trace_command_limit_truncates(build_trace, capsys):
    trace_path, _ = build_trace
    code = main(["trace", "--trace", str(trace_path), "--limit", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "more span names" in out


def test_trace_command_empty_file_fails_cleanly(tmp_path, capsys):
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    code = main(["trace", "--trace", str(empty)])
    assert code == 1
    assert "no spans recorded" in capsys.readouterr().out


def test_build_leaves_tracing_disabled(build_trace):
    from repro.obs import trace as obs

    assert not obs.enabled()


def test_serve_sinks_and_config_plumbing(tmp_path):
    """The serve CLI flags map onto sinks and ServerConfig correctly."""
    import argparse

    from repro.cli import _serve_config, _serve_sinks
    from repro.obs import JsonlSink, RingBufferSink

    args = argparse.Namespace(
        host="127.0.0.1", port=0, max_concurrency=4,
        request_timeout=5.0, idle_timeout=10.0,
        trace=tmp_path / "s.trace", trace_ring=32,
        slow_request_ms=250.0,
    )
    sinks = _serve_sinks(args)
    assert [type(s) for s in sinks] == [JsonlSink, RingBufferSink]
    assert sinks[1].capacity == 32
    config = _serve_config(args)
    assert config.slow_request_s == pytest.approx(0.25)
    args.trace = None
    args.trace_ring = 0
    args.slow_request_ms = None
    assert _serve_sinks(args) == []
    assert _serve_config(args).slow_request_s is None


def test_serve_requires_exactly_one_backend(tmp_path, capsys):
    assert main(["serve"]) == 2
    assert "exactly one of --inventory or --live" in capsys.readouterr().err
    code = main([
        "serve", "--inventory", str(tmp_path / "t.sst"),
        "--live", str(tmp_path / "live"),
    ])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_serve_backend_live_plumbing(tmp_path):
    """--live flags reach the LiveInventory constructor."""
    import argparse

    from repro.cli import _serve_backend
    from repro.inventory.live import LiveInventory

    args = argparse.Namespace(
        inventory=None, live=tmp_path / "live", resolution=5,
        sync_every=4, sync_interval=0.5, flush_records=123,
        tier_fanout=3, maintenance="inline", max_frozen=2,
        backpressure_wait=0.5, cache_blocks=64,
    )
    with _serve_backend(args) as backend:
        assert isinstance(backend, LiveInventory)
        assert backend.resolution == 5
        assert backend.flush_records == 123
        assert backend.policy.fanout == 3
        assert backend.maintenance.background is False
        assert backend.maintenance.max_frozen_memtables == 2
        assert backend.maintenance.backpressure_wait_s == pytest.approx(0.5)


def test_fsck_requires_a_target(capsys):
    assert main(["fsck"]) == 2
    assert "needs --inventory and/or --wal" in capsys.readouterr().err


@pytest.fixture()
def live_dir(tmp_path):
    """A live directory with a flushed table and a fresh WAL tail."""
    from repro.inventory.live import LiveInventory
    from repro.inventory.memtable import IngestRecord

    directory = tmp_path / "live"
    with LiveInventory(directory, resolution=6) as inventory:
        inventory.ingest([
            IngestRecord(
                mmsi=563_000_000 + i, ts=1_700_000_000.0 + i,
                lat=1.3, lon=103.8, sog=9.0, cog=45.0,
            )
            for i in range(6)
        ])
        inventory.flush()
        inventory.ingest([
            IngestRecord(
                mmsi=563_000_100 + i, ts=1_700_000_100.0 + i,
                lat=1.3, lon=103.8, sog=9.0, cog=45.0,
            )
            for i in range(2)
        ])
    return directory


def test_fsck_wal_clean(live_dir, capsys):
    assert main(["fsck", "--wal", str(live_dir)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "table tab-00000001.sst: ok" in out


def test_fsck_wal_torn_tail_exits_zero(live_dir, capsys):
    from repro.inventory.wal import list_segments

    _, tail = list_segments(live_dir)[-1]
    with open(tail, "ab") as handle:
        handle.write(b"\x00\x00")
    assert main(["fsck", "--wal", str(live_dir)]) == 0
    assert "recoverable torn tail" in capsys.readouterr().out


def test_fsck_wal_hard_corruption_exits_one(live_dir, capsys):
    from repro.inventory.wal import list_segments

    _, tail = list_segments(live_dir)[-1]
    data = bytearray(tail.read_bytes())
    # Flip a payload bit of the FIRST of the tail's two entries: a CRC
    # failure with a valid entry after it is interior damage, not a tear.
    data[9 + 8] ^= 0x40
    tail.write_bytes(bytes(data))
    assert main(["fsck", "--wal", str(live_dir)]) == 1
    assert "HARD WAL corruption" in capsys.readouterr().out


def test_fsck_wal_corrupt_manifest_table_exits_one(live_dir, capsys):
    table = live_dir / "tab-00000001.sst"
    data = bytearray(table.read_bytes())
    data[len(data) // 2] ^= 0x40
    table.write_bytes(bytes(data))
    assert main(["fsck", "--wal", str(live_dir)]) == 1
    out = capsys.readouterr().out
    assert "table tab-00000001.sst: CORRUPT" in out
    assert "salvage" in out


def test_fsck_wal_earlier_format_table_needs_rebuild(live_dir, capsys):
    table = live_dir / "tab-00000001.sst"
    table.write_bytes(table.read_bytes().replace(b"POLINV5\n", b"POLINV4\n"))
    assert main(["fsck", "--wal", str(live_dir)]) == 1
    out = capsys.readouterr().out
    assert "table tab-00000001.sst: needs rebuild (format v4)" in out
    assert "CORRUPT" not in out


def test_fsck_wal_orphan_staged_table_exits_three(live_dir, capsys):
    """A table the manifest never committed is an orphan (exit 3), not
    corruption (exit 1): the crash between table write and manifest
    commit leaves it behind by design, and the WAL covers its records."""
    orphan = live_dir / "tab-00000099.sst"
    orphan.write_bytes((live_dir / "tab-00000001.sst").read_bytes())
    (live_dir / "tab-00000042.sst.tmp").write_bytes(b"partial staging write")
    assert main(["fsck", "--wal", str(live_dir)]) == 3
    out = capsys.readouterr().out
    assert "orphan tab-00000099.sst" in out
    assert "orphan tab-00000042.sst.tmp" in out
    assert "safe to delete" in out
    # The committed table is still reported healthy alongside.
    assert "table tab-00000001.sst: ok" in out


def test_fsck_corruption_dominates_orphans(live_dir, inventory_table, capsys):
    """--inventory corruption (1) must not be masked by a benign
    --wal orphan report (3)."""
    damaged = live_dir.parent / "damaged.sst"
    data = bytearray(inventory_table.read_bytes())
    data[len(data) // 2] ^= 0x40
    damaged.write_bytes(bytes(data))
    (live_dir / "tab-00000099.sst").write_bytes(b"orphan")
    code = main([
        "fsck", "--inventory", str(damaged), "--wal", str(live_dir),
    ])
    assert code == 1
    assert "orphan tab-00000099.sst" in capsys.readouterr().out


def test_feed_records_from_csv_archive(archive):
    """The ingest feed reader: NOAA CSV rows become wire records, the
    fleet sidecar supplies vessel_type, heading 511 travels as absent."""
    import argparse

    from repro.ais.messages import HEADING_NOT_AVAILABLE
    from repro.cli import _feed_records, _read_fleet
    from repro.inventory.memtable import IngestRecord

    sidecar = archive.with_suffix(".fleet.csv")
    segments = {
        vessel.mmsi: vessel.segment.value for vessel in _read_fleet(sidecar)
    }
    args = argparse.Namespace(feed=archive, nmea=False)
    records = list(_feed_records(args, segments))
    assert records
    for record in records:
        assert record.get("heading") != HEADING_NOT_AVAILABLE
        assert record["vessel_type"] == segments[record["mmsi"]]
        IngestRecord.from_wire(record)  # every record is ingestable
