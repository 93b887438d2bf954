"""``live_mixed``: ingest beside reads on one live server, then a crash.

``repro serve --live`` with a fixed, stated flush policy takes the
world's reports as closed-loop ``ingest`` batches on one connection
while a second connection reads already-acked cells on a fixed
schedule — the reader is paced so ingest throughput is measured against
a constant read load.  The record count is fixed by the run length, so
the number of flushes and compactions is the same every run.  Then the
server is ``SIGKILL``ed and the directory reopened in-process: every
record acked ``durable`` must still be there.

``kill -9`` leaves the OS page cache intact, so this checks
process-crash durability only (an fsync that lies is invisible here).
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

from bench import probes, world
from bench.config import Scale
from bench.loadgen import Lane, Request, drive
from bench.procs import Session
from bench.result import Outcome
from bench.stats import median, percentile
from bench.tracing import Tracer


def wire_records(positions: list, segments: dict[int, str]) -> list[dict]:
    """Reports as ``ingest`` wire records, the way ``repro ingest`` sends
    them (heading 511 absent).  The archive is dirty on purpose; reports
    whose position the wire format rejects — the not-available sentinels
    and corrupted longitudes — are dropped, so no operation fails."""
    from repro.ais.messages import HEADING_NOT_AVAILABLE

    records = []
    for report in positions:
        if not (-90.0 <= report.lat <= 90.0 and -180.0 <= report.lon <= 180.0):
            continue
        record = {
            "mmsi": report.mmsi, "ts": report.epoch_ts, "lat": report.lat,
            "lon": report.lon, "sog": report.sog, "cog": report.cog,
        }
        if report.heading != HEADING_NOT_AVAILABLE:
            record["heading"] = report.heading
        if report.mmsi in segments:
            record["vessel_type"] = segments[report.mmsi]
        records.append(record)
    return records


def live_flags(scale: Scale) -> tuple[str, ...]:
    """The flush policy, identical for the served run and the replay."""
    return (
        "--resolution", str(scale.resolution),
        "--sync-every", str(scale.ingest_batch),
        "--flush-records", str(scale.flush_records),
        "--tier-fanout", str(scale.tier_fanout),
        "--maintenance", "background",
    )


def dir_bytes(directory: Path) -> int:
    """Bytes of every file under ``directory``."""
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def run(
    session: Session, scale: Scale, seed: int, seconds: float, tracer: Tracer | None
) -> Outcome:
    """One live_mixed run."""
    from repro.hexgrid import latlng_to_cell
    from repro.inventory import GroupKey, LiveInventory
    from repro.obs import trace as obs
    from repro.server.client import InventoryClient
    from repro.server.protocol import encode_frame

    out = Outcome()
    live_dir = session.dir / "live"

    # -- set-up ------------------------------------------------------------------------
    archive = world.generate(session, scale)
    started = time.perf_counter()
    server = session.start_server("--live", str(live_dir), *live_flags(scale))
    out.put("setup_s", archive.run.wall_s + time.perf_counter() - started)
    issued = 1  # the readiness ping

    # -- plan: a fixed number of records, in fixed batches --------------------------------
    positions = archive.positions()
    records = wire_records(
        positions,
        {vessel.mmsi: vessel.segment.value for vessel in archive.fleet()},
    )
    batch = scale.ingest_batch
    wanted = int(scale.ingest_nominal_rate * seconds)
    count = max(batch, min(wanted, len(records)) // batch * batch)
    # The seed picks where in the archive the ingested window starts.
    start = random.Random(seed).randrange(len(records))
    records = (records[start:] + records[:start])[:count]
    cells = [int(latlng_to_cell(r["lat"], r["lon"], scale.resolution)) for r in records]
    requests = [
        {"id": 0, "type": "ingest", "records": records[at : at + batch]}
        for at in range(0, count, batch)
    ]
    frames = [encode_frame(request) for request in requests]
    wire_bytes = sum(len(frame) for frame in frames)

    acked = 0  # records acked so far; the reader only asks for these
    durable_batches: list[bool] = []  # per batch, in order: acked durable=true?

    def on_ack(tag: str, payload: bytes) -> bool:
        nonlocal acked
        response = json.loads(payload)
        ack = response["result"]["ingest"] if response.get("ok") else {}
        durable_batches.append(bool(ack.get("durable")))
        acked += ack.get("accepted", 0)
        return ack.get("accepted") == batch

    def reads() -> Iterator[Request]:
        rng = random.Random(seed * 1000 + 1)
        while True:
            record = records[rng.randrange(max(1, acked))]
            yield "summary_at", encode_frame(
                {"id": 0, "type": "summary_at", "lat": record["lat"], "lon": record["lon"]}
            )

    # -- measured: closed-loop writer beside an open-loop reader ---------------------------
    writer = Lane(server.address, (("ingest", frame) for frame in frames), on_response=on_ack)
    reader = Lane(server.address, reads(), rate=scale.reader_rate, follow=True)
    cpu_before = time.process_time()
    wall = drive([writer, reader])
    cpu_share = (time.process_time() - cpu_before) / wall
    acks = writer.samples.latencies()
    from_due = reader.samples.latencies()
    late = reader.samples.late()
    writer_wall = writer.samples.done[-1] - writer.samples.ref[0] if acks else wall
    issued += out.tally(writer) + out.tally(reader)
    out.check(acked == count, f"{acked} of {count} records were acked")
    out.put("throughput", acked / writer_wall, len(acks))
    out.put("ingest_records_per_s", acked / writer_wall, len(acks))
    out.put("lat_p50_ms", median(from_due) * 1e3, len(from_due))
    out.put("lat_p99_ms", percentile(from_due, 0.99) * 1e3, len(from_due))
    out.put("ack_p50_ms", median(acks) * 1e3, len(acks))
    out.put("ack_p95_ms", percentile(acks, 0.95) * 1e3, len(acks))

    with InventoryClient(*server.address) as control:
        stats = control.stats()
    served = probes.check_request_count(out, stats, issued)
    out.put("peak_rss_mb", server.peak_rss_mb())
    out.put("server_rss_mb", server.peak_rss_mb())

    # -- crash, then recover in-process --------------------------------------------------
    server.kill()
    out.put("stored_bytes_per_report", dir_bytes(live_dir) / count)
    recovery = _ProgramSpans()
    if tracer is not None:
        obs.configure(recovery)
    opens = []
    try:
        for _ in range(scale.reopen_repeats):
            started = time.perf_counter()
            store = LiveInventory(live_dir)
            opens.append(time.perf_counter() - started)
            store.close()
    finally:
        if tracer is not None:
            obs.disable()
    out.put("recover_s", median(opens), len(opens))

    expected = Counter(
        cell
        for index, durable in enumerate(durable_batches) if durable
        for cell in cells[index * batch : (index + 1) * batch]
    )
    short = 0
    total = 0
    with LiveInventory(live_dir) as recovered:
        for cell, minimum in expected.items():
            summary = recovered.get(GroupKey(cell=cell))
            found = 0 if summary is None else summary.records
            total += found
            if found < minimum:
                short += 1
        if tracer is not None:
            summaries = [
                recovered.get(GroupKey(cell=cell)) for cell in list(expected)[: scale.probe_ops]
            ]
    out.check(
        short == 0,
        f"{short} of {len(expected)} cells hold fewer records after SIGKILL + "
        f"reopen than were acked durable",
    )
    # Nothing was in flight at the kill, so recovery is exact, not just >=.
    out.check(
        not all(durable_batches) or total == acked,
        f"recovered {total} records in the acked cells, {acked} were acked",
    )

    if tracer is not None:
        ingest = stats["inventory"]["ingest"]
        out.put("loadgen.cpu_share", cpu_share)
        out.put("loadgen.late_p99_ms", percentile(late, 0.99) * 1e3, len(late))
        out.put("server.op.summary_at_p50_ms", median(from_due) * 1e3, len(from_due))
        probes.put_server_metrics(out, stats, served)
        out.put("inventory.live.flushes", ingest["flushes"])
        out.put("inventory.live.compactions", ingest["compactions"])
        out.put("inventory.live.tables_at_end", ingest["tables"])
        out.put("inventory.maintenance.backpressure_waits", ingest["backpressure_waits"])
        out.put("inventory.maintenance.stall_max_ms", max(acks) * 1e3, len(acks))
        out.put("inventory.wal.replay_s", median(recovery.walls("wal.replay")))
        out.put("inventory.wal.replayed_records", next(
            r["attrs"]["entries"] for r in reversed(recovery.records) if r["name"] == "wal.replay"
        ))
        probes.probe_hexgrid(tracer, out, positions[: scale.probe_ops], scale.resolution)
        probes.probe_fold(tracer, out, positions[: scale.probe_ops])
        probes.probe_codec(tracer, out, summaries)
        _replay_in_process(session, scale, tracer, out, requests, wire_bytes, cells)
    return out


#: The program's spans that each publish exactly one new table.
TABLE_WRITING_SPANS = ("ingest.flush", "compaction.tier")


class _ProgramSpans:
    """An ``obs`` sink keeping the program's own span records and, when
    given the live ``directory``, the bytes of every table a flush or
    tier compaction published."""

    def __init__(self, directory: Path | None = None) -> None:
        self.records: list[dict] = []
        self.directory = directory
        self.table_bytes = 0

    def record(self, record: dict) -> None:
        """Keep one finished span."""
        self.records.append(record)
        if self.directory is not None and record["name"] in TABLE_WRITING_SPANS:
            # Jobs are serialised: the newest table is this job's output.
            self.table_bytes += max(self.directory.glob("tab-*.sst")).stat().st_size

    def walls(self, name: str) -> list[float]:
        """Seconds of every recorded span called ``name``."""
        return [r["wall_s"] for r in self.records if r["name"] == name]


def _replay_in_process(
    session: Session,
    scale: Scale,
    tracer: Tracer,
    out: Outcome,
    requests: list[dict],
    wire_bytes: int,
    cells: list[int],
) -> None:
    """Feed the same batches to a ``LiveInventory`` in this process with
    maintenance inline, so flushes and compactions happen at the same
    record counts every time and the bytes they write repeat exactly.
    Same flush policy as the served run; spans around the service
    handler, ``ingest``, and the write path's public pieces.
    """
    from repro.inventory import GroupKey, IngestRecord, LiveInventory, Memtable, WalWriter
    from repro.inventory import wal
    from repro.obs import trace as obs
    from repro.server import InventoryService

    directory = session.dir / "replay"
    program = _ProgramSpans(directory)
    live = LiveInventory(
        directory,
        resolution=scale.resolution,
        sync_every=scale.ingest_batch,
        flush_records=scale.flush_records,
        tier_fanout=scale.tier_fanout,
        background_maintenance=False,
    )
    obs.configure(program)
    try:
        live.ingest = tracer.wrap("inventory.live.ingest", live.ingest)
        service = InventoryService(live)
        for request in requests:
            with tracer.span("server.service.handle_ingest"):
                service.handle(request)
        sample = random.Random(0).sample(cells, min(scale.probe_ops, len(cells)))
        probes.timed(tracer, "inventory.live.get",
                     lambda cell: live.get(GroupKey(cell=cell)), sample)
        fsyncs = live.counters.value(wal.COUNTER_FSYNCS)
        spread_bytes = sum(path.stat().st_size for path in live.table_paths)
        live.compact()
        live.wait_maintenance()
        compacted_bytes = sum(path.stat().st_size for path in live.table_paths)
    finally:
        obs.disable()
        live.close()

    records = [IngestRecord.from_wire(raw) for request in requests for raw in request["records"]]
    wal_dir = session.dir / "wal-probe"
    wal_dir.mkdir()
    writer = WalWriter(wal_dir, sync_every=scale.ingest_batch)
    probes.timed(tracer, "inventory.wal.append",
                 lambda record: writer.append(record.to_payload()), records[: scale.probe_ops])
    writer.close()
    wal_per_record = dir_bytes(wal_dir) / min(scale.probe_ops, len(records))
    memtable = Memtable(scale.resolution)
    probes.timed(tracer, "inventory.memtable.apply", memtable.apply, records[: scale.probe_ops])

    written = wal_per_record * len(records) + program.table_bytes
    out.put("server.service.handle_ingest_us", tracer.median_us("server.service.handle_ingest"))
    out.put("inventory.live.ingest_us_per_record",
            tracer.median_us("inventory.live.ingest") / scale.ingest_batch)
    out.put("inventory.memtable.apply_us", tracer.median_us("inventory.memtable.apply"))
    out.put("inventory.wal.append_us", tracer.median_us("inventory.wal.append"))
    out.put("inventory.wal.fsyncs", fsyncs)
    out.put("inventory.wal.bytes_per_record", wal_per_record)
    out.put("inventory.live.get_us", tracer.median_us("inventory.live.get"))
    flushes, compactions = program.walls("ingest.flush"), program.walls("compaction.tier")
    out.put("inventory.live.flush_s", median(flushes) if flushes else 0.0, len(flushes))
    out.put("inventory.live.compact_s", median(compactions) if compactions else 0.0,
            len(compactions))
    out.put("inventory.live.write_amp", written / wire_bytes)
    out.put("inventory.live.space_amp",
            spread_bytes / compacted_bytes if compacted_bytes else 0.0)
