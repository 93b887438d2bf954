"""Command-line interface: the whole loop without writing Python.

::

    python -m repro generate --vessels 24 --days 14 --out archive.csv
    python -m repro build    --archive archive.csv --resolution 6 --out inv.sst
    python -m repro compact  --inputs day1.sst day2.sst --out week.sst
    python -m repro query    --inventory inv.sst --lat 1.2 --lon 103.8
    python -m repro serve    --inventory inv.sst --port 7077
    python -m repro serve    --live live_dir/ --resolution 6 --port 7077
    python -m repro ingest   --feed archive.csv --port 7077
    python -m repro render   --inventory inv.sst --feature speed --out map.ppm
    python -m repro info     --inventory inv.sst
    python -m repro fsck     --inventory inv.sst [--salvage fixed.sst]
    python -m repro trace    --trace build.trace

``generate`` writes a NOAA-style CSV archive plus sidecar fleet/port CSVs;
``build`` runs the pipeline and persists the inventory as windowed,
compacted SSTables (``--resume`` continues an interrupted windowed
build from its manifest); ``compact`` k-way merges tables; ``query`` and
``render`` serve straight from a table through the block-cached
:class:`~repro.inventory.backend.SSTableInventory` — no command ever
materializes the whole store in memory.  ``serve`` exposes the same
table over TCP through the concurrent query server
(:mod:`repro.server`): bounded in-flight requests, per-request
deadlines, graceful drain on Ctrl-C.  ``serve --live`` opens a
:class:`~repro.inventory.live.LiveInventory` directory instead of a
read-only table: the server then also accepts ``ingest`` requests
(WAL + memtable write path, crash-recovery on open), and ``repro ingest``
feeds it from a CSV or NMEA file — optionally tailing the file as a
receiver would.  ``fsck`` verifies every checksum in a table and can
salvage the readable blocks of a damaged one; ``fsck --wal`` triages a
live directory's WAL segments (recoverable torn tail vs hard
corruption).

Tracing (``repro.obs``): ``build --trace spans.jsonl`` records a span
per pipeline stage (the paper's Fig. 3 funnel) and ``repro trace``
renders the recorded file as a per-stage profile table;
``serve --trace`` does the same for requests, ``serve --trace-ring``
keeps the last N spans queryable live via the ``trace`` request, and
``serve --metrics-port`` exposes Prometheus-style ``GET /metrics``.

Each handler imports what its subcommand runs; at module level this file
imports only what argument parsing needs, so ``repro lint`` never loads
the pipeline and ``repro build`` never loads the server.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.inventory.backend import SSTableInventory
    from repro.world.fleet import Vessel

#: ``ingest --follow``: seconds between polls of the feed.
INGEST_POLL_S = 2.0
#: ``ingest``: per-request client timeout in seconds.
INGEST_TIMEOUT_S = 10.0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Patterns of Life: maritime mobility inventory tools",
    )
    commands = parser.add_subparsers(required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic AIS archive"
    )
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("--vessels", type=int, default=24)
    generate.add_argument("--days", type=float, default=14.0)
    generate.add_argument("--interval", type=float, default=600.0,
                          help="report interval in seconds")
    generate.add_argument("--out", type=Path, required=True,
                          help="positions CSV path (fleet/ports sidecars "
                               "derive from it)")
    generate.set_defaults(handler=_cmd_generate)

    build = commands.add_parser(
        "build", help="run the pipeline over an archive, persist the inventory"
    )
    build.add_argument("--archive", type=Path, required=True,
                       help="positions CSV from 'generate'")
    build.add_argument("--fleet", type=Path, default=None,
                       help="fleet sidecar CSV (default: <archive>.fleet.csv)")
    build.add_argument("--resolution", type=int, default=6)
    build.add_argument("--windows", type=int, default=1,
                       help="ingestion windows: one SSTable per window, "
                            "compacted into --out")
    build.add_argument("--out", type=Path, required=True,
                       help="inventory SSTable path")
    build.add_argument("--resume", action="store_true",
                       help="continue an interrupted windowed build: "
                            "reuse completed windows verified against "
                            "the build manifest")
    build.add_argument("--trace", type=Path, default=None,
                       help="record a span per pipeline stage to this "
                            "JSONL file (render with 'repro trace')")
    build.set_defaults(handler=_cmd_build)

    compact = commands.add_parser(
        "compact", help="k-way merge inventory tables into one"
    )
    compact.add_argument("--inputs", type=Path, nargs="+", required=True,
                         help="input SSTable paths")
    compact.add_argument("--out", type=Path, required=True,
                         help="compacted SSTable path (must not be an input)")
    compact.set_defaults(handler=_cmd_compact)

    query = commands.add_parser("query", help="point-query an inventory")
    query.add_argument("--inventory", type=Path, required=True)
    query.add_argument("--lat", type=float, required=True)
    query.add_argument("--lon", type=float, required=True)
    query.add_argument("--resolution", type=int, default=None,
                       help="grid resolution (default: inferred from the "
                            "table's keys)")
    query.add_argument("--vessel-type", default=None)
    query.add_argument("--origin", default=None)
    query.add_argument("--destination", default=None)
    query.set_defaults(handler=_cmd_query)

    serve = commands.add_parser(
        "serve", help="serve an inventory over TCP (length-prefixed JSON)"
    )
    serve.add_argument("--inventory", type=Path, default=None,
                       help="read-only SSTable to serve")
    serve.add_argument("--live", type=Path, default=None, metavar="DIR",
                       help="serve a live (WAL + memtable) inventory "
                            "directory instead: accepts 'ingest' "
                            "requests, recovers on open")
    serve.add_argument("--sync-every", type=int, default=1,
                       help="--live: fsync the WAL every N appends "
                            "(1 = every record is durable before ack)")
    serve.add_argument("--sync-interval", type=float, default=None,
                       help="--live: also fsync when this many seconds "
                            "passed since the last one")
    serve.add_argument("--flush-records", type=int, default=50_000,
                       help="--live: memtable records that seal it and "
                            "schedule a background flush (0 = manual)")
    serve.add_argument("--tier-fanout", type=int, default=4,
                       help="--live: same-size-tier tables that trigger "
                            "one tier compaction (0 = never compact)")
    serve.add_argument("--maintenance", choices=("background", "inline"),
                       default="background",
                       help="--live: run flush/compaction jobs on the "
                            "maintenance thread (default) or inline on "
                            "the ingest path (deterministic, stalls)")
    serve.add_argument("--max-frozen", type=int, default=None,
                       help="--live: sealed-but-unflushed memtables "
                            "that arm the ingest backpressure valve")
    serve.add_argument("--backpressure-wait", type=float, default=None,
                       help="--live: seconds an ingest may stall on the "
                            "valve before failing typed "
                            "(ingest_backpressure)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7077,
                       help="TCP port (0 = pick a free one and report it)")
    serve.add_argument("--resolution", type=int, default=None,
                       help="grid resolution (default: inferred)")
    serve.add_argument("--cache-blocks", type=int, default=256,
                       help="block-cache capacity shared by all connections")
    serve.add_argument("--max-concurrency", type=int, default=16,
                       help="in-flight request cap (excess requests queue "
                            "against their deadline)")
    serve.add_argument("--request-timeout", type=float, default=10.0,
                       help="per-request deadline in seconds")
    serve.add_argument("--idle-timeout", type=float, default=30.0,
                       help="per-connection read timeout in seconds")
    serve.add_argument("--trace", type=Path, default=None,
                       help="record request/handler/storage spans to "
                            "this JSONL file")
    serve.add_argument("--trace-ring", type=int, default=0, metavar="N",
                       help="keep the last N spans in memory, served "
                            "live via the 'trace' request (0 = off)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       help="also expose Prometheus-style GET /metrics "
                            "on this port (0 = pick a free one)")
    serve.add_argument("--slow-request-ms", type=float, default=None,
                       help="log (repro.server.slowlog) and count "
                            "successful requests slower than this")
    serve.set_defaults(handler=_cmd_serve)

    ingest = commands.add_parser(
        "ingest",
        help="feed a CSV/NMEA archive to a live server ('serve --live')",
    )
    ingest.add_argument("--feed", type=Path, required=True,
                        help="CSV archive (NOAA columns) or, with "
                             "--nmea, a file of NMEA sentences")
    ingest.add_argument("--nmea", action="store_true",
                        help="decode the feed as NMEA sentences instead "
                             "of CSV rows")
    ingest.add_argument("--fleet", type=Path, default=None,
                        help="fleet sidecar CSV mapping MMSI to market "
                             "segment (vessel_type is 'unknown' without)")
    ingest.add_argument("--host", default="127.0.0.1")
    ingest.add_argument("--port", type=int, default=7077)
    ingest.add_argument("--batch", type=int, default=256,
                        help="records per ingest frame")
    ingest.add_argument("--limit", type=int, default=None,
                        help="stop after this many records")
    ingest.add_argument("--follow", action="store_true",
                        help="keep tailing the feed for appended records, "
                             f"polling every {INGEST_POLL_S:g} s (Ctrl-C to "
                             "stop)")
    ingest.add_argument("--backpressure-retries", type=int, default=5,
                        help="retries (exponential backoff) when the "
                             "server answers ingest_backpressure before "
                             "giving up on a batch")
    ingest.set_defaults(handler=_cmd_ingest)

    trace = commands.add_parser(
        "trace", help="render a recorded JSONL trace as a per-span profile"
    )
    trace.add_argument("--trace", type=Path, required=True,
                       help="JSONL trace recorded by 'build --trace' or "
                            "'serve --trace'")
    trace.add_argument("--limit", type=int, default=None,
                       help="show only the top N span names by total time")
    trace.set_defaults(handler=_cmd_trace)

    render = commands.add_parser("render", help="render a feature map (PPM)")
    render.add_argument("--inventory", type=Path, required=True)
    render.add_argument("--resolution", type=int, default=None,
                        help="grid resolution (default: inferred)")
    render.add_argument("--feature", choices=("speed", "course", "count", "ata"),
                        default="speed")
    render.add_argument("--bbox", default="-65,72,-180,180",
                        help="lat_min,lat_max,lon_min,lon_max")
    render.add_argument("--width", type=int, default=360)
    render.add_argument("--height", type=int, default=170)
    render.add_argument("--out", type=Path, required=True)
    render.set_defaults(handler=_cmd_render)

    info = commands.add_parser("info", help="summarize an inventory table")
    info.add_argument("--inventory", type=Path, required=True)
    info.set_defaults(handler=_cmd_info)

    fsck = commands.add_parser(
        "fsck", help="verify a table's checksums; optionally salvage it"
    )
    fsck.add_argument("--inventory", type=Path, default=None,
                      help="SSTable to verify")
    fsck.add_argument("--wal", type=Path, default=None, metavar="DIR",
                      help="also verify a live directory: every WAL "
                           "segment (recoverable torn tail vs hard "
                           "corruption) and every manifest table")
    fsck.add_argument("--salvage", type=Path, default=None,
                      help="write the readable entries of a damaged table "
                           "to this path (must differ from --inventory)")
    fsck.set_defaults(handler=_cmd_fsck)

    from repro.analysis.runner import build_arg_parser as _lint_flags

    lint = commands.add_parser(
        "lint",
        help="check repro's source invariants (durability, locking, "
             "determinism, observability) with the static analyzer",
    )
    _lint_flags(lint)
    lint.set_defaults(handler=_cmd_lint)

    return parser


def _cmd_generate(args) -> int:
    from repro.ais.csvio import write_csv
    from repro.world.dataset import WorldConfig, generate_dataset

    data = generate_dataset(
        WorldConfig(
            seed=args.seed,
            n_vessels=args.vessels,
            days=args.days,
            report_interval_s=args.interval,
        )
    )
    count = write_csv(args.out, data.positions)
    fleet_path = _fleet_sidecar(args.out)
    with open(fleet_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["mmsi", "imo", "name", "callsign", "flag", "segment",
             "ship_type", "grt", "length_m", "beam_m", "design_speed_kn"]
        )
        for vessel in data.fleet:
            writer.writerow(
                [vessel.mmsi, vessel.imo, vessel.name, vessel.callsign,
                 vessel.flag, vessel.segment.value, vessel.ship_type,
                 vessel.grt, vessel.length_m, vessel.beam_m,
                 vessel.design_speed_kn]
            )
    print(f"wrote {count:,} reports to {args.out}")
    print(f"wrote {len(data.fleet)} vessels to {fleet_path}")
    return 0


def _cmd_build(args) -> int:
    from repro.ais.csvio import read_csv
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.run import build_inventory
    from repro.world.ports import PORTS

    fleet_path = args.fleet or _fleet_sidecar(args.archive)
    fleet = _read_fleet(fleet_path)
    positions = list(read_csv(args.archive))
    print(f"loaded {len(positions):,} reports and {len(fleet)} vessels")
    trace_sink = None
    if args.trace is not None:
        from repro.obs import trace as obs
        from repro.obs.sinks import JsonlSink

        trace_sink = JsonlSink(args.trace)
        obs.configure(trace_sink)
    try:
        result = build_inventory(
            positions,
            fleet,
            PORTS,
            PipelineConfig(resolution=args.resolution),
            output=args.out,
            windows=args.windows,
            resume=args.resume,
        )
    finally:
        if trace_sink is not None:
            from repro.obs import trace as obs

            obs.disable()
            trace_sink.close()
            print(f"wrote trace to {args.trace} (render: repro trace "
                  f"--trace {args.trace})")
    for stage, count in result.funnel.items():
        print(f"  {stage:<22} {count:>10,}")
    window_note = f" ({args.windows} windows)" if args.windows > 1 else ""
    print(f"wrote {result.entries:,} groups to {args.out}{window_note}")
    return 0


def _cmd_compact(args) -> int:
    from repro.inventory.compaction import merge_tables

    entries = merge_tables(args.inputs, args.out)
    print(
        f"compacted {len(args.inputs)} tables "
        f"({', '.join(str(p) for p in args.inputs)}) into {args.out}: "
        f"{entries:,} groups"
    )
    return 0


def _cmd_query(args) -> int:
    from repro.inventory.backend import SSTableInventory

    with SSTableInventory(
        args.inventory, resolution=args.resolution
    ) as inventory:
        return _print_summary(inventory, args)


def _print_summary(inventory: SSTableInventory, args) -> int:
    summary = inventory.summary_at(
        args.lat,
        args.lon,
        vessel_type=args.vessel_type,
        origin=args.origin,
        destination=args.destination,
    )
    if summary is None:
        print("no data for this cell")
        return 1
    print(f"records:      {summary.records}")
    print(f"ships:        {summary.ships.cardinality()}")
    print(f"trips:        {summary.trips.cardinality()}")
    speed = summary.speed_percentiles()
    print(f"speed kn:     mean {summary.mean_speed_kn():.1f} "
          f"p10/p50/p90 {speed[0]:.1f}/{speed[1]:.1f}/{speed[2]:.1f}")
    course = summary.mean_course_deg()
    print(f"course:       {'—' if course is None else f'{course:.0f}°'}")
    ata = summary.mean_ata_s()
    print(f"mean ATA:     {'—' if ata is None else f'{ata/3600.0:.1f} h'}")
    print(f"destinations: "
          + ", ".join(f"{t.value}×{t.count}"
                      for t in summary.destinations.top(5)))
    return 0


def _serve_config(args):
    """The server limits for 'serve' (split out so tests can pin the
    arg-to-config plumbing without binding a socket)."""
    from repro.server.server import ServerConfig

    slow_ms = args.slow_request_ms
    return ServerConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        request_timeout_s=args.request_timeout,
        idle_timeout_s=args.idle_timeout,
        slow_request_s=None if slow_ms is None else slow_ms / 1e3,
    )


def _serve_sinks(args) -> list:
    """The trace sinks 'serve' installs (JSONL file and/or live ring)."""
    from repro.obs.sinks import JsonlSink, RingBufferSink

    sinks: list = []
    if args.trace is not None:
        sinks.append(JsonlSink(args.trace))
    if args.trace_ring > 0:
        sinks.append(RingBufferSink(args.trace_ring))
    return sinks


def _serve_backend(args):
    """Open the backend 'serve' fronts: a read-only table, or — under
    ``--live`` — a crash-recovering WAL + memtable inventory that also
    accepts ``ingest`` requests."""
    if (args.inventory is None) == (args.live is None):
        raise ValueError("serve needs exactly one of --inventory or --live")
    if args.live is not None:
        from repro.inventory.live import LiveInventory

        kwargs = {}
        if getattr(args, "max_frozen", None) is not None:
            kwargs["max_frozen_memtables"] = args.max_frozen
        if getattr(args, "backpressure_wait", None) is not None:
            kwargs["backpressure_wait_s"] = args.backpressure_wait
        return LiveInventory(
            args.live,
            resolution=args.resolution,
            sync_every=args.sync_every,
            sync_interval_s=args.sync_interval,
            flush_records=args.flush_records,
            tier_fanout=args.tier_fanout,
            background_maintenance=(
                getattr(args, "maintenance", "background") != "inline"
            ),
            cache_blocks=args.cache_blocks,
            **kwargs,
        )
    from repro.inventory.backend import SSTableInventory

    return SSTableInventory(
        args.inventory, resolution=args.resolution, cache_blocks=args.cache_blocks
    )


def _cmd_serve(args) -> int:
    import asyncio

    from repro.obs import trace as obs
    from repro.server.server import serve
    from repro.server.service import InventoryService

    config = _serve_config(args)
    sinks = _serve_sinks(args)
    if sinks:
        obs.configure(*sinks)
    with _serve_backend(args) as inventory:
        if args.live is not None:
            stats = inventory.ingest_stats()
            print(f"live inventory {args.live}: {stats['tables']} tables, "
                  f"{stats['memtable_records']:,} replayed records at "
                  f"resolution {inventory.resolution} "
                  f"(sync_every={args.sync_every}, "
                  f"maintenance={stats['maintenance']}, "
                  f"tier_fanout={args.tier_fanout})")
        else:
            print(f"inventory {args.inventory}: {len(inventory):,} groups "
                  f"at resolution {inventory.resolution}")
        try:
            asyncio.run(
                serve(
                    InventoryService(inventory),
                    config,
                    metrics_port=args.metrics_port,
                )
            )
        except KeyboardInterrupt:
            print("interrupted: drained and closed")
        finally:
            if sinks:
                obs.disable()
                for sink in sinks:
                    close = getattr(sink, "close", None)
                    if callable(close):
                        close()
    return 0


def _feed_records(args, segments: dict[int, str]):
    """Yield wire-format ingest records from the feed file.

    CSV archives stream through :func:`repro.ais.csvio.read_csv` (NOAA
    columns, bad rows skipped); with ``--nmea`` the file is decoded
    sentence-by-sentence and non-position messages are dropped.  Either
    way a report becomes the wire dict ``InventoryClient.ingest``
    sends — reports with the position-not-available sentinels (lat 91 /
    lon 181) are dropped, heading 511 (the AIS not-available sentinel)
    travels as absent, and the fleet sidecar supplies ``vessel_type``.
    """
    from repro.ais.csvio import read_csv
    from repro.ais.messages import (
        HEADING_NOT_AVAILABLE,
        LAT_NOT_AVAILABLE,
        LON_NOT_AVAILABLE,
        PositionReport,
    )

    if args.nmea:
        from repro.ais.codec import decode_sentences

        def reports():
            with open(args.feed) as handle:
                yield from (
                    message
                    for message in decode_sentences(handle)
                    if isinstance(message, PositionReport)
                )
    else:
        def reports():
            yield from read_csv(args.feed)

    for report in reports():
        if report.lat >= LAT_NOT_AVAILABLE or report.lon >= LON_NOT_AVAILABLE:
            continue  # the vessel reported "position not available"
        record: dict = {
            "mmsi": report.mmsi,
            "ts": report.epoch_ts,
            "lat": report.lat,
            "lon": report.lon,
            "sog": report.sog,
            "cog": report.cog,
        }
        if report.heading != HEADING_NOT_AVAILABLE:
            record["heading"] = report.heading
        segment = segments.get(report.mmsi)
        if segment is not None:
            record["vessel_type"] = segment
        yield record


def _cmd_ingest(args) -> int:
    import time

    from repro.server.client import InventoryClient, ServerError
    from repro.server.protocol import ERR_INGEST_BACKPRESSURE

    if args.batch < 1:
        raise ValueError("--batch must be at least 1")
    segments: dict[int, str] = {}
    if args.fleet is not None:
        segments = {
            vessel.mmsi: vessel.segment.value
            for vessel in _read_fleet(args.fleet)
        }
    sent = 0
    durable = True

    def send(client, batch):
        """One batch, retrying typed write stalls with backoff — the
        server refused the batch outright (nothing was applied), so a
        resend cannot double-ingest."""
        delay = 0.25
        for attempt in range(max(0, args.backpressure_retries) + 1):
            try:
                return client.ingest(batch)
            except ServerError as exc:
                if (
                    exc.code != ERR_INGEST_BACKPRESSURE
                    or attempt == args.backpressure_retries
                ):
                    raise
                print(f"server backpressure (attempt {attempt + 1}): "
                      f"retrying in {delay:.2f}s", file=sys.stderr)
                time.sleep(delay)
                delay = min(delay * 2, 5.0)
        raise AssertionError("unreachable")

    try:
        with InventoryClient(
            args.host, args.port, timeout=INGEST_TIMEOUT_S
        ) as client:
            while True:
                batch: list[dict] = []
                already = sent
                skipped = 0
                for record in _feed_records(args, segments):
                    # --follow re-reads the feed each poll; records the
                    # server already acked are skipped by count, so only
                    # the appended tail travels again.
                    if skipped < already:
                        skipped += 1
                        continue
                    batch.append(record)
                    if args.limit is not None and sent + len(batch) >= args.limit:
                        break
                    if len(batch) >= args.batch:
                        ack = send(client, batch)
                        sent += int(ack.get("accepted", 0))
                        durable = bool(ack.get("durable", False))
                        batch = []
                if args.limit is not None:
                    batch = batch[: max(0, args.limit - sent)]
                if batch:
                    ack = send(client, batch)
                    sent += int(ack.get("accepted", 0))
                    durable = bool(ack.get("durable", False))
                if args.limit is not None and sent >= args.limit:
                    break
                if not args.follow:
                    break
                time.sleep(INGEST_POLL_S)
    except KeyboardInterrupt:
        pass
    except (ServerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"ingested {sent:,} records from {args.feed} before the "
              f"error", file=sys.stderr)
        return 1
    durability = "durable" if durable else "accepted (fsync pending)"
    print(f"ingested {sent:,} records from {args.feed} ({durability})")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.sinks import profile_records, read_trace, render_profile

    rows = profile_records(read_trace(args.trace))
    if not rows:
        print(f"no spans recorded in {args.trace}")
        return 1
    for line in render_profile(rows, limit=args.limit):
        print(line)
    return 0


def _cmd_render(args) -> int:
    from repro.apps.render import raster_from_inventory, write_ppm
    from repro.geo.polygon import BoundingBox
    from repro.inventory.backend import SSTableInventory

    lat_min, lat_max, lon_min, lon_max = (
        float(part) for part in args.bbox.split(",")
    )
    accessors = {
        "speed": lambda s: s.mean_speed_kn(),
        "course": lambda s: s.mean_course_deg(),
        "count": lambda s: float(s.records),
        "ata": lambda s: (s.mean_ata_s() or 0.0) / 3600.0,
    }
    # Rendering walks pixels row by row, so neighbouring samples hit the
    # same block: a generous cache turns the raster into ~one table read.
    with SSTableInventory(
        args.inventory, resolution=args.resolution, cache_blocks=256
    ) as inventory:
        raster = raster_from_inventory(
            inventory, accessors[args.feature],
            BoundingBox(lat_min, lat_max, lon_min, lon_max),
            width=args.width, height=args.height,
        )
    write_ppm(raster, args.out, colormap=args.feature)
    print(f"wrote {args.out} ({raster.coverage():.2%} coverage)")
    return 0


def _cmd_info(args) -> int:
    from repro.inventory.keys import GroupingSet
    from repro.inventory.sstable import open_inventory

    with open_inventory(args.inventory) as reader:
        print(f"entries: {reader.entry_count:,} in {reader.block_count} blocks")
        counts = {grouping_set: 0 for grouping_set in GroupingSet}
        records = 0
        for key, summary in reader.scan():
            counts[key.grouping_set] += 1
            if key.grouping_set is GroupingSet.CELL:
                records += summary.records
        for grouping_set, count in counts.items():
            print(f"  {grouping_set.value:<14} {count:>10,} groups")
        print(f"records aggregated: {records:,}")
    return 0


def _cmd_fsck(args) -> int:
    from repro.inventory.sstable import salvage_table, verify_table

    if args.inventory is None and args.wal is None:
        raise ValueError("fsck needs --inventory and/or --wal")
    exit_code = 0
    if args.inventory is not None:
        check = verify_table(args.inventory)
        for line in check.lines():
            print(line)
        if not check.ok:
            exit_code = 1
            # A table of another format is intact: rebuild, not salvage.
            if args.salvage is not None and not check.needs_rebuild:
                report = salvage_table(args.inventory, args.salvage)
                print(
                    f"salvaged {report.entries_recovered:,} entries to "
                    f"{report.output} ({report.entries_lost:,} lost, "
                    f"{len(report.blocks_skipped)} blocks skipped)"
                )
    if args.wal is not None:
        wal_code = _fsck_wal(args.wal)
        # Corruption (1) dominates orphans (3): numeric max would let a
        # benign orphan report mask a corrupt table in --inventory.
        if 1 in (exit_code, wal_code):
            exit_code = 1
        else:
            exit_code = max(exit_code, wal_code)
    return exit_code


def _fsck_wal(directory: Path) -> int:
    """Triage a live directory: WAL segments, manifest tables, orphans.

    A recoverable torn tail (the crash left a partial final entry —
    the next open truncates it and replays the rest) exits 0 with a
    warning; hard corruption (CRC failures with entries after them, or
    damage in a non-final segment) exits 1, and so does a manifest table
    of an earlier format (``needs rebuild``, not damage).  Orphan
    staged tables — ``tab-*.sst`` files the manifest does not reference,
    or ``*.tmp`` staging leftovers — exit 3: they are NOT corruption
    (a crash between the table write and the manifest commit leaves them
    behind by design, and the WAL still covers every record they hold),
    but they consume disk until deleted, so fsck names them distinctly.
    Corruption dominates orphans in the exit code.
    """
    from repro.inventory.live import manifest_tables
    from repro.inventory.sstable import verify_table
    from repro.inventory.wal import verify_wal

    check = verify_wal(directory)
    for line in check.lines():
        print(line)
    if check.hard_corruption:
        print(f"{directory}: HARD WAL corruption — acked records may be "
              f"lost; restore the directory from a replica or backup")
        return 1
    if check.torn_tail:
        print(f"{directory}: recoverable torn tail — the next open "
              f"truncates the partial entry and replays the rest")
    manifest = list(manifest_tables(directory))
    bad_tables = stale_tables = 0
    for table in manifest:
        table_check = verify_table(table)
        print(f"table {table.name}: {table_check.status}")
        if table_check.needs_rebuild:
            stale_tables += 1
        elif not table_check.ok:
            bad_tables += 1
    if bad_tables:
        print(f"{directory}: {bad_tables} manifest table(s) corrupt — "
              f"salvage with 'repro fsck --inventory <table> --salvage'")
    if stale_tables:
        print(f"{directory}: {stale_tables} manifest table(s) of an earlier "
              f"format — this release cannot read them; rebuild the inventory")
    if bad_tables or stale_tables:
        return 1
    referenced = {table.name for table in manifest}
    orphans = sorted(
        path.name
        for path in directory.glob("tab-*.sst")
        if path.name not in referenced
    ) + sorted(path.name for path in directory.glob("*.tmp"))
    for name in orphans:
        print(f"orphan {name}: staged but never committed to the manifest")
    if orphans:
        print(f"{directory}: {len(orphans)} orphan staged file(s) — a "
              f"crash before the manifest commit left them behind; the "
              f"WAL still covers their records, so they are safe to "
              f"delete to reclaim disk")
        return 3
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.runner import run_from_args

    return run_from_args(args)


def _fleet_sidecar(archive: Path) -> Path:
    return archive.with_suffix(".fleet.csv")


def _read_fleet(path: Path) -> list[Vessel]:
    from repro.ais.vesseltypes import MarketSegment
    from repro.world.fleet import Vessel

    fleet = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            fleet.append(
                Vessel(
                    mmsi=int(row["mmsi"]),
                    imo=int(row["imo"]),
                    name=row["name"],
                    callsign=row["callsign"],
                    flag=row["flag"],
                    segment=MarketSegment(row["segment"]),
                    ship_type=int(row["ship_type"]),
                    grt=int(row["grt"]),
                    length_m=int(row["length_m"]),
                    beam_m=int(row["beam_m"]),
                    design_speed_kn=float(row["design_speed_kn"]),
                )
            )
    return fleet


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
