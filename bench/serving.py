"""``serve_hot`` and ``serve_uniform``: one read-only table, two traffic shapes.

Both serve the same ``repro build`` output through ``repro serve
--inventory`` and differ in the one property the read path's behaviour
depends on — working set against the block cache:

- **hot**: single ``summary_at`` / ``top_destinations_at`` / ``eta``
  requests over the busiest cells, fewer blocks than the cache holds.
  Per-request server overhead, framing and decode dominate; storage
  reads are ≈ 0.
- **uniform**: ``multi_get`` frames of keys drawn from every cell of the
  table against a cache a fraction of its size.  Block reads, eviction
  and decode dominate; framing is amortised over the batch.
"""

from __future__ import annotations

import base64
import itertools
import random
import time
from collections.abc import Iterator

from bench import probes, world
from bench.config import Scale
from bench.loadgen import Lane, Request, drive
from bench.procs import Session
from bench.result import Outcome
from bench.stats import median, percentile, window_medians
from bench.tracing import Tracer

#: serve_hot's mix: (cumulative share, request type).
HOT_MIX = ((0.50, "summary_at"), (0.75, "top_destinations_at"), (1.00, "eta"))
#: Harness CPU / wall above which the generator, not the program, is
#: what the run measured.
MAX_GENERATOR_CPU_SHARE = 0.9


def hot_requests(points: list[tuple[float, float]], rng: random.Random) -> Iterator[Request]:
    """The hot mix over ``points``, frames encoded once per (type, cell)."""
    from repro.server.protocol import encode_frame

    frames = {
        kind: [
            encode_frame({"id": 0, "type": kind, "lat": lat, "lon": lon})
            for lat, lon in points
        ]
        for _, kind in HOT_MIX
    }
    while True:
        draw = rng.random()
        kind = next(kind for share, kind in HOT_MIX if draw < share)
        yield kind, frames[kind][rng.randrange(len(points))]


def uniform_requests(
    points: list[tuple[float, float]], rng: random.Random, keys: int
) -> Iterator[Request]:
    """One ``multi_get`` of ``keys`` uniformly drawn cells per request."""
    from repro.server.protocol import encode_frame

    while True:
        batch = [{"lat": lat, "lon": lon} for lat, lon in rng.choices(points, k=keys)]
        yield "multi_get", encode_frame({"id": 0, "type": "multi_get", "keys": batch})


def summary_only(points: list[tuple[float, float]], rng: random.Random) -> Iterator[Request]:
    """``summary_at`` alone (the paced phases and the idle round trip)."""
    from repro.server.protocol import encode_frame

    frames = [
        encode_frame({"id": 0, "type": "summary_at", "lat": lat, "lon": lon})
        for lat, lon in points
    ]
    while True:
        yield "summary_at", rng.choice(frames)


def completions_of(lanes: list[Lane]) -> tuple[list[tuple[float, float, str]], float]:
    """Every lane's (done time, latency, tag) triples and the moment the
    first request of any lane was sent."""
    completions = [
        (done, done - ref, tag)
        for lane in lanes
        for done, ref, tag in zip(lane.samples.done, lane.samples.ref, lane.samples.tags)
    ]
    return completions, min(lane.samples.ref[0] for lane in lanes if lane.samples.ref)


def run(
    session: Session,
    scale: Scale,
    seed: int,
    seconds: float,
    tracer: Tracer | None,
    hot: bool,
) -> Outcome:
    """One serve_hot (``hot=True``) or serve_uniform run."""
    from repro.hexgrid import cell_to_latlng
    from repro.inventory import GroupKey, SSTableInventory
    from repro.inventory.codec import encode
    from repro.server import protocol
    from repro.server.client import InventoryClient

    out = Outcome()
    cache_blocks = scale.hot_cache_blocks if hot else scale.uniform_cache_blocks

    # -- set-up: everything before the first measured request ---------------------
    archive = world.generate(session, scale)
    table, build_run = world.build(session, scale, archive, "inventory.sst")
    started = time.perf_counter()
    server = session.start_server(
        "--inventory", str(table), "--cache-blocks", str(cache_blocks)
    )
    out.put("setup_s", archive.run.wall_s + build_run.wall_s + time.perf_counter() - started)
    issued = 1  # the readiness ping

    # -- plan the keys (harness-side, from the generated inputs only) --------------
    positions = archive.positions()
    twin = SSTableInventory(table, cache_blocks=cache_blocks)
    cells = []
    for cell in world.cells_by_traffic(positions, scale.resolution):
        if twin.get(GroupKey(cell=cell)) is not None:
            cells.append(cell)
            if hot and len(cells) == scale.hot_cells:
                break
    points = [cell_to_latlng(cell) for cell in cells]

    def stream(index: int) -> Iterator[Request]:
        rng = random.Random(seed * 1000 + index)
        if hot:
            return hot_requests(points, rng)
        return uniform_requests(points, rng, scale.multi_get_keys)

    def lanes_for(make) -> list[Lane]:
        return [Lane(server.address, make(i)) for i in range(scale.connections)]

    def finish(lanes: list[Lane]) -> None:
        nonlocal issued
        issued += sum(out.tally(lane) for lane in lanes)

    # -- closed loop: callers that wait for each reply ------------------------------
    warm = lanes_for(lambda i: stream(100 + i))
    drive(warm, scale.warmup_s)
    finish(warm)
    out.attempted = out.failed = 0  # warm-up is not measured

    closed = lanes_for(stream)
    cpu_before = time.process_time()
    wall = drive(closed, seconds)
    cpu_share = (time.process_time() - cpu_before) / wall
    measured = "summary_at" if hot else "multi_get"
    completions, first = completions_of(closed)
    finish(closed)
    rate, p50, p99 = window_medians(completions, first, seconds, measured)
    samples = sum(1 for _, _, tag in completions if tag == measured)
    out.put("throughput", rate, len(completions))
    out.put("qps", rate, len(completions))
    out.put("lat_p50_ms", p50 * 1e3, samples)
    out.put("lat_p99_ms", p99 * 1e3, samples)
    out.check(
        cpu_share < MAX_GENERATOR_CPU_SHARE,
        f"load generator used {cpu_share:.0%} of a CPU: the run measured the "
        f"generator, not the program",
    )
    if tracer is not None and hot:
        # The same loop again with a span per request; what it loses
        # against the loop above is what tracing costs.
        traced = lanes_for(lambda i: stream(500 + i))
        drive(traced, seconds, lambda tag, ref, now: tracer.add(f"client.{tag}", ref, now))
        traced_rate, _, _ = window_medians(*completions_of(traced), seconds, measured)
        finish(traced)
        out.put("trace.overhead_share", (rate - traced_rate) / rate)

    # -- open loop: independent users on a schedule (hot only) ----------------------
    late: list[float] = []
    if hot and scale.paced_phases:
        for paced_rate, phase_seconds in scale.paced_phases:
            paced = [
                Lane(
                    server.address,
                    summary_only(points, random.Random(seed * 1000 + 200 + i)),
                    rate=paced_rate / scale.connections,
                    phase=i / paced_rate,
                )
                for i in range(scale.connections)
            ]
            drive(paced, phase_seconds)
            from_due = [s for lane in paced for s in lane.samples.latencies()]
            late = [s for lane in paced for s in lane.samples.late()]
            finish(paced)
        out.put("paced_p99_ms", percentile(from_due, 0.99) * 1e3, len(from_due))

    # -- what the server says about itself, then the correctness sample -------------
    with InventoryClient(*server.address) as control:
        stats = control.stats()
        served = probes.check_request_count(out, stats, issued)
        rng = random.Random(seed * 1000 + 300)
        mismatched = 0
        sample = [rng.randrange(len(cells)) for _ in range(scale.check_keys)]
        if hot:
            answers = [
                control.request("summary_at", lat=points[i][0], lon=points[i][1])["summary"]
                for i in sample
            ]
        else:
            answers = []
            for at in range(0, len(sample), scale.multi_get_keys):
                keys = [
                    {"lat": points[i][0], "lon": points[i][1]}
                    for i in sample[at : at + scale.multi_get_keys]
                ]
                answers += control.request("multi_get", keys=keys)["summaries"]
        for i, answer in zip(sample, answers):
            expected = encode(twin.get(GroupKey(cell=cells[i])).to_dict())
            if answer is None or base64.b64decode(answer) != expected:
                mismatched += 1
        out.check(
            mismatched == 0,
            f"{mismatched} of {len(sample)} served summaries differ from "
            f"SSTableInventory.get on the same table",
        )
        if tracer is not None:
            probes.timed(tracer, "server.client.ping", lambda _: control.ping(),
                         range(scale.probe_ops))
    idle_rtt_s = 0.0
    if tracer is not None and hot:
        # One connection, nothing else in flight: the round trip a request
        # pays before any queueing.
        idle = Lane(
            server.address,
            itertools.islice(
                summary_only(points, random.Random(seed * 1000 + 400)), scale.probe_ops
            ),
        )
        drive([idle])
        idle_rtt_s = median(idle.samples.latencies())
        idle.close()
    out.put("peak_rss_mb", server.peak_rss_mb())
    out.put("server_rss_mb", server.peak_rss_mb())
    server.kill()
    out.put("stored_bytes_per_report", world.table_bytes(table) / len(positions))

    if tracer is not None:
        out.put("loadgen.cpu_share", cpu_share)
        if late:
            out.put("loadgen.late_p99_ms", percentile(late, 0.99) * 1e3, len(late))
        for _, kind in HOT_MIX:
            per_op = [latency for _, latency, tag in completions if tag == kind]
            if per_op:
                out.put(f"server.op.{kind}_p50_ms", median(per_op) * 1e3, len(per_op))
        cache = stats["inventory"]["cache"]
        lookups = cache.get("block_cache.hits", 0) + cache.get("block_cache.misses", 0)
        out.put("inventory.block_cache.hit_ratio",
                cache.get("block_cache.hits", 0) / lookups if lookups else 0.0)
        out.put("inventory.block_cache.evictions", cache.get("block_cache.evictions", 0))
        probes.put_server_metrics(out, stats, served)
        summaries = [twin.get(GroupKey(cell=cell)) for cell in cells[: scale.probe_ops]]
        probes.probe_hexgrid(tracer, out, positions[: scale.probe_ops], scale.resolution)
        probes.probe_codec(tracer, out, summaries)
        probes.timed(tracer, "server.protocol.summary_to_wire",
                     protocol.summary_to_wire, summaries)
        out.put("server.protocol.summary_to_wire_us",
                tracer.median_us("server.protocol.summary_to_wire"))
        out.put("server.client.ping_us", tracer.median_us("server.client.ping"))
        _replay_in_process(tracer, out, scale, twin, stream(0))
        if hot:
            in_process_s = sum(
                median(tracer.durations(name))
                for name in ("server.protocol.decode_payload",
                             "server.service.handle_summary_at",
                             "server.protocol.encode_frame")
            )
            out.put("server.server.overhead_us", (idle_rtt_s - in_process_s) * 1e6)
    twin.close()
    return out


def _replay_in_process(
    tracer: Tracer,
    out: Outcome,
    scale: Scale,
    backend,
    requests: Iterator[Request],
) -> None:
    """Answer the workload's own request stream through the program's
    public layers in this process, a span at each boundary:
    frame decode → service handler → backend get → block read → frame
    encode.  Same table, same cache size, same keys as the served run.
    """
    from repro.server import InventoryService, protocol

    service = InventoryService(backend)
    # Interpose on public methods of *these instances* only.
    backend.get = tracer.wrap("inventory.backend.get", backend.get)
    backend.reader.read_block = tracer.wrap(
        "inventory.sstable.read_block", backend.reader.read_block
    )
    service.eta.estimate = tracer.wrap("apps.eta.estimate", service.eta.estimate)
    gets_before = len(tracer.durations("inventory.backend.get"))
    read_before = backend.reader.total_read_bytes
    sizes = []
    for _ in range(scale.probe_ops):
        kind, frame = next(requests)
        with tracer.span(f"replay.{kind}"):
            with tracer.span("server.protocol.decode_payload"):
                request = protocol.decode_payload(frame[4:])
            with tracer.span(f"server.service.handle_{kind}"):
                result = service.handle(request)
            with tracer.span("server.protocol.encode_frame"):
                response = protocol.encode_frame(protocol.ok_response(0, result))
        sizes.append(len(response))
    gets = len(tracer.durations("inventory.backend.get")) - gets_before
    for kind in ("summary_at", "top_destinations_at", "eta", "multi_get"):
        out.put(f"server.service.handle_{kind}_us",
                tracer.median_us(f"server.service.handle_{kind}"))
    out.put("server.protocol.decode_payload_us",
            tracer.median_us("server.protocol.decode_payload"))
    out.put("server.protocol.encode_frame_us",
            tracer.median_us("server.protocol.encode_frame"))
    out.put("server.protocol.response_bytes", median(sizes))
    out.put("apps.eta.estimate_us", tracer.median_us("apps.eta.estimate"))
    out.put("inventory.backend.get_us", tracer.median_us("inventory.backend.get"))
    out.put("inventory.sstable.read_block_us",
            tracer.median_us("inventory.sstable.read_block"))
    out.put("inventory.sstable.bytes_read_per_get",
            (backend.reader.total_read_bytes - read_before) / gets if gets else 0.0)
