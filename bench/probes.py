"""Layer probes for traced runs: spans around one public call at a time.

Each probe feeds a layer's public function the workload's own inputs
(the run's reports, summaries read from the run's table) and records a
span per call, so a per-layer number can be laid next to the end-to-end
metric it is supposed to move.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

from bench.result import Outcome
from bench.stats import median
from bench.tracing import Tracer


def timed(tracer: Tracer, name: str, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
    """Call ``fn(item)`` under a ``name`` span per item; returns results."""
    results = []
    for item in items:
        with tracer.span(name):
            results.append(fn(item))
    return results


def check_request_count(out: Outcome, stats: dict, issued: int) -> int:
    """The server's ``server.requests`` counter must equal the requests
    the harness issued (taken before the ``stats`` request counts itself)."""
    served = stats["server"]["counters"].get("server.requests", 0)
    out.check(
        served == issued,
        f"server.metrics.requests is {served}, the harness issued {issued}",
    )
    return served


def put_server_metrics(out: Outcome, stats: dict, served: int) -> None:
    """``server.metrics.*``: what the server's own digests say."""
    out.put("server.metrics.requests", served)
    out.put("server.metrics.latency_p50_ms", stats["server"]["latency_ms"]["p50_ms"])
    out.put("server.metrics.queue_wait_p50_ms", stats["server"]["queue_wait_ms"]["p50_ms"])


def probe_hexgrid(tracer: Tracer, out: Outcome, positions: list, resolution: int) -> None:
    """``hexgrid.latlng_to_cell_us`` over the run's own reports."""
    from repro.hexgrid import latlng_to_cell

    timed(
        tracer,
        "hexgrid.latlng_to_cell",
        lambda report: latlng_to_cell(report.lat, report.lon, resolution),
        positions,
    )
    out.put("hexgrid.latlng_to_cell_us", tracer.median_us("hexgrid.latlng_to_cell"))


def probe_codec(tracer: Tracer, out: Outcome, summaries: list) -> None:
    """``inventory.codec.*`` over summaries the run stored or served."""
    from repro.inventory.codec import decode, encode

    payloads = timed(
        tracer, "inventory.codec.encode", lambda s: encode(s.to_dict()), summaries
    )
    timed(tracer, "inventory.codec.decode", decode, payloads)
    out.put("inventory.codec.encode_us", tracer.median_us("inventory.codec.encode"))
    out.put("inventory.codec.decode_us", tracer.median_us("inventory.codec.decode"))
    out.put("inventory.codec.summary_bytes", median([len(p) for p in payloads]))


def probe_fold(tracer: Tracer, out: Outcome, positions: list) -> None:
    """The per-record fold both the batch build and live ingest run:
    sketch adds, a sketch merge and a whole ``CellSummary.update``."""
    from repro.inventory.summary import CellSummary
    from repro.sketches import HyperLogLog, TDigest

    digest, other = TDigest(), TDigest()
    timed(tracer, "sketches.tdigest.add", lambda r: digest.update(r.sog), positions)
    for report in positions[: len(positions) // 2]:
        other.update(report.cog)
    registers = HyperLogLog()
    timed(tracer, "sketches.hll.add", lambda r: registers.update(r.mmsi), positions)
    # One merge per fresh copy: merging mutates the receiver.
    state = digest.to_dict()
    copies = [TDigest.from_dict(state) for _ in range(min(50, len(positions)))]
    timed(tracer, "sketches.merge", lambda copy: copy.merge(other), copies)
    summary = CellSummary()
    timed(
        tracer,
        "inventory.summary.update",
        lambda r: summary.update(mmsi=r.mmsi, sog=r.sog, cog=r.cog, heading=None),
        positions,
    )
    out.put("sketches.tdigest.add_us", tracer.median_us("sketches.tdigest.add"))
    out.put("sketches.hll.add_us", tracer.median_us("sketches.hll.add"))
    out.put("sketches.merge_us", tracer.median_us("sketches.merge"))
    out.put("inventory.summary.update_us", tracer.median_us("inventory.summary.update"))
