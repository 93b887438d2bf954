"""Server-side observability: request counters + latency/queue digests.

The same sketch machinery the inventory is built from instruments the
thing serving it: request and error counts live in a
:class:`~repro.engine.metrics.CounterSet`, latencies in a
:class:`~repro.sketches.tdigest.TDigest` (for p50/p90/p99) next to a
:class:`~repro.sketches.moments.MomentsSketch` (count/mean/max), and the
time requests spend queued behind the concurrency semaphore in a second
digest pair — the queue-wait vs. handler-time split that tells an
operator whether a slow server is *overloaded* (queue wait dominates) or
*slow per request* (handler time dominates).  A ``stats`` request
returns :meth:`ServerMetrics.snapshot`, so a plain client doubles as a
monitoring probe, and ``repro serve --metrics-port`` exposes the same
numbers in Prometheus text form (:mod:`repro.obs.exposition`).
"""

from __future__ import annotations

import threading

from repro.engine.metrics import CounterSet
from repro.obs import registry
from repro.server import protocol
from repro.sketches.moments import MomentsSketch
from repro.sketches.tdigest import TDigest

REQUESTS_TOTAL = registry.register_counter(
    "server.requests", "requests answered successfully, all types"
)
ERRORS_TOTAL = registry.register_counter(
    "server.errors", "requests answered with an error envelope, all codes"
)
CONNECTIONS_OPENED = registry.register_counter(
    "server.connections.opened", "client connections accepted"
)
CONNECTIONS_CLOSED = registry.register_counter(
    "server.connections.closed",
    "client connections closed (clean EOF, idle timeout, fault or drain)",
)
#: Queries that hit storage-level corruption (checksum failures).  Any
#: nonzero value is an operator page: the table needs ``repro fsck``.
CORRUPTION_TOTAL = registry.register_counter(
    "server.corruption",
    "queries that hit storage-level checksum failures (any nonzero value "
    "means the served table needs `repro fsck`)",
)
#: Successful requests slower than ``ServerConfig.slow_request_s`` (also
#: logged, one line each, to the ``repro.server.slowlog`` logger).
SLOW_TOTAL = registry.register_counter(
    "server.requests.slow",
    "successful requests slower than the configured slow-request "
    "threshold (each is also logged by `repro.server.slowlog`)",
)
#: The fan-out carried by multi frames: a `multi_get` of 50 keys adds 50
#: here and 1 to `server.requests.multi_get`.  The ratio of this counter
#: to the multi_* request counters is the average batch size clients
#: actually send.
REQUESTS_BATCHED = registry.register_counter(
    "server.requests.batched",
    "sub-requests answered inside multi_get/multi_query frames (counts "
    "the fan-out; the frames themselves count under "
    "`server.requests.multi_get` / `server.requests.multi_query`)",
)
#: Multi frames rejected because their fan-out blew the item cap or the
#: response byte budget.  Each rejection is a typed `frame_too_large`
#: error naming the offending sub-request index — the connection stays
#: open; clients should split the batch and retry.
MULTI_REJECTED = registry.register_counter(
    "server.multi.rejected",
    "multi_get/multi_query frames rejected for fan-out size (answered "
    "with a typed frame_too_large error naming the offending "
    "sub-request index, on a live connection)",
)

# The request-type and error-code spaces are closed sets, so the dynamic
# per-type/per-code counters are registered exhaustively here.
for _type in protocol.REQUEST_TYPES:
    registry.register_counter(
        f"server.requests.{_type}",
        f"`{_type}` requests answered successfully",
    )
for _code, _meaning in (
    (protocol.ERR_BAD_FRAME, "unparseable frame payloads (connection dropped)"),
    (
        protocol.ERR_FRAME_TOO_LARGE,
        "frames (or answers) exceeding the frame-size limit",
    ),
    (protocol.ERR_TRUNCATED, "connections closed by the peer mid-frame"),
    (protocol.ERR_BAD_REQUEST, "structurally valid requests with bad parameters"),
    (protocol.ERR_UNKNOWN_TYPE, "requests of a type the server does not implement"),
    (protocol.ERR_DEADLINE, "requests that exceeded the per-request deadline"),
    (protocol.ERR_INTERNAL, "unexpected handler failures (returned as clean errors)"),
    (
        protocol.ERR_CORRUPTION,
        "queries answered with a typed data-corruption error",
    ),
    (
        protocol.ERR_INGEST_BACKPRESSURE,
        "ingest batches refused because maintenance fell behind "
        "(typed write stall; the batch was never applied)",
    ),
):
    registry.register_counter(f"server.errors.{_code}", f"errors by code: {_meaning}")


class ServerMetrics:
    """Counters and latency/queue-wait sketches for one server instance."""

    def __init__(self) -> None:
        self.counters = CounterSet()
        self._latency_q = TDigest()
        self._latency = MomentsSketch()
        self._queue_q = TDigest()
        self._queue = MomentsSketch()
        self._lock = threading.Lock()

    def record_request(self, request_type: str, seconds: float) -> None:
        """Count one successfully answered request and its latency."""
        self.counters.increment(REQUESTS_TOTAL)
        self.counters.increment(f"server.requests.{request_type}")
        with self._lock:
            self._latency_q.update(seconds * 1e3)
            self._latency.update(seconds * 1e3)

    def record_queue_wait(self, seconds: float) -> None:
        """Record how long one request waited for a concurrency slot."""
        with self._lock:
            self._queue_q.update(seconds * 1e3)
            self._queue.update(seconds * 1e3)

    def record_batched(self, fanout: int) -> None:
        """Count the sub-requests answered by one successful multi frame."""
        self.counters.increment(REQUESTS_BATCHED, fanout)

    def record_multi_rejected(self) -> None:
        """Count one multi frame rejected for fan-out size."""
        self.counters.increment(MULTI_REJECTED)

    def record_error(self, request_type: str, code: str) -> None:
        """Count one failed request by its error code."""
        self.counters.increment(ERRORS_TOTAL)
        self.counters.increment(f"server.errors.{code}")

    def record_corruption(self, request_type: str) -> None:
        """Count one query answered with a storage-corruption error."""
        self.counters.increment(CORRUPTION_TOTAL)

    def record_slow(self, request_type: str) -> None:
        """Count one successful request over the slow-request threshold."""
        self.counters.increment(SLOW_TOTAL)

    @property
    def corruption_errors(self) -> int:
        """Queries that hit storage corruption so far."""
        return self.counters.value(CORRUPTION_TOTAL)

    def connection_opened(self) -> None:
        """Count one accepted client connection."""
        self.counters.increment(CONNECTIONS_OPENED)

    def connection_closed(self) -> None:
        """Count one closed client connection."""
        self.counters.increment(CONNECTIONS_CLOSED)

    @property
    def requests(self) -> int:
        """Requests answered successfully so far."""
        return self.counters.value(REQUESTS_TOTAL)

    @property
    def errors(self) -> int:
        """Requests answered with an error so far."""
        return self.counters.value(ERRORS_TOTAL)

    def snapshot(self) -> dict:
        """A JSON-ready view: counters + latency and queue-wait stats."""
        with self._lock:
            latency = self._distribution(self._latency, self._latency_q)
            queue_wait = self._distribution(self._queue, self._queue_q)
        return {
            "counters": self.counters.as_dict(),
            "latency_ms": latency,
            "queue_wait_ms": queue_wait,
        }

    @staticmethod
    def _distribution(moments: MomentsSketch, digest: TDigest) -> dict:
        count = moments.count
        return {
            "count": count,
            "mean_ms": moments.mean if count else None,
            "max_ms": moments.max_value if count else None,
            "p50_ms": digest.quantile(0.50) if count else None,
            "p90_ms": digest.quantile(0.90) if count else None,
            "p99_ms": digest.quantile(0.99) if count else None,
        }
