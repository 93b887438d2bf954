"""The concurrent query server: asyncio framing around a dispatch core.

Architecture — one event loop, one worker pool, one shared backend:

- the **event loop** owns all sockets.  Per connection it reads frames
  (under an idle timeout) and writes responses — so a thousand
  mostly-idle clients cost a thousand coroutines, not threads;
- the loop also **answers bounded point reads itself**: the request
  types the service lists in ``inline_types`` (``ping`` always;
  ``summary_at``, ``top_destinations_at``, ``eta`` and ``multi_get`` on
  a read-only table or an in-memory inventory), a ``multi_get`` only
  up to ``INLINE_MULTI_GET_KEYS`` keys.  Their only I/O is at most one
  block read per lookup on a cache miss, a page-cache read of tens of
  µs — cheaper than the hop to a worker thread and back, a GIL hand-off
  per request that buys nothing for work the GIL serialises anyway.
  Inline requests never wait on the semaphore (their queue wait is
  recorded as 0);
- every other request is answered on a **worker thread**
  (``run_in_executor``): writes, the live backend, route scans, track
  prediction, ``multi_query``, larger ``multi_get`` batches, ``stats``,
  ``trace``.  The pool is sized to ``max_concurrency``, matching the
  semaphore;
- a **semaphore** bounds in-flight pool requests.  Excess requests queue
  *in the loop*, cheaply, and their wait counts against the same
  deadline as their execution — under overload clients get fast
  ``deadline_exceeded`` errors instead of unbounded queueing
  (backpressure, not buffering);
- **per-request deadlines** and **per-connection read timeouts** (both
  ``asyncio.timeout``) keep one slow consumer or one stalled/malformed
  writer from pinning resources: a frame that stops arriving hits the
  idle timeout, an oversized frame is rejected from its length prefix,
  and in both cases only *that* connection is dropped;
- **graceful drain**: shutdown stops accepting, lets every in-flight
  request finish and flush its response (up to ``drain_timeout_s``),
  then cancels idle readers.

The fault-isolation tests in ``tests/test_server.py`` pin each of these
properties with hostile clients.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import errno
import logging
import threading
import time
from types import TracebackType
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.inventory.sstable import CorruptionError
from repro.obs import registry
from repro.obs import trace as obs
from repro.obs.exposition import MetricsExporter, server_exposition
from repro.server import protocol
from repro.server.service import InventoryService
from repro.server.metrics import ServerMetrics

#: One request end-to-end on the server; queue wait + handler + encoding.
SPAN_REQUEST = registry.register_span(
    "server.request",
    "one request end-to-end on the server: semaphore queue wait + handler "
    "+ response assembly (attrs: type, queue_wait_ms, status code on error)",
)
#: Just the handler body — subtract from ``server.request`` to see
#: protocol/queueing overhead.
SPAN_HANDLE = registry.register_span(
    "server.handle",
    "the handler body of one request, on the event loop for the service's "
    "inline point reads and on a worker thread otherwise (attrs: type); "
    "server.request minus server.handle is queueing + framing overhead",
)

#: The most keys a ``multi_get`` answered on the event loop may carry.  A
#: larger batch holds the loop for its whole run (≈ 40 µs a key on a
#: cold cache, so 1 024 keys stall every other connection ≈ 40 ms) and
#: goes to the worker pool instead; ``serve_uniform``'s 16 stay inline.
INLINE_MULTI_GET_KEYS = 64

#: One WARNING line per over-threshold request (``--slow-request-ms``).
_slowlog = logging.getLogger("repro.server.slowlog")


@dataclass(frozen=True)
class ServerConfig:
    """Tunable limits; the defaults suit tests and small deployments."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the kernel pick (the bound port is reported)
    max_concurrency: int = 16
    request_timeout_s: float = 10.0
    idle_timeout_s: float = 30.0
    max_frame_bytes: int = protocol.MAX_FRAME_BYTES
    drain_timeout_s: float = 5.0
    #: Successful requests slower than this are logged (one WARNING line
    #: on ``repro.server.slowlog``) and counted; ``None`` disables.
    slow_request_s: float | None = None
    #: Extra bind attempts when the requested (non-zero) port is still in
    #: TIME_WAIT or briefly held — parallel CI runners starting many
    #: servers hit this window; with ``port=0`` the kernel picks and no
    #: retry is needed.  0 disables (first EADDRINUSE raises).
    bind_retries: int = 5
    bind_retry_delay_s: float = 0.2

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        if self.request_timeout_s <= 0 or self.idle_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.slow_request_s is not None and self.slow_request_s < 0:
            raise ValueError("slow_request_s must be >= 0 (or None)")
        if self.bind_retries < 0 or self.bind_retry_delay_s < 0:
            raise ValueError("bind retry settings must be >= 0")


class _Connection:
    """Book-keeping for one client: its task and whether a request is
    currently being answered (the unit graceful drain waits on)."""

    __slots__ = ("task", "busy")

    def __init__(self) -> None:
        self.task: asyncio.Task | None = None
        self.busy = False


class InventoryServer:
    """Serves an :class:`~repro.server.service.InventoryService` over TCP."""

    def __init__(
        self, service: InventoryService, config: ServerConfig | None = None
    ) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.metrics = ServerMetrics()
        # A service that does not declare where its requests may run
        # (a wrapper, say) gets the pool for everything.
        self._inline: frozenset[str] = getattr(service, "inline_types", frozenset())
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._connections: set[_Connection] = set()
        self._draining = False

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._semaphore = asyncio.Semaphore(self.config.max_concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-serve",
        )
        # A fixed port can sit in TIME_WAIT between back-to-back test
        # servers (or be transiently held by a sibling CI runner); retry
        # a few times before giving up.  Port 0 never collides.
        attempts = 1 + (self.config.bind_retries if self.config.port else 0)
        for attempt in range(attempts):
            try:
                self._server = await asyncio.start_server(
                    self._serve_connection, self.config.host, self.config.port
                )
                break
            except OSError as exc:
                if exc.errno != errno.EADDRINUSE or attempt == attempts - 1:
                    raise
                await asyncio.sleep(self.config.bind_retry_delay_s)

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — authoritative when port 0 was asked."""
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def serve_forever(self) -> None:
        """Block until the server is shut down."""
        if self._server is None:
            raise RuntimeError("server is not started")
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight requests,
        then drop idle connections."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = self._loop.time() + self.config.drain_timeout_s
        while (
            any(conn.busy for conn in self._connections)
            and self._loop.time() < deadline
        ):
            await asyncio.sleep(0.01)
        # Whatever is left is either idle (blocked reading the next
        # frame) or past the drain deadline: cancel and reap.
        tasks = [conn.task for conn in self._connections if conn.task is not None]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    # -- connection handling -------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection()
        conn.task = asyncio.current_task()
        self._connections.add(conn)
        self.metrics.connection_opened()
        try:
            await self._connection_loop(conn, reader, writer)
        except asyncio.CancelledError:
            pass  # shutdown reaping an idle or overdue connection
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass  # peer vanished mid-write; nothing to tell it
        finally:
            self._connections.discard(conn)
            self.metrics.connection_closed()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _connection_loop(
        self,
        conn: _Connection,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while not self._draining:
            try:
                async with asyncio.timeout(self.config.idle_timeout_s):
                    frame = await protocol.read_frame(
                        reader, self.config.max_frame_bytes
                    )
            except TimeoutError:
                break  # idle client: reclaim the connection
            except protocol.ProtocolError as exc:
                # Framing is broken (oversized/truncated/non-JSON): the
                # stream cannot be resynchronised, so answer and close.
                self.metrics.record_error("?", exc.code)
                with contextlib.suppress(Exception):
                    writer.write(
                        protocol.encode_frame(
                            protocol.error_response(None, exc.code, str(exc))
                        )
                    )
                    await writer.drain()
                break
            if frame is None:
                break  # clean EOF
            conn.busy = True
            try:
                response = await self._respond(frame)
                try:
                    payload = protocol.encode_frame(
                        response, self.config.max_frame_bytes
                    )
                except protocol.FrameTooLargeError as exc:
                    # The *answer* blew the frame budget (a huge route):
                    # tell the client cleanly rather than killing the task.
                    self.metrics.record_error("?", exc.code)
                    payload = protocol.encode_frame(
                        protocol.error_response(frame.get("id"), exc.code, str(exc))
                    )
                writer.write(payload)
                await writer.drain()
            finally:
                conn.busy = False

    async def _respond(self, request: dict) -> dict:
        request_id = request.get("id")
        request_type = request.get("type")
        label = request_type if isinstance(request_type, str) else "?"
        started = time.perf_counter()
        with obs.span(SPAN_REQUEST, type=label) as sp:
            try:
                if self._runs_inline(request, label):
                    result = self._handle_inline(request, label, sp)
                else:
                    async with asyncio.timeout(self.config.request_timeout_s):
                        result = await self._process(request, label, sp)
            except TimeoutError:
                sp.set("code", protocol.ERR_DEADLINE)
                self.metrics.record_error(label, protocol.ERR_DEADLINE)
                return protocol.error_response(
                    request_id,
                    protocol.ERR_DEADLINE,
                    f"request exceeded the "
                    f"{self.config.request_timeout_s:g}s deadline",
                )
            except protocol.ProtocolError as exc:
                sp.set("code", exc.code)
                self.metrics.record_error(label, exc.code)
                if (
                    label in protocol.MULTI_TYPES
                    and exc.code == protocol.ERR_FRAME_TOO_LARGE
                ):
                    self.metrics.record_multi_rejected()
                return protocol.error_response(
                    request_id, exc.code, str(exc), details=exc.details
                )
            except CorruptionError as exc:
                # The stored table failed a checksum under this query.  The
                # client gets a typed error on a live connection — never a
                # wrong answer, never a dead socket — and the corruption
                # counter flags the table for `repro fsck`.
                sp.set("code", protocol.ERR_CORRUPTION)
                self.metrics.record_error(label, protocol.ERR_CORRUPTION)
                self.metrics.record_corruption(label)
                return protocol.error_response(
                    request_id, protocol.ERR_CORRUPTION, str(exc)
                )
            except Exception as exc:  # noqa: BLE001 - the wire gets a clean error
                sp.set("code", protocol.ERR_INTERNAL)
                self.metrics.record_error(label, protocol.ERR_INTERNAL)
                return protocol.error_response(
                    request_id,
                    protocol.ERR_INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                )
            if label == "stats":
                result = dict(result)
                result["server"] = self.metrics.snapshot()
            elapsed = time.perf_counter() - started
            self.metrics.record_request(label, elapsed)
            if label in protocol.MULTI_TYPES:
                items = request.get(
                    "keys" if label == "multi_get" else "requests"
                )
                if isinstance(items, list):
                    self.metrics.record_batched(len(items))
            slow_after = self.config.slow_request_s
            if slow_after is not None and elapsed >= slow_after:
                self.metrics.record_slow(label)
                _slowlog.warning(
                    "slow request: type=%s id=%r took %.1fms (threshold %.1fms)",
                    label, request_id, elapsed * 1e3, slow_after * 1e3,
                )
            return protocol.ok_response(request_id, result)

    def _runs_inline(self, request: dict, label: str) -> bool:
        if label not in self._inline:
            return False
        keys = request.get("keys") if label == "multi_get" else None
        return not isinstance(keys, list) or len(keys) <= INLINE_MULTI_GET_KEYS

    def _handle_inline(
        self, request: dict, label: str, sp: obs.SpanLike
    ) -> dict:
        # Answered on the loop, never queued: nothing here awaits, so no
        # deadline can fire and no other connection can interleave.
        self.metrics.record_queue_wait(0.0)
        sp.set("queue_wait_ms", 0.0)
        with obs.span(SPAN_HANDLE, type=label):
            return self.service.handle(request)

    async def _process(self, request: dict, label: str, sp: obs.SpanLike) -> dict:
        # The semaphore wait happens inside the request deadline: a
        # request that cannot be *started* in time fails fast instead of
        # queueing forever — that is the backpressure contract.
        queued = time.perf_counter()
        async with self._semaphore:
            waited = time.perf_counter() - queued
            self.metrics.record_queue_wait(waited)
            sp.set("queue_wait_ms", round(waited * 1e3, 3))
            if not obs.enabled():
                return await self._loop.run_in_executor(
                    self._executor, self.service.handle, request
                )
            # Worker threads do not inherit this task's contextvars:
            # carry the request span's context across the executor
            # boundary so handler-side spans (inventory.get,
            # sstable.read_block) nest under this request.
            context = contextvars.copy_context()

            def _handle_traced() -> dict:
                with obs.span(SPAN_HANDLE, type=label):
                    return self.service.handle(request)

            return await self._loop.run_in_executor(
                self._executor, context.run, _handle_traced
            )

    def exposition(self) -> str:
        """The ``/metrics`` payload: server counters/latency gauges plus
        the backend's block-cache counters when it has them."""
        cache = None
        cache_stats = getattr(
            getattr(self.service, "inventory", None), "cache_stats", None
        )
        if callable(cache_stats):
            cache = cache_stats()
        return server_exposition(self.metrics.snapshot(), cache)


async def serve(
    service: InventoryService,
    config: ServerConfig | None = None,
    metrics_port: int | None = None,
) -> None:
    """Start a server and run it until cancelled (the CLI entry point).

    ``metrics_port`` additionally stands up a Prometheus-style
    ``GET /metrics`` HTTP endpoint on that port (0 = kernel-assigned)
    exposing the server's counters and latency/queue-wait gauges.
    """
    server = InventoryServer(service, config)
    await server.start()
    host, port = server.address
    print(f"serving on {host}:{port} "
          f"(max {server.config.max_concurrency} in-flight, "
          f"{server.config.request_timeout_s:g}s deadline)")
    exporter = None
    if metrics_port is not None:
        exporter = MetricsExporter(
            server.exposition, host=server.config.host, port=metrics_port
        )
        metrics_host, bound = exporter.start()
        print(f"metrics on http://{metrics_host}:{bound}/metrics")
    try:
        await server.serve_forever()
    finally:
        if exporter is not None:
            exporter.stop()
        await server.shutdown()


class ServerThread:
    """A server on a background event-loop thread, for sync callers.

    Tests, benchmarks and notebooks use this to stand up a real TCP
    server without touching asyncio::

        with ServerThread(InventoryService(backend)) as handle:
            client = InventoryClient(*handle.address)

    Entering starts the loop and waits for the bound address; exiting
    performs the same graceful drain as a signal-stopped CLI server.
    """

    def __init__(
        self, service: InventoryService, config: ServerConfig | None = None
    ) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self.server: InventoryServer | None = None
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "ServerThread":
        """Start the loop thread and block until the server is bound."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-server-loop",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start in time")
        if self._failure is not None:
            self._thread.join()
            raise self._failure
        return self

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = InventoryServer(self.service, self.config)
        try:
            await server.start()
        except BaseException as exc:
            self._failure = exc
            self._ready.set()
            return
        self.server = server
        self.address = server.address
        self._ready.set()
        await self._stop.wait()
        await server.shutdown()

    def stop(self) -> None:
        """Request a graceful drain and wait for the loop to finish."""
        if self._loop is not None and self._stop is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.stop()
