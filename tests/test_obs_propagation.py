"""Trace-context propagation across threads and asyncio tasks.

The tracer's value is that one trace follows a request or a build across
execution boundaries.  These tests pin the boundaries the repo actually
crosses:

- **the engine's partition loop** — one span per partition task, nested
  under the caller's span;
- **the server's executor** — a handler span must parent under the
  request span that was active when the request was handed to the pool;
- **asyncio tasks** — concurrent tasks each keep their own context and
  never interleave trace ids, even across await points.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.engine import Engine, EngineConfig
from repro.obs import trace as obs


class ListSink:
    """Thread-safe record collector."""

    def __init__(self):
        self.records = []
        self._lock = threading.Lock()

    def record(self, record):
        with self._lock:
            self.records.append(record)


@pytest.fixture(autouse=True)
def _clean_tracer():
    obs.disable()
    yield
    obs.disable()


def _partition_spans(sink):
    return [r for r in sink.records if r["name"] == "engine.partition"]


# -- the engine's partition loop ------------------------------------------------


def test_engine_partition_spans_nest_under_caller():
    sink = ListSink()
    obs.configure(sink)
    with Engine(EngineConfig(num_partitions=3)) as engine:
        with obs.span("job") as job:
            results = engine.parallelize(range(6)).map(lambda x: x * 2).collect()
            job_ctx = obs.current_context()
    assert results == [x * 2 for x in range(6)]
    partitions = _partition_spans(sink)
    assert [r["attrs"]["index"] for r in partitions] == [0, 1, 2]
    for record in partitions:
        assert record["trace"] == job_ctx.trace_id
        assert record["parent"] == job_ctx.span_id
    ids = [r["span"] for r in partitions]
    assert len(set(ids)) == len(ids)


# -- the server's executor -------------------------------------------------------


def test_server_executor_spans_nest_under_request():
    """Requests that are not answered on the event loop run on the
    server's thread pool; the request task's context must ride along."""
    from repro.inventory import Inventory
    from repro.server import InventoryClient, InventoryService, ServerThread

    sink = ListSink()
    obs.configure(sink)
    service = InventoryService(Inventory(resolution=6))
    assert "stats" not in service.inline_types  # takes the executor hop
    with ServerThread(service) as handle:
        with InventoryClient(*handle.address) as client:
            for _ in range(3):
                client.stats()

    def stats_spans(name):
        return [r for r in sink.records
                if r["name"] == name and r["attrs"].get("type") == "stats"]

    requests = {r["span"]: r for r in stats_spans("server.request")}
    handlers = stats_spans("server.handle")
    assert len(requests) == len(handlers) == 3
    for handler in handlers:
        parent = requests[handler["parent"]]
        assert handler["trace"] == parent["trace"]


# -- threads without a pool (raw propagation) ------------------------------------


def test_threads_do_not_leak_context_between_each_other():
    sink = ListSink()
    obs.configure(sink)
    barrier = threading.Barrier(4)

    def work(tag):
        barrier.wait()
        with obs.span("thread.root", tag=tag):
            with obs.span("thread.child", tag=tag):
                pass

    threads = [
        threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    roots = [r for r in sink.records if r["name"] == "thread.root"]
    children = [r for r in sink.records if r["name"] == "thread.child"]
    assert len(roots) == len(children) == 4
    root_by_tag = {r["attrs"]["tag"]: r for r in roots}
    assert len({r["trace"] for r in roots}) == 4, "each thread is its own trace"
    for child in children:
        root = root_by_tag[child["attrs"]["tag"]]
        assert child["trace"] == root["trace"]
        assert child["parent"] == root["span"]


# -- asyncio tasks ---------------------------------------------------------------


def test_asyncio_tasks_keep_independent_traces():
    sink = ListSink()
    obs.configure(sink)

    async def request(tag):
        with obs.span("aio.request", tag=tag):
            await asyncio.sleep(0)  # force interleaving
            with obs.span("aio.step", tag=tag):
                await asyncio.sleep(0)
            await asyncio.sleep(0)
            with obs.span("aio.step2", tag=tag):
                pass

    async def main():
        await asyncio.gather(*(request(f"r{i}") for i in range(8)))

    asyncio.run(main())
    requests = [r for r in sink.records if r["name"] == "aio.request"]
    assert len(requests) == 8
    assert len({r["trace"] for r in requests}) == 8
    request_by_tag = {r["attrs"]["tag"]: r for r in requests}
    for name in ("aio.step", "aio.step2"):
        steps = [r for r in sink.records if r["name"] == name]
        assert len(steps) == 8
        for step in steps:
            parent = request_by_tag[step["attrs"]["tag"]]
            assert step["trace"] == parent["trace"], "no cross-task bleed"
            assert step["parent"] == parent["span"]


def test_asyncio_stress_with_thread_handoff():
    """Tasks that hop to worker threads (the server's shape) keep lineage."""
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    sink = ListSink()
    obs.configure(sink)
    executor = ThreadPoolExecutor(max_workers=4)

    async def request(tag):
        loop = asyncio.get_running_loop()
        with obs.span("hop.request", tag=tag):
            context = contextvars.copy_context()

            def handler():
                with obs.span("hop.handler", tag=tag):
                    return tag

            result = await loop.run_in_executor(executor, context.run, handler)
            assert result == tag

    async def main():
        await asyncio.gather(*(request(f"h{i}") for i in range(12)))

    try:
        asyncio.run(main())
    finally:
        executor.shutdown()
    requests = {r["attrs"]["tag"]: r
                for r in sink.records if r["name"] == "hop.request"}
    handlers = [r for r in sink.records if r["name"] == "hop.handler"]
    assert len(requests) == len(handlers) == 12
    for handler in handlers:
        parent = requests[handler["attrs"]["tag"]]
        assert handler["trace"] == parent["trace"]
        assert handler["parent"] == parent["span"]
