"""The span tracer: contextvars-propagated timed sections, stdlib only.

One global tracer, disabled by default.  Instrumented code writes::

    with obs.span("pipeline.clean", rows_in=n) as sp:
        ...
        sp.set("rows_out", m)
        sp.add("block_cache.hits", hits)

and pays **one attribute read and one shared no-op object** when tracing
is off — the disabled path allocates nothing, takes no locks and records
nothing, which is what lets the hot paths (block reads, server requests)
stay instrumented permanently (the serving benchmark asserts the
overhead bound).

When enabled (:func:`configure` with one or more sinks), every closed
span is emitted to every sink as a plain dict: name, trace/span/parent
ids, start timestamp, wall seconds, thread-CPU seconds, attributes,
counter deltas and an ok/error status.  Propagation:

- **nesting** rides a :class:`contextvars.ContextVar`, so it is correct
  per-thread and per-asyncio-task by construction;
- **thread pools** submit through ``contextvars.copy_context()`` (the
  server's executor does this when tracing is on), so worker-side spans
  parent under the span active at submit time.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Protocol, TypeVar


class SpanSink(Protocol):
    """Anything that can receive finished span records."""

    def record(self, record: dict) -> None:
        """Consume one span record (a plain dict)."""
        ...


_S = TypeVar("_S")


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The propagated identity: which trace, and which span is open."""

    trace_id: str
    span_id: str


_ACTIVE: ContextVar[TraceContext | None] = ContextVar("repro_obs_active", default=None)


def _new_id() -> str:
    """A 64-bit random hex id — unique across threads."""
    return os.urandom(8).hex()


class Span:
    """One live timed section; emitted to the sinks as a dict on close."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attrs", "counters",
        "start_ts", "status", "error", "_token", "_wall0", "_cpu0", "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.counters: dict[str, int] = {}
        self.status = "ok"
        self.error: str | None = None

    def set(self, key: str, value: object) -> None:
        """Attach one attribute (overwrites)."""
        self.attrs[key] = value

    def add(self, counter: str, amount: int = 1) -> None:
        """Accumulate a counter delta attached to this span at close."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def __enter__(self) -> "Span":
        parent = _ACTIVE.get()
        if parent is None:
            self.trace_id = _new_id()
            self.parent_id = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.span_id = _new_id()
        self._token = _ACTIVE.set(TraceContext(self.trace_id, self.span_id))
        self.start_ts = time.time()
        self._cpu0 = time.thread_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.thread_time() - self._cpu0
        _ACTIVE.reset(self._token)
        if exc_type is not None:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        record = {
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "ts": self.start_ts,
            "wall_s": wall,
            "cpu_s": cpu,
            "status": self.status,
        }
        if self.error is not None:
            record["error"] = self.error
        if self.attrs:
            record["attrs"] = self.attrs
        if self.counters:
            record["counters"] = self.counters
        self._tracer.emit(record)


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled.

    Stateless, so one instance serves every call site concurrently; its
    methods exist so instrumented code never branches on tracing state.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None

    def set(self, key: str, value: object) -> None:
        """Discard an attribute (tracing is off)."""

    def add(self, counter: str, amount: int = 1) -> None:
        """Discard a counter delta (tracing is off)."""


NOOP_SPAN = _NoopSpan()

#: What :func:`span` hands out — accepted anywhere a span is threaded
#: through as an argument (e.g. cache-miss accounting in the backend).
SpanLike = Span | _NoopSpan


class Tracer:
    """Holds the sink list and the enabled flag; one global instance."""

    def __init__(self) -> None:
        self.enabled = False
        self._sinks: tuple[SpanSink, ...] = ()
        self._lock = threading.Lock()

    def configure(self, *sinks: SpanSink) -> None:
        """Install sinks and enable tracing (replaces existing sinks)."""
        with self._lock:
            self._sinks = tuple(sinks)
            self.enabled = bool(sinks)

    def add_sink(self, sink: SpanSink) -> None:
        """Append one sink (enables tracing)."""
        with self._lock:
            self._sinks = self._sinks + (sink,)
            self.enabled = True

    def disable(self) -> None:
        """Drop every sink and return to the no-op path."""
        with self._lock:
            self._sinks = ()
            self.enabled = False

    def sinks(self) -> tuple[SpanSink, ...]:
        """The currently installed sinks."""
        return self._sinks

    def find_sink(self, sink_type: type[_S]) -> _S | None:
        """The first installed sink of a given type, or ``None``."""
        for sink in self._sinks:
            if isinstance(sink, sink_type):
                return sink
        return None

    def emit(self, record: dict) -> None:
        """Deliver one finished span record to every sink."""
        for sink in self._sinks:
            sink.record(record)


_TRACER = Tracer()


def span(name: str, **attrs: object) -> Span | _NoopSpan:
    """Open a span (context manager).  Near-free when tracing is off."""
    tracer = _TRACER
    if not tracer.enabled:
        return NOOP_SPAN
    return Span(tracer, name, attrs)


def traced(
    name: str | Callable[..., Any] | None = None, **attrs: object
) -> Callable[..., Any]:
    """Decorator form of :func:`span`; default name is the qualname."""
    def _decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        label = name or f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def _wrapper(*args: Any, **kwargs: Any) -> Any:
            with span(label, **attrs):
                return fn(*args, **kwargs)

        return _wrapper

    if callable(name):  # bare @traced
        fn, name = name, None
        return _decorate(fn)
    return _decorate


def enabled() -> bool:
    """Whether tracing is currently on (cheap: one attribute read)."""
    return _TRACER.enabled


def configure(*sinks: SpanSink) -> None:
    """Install sinks on the global tracer and enable it."""
    _TRACER.configure(*sinks)


def add_sink(sink: SpanSink) -> None:
    """Append one sink to the global tracer."""
    _TRACER.add_sink(sink)


def disable() -> None:
    """Disable the global tracer and drop its sinks."""
    _TRACER.disable()


def find_sink(sink_type: type[_S]) -> _S | None:
    """The first installed sink of a type on the global tracer."""
    return _TRACER.find_sink(sink_type)


def current_context() -> TraceContext | None:
    """The active (trace id, span id), or ``None`` outside any span."""
    return _ACTIVE.get()

