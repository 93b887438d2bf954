"""Harness-side spans: who called what, for how long, under which operation.

Spans are recorded from the benchmark's own files, around calls into a
layer's public functions — nothing inside ``src/`` changes.  They stay
in memory as plain tuples and are written once, when the run ends.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``op`` identifies the one
operation (request, batch, build) every span under it belongs to.  A
layer's *self time* is its span minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from bench.stats import median


class Tracer:
    """An in-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._ops = 0

    def new_op(self) -> int:
        """A fresh operation id."""
        self._ops += 1
        return self._ops

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished top-level span (one whole client operation)."""
        self.spans.append((name, start, end, -1, self.new_op()))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block; nests under the span open on this thread."""
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][4] if parent >= 0 else self.new_op()
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, op))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, op)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span around every call (for interposing on an
        instance's public method from outside the program)."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        """Seconds of every span with this name."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def median_us(self, name: str) -> float:
        """Median duration of a span name in microseconds (0 if absent)."""
        values = self.durations(name)
        return median(values) * 1e6 if values else 0.0

    def profile(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total, self time and median."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        rows: dict[str, dict[str, float]] = {}
        samples: dict[str, list[float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = rows.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[index]
            samples.setdefault(name, []).append(end - start)
        for name, values in samples.items():
            rows[name]["p50_us"] = median(values) * 1e6
        return rows

    def dump(self, path: Path, extra: dict[str, Any]) -> None:
        """Write the profile and every span to ``path`` as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **extra,
            "profile": self.profile(),
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload) + "\n")
