"""Trace sinks: where closed spans go.

Three shapes, matching the three consumers:

- :class:`JsonlSink` — one JSON object per line, append-only; the
  durable form ``repro build --trace`` writes and ``repro trace`` reads
  back into a profile;
- :class:`RingBufferSink` — the last N spans in memory, served live
  through the server's ``trace`` request (bounded, so a long-running
  server cannot leak);
- :class:`ProfileSink` — rolls spans up as they close into a per-name
  aggregate (count / errors / total wall / total CPU / p50 / p99 via the
  repo's own t-digest), the table behind the paper's Figure-3 stage
  breakdown.

All sinks are thread-safe: under the query server, spans close on many
worker threads at once.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from collections.abc import Iterable, Iterator
from types import TracebackType
from dataclasses import dataclass
from pathlib import Path

from repro.sketches.tdigest import TDigest


class JsonlSink:
    """Appends each span record as one JSON line to a file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = None

    def record(self, record: dict) -> None:
        """Write one span record (opens the file lazily, append mode)."""
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")

    def close(self) -> None:
        """Flush and close the file (reopens lazily if recorded to again)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()


def read_trace(path: str | Path) -> Iterator[dict]:
    """Yield the span records of a JSONL trace file, in file order."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


class RingBufferSink:
    """Keeps the most recent ``capacity`` span records in memory."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._spans: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, record: dict) -> None:
        """Append one record, evicting the oldest at capacity."""
        with self._lock:
            self._spans.append(record)

    def spans(self, n: int | None = None) -> list[dict]:
        """The most recent ``n`` records (all retained ones by default),
        oldest first."""
        with self._lock:
            items = list(self._spans)
        return items if n is None else items[-n:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        """Drop every retained record."""
        with self._lock:
            self._spans.clear()


@dataclass
class ProfileRow:
    """One span name's aggregate in a profile table."""

    name: str
    count: int
    errors: int
    total_s: float
    cpu_s: float
    p50_ms: float
    p99_ms: float


class ProfileSink:
    """Aggregates spans by name into count/total/p50/p99 rows."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._aggregates: dict[str, list] = {}  # name -> [count, errors, wall, cpu, digest]

    def record(self, record: dict) -> None:
        """Fold one span record into its name's aggregate."""
        wall = float(record.get("wall_s", 0.0))
        with self._lock:
            agg = self._aggregates.get(record["name"])
            if agg is None:
                agg = [0, 0, 0.0, 0.0, TDigest()]
                self._aggregates[record["name"]] = agg
            agg[0] += 1
            if record.get("status") == "error":
                agg[1] += 1
            agg[2] += wall
            agg[3] += float(record.get("cpu_s", 0.0))
            agg[4].update(wall * 1e3)

    def rows(self) -> list[ProfileRow]:
        """The per-name profile, most total wall time first."""
        with self._lock:
            rows = [
                ProfileRow(
                    name=name,
                    count=agg[0],
                    errors=agg[1],
                    total_s=agg[2],
                    cpu_s=agg[3],
                    p50_ms=agg[4].quantile(0.50) if agg[0] else 0.0,
                    p99_ms=agg[4].quantile(0.99) if agg[0] else 0.0,
                )
                for name, agg in self._aggregates.items()
            ]
        rows.sort(key=lambda row: -row.total_s)
        return rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._aggregates)

    def clear(self) -> None:
        """Drop every aggregate."""
        with self._lock:
            self._aggregates.clear()


def profile_records(records: Iterable[dict]) -> list[ProfileRow]:
    """Aggregate an iterable of span records into profile rows."""
    sink = ProfileSink()
    for record in records:
        sink.record(record)
    return sink.rows()


def render_profile(rows: list[ProfileRow], limit: int | None = None) -> list[str]:
    """A profile as aligned text lines (the ``repro trace`` table)."""
    total = sum(row.total_s for row in rows) or 1.0
    lines = [
        f"{'span':<28} {'count':>7} {'errors':>6} {'total':>9} "
        f"{'share':>6} {'p50':>9} {'p99':>9}"
    ]
    shown = rows if limit is None else rows[:limit]
    for row in shown:
        lines.append(
            f"{row.name:<28} {row.count:>7,} {row.errors:>6,} "
            f"{row.total_s:>8.3f}s {row.total_s / total:>6.1%} "
            f"{row.p50_ms:>7.2f}ms {row.p99_ms:>7.2f}ms"
        )
    if limit is not None and len(rows) > limit:
        lines.append(f"... {len(rows) - limit} more span names")
    return lines
