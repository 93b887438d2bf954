"""Order statistics and the metric value type."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    """One reported number; ``samples`` is set for timings."""

    value: float
    samples: int | None = None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list.

    With fewer than ``1 / (1 - q)`` samples it is the maximum — the
    slowest of five builds is their "p99".
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    """The nearest-rank median (an observed value, never an average)."""
    return percentile(values, 0.5)


#: Width of the windows a closed loop is cut into.  Six seconds hold
#: about a thousand of serve_uniform's requests, so every window's p99
#: has ten samples beyond it.
WINDOW_S = 6.0


def window_medians(
    completions: list[tuple[float, float, str]], started: float, seconds: float, tag: str
) -> tuple[float, float, float]:
    """Cut a closed loop into windows of about :data:`WINDOW_S` seconds
    and take the median over windows of each window's completions per
    second and of the median and p99 latency of its ``tag`` requests.

    The sandbox's CPUs slump for seconds at a time; pooled over a whole
    run, a slump that covers a few percent of it sets the p99 outright.
    The median window is a typical stretch of the run, while a stall the
    program itself adds every few seconds is in every window and shows.

    ``completions`` are (done time, latency, tag) triples.
    """
    count = max(1, int(seconds // WINDOW_S))
    width = seconds / count
    windows: list[list[tuple[float, str]]] = [[] for _ in range(count)]
    for done, latency, kind in completions:
        index = int((done - started) / width)
        if 0 <= index < count:
            windows[index].append((latency, kind))
    tagged = [[latency for latency, kind in window if kind == tag] for window in windows]
    return (
        statistics.median(len(window) / width for window in windows),
        statistics.median(median(latencies) for latencies in tagged if latencies),
        statistics.median(percentile(latencies, 0.99) for latencies in tagged if latencies),
    )
