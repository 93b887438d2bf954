"""End-to-end tracing & profiling: where did this request/build spend its time?

The paper's system is operated as a service — its Figure 3 is literally
a stage-cost breakdown of the production pipeline — and every perf claim
this repo makes needs a seam that can prove it.  ``repro.obs`` is that
seam, stdlib only:

- :mod:`repro.obs.trace` — the contextvars span tracer.  ``span(name)``
  as context manager or ``@traced`` decorator; thread- and
  asyncio-safe propagation; per-span wall and thread-CPU time; counters
  attached at close.  Disabled by default, and the disabled path is a
  no-op (one attribute read, a shared inert object — asserted by
  benchmark).
- :mod:`repro.obs.sinks` — where spans go: a JSONL trace file, an
  in-memory ring buffer (served live via the server's ``trace``
  request), and an aggregating profile (count/total/p50/p99 per stage,
  via the repo's t-digest) that ``repro trace`` renders.
- :mod:`repro.obs.registry` — the declared universe of span and counter
  names; ``docs/METRICS.md`` is generated from it and a sync test keeps
  the two from drifting.
- :mod:`repro.obs.exposition` — Prometheus-style text exposition of all
  counters/latency gauges (``repro serve --metrics-port``).

Instrumented hot paths: every pipeline stage (the Fig. 3 funnel),
engine partition execution, SSTable block reads and
block-cache hits/misses, and every server request with its queue-wait
vs. handler-time split.
"""

import importlib
from typing import Any

# Resolved on first use (PEP 562), so importing one submodule does not
# load its siblings.
_EXPORTS = {
    "repro.obs.sinks": ("JsonlSink", "RingBufferSink", "read_trace"),
}


def __getattr__(name: str) -> Any:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
