"""The observability registry: every span and counter name, with meaning.

Instrumented modules *declare* their span and counter names here at
import time (``SPAN_X = register_span("x", "…")``), which buys two
things:

- ``docs/METRICS.md`` is **generated** from the registry
  (:func:`generate_metrics_doc`, or ``python -m repro.obs.registry``),
  so the reference lists exactly what the code emits;
- the docs-sync test (``tests/test_docs_metrics_sync.py``) walks the
  registry after importing every ``repro`` module and fails when a
  registered name is missing from the committed doc **or** the doc
  names something no longer registered — the reference cannot drift in
  either direction.

Names with one variable segment (per-request-type counters such as
``server.requests.<type>``) are registered once per concrete value the
code can produce, because both the request-type and error-code spaces
are closed sets; a genuinely open name space would be registered as a
single ``prefix.<label>`` entry.
"""

from __future__ import annotations

import importlib
import pkgutil

#: name -> one-line meaning, in registration order.
_SPANS: dict[str, str] = {}
_COUNTERS: dict[str, str] = {}


def register_span(name: str, description: str) -> str:
    """Declare a span name; returns the name so constants read naturally.

    Re-registering the same name with the same description is a no-op
    (modules may be reloaded); conflicting descriptions raise.
    """
    return _register(_SPANS, "span", name, description)


def register_counter(name: str, description: str) -> str:
    """Declare a counter name (same contract as :func:`register_span`)."""
    return _register(_COUNTERS, "counter", name, description)


def _register(table: dict[str, str], kind: str, name: str, description: str) -> str:
    if not name or not description:
        raise ValueError(f"a {kind} needs a non-empty name and description")
    existing = table.get(name)
    if existing is not None and existing != description:
        raise ValueError(
            f"{kind} {name!r} already registered with a different description"
        )
    table[name] = description
    return name


def registered_spans() -> dict[str, str]:
    """Snapshot of all registered span names and meanings."""
    return dict(_SPANS)


def registered_counters() -> dict[str, str]:
    """Snapshot of all registered counter names and meanings."""
    return dict(_COUNTERS)


def import_instrumented() -> None:
    """Import every module under ``repro`` so all registrations run.

    Registration happens at import time, so the registry is only
    complete once the instrumented modules are loaded.  The generator
    and the docs-sync test call this first.
    """
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.rpartition(".")[2] == "__main__":
            continue  # executable entry points, not importable libraries
        importlib.import_module(module.name)


_HEADER = """\
# Metrics & span reference

<!-- GENERATED FILE - do not edit by hand.
     Regenerate with:  PYTHONPATH=src python -m repro.obs > docs/METRICS.md
     tests/test_docs_metrics_sync.py fails when this file drifts from the
     registry (repro.obs.registry) in either direction. -->

Every counter and span name the code can emit, from the observability
registry (`repro.obs.registry`).  Counters are monotonic event counts
(`repro.engine.metrics.CounterSet`); spans are timed sections recorded
by the tracer (`repro.obs`) and carry wall/CPU time, attributes and
counter deltas.  `docs/OPERATIONS.md` explains how to read them in
production; `repro trace` renders a recorded trace into the per-stage
profile table.
"""


def generate_metrics_doc() -> str:
    """Render the whole registry as the ``docs/METRICS.md`` markdown."""
    import_instrumented()
    lines = [_HEADER]
    lines.append("## Counters\n")
    lines.append("| counter | meaning |")
    lines.append("|---|---|")
    for name in sorted(_COUNTERS):
        lines.append(f"| `{name}` | {_COUNTERS[name]} |")
    lines.append("")
    lines.append("## Spans\n")
    lines.append("| span | meaning |")
    lines.append("|---|---|")
    for name in sorted(_SPANS):
        lines.append(f"| `{name}` | {_SPANS[name]} |")
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    """CLI entry point: print the generated reference to stdout."""
    print(generate_metrics_doc(), end="")
    return 0
