"""docs/METRICS.md must equal what the registry generates — exactly.

The reference is generated (``python -m repro.obs``), so any new
counter/span registration, renamed metric or edited description must be
accompanied by a regenerated file; this test fails on drift in either
direction.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.project import Project
from repro.analysis.rules.registry_sync import collect_declarations
from repro.analysis.runner import default_root
from repro.obs import registry

REPO = Path(__file__).resolve().parents[1]
DOC = REPO / "docs" / "METRICS.md"


def test_metrics_doc_matches_registry_exactly():
    """The documented regeneration command, run as written under
    ``-W error`` (a warning fails it), prints docs/METRICS.md exactly."""
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "repro.obs"],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    committed = DOC.read_text(encoding="utf-8")
    assert result.stdout.decode("utf-8") == committed, (
        "docs/METRICS.md is out of date with the registry; regenerate it:\n"
        "  PYTHONPATH=src python -m repro.obs > docs/METRICS.md"
    )


def test_runtime_registry_matches_static_declarations():
    """The runtime registry and the REP003 static collector agree.

    The analyzer's declaration collector (``repro.analysis``) discovers
    every ``register_span``/``register_counter`` call site without
    importing anything; the runtime registry is what actually imports.
    Requiring them to coincide replaces the hand-maintained name list
    this test used to carry — a new registration is covered the moment
    it is written, and a vanished one fails in both directions.
    """
    registry.import_instrumented()
    spans = registry.registered_spans()
    counters = registry.registered_counters()

    declarations = collect_declarations(Project.load(default_root()))
    static = {
        kind: {d.name for d in declarations if d.kind == kind and not d.dynamic}
        for kind in ("span", "counter")
    }
    heads = {
        kind: {d.name for d in declarations if d.kind == kind and d.dynamic}
        for kind in ("span", "counter")
    }
    assert static["span"] and static["counter"], (
        "the static collector found no registrations — the analyzer and "
        "the registry have drifted apart"
    )

    # statically declared ⇒ registered at import time
    assert static["span"] <= set(spans)
    assert static["counter"] <= set(counters)

    # registered at import time ⇒ statically visible (a literal, or an
    # instance of a declared dynamic f-string family)
    def covered(name: str, kind: str) -> bool:
        return name in static[kind] or any(
            name.startswith(head) for head in heads[kind]
        )

    rogue_spans = sorted(n for n in spans if not covered(n, "span"))
    rogue_counters = sorted(n for n in counters if not covered(n, "counter"))
    assert not rogue_spans, f"spans registered only dynamically: {rogue_spans}"
    assert not rogue_counters, (
        f"counters registered only dynamically: {rogue_counters}"
    )

    # every registered name has a real description
    assert all(desc.strip() for desc in spans.values())
    assert all(desc.strip() for desc in counters.values())


def test_duplicate_registration_with_conflicting_description_raises():
    import pytest

    name = registry.register_span("test.dup", "one meaning")
    assert name == "test.dup"
    # idempotent with the same description
    registry.register_span("test.dup", "one meaning")
    with pytest.raises(ValueError):
        registry.register_span("test.dup", "a different meaning")
    registry._SPANS.pop("test.dup", None)  # leave the registry clean
