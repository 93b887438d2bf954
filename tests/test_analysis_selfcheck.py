"""``src/repro`` itself must lint clean modulo the committed baseline.

This is the dogfood gate: the analyzer the repo ships is run over the
repo's own source in-process, against the real ``lint-baseline.json``.
If a change reintroduces a raw durable write, an unlocked mutation, an
unregistered span name or any other invariant violation, this test —
and the ``lint-invariants`` CI job running the same command — fails
with the offending ``path:line: RULE`` before review ever sees it.
"""

from __future__ import annotations

import io

from repro.analysis.runner import (
    analyze,
    default_baseline,
    default_root,
    lint,
)


def test_src_repro_lints_clean_modulo_committed_baseline():
    out = io.StringIO()
    code = lint(out=out)
    assert code == 0, (
        "repro's own source violates its invariants:\n" + out.getvalue()
    )


def test_committed_baseline_exists_at_the_default_path():
    path = default_baseline(default_root())
    assert path.name == "lint-baseline.json"
    assert path.is_file(), f"committed baseline missing: {path}"


def test_every_suppression_in_src_carries_its_pragma_reason():
    """Suppressed findings are audit-trail entries, not escape hatches.

    ``analyze`` would already fail on a reasonless pragma (REP000); this
    asserts the stronger, positive property that the committed tree's
    pragmas all parse and carry prose.
    """
    from repro.analysis.project import Project

    project = Project.load(default_root())
    assert not project.errors
    for module in project.modules:
        assert not module.pragma_errors, module.pragma_errors
        for pragma in module.pragmas:
            assert pragma.reason.strip(), (
                f"{module.rel}:{pragma.line} pragma has no reason"
            )


def test_analyze_default_root_has_no_meta_findings():
    findings = analyze(default_root())
    assert [f for f in findings if f.rule == "REP000"] == []


def test_full_tree_analysis_fits_the_interactive_budget():
    """The parse-once caches keep a full run inside editor-loop latency.

    A generous wall-clock bound (the suite runs on shared CI workers),
    but one that a regression to re-parsing every module per rule — eight
    rules now walk every tree — would blow immediately.
    """
    import time

    start = time.monotonic()
    analyze(default_root())
    elapsed = time.monotonic() - start
    assert elapsed < 20.0, f"full-tree analyze took {elapsed:.1f}s"
