"""The driver: baseline ratchet, pragma suppression, reports, exit codes.

These tests exercise ``lint(...)`` (the function behind both ``repro
lint`` and ``python -m repro.analysis``) end to end against scratch
trees, covering the acceptance gauntlet: a deliberately-introduced raw
durable write / unlocked mutation / unregistered span name must make the
runner exit non-zero with the right rule id and line.
"""

from __future__ import annotations

import io
import json
import textwrap

import pytest

from repro.analysis import baseline
from repro.analysis.runner import (
    analyze,
    default_rules,
    lint,
    main,
)

CLEAN = """\
    def load(path):
        with open(path, "rb") as handle:
            return handle.read()
"""

RAW_WRITE = """\
    def publish(path, payload):
        with open(path, "w") as handle:
            handle.write(payload)
"""


def write_tree(tmp_path, files: dict[str, str]):
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def run_lint(root, baseline_path, **kwargs):
    out = io.StringIO()
    code = lint(root=root, baseline_path=baseline_path, out=out, **kwargs)
    return code, out.getvalue()


# ------------------------------------------------------------ exit codes


def test_clean_tree_exits_zero(tmp_path):
    root = write_tree(tmp_path, {"inventory/reader.py": CLEAN})
    code, text = run_lint(root, tmp_path / "baseline.json")
    assert code == 0
    assert "invariants clean" in text


def test_injected_raw_write_fails_with_rule_and_line(tmp_path):
    root = write_tree(tmp_path, {"inventory/scratch.py": RAW_WRITE})
    code, text = run_lint(root, tmp_path / "baseline.json")
    assert code == 1
    assert "inventory/scratch.py:2: REP001" in text


def test_injected_unlocked_mutation_fails_with_rule_and_line(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "scratch.py": """\
                import threading


                class State:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._seen = set()

                    def mark(self, key):
                        with self._lock:
                            self._seen.add(key)

                    def forget(self, key):
                        self._seen.discard(key)
            """
        },
    )
    code, text = run_lint(root, tmp_path / "baseline.json")
    assert code == 1
    assert "scratch.py:14: REP002" in text


def test_injected_unregistered_span_fails_with_rule_and_line(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "scratch.py": """\
                from repro.obs.trace import span


                def work():
                    with span("repro.rogue.name"):
                        pass
            """
        },
    )
    code, text = run_lint(root, tmp_path / "baseline.json")
    assert code == 1
    assert "scratch.py:5: REP003" in text


def test_syntax_error_is_an_unsuppressible_rep000(tmp_path):
    root = write_tree(tmp_path, {"broken.py": "def oops(:\n"})
    code, text = run_lint(root, tmp_path / "baseline.json")
    assert code == 1
    assert "REP000" in text and "does not parse" in text


# --------------------------------------------------------------- ratchet


def test_baseline_tolerates_recorded_violations(tmp_path):
    root = write_tree(tmp_path, {"inventory/scratch.py": RAW_WRITE})
    baseline_path = tmp_path / "baseline.json"
    baseline.save(
        baseline_path, {"REP001": {"inventory/scratch.py": 1}}
    )
    code, text = run_lint(root, baseline_path)
    assert code == 0
    assert "1 baselined" in text


def test_new_violation_beyond_baseline_fails(tmp_path):
    # the baseline covers one REP001 in this file; a second one appears
    root = write_tree(
        tmp_path,
        {
            "inventory/scratch.py": textwrap.dedent(RAW_WRITE)
            + "\n\ndef second(path):\n    return open(path, 'a')\n"
        },
    )
    baseline_path = tmp_path / "baseline.json"
    baseline.save(baseline_path, {"REP001": {"inventory/scratch.py": 1}})
    code, text = run_lint(root, baseline_path)
    assert code == 1
    # the whole pair is reported: statically old and new are identical
    assert text.count("REP001") >= 2


def test_fixed_violation_makes_the_baseline_stale(tmp_path):
    root = write_tree(tmp_path, {"inventory/scratch.py": CLEAN})
    baseline_path = tmp_path / "baseline.json"
    baseline.save(baseline_path, {"REP001": {"inventory/scratch.py": 1}})
    code, text = run_lint(root, baseline_path)
    assert code == 1
    assert "stale" in text and "--update-baseline" in text


def test_update_baseline_banks_the_fix_and_shrinks_the_file(tmp_path):
    root = write_tree(tmp_path, {"inventory/scratch.py": RAW_WRITE})
    baseline_path = tmp_path / "baseline.json"

    code, _ = run_lint(root, baseline_path, update_baseline=True)
    assert code == 0
    assert baseline.load(baseline_path) == {"REP001": {"inventory/scratch.py": 1}}
    assert run_lint(root, baseline_path)[0] == 0

    # fix it; the stale entry fails until the shrink is banked
    (root / "inventory/scratch.py").write_text(
        textwrap.dedent(CLEAN), encoding="utf-8"
    )
    assert run_lint(root, baseline_path)[0] == 1
    code, _ = run_lint(root, baseline_path, update_baseline=True)
    assert code == 0
    assert baseline.load(baseline_path) == {}
    assert run_lint(root, baseline_path)[0] == 0


def test_unreadable_baseline_is_a_hard_error(tmp_path):
    root = write_tree(tmp_path, {"inventory/reader.py": CLEAN})
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text('{"version": 99}', encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported baseline format"):
        run_lint(root, baseline_path)


# --------------------------------------------------------------- pragmas


def test_trailing_pragma_suppresses_the_finding(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "inventory/spill.py": """\
                def spill(path, payload):
                    with open(path, "w") as handle:  # repro: allow[REP001] scratch spill file, rebuilt on restart
                        handle.write(payload)
            """
        },
    )
    assert run_lint(root, tmp_path / "baseline.json")[0] == 0


def test_standalone_pragma_applies_to_the_next_line(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "inventory/spill.py": """\
                def spill(path, payload):
                    # repro: allow[REP001] scratch spill file, rebuilt on restart
                    with open(path, "w") as handle:
                        handle.write(payload)
            """
        },
    )
    assert run_lint(root, tmp_path / "baseline.json")[0] == 0


def test_pragma_without_reason_is_rep000_and_suppresses_nothing(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "inventory/spill.py": """\
                def spill(path, payload):
                    with open(path, "w") as handle:  # repro: allow[REP001]
                        handle.write(payload)
            """
        },
    )
    code, text = run_lint(root, tmp_path / "baseline.json")
    assert code == 1
    assert "REP000" in text and "needs a reason" in text
    assert "REP001" in text  # the finding itself still reported


def test_pragma_naming_unknown_rule_is_rep000(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "mod.py": """\
                # repro: allow[REPX, REP001] something
                VALUE = 1
            """
        },
    )
    code, text = run_lint(root, tmp_path / "baseline.json")
    assert code == 1
    assert "unknown rule ids: REPX" in text


def test_rep000_cannot_be_suppressed(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "mod.py": """\
                # repro: allow[REP000] nice try
                VALUE = 1
            """
        },
    )
    code, text = run_lint(root, tmp_path / "baseline.json")
    assert code == 1
    assert "cannot be suppressed" in text


def test_pragma_shaped_string_literal_is_not_a_pragma(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "mod.py": """\
                DOC = "write # repro: allow[REP001] <reason> next to the call"
            """
        },
    )
    assert run_lint(root, tmp_path / "baseline.json")[0] == 0


# --------------------------------------------------------------- reports


def test_json_report_shape(tmp_path):
    root = write_tree(tmp_path, {"inventory/scratch.py": RAW_WRITE})
    code, text = run_lint(root, tmp_path / "baseline.json", fmt="json")
    assert code == 1
    payload = json.loads(text)
    assert payload["ok"] is False
    (finding,) = payload["findings"]
    assert finding["rule"] == "REP001"
    assert finding["path"] == "inventory/scratch.py"
    assert finding["line"] == 2
    assert finding["baselined"] is False
    assert payload["counts"] == {"REP001": {"inventory/scratch.py": 1}}
    assert payload["summary"] == {"new": 1, "baselined": 0, "stale": 0}


def test_rules_flag_selects_a_subset(tmp_path):
    root = write_tree(tmp_path, {"inventory/scratch.py": RAW_WRITE})
    code, text = run_lint(
        root, tmp_path / "baseline.json", rules_spec="REP002,REP004"
    )
    assert code == 0  # REP001 not selected

    with pytest.raises(SystemExit, match="unknown rule id"):
        run_lint(root, tmp_path / "baseline.json", rules_spec="REP042")


def test_main_entry_point_matches_lint(tmp_path, capsys):
    root = write_tree(tmp_path, {"inventory/scratch.py": RAW_WRITE})
    argv = ["--root", str(root), "--baseline", str(tmp_path / "baseline.json")]
    assert main(argv) == 1
    assert "REP001" in capsys.readouterr().out
    assert main(argv + ["--update-baseline"]) == 0
    assert main(argv) == 0


# ------------------------------------------------------------- stability


def test_findings_are_sorted_and_deduplicated(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "world/b.py": "import random\n\n\ndef f():\n    return random.random()\n",
            "world/a.py": "import time\n\n\ndef g():\n    return time.time()\n",
        },
    )
    findings = analyze(root)
    assert findings == sorted(findings)
    assert len(set(findings)) == len(findings)
    assert [f.path for f in findings] == ["world/a.py", "world/b.py"]


def test_default_rule_ids_are_unique_and_titled():
    ids = [rule.id for rule in default_rules()]
    assert len(set(ids)) == len(ids) == 8
    assert all(rule.title for rule in default_rules())
