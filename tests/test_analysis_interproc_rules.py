"""Fixtures for the interprocedural rules (REP008–REP009), SARIF output
and ``--changed`` selection.

Same conventions as ``test_analysis_rules.py``: tiny on-disk trees,
marker-anchored line assertions, one rule per ``analyze`` call — plus
``lint()`` exit-code checks proving each rule fails the build on its
injected violation and passes on the compliant twin.
"""

from __future__ import annotations

import io
import json
import subprocess
import textwrap

from repro.analysis.changed import changed_files, filter_findings
from repro.analysis.findings import Finding
from repro.analysis.runner import analyze, lint
from repro.analysis.rules.leaks import ResourceLeakRule
from repro.analysis.rules.wire_errors import WireErrorSyncRule


def make_tree(root, files: dict[str, str]):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def line_of(source: str, marker: str) -> int:
    for index, line in enumerate(textwrap.dedent(source).splitlines(), start=1):
        if marker in line:
            return index
    raise AssertionError(f"marker {marker!r} not in fixture")


def hits(findings: list[Finding], rule: str) -> list[tuple[str, int]]:
    return [(f.path, f.line) for f in findings if f.rule == rule]


# ---------------------------------------------------------------- REP008


LEAK_BETWEEN_OPEN_AND_CLOSE = """\
    from pkg import fsio


    def load(path):
        handle = fsio.open_file(path)  # leaky-open
        data = handle.read()
        handle.close()
        return data
"""

LEAK_FSIO_STUB = """\
    def open_file(path):
        return open(path, "rb")
"""

CLOSED_IN_FINALLY = """\
    from pkg import fsio


    def load(path):
        handle = fsio.open_file(path)
        try:
            return handle.read()
        finally:
            handle.close()
"""

WITH_IS_SAFE = """\
    def load(path):
        with open(path, "rb") as handle:
            return handle.read()
"""

OWNERSHIP_ESCAPES = """\
    import socket


    def connect(address):
        conn = socket.create_connection(address)
        return conn


    def register(registry, path):
        handle = open(path, "rb")
        registry.adopt(handle)
"""

GUARDED_CLOSE = """\
    import socket


    def probe(pool, address):
        client = None
        try:
            client = socket.create_connection(address)
            client.sendall(b"ping")
        except Exception:
            if client is not None:
                client.close()
            return False
        pool.release(client)
        return True
"""

LEAK_ON_EXCEPTION_PATH_ONLY = """\
    def sizes(paths):
        total = 0
        handle = open(paths[0], "rb")  # exception-path-leak
        total += len(handle.read())
        handle.close()
        return total
"""


def test_rep008_flags_close_not_reached_on_exception_path(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "inventory/loader.py": LEAK_BETWEEN_OPEN_AND_CLOSE,
            "inventory/fsio.py": LEAK_FSIO_STUB,
        },
    )
    findings = analyze(root, [ResourceLeakRule])
    assert hits(findings, "REP008") == [
        ("inventory/loader.py", line_of(LEAK_BETWEEN_OPEN_AND_CLOSE, "leaky-open")),
    ]


def test_rep008_silent_when_closed_in_finally(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "inventory/loader.py": CLOSED_IN_FINALLY,
            "inventory/fsio.py": LEAK_FSIO_STUB,
        },
    )
    assert hits(analyze(root, [ResourceLeakRule]), "REP008") == []


def test_rep008_with_acquisitions_are_safe(tmp_path):
    root = make_tree(tmp_path, {"inventory/loader.py": WITH_IS_SAFE})
    assert hits(analyze(root, [ResourceLeakRule]), "REP008") == []


def test_rep008_escaped_ownership_is_not_flagged(tmp_path):
    root = make_tree(tmp_path, {"server/conn.py": OWNERSHIP_ESCAPES})
    assert hits(analyze(root, [ResourceLeakRule]), "REP008") == []


def test_rep008_guarded_close_in_catch_all_handler_is_clean(tmp_path):
    root = make_tree(tmp_path, {"server/probe.py": GUARDED_CLOSE})
    assert hits(analyze(root, [ResourceLeakRule]), "REP008") == []


def test_rep008_flags_exception_path_even_with_happy_path_close(tmp_path):
    root = make_tree(
        tmp_path, {"inventory/sizes.py": LEAK_ON_EXCEPTION_PATH_ONLY}
    )
    findings = analyze(root, [ResourceLeakRule])
    assert hits(findings, "REP008") == [
        (
            "inventory/sizes.py",
            line_of(LEAK_ON_EXCEPTION_PATH_ONLY, "exception-path-leak"),
        ),
    ]


def test_rep008_out_of_scope_modules_are_ignored(tmp_path):
    root = make_tree(tmp_path, {"apps/tool.py": LEAK_ON_EXCEPTION_PATH_ONLY})
    assert hits(analyze(root, [ResourceLeakRule]), "REP008") == []


def test_rep008_violation_fails_lint_and_twin_passes(tmp_path):
    bad = make_tree(
        tmp_path / "bad", {"inventory/sizes.py": LEAK_ON_EXCEPTION_PATH_ONLY}
    )
    good = make_tree(tmp_path / "good", {"inventory/loader.py": WITH_IS_SAFE})
    out = io.StringIO()
    assert (
        lint(root=bad, baseline_path=tmp_path / "b.json", rules_spec="REP008", out=out)
        == 1
    )
    assert (
        lint(root=good, baseline_path=tmp_path / "b.json", rules_spec="REP008", out=out)
        == 0
    )


def test_rep008_pragma_suppression(tmp_path):
    source = LEAK_ON_EXCEPTION_PATH_ONLY.replace(
        'handle = open(paths[0], "rb")  # exception-path-leak',
        'handle = open(paths[0], "rb")  # repro: allow[REP008] process-lifetime handle',
    )
    root = make_tree(tmp_path, {"inventory/sizes.py": source})
    assert hits(analyze(root, [ResourceLeakRule]), "REP008") == []


# ---------------------------------------------------------------- REP009


WIRE_OK = """\
    ERR_BAD = "bad"
    ERR_SLOW = "slow"


    class ProtocolError(Exception):
        def __init__(self, code, message):
            super().__init__(message)
            self.code = code


    def reject():
        raise ProtocolError(ERR_BAD, "nope")


    def timeout():
        raise ProtocolError(ERR_SLOW, "late")
"""

WIRE_DEAD_CODE = """\
    ERR_BAD = "bad"
    ERR_GHOST = "ghost"  # dead-code


    class ProtocolError(Exception):
        def __init__(self, code, message):
            super().__init__(message)
            self.code = code


    def reject():
        raise ProtocolError(ERR_BAD, "nope")
"""

WIRE_RAW_LITERAL = """\
    ERR_BAD = "bad"


    class ProtocolError(Exception):
        def __init__(self, code, message):
            super().__init__(message)
            self.code = code


    def reject():
        raise ProtocolError("bad", "nope")  # raw-literal


    def use():
        return ERR_BAD
"""

WIRE_TYPO = """\
    ERR_BAD = "bad"


    class ProtocolError(Exception):
        def __init__(self, code, message):
            super().__init__(message)
            self.code = code


    def reject():
        raise ProtocolError("bda", "typo ships")  # typo-literal


    def use():
        return ERR_BAD
"""


def test_rep009_flags_dead_error_codes(tmp_path):
    root = make_tree(tmp_path, {"server/protocol.py": WIRE_DEAD_CODE})
    findings = analyze(root, [WireErrorSyncRule])
    assert hits(findings, "REP009") == [
        ("server/protocol.py", line_of(WIRE_DEAD_CODE, "dead-code")),
    ]


def test_rep009_flags_raw_literal_at_raise_site(tmp_path):
    root = make_tree(tmp_path, {"server/protocol.py": WIRE_RAW_LITERAL})
    findings = analyze(root, [WireErrorSyncRule])
    assert hits(findings, "REP009") == [
        ("server/protocol.py", line_of(WIRE_RAW_LITERAL, "raw-literal")),
    ]


def test_rep009_flags_undeclared_code_typo(tmp_path):
    root = make_tree(tmp_path, {"server/protocol.py": WIRE_TYPO})
    findings = [f for f in analyze(root, [WireErrorSyncRule]) if f.rule == "REP009"]
    assert len(findings) == 1
    assert "'bda'" in findings[0].message


def test_rep009_silent_on_compliant_twin(tmp_path):
    root = make_tree(tmp_path, {"server/protocol.py": WIRE_OK})
    assert hits(analyze(root, [WireErrorSyncRule]), "REP009") == []


def test_rep009_silent_when_no_registry_exists(tmp_path):
    root = make_tree(tmp_path, {"pkg/plain.py": "def f():\n    return 1\n"})
    assert hits(analyze(root, [WireErrorSyncRule]), "REP009") == []


def test_rep009_docs_sync_both_directions(tmp_path):
    # The docs anchor is two levels above the analysis root (repo layout:
    # src/<pkg> + docs/OPERATIONS.md).
    root = make_tree(tmp_path / "src" / "pkg", {"server/protocol.py": WIRE_OK})
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "OPERATIONS.md").write_text(
        "| `bad` (code) | reject |\n| `stale` (code) | ghost row |\n",
        encoding="utf-8",
    )
    findings = [f for f in analyze(root, [WireErrorSyncRule]) if f.rule == "REP009"]
    messages = "\n".join(f.message for f in findings)
    assert "'slow' has no triage row" in messages  # declared, undocumented
    assert "'stale'" in messages  # documented, undeclared
    assert len(findings) == 2


def test_rep009_violation_fails_lint_and_twin_passes(tmp_path):
    bad = make_tree(tmp_path / "bad", {"server/protocol.py": WIRE_DEAD_CODE})
    good = make_tree(tmp_path / "good", {"server/protocol.py": WIRE_OK})
    out = io.StringIO()
    assert (
        lint(root=bad, baseline_path=tmp_path / "b.json", rules_spec="REP009", out=out)
        == 1
    )
    assert (
        lint(root=good, baseline_path=tmp_path / "b.json", rules_spec="REP009", out=out)
        == 0
    )


# ---------------------------------------------------------------- SARIF


def test_sarif_output_shape_and_exit_code(tmp_path):
    root = make_tree(
        tmp_path, {"inventory/sizes.py": LEAK_ON_EXCEPTION_PATH_ONLY}
    )
    out = io.StringIO()
    code = lint(
        root=root,
        baseline_path=tmp_path / "b.json",
        fmt="sarif",
        rules_spec="REP008",
        out=out,
    )
    assert code == 1
    log = json.loads(out.getvalue())
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.analysis"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "REP008" in rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "REP008"
    assert result["level"] == "error"
    assert result["baselineState"] == "new"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "inventory/sizes.py"
    assert location["region"]["startLine"] == line_of(
        LEAK_ON_EXCEPTION_PATH_ONLY, "exception-path-leak"
    )


def test_sarif_clean_tree_has_empty_results(tmp_path):
    root = make_tree(tmp_path, {"inventory/loader.py": WITH_IS_SAFE})
    out = io.StringIO()
    code = lint(
        root=root,
        baseline_path=tmp_path / "b.json",
        fmt="sarif",
        rules_spec="REP008",
        out=out,
    )
    assert code == 0
    log = json.loads(out.getvalue())
    assert log["runs"][0]["results"] == []


# ---------------------------------------------------------------- --changed


def test_filter_findings_none_keeps_everything():
    findings = [Finding(path="a.py", line=1, rule="REP001", message="m")]
    assert filter_findings(findings, None) == findings


def test_filter_findings_selects_by_path():
    keep = Finding(path="a.py", line=1, rule="REP001", message="m")
    drop = Finding(path="b.py", line=1, rule="REP001", message="m")
    assert filter_findings([keep, drop], {"a.py"}) == [keep]


def _git(cwd, *args):
    subprocess.run(
        ["git", *args],
        cwd=cwd,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(cwd),
            "PATH": __import__("os").environ["PATH"],
        },
    )


def test_changed_files_against_a_real_repo(tmp_path):
    root = make_tree(
        tmp_path / "src" / "pkg",
        {
            "stable.py": "def a():\n    return 1\n",
            "touched.py": "def b():\n    return 2\n",
        },
    )
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    (root / "touched.py").write_text("def b():\n    return 3\n", encoding="utf-8")
    (root / "fresh.py").write_text("def c():\n    return 4\n", encoding="utf-8")
    selected = changed_files(root)
    assert selected == {"touched.py", "fresh.py"}


def test_changed_files_degrades_to_none_outside_git(tmp_path):
    root = make_tree(tmp_path / "plain", {"mod.py": "x = 1\n"})
    assert changed_files(root) is None


def test_lint_changed_reports_only_touched_files(tmp_path):
    bad = LEAK_ON_EXCEPTION_PATH_ONLY
    root = make_tree(
        tmp_path / "src" / "pkg",
        {
            "inventory/committed.py": bad,
            "inventory/touched.py": "def ok():\n    return 1\n",
        },
    )
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    (root / "inventory" / "touched.py").write_text(
        "def ok():\n    return 2\n", encoding="utf-8"
    )
    out = io.StringIO()
    code = lint(
        root=root,
        baseline_path=tmp_path / "b.json",
        rules_spec="REP008",
        out=out,
        changed_only=True,
    )
    # committed.py's leak is real but untouched: the PR lane stays quiet
    # (the full-tree main lane still reports it).
    assert code == 0, out.getvalue()
    out = io.StringIO()
    assert (
        lint(
            root=root,
            baseline_path=tmp_path / "b.json",
            rules_spec="REP008",
            out=out,
        )
        == 1
    )
