"""Git-diff-aware finding selection for ``repro lint --changed``.

On a pull request only the touched files matter to the author; the
full-tree run still happens on ``main``.  The subtlety: cross-module
rules (REP003's registry, REP009's error codes) *cannot* analyze a
file subset — a constant deleted in one file breaks
an invariant whose finding lands in another.  So ``--changed`` always
**analyzes** the whole tree and then **reports** only findings anchored
in files the diff touched.  A finding in an untouched file caused by a
touched one is the full-tree lane's job; the PR lane optimises feedback
latency, not coverage.

Changed files come from ``git diff --name-only <base>`` (plus untracked
files), resolved against the repository that contains the analysis
root.  Any git failure — not a repo, unknown base, no git binary —
degrades to "everything changed", i.e. a plain full report: the flag
can only ever *hide* noise, never break a run.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

from repro.analysis.findings import Finding


def changed_files(root: Path, base: str | None = None) -> set[str] | None:
    """Root-relative POSIX paths the working tree changed, or ``None``.

    ``None`` means "selection unavailable — treat everything as changed".
    ``base`` is a git rev to diff against (CI passes the PR base);
    without one the diff is against ``HEAD`` (uncommitted work).
    """
    diff_cmd = ["git", "diff", "--name-only"]
    if base is not None:
        diff_cmd.append(base)
    listed: list[str] = []
    for cmd in (
        diff_cmd,
        # --full-name: ls-files is cwd-relative by default, but diff is
        # toplevel-relative; normalise both before re-anchoring below.
        ["git", "ls-files", "--others", "--exclude-standard", "--full-name"],
    ):
        try:
            proc = subprocess.run(
                cmd,
                cwd=root,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        listed.extend(line.strip() for line in proc.stdout.splitlines())

    # git paths are repo-relative; findings are analysis-root-relative.
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    repo = Path(top)
    resolved_root = root.resolve()
    selected: set[str] = set()
    for entry in listed:
        if not entry:
            continue
        absolute = (repo / entry).resolve()
        try:
            selected.add(absolute.relative_to(resolved_root).as_posix())
        except ValueError:
            continue  # outside the analysis root (docs, CI, tests)
    return selected


def filter_findings(
    findings: list[Finding], selected: set[str] | None
) -> list[Finding]:
    """Keep findings anchored in selected files (``None`` keeps all)."""
    if selected is None:
        return findings
    return [finding for finding in findings if finding.path in selected]
