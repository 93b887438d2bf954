"""The analysis driver: load, check, suppress, ratchet, report.

``analyze(root)`` is the library entry point (tests use it directly);
``lint(...)`` adds baseline enforcement and reporting and is shared by
the two command-line faces — ``repro lint`` and ``python -m
repro.analysis`` — which accept the same flags and return the same exit
codes:

- ``0`` — clean (possibly modulo a tolerated, non-stale baseline);
- ``1`` — new violations, a stale baseline, unparseable modules or
  malformed pragmas.

Rule execution order never affects output: findings are de-duplicated
and sorted (path, line, rule) before anything is reported.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from repro.analysis import baseline as baseline_mod
from repro.analysis import changed as changed_mod
from repro.analysis import report as report_mod
from repro.analysis import sarif as sarif_mod
from repro.analysis.findings import META_RULE, Finding

if TYPE_CHECKING:
    from repro.analysis.rules.base import Rule

#: Name of the committed ratchet file, looked up at the repository root
#: (two levels above the package root: ``src/repro`` → repo).
BASELINE_FILENAME = "lint-baseline.json"


def default_rules() -> tuple[type[Rule], ...]:
    """The invariant suite, in rule-id order.  Extending the checker is
    appending here (see docs/ANALYSIS.md, "Writing a new rule").

    The rules load when a lint runs, not with this module: building the
    ``repro lint`` parser imports no rule, no project loader, no CFG.
    """
    from repro.analysis.rules.async_blocking import AsyncBlockingRule
    from repro.analysis.rules.corruption import SwallowedCorruptionRule
    from repro.analysis.rules.determinism import DeterminismRule
    from repro.analysis.rules.durability import DurableWriteRule
    from repro.analysis.rules.leaks import ResourceLeakRule
    from repro.analysis.rules.locks import LockDisciplineRule
    from repro.analysis.rules.registry_sync import RegistrySyncRule
    from repro.analysis.rules.wire_errors import WireErrorSyncRule

    return (
        DurableWriteRule,
        LockDisciplineRule,
        RegistrySyncRule,
        DeterminismRule,
        SwallowedCorruptionRule,
        AsyncBlockingRule,
        ResourceLeakRule,
        WireErrorSyncRule,
    )


def rule_titles(rules: Iterable[type[Rule]]) -> dict[str, str]:
    """Rule id → one-line title, for reports and docs."""
    return {rule.id: rule.title for rule in rules}


def analyze(
    root: str | Path,
    rules: Sequence[type[Rule]] | None = None,
) -> list[Finding]:
    """Run the rule suite over a tree; returns sorted, deduplicated,
    pragma-filtered findings (including ``REP000`` meta findings)."""
    from repro.analysis.project import Project

    project = Project.load(root)
    rule_instances = [cls() for cls in (rules if rules is not None else default_rules())]
    findings: set[Finding] = set(project.errors)
    for module in project.modules:
        findings.update(module.pragma_errors)
    for rule in rule_instances:
        for module in project.modules:
            findings.update(rule.check(module, project))
        findings.update(rule.finalize(project))
    kept = []
    for finding in findings:
        if finding.rule != META_RULE:
            module = project.module(finding.path)
            if module is not None and module.suppressed(finding.rule, finding.line):
                continue
        kept.append(finding)
    return sorted(kept)


def _select_rules(spec: str | None) -> tuple[type[Rule], ...]:
    if spec is None:
        return default_rules()
    wanted = {part.strip() for part in spec.split(",") if part.strip()}
    known = {rule.id: rule for rule in default_rules()}
    unknown = sorted(wanted - set(known))
    if unknown:
        raise SystemExit(f"unknown rule id(s): {', '.join(unknown)}")
    return tuple(known[rule_id] for rule_id in sorted(wanted))


def default_root() -> Path:
    """The installed ``repro`` package directory (``src/repro`` in-tree)."""
    import repro

    return Path(repro.__file__).resolve().parent


def default_baseline(root: Path) -> Path:
    """Where the committed baseline lives for a given root."""
    parents = list(root.parents)
    anchor = parents[1] if len(parents) >= 2 else root
    return anchor / BASELINE_FILENAME


def lint(
    root: str | Path | None = None,
    baseline_path: str | Path | None = None,
    fmt: str = "text",
    update_baseline: bool = False,
    rules_spec: str | None = None,
    out: TextIO | None = None,
    changed_only: bool = False,
    changed_base: str | None = None,
) -> int:
    """Run the suite with ratchet enforcement; returns the exit code.

    ``changed_only`` analyzes the full tree (cross-module rules need it)
    but reports only findings anchored in files git says changed — see
    :mod:`repro.analysis.changed`.
    """
    out = out if out is not None else sys.stdout
    root = Path(root) if root is not None else default_root()
    rules = _select_rules(rules_spec)
    findings = analyze(root, rules)
    selected: set[str] | None = None
    if changed_only:
        selected = changed_mod.changed_files(root, changed_base)
        findings = changed_mod.filter_findings(findings, selected)
    baseline_file = (
        Path(baseline_path) if baseline_path is not None else default_baseline(root)
    )
    if update_baseline:
        baseline_mod.save(baseline_file, baseline_mod.counts_of(findings))
        print(
            f"baseline updated: {baseline_file} "
            f"({len(findings)} finding(s) recorded)",
            file=out,
        )
        return 0
    recorded = baseline_mod.load(baseline_file)
    if selected is not None:
        # Unchanged files are out of this run's view: their baseline
        # entries must not read as stale.
        recorded = {
            rule: {p: n for p, n in files.items() if p in selected}
            for rule, files in recorded.items()
        }
    ratchet = baseline_mod.apply(findings, recorded)
    if fmt == "json":
        print(report_mod.render_json(str(root), ratchet), file=out)
    elif fmt == "sarif":
        print(sarif_mod.render_sarif(ratchet, rule_titles(rules)), file=out)
    else:
        for line in report_mod.render_text(ratchet, rule_titles(rules)):
            print(line, file=out)
    return 0 if ratchet.ok else 1


def build_arg_parser(parser: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """The shared flag set (used by ``repro lint`` and ``-m repro.analysis``)."""
    parser = parser or argparse.ArgumentParser(
        prog="repro.analysis",
        description="statically enforce the repo's durability, concurrency, "
        "determinism and observability invariants",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="package tree to analyze (default: the repro package itself)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=f"ratchet file (default: {BASELINE_FILENAME} at the repo root)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (json is the CI artifact shape; sarif is the "
        "2.1.0 log CI uploads for inline annotations)",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="report only findings in files git says changed (the full "
        "tree is still analyzed — cross-module rules need it)",
    )
    parser.add_argument(
        "--changed-base", default=None, metavar="REV",
        help="git rev to diff against for --changed (default: HEAD; "
        "CI passes the PR base)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="record the current findings as the new baseline and exit 0 "
        "(the ratchet: counts may only ever decrease)",
    )
    parser.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: the full suite)",
    )
    return parser


def run_from_args(args: argparse.Namespace) -> int:
    """Map parsed flags onto :func:`lint` (the CLI handlers call this)."""
    return lint(
        root=args.root,
        baseline_path=args.baseline,
        fmt=args.format,
        update_baseline=args.update_baseline,
        rules_spec=args.rules,
        changed_only=args.changed,
        changed_base=args.changed_base,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.analysis`` entry point."""
    return run_from_args(build_arg_parser().parse_args(argv))
