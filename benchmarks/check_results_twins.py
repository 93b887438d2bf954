"""Enforce the benchmark-results contract: every benchmark has twins.

Every ``bench_<name>.py`` writes its table through
:func:`benchmarks.conftest.write_report`, which persists the
human-readable ``results/<name>.txt`` **and** a machine-readable
``results/<name>.json`` twin.  CI's benchmark-smoke job runs this
checker after the quick-mode pass, so a benchmark that stops calling
``write_report`` — or a results file edited by hand until the pair
diverges — fails the build instead of silently shipping a table no
tool can diff.

Checked, per ``bench_*.py`` module:

- both ``results/<name>.txt`` and ``results/<name>.json`` exist;
- the JSON parses and self-identifies (``payload["benchmark"]`` matches
  the file stem);
- the twins agree: the JSON's ``lines`` render exactly the text file.

And per results table: a ``results/<name>.txt`` or ``.json`` whose
``bench_<name>.py`` is gone is an orphan — retiring a benchmark
retires its tables too.

Exits non-zero listing every violation.  Figure sidecars (``*.ppm``)
ride along unchecked — they are pixel artefacts, not tables.

Usage::

    PYTHONPATH=src python benchmarks/check_results_twins.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"


def expected_names() -> list[str]:
    """One result stem per benchmark module: bench_<name>.py -> <name>."""
    return sorted(
        path.stem[len("bench_"):]
        for path in BENCH_DIR.glob("bench_*.py")
    )


def orphans() -> list[str]:
    """Results tables (``.txt``/``.json``) with no benchmark module."""
    names = set(expected_names())
    return sorted(
        f"{path.name}: no bench_{path.stem}.py writes it — delete it "
        f"with its benchmark"
        for suffix in ("txt", "json")
        for path in RESULTS_DIR.glob(f"*.{suffix}")
        if path.stem not in names
    )


def check(names: list[str] | None = None) -> list[str]:
    """Return every twin violation (empty means the contract holds)."""
    problems = orphans()
    for name in names if names is not None else expected_names():
        txt = RESULTS_DIR / f"{name}.txt"
        twin = RESULTS_DIR / f"{name}.json"
        if not txt.exists():
            problems.append(f"{name}: missing {txt.name} (did the run fail?)")
            continue
        if not twin.exists():
            problems.append(
                f"{name}: {txt.name} has no {twin.name} twin — "
                f"write results through write_report()"
            )
            continue
        try:
            payload = json.loads(twin.read_text())
        except json.JSONDecodeError as exc:
            problems.append(f"{name}: {twin.name} is not valid JSON ({exc})")
            continue
        if payload.get("benchmark") != name:
            problems.append(
                f"{name}: {twin.name} self-identifies as "
                f"{payload.get('benchmark')!r}"
            )
            continue
        lines = payload.get("lines")
        if not isinstance(lines, list):
            problems.append(f"{name}: {twin.name} lacks a 'lines' list")
            continue
        if "\n".join(lines) + "\n" != txt.read_text():
            problems.append(
                f"{name}: {txt.name} and {twin.name} disagree — "
                f"regenerate both by re-running the benchmark"
            )
    return problems


def main() -> int:
    problems = check()
    names = expected_names()
    if problems:
        print(f"results-twin check FAILED ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"results-twin check passed: {len(names)} benchmarks, "
        f"each with a .txt/.json pair in {RESULTS_DIR.relative_to(BENCH_DIR.parent)}/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
