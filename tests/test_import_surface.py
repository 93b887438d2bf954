"""The import surface the scripts outside ``src/`` rely on, and what
``import repro.cli`` may load.

``bench/``, ``benchmarks/`` and ``examples/`` import names from the
package roots (``from repro.inventory import LiveInventory``).  The
package ``__init__``s resolve most of those lazily, so a deleted or
misspelt export would only surface when that one script runs; the scan
here finds every such import, function-local ones included, and
resolves it.

Each CLI subcommand imports what it runs, and a package ``__init__``
loads a submodule only when a name from it is asked for.  A fresh
interpreter that imports ``repro.cli`` — or what ``repro build`` and the
table-serving subcommands run — must therefore not have loaded the live
write path, the simulator or the server.  A read-only server does not
load the live write path either, building the CLI parser does not load
the static analyzer's rules, and what ``repro build`` runs loads no
``concurrent.futures``.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT_DIRS = ("bench", "benchmarks", "examples")

#: The live write path.
WRITE_PATH = (
    "repro.inventory.live",
    "repro.inventory.wal",
    "repro.inventory.memtable",
    "repro.inventory.maintenance",
)

#: The live write path, the simulator and the server: none of the
#: subcommand entry modules below runs them.
NOT_LOADED = (*WRITE_PATH, "repro.world.simulator", "repro.server")

#: The static analyzer's rules and what only they use.
ANALYZER = ("repro.analysis.rules", "repro.analysis.project", "repro.analysis.cfg")


def _repro_imports() -> list[tuple[str, int, str, str | None]]:
    """(file, line, module, name) for every repro import in the scripts;
    ``name`` is None for a plain ``import repro.x``."""
    found = []
    for directory in SCRIPT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            rel = str(path.relative_to(REPO))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    found.extend(
                        (rel, node.lineno, alias.name, None)
                        for alias in node.names
                        if alias.name.split(".")[0] == "repro"
                    )
                elif (
                    isinstance(node, ast.ImportFrom)
                    and not node.level
                    and node.module
                    and node.module.split(".")[0] == "repro"
                ):
                    found.extend(
                        (rel, node.lineno, node.module, alias.name)
                        for alias in node.names
                    )
    return found


def _resolves(module: str, name: str | None) -> bool:
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(imported, name):
        return True
    try:  # ``from repro.inventory import fsio`` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_script_import_resolves():
    imports = _repro_imports()
    assert len({rel for rel, *_ in imports}) > 30  # the scan sees the scripts
    broken = [
        f"{rel}:{line}: {module}" + ("" if name is None else f" import {name}")
        for rel, line, module, name in imports
        if not _resolves(module, name)
    ]
    assert not broken, "unresolvable imports:\n" + "\n".join(broken)


@pytest.mark.parametrize(
    ("code", "entry", "forbidden"),
    [
        pytest.param("import repro.cli", "repro.cli", NOT_LOADED, id="repro.cli"),
        pytest.param(  # repro build
            "import repro.pipeline.run", "repro.pipeline.run", NOT_LOADED,
            id="repro.pipeline.run",
        ),
        pytest.param(  # repro query / render
            "import repro.inventory.backend", "repro.inventory.backend", NOT_LOADED,
            id="repro.inventory.backend",
        ),
        pytest.param(  # repro serve --inventory
            "import repro.server.server", "repro.server.service", WRITE_PATH,
            id="repro.server.server",
        ),
        pytest.param(  # every subcommand builds the parser, lint flags included
            "from repro.cli import _build_parser; _build_parser()",
            "repro.analysis.runner", ANALYZER,
            id="cli-parser",
        ),
    ],
)
def test_import_loads_no_subcommand_internals(code, entry, forbidden):
    loaded = _loaded_after(code)
    assert entry in loaded
    hit = sorted(
        name
        for name in loaded
        if any(name == bad or name.startswith(bad + ".") for bad in forbidden)
    )
    assert not hit, hit


def test_build_path_loads_no_thread_pool():
    """The engine runs partitions in the caller's thread, so what
    ``repro build`` runs has no use for a pool."""
    loaded = _loaded_after("import repro.pipeline.run", prefix="concurrent")
    assert "concurrent.futures" not in loaded, sorted(loaded)


def _loaded_after(code: str, prefix: str = "repro") -> set[str]:
    """The modules under ``prefix`` a fresh interpreter holds after
    ``code``."""
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; {code}; "
            f"print('\\n'.join(m for m in sys.modules if m.startswith({prefix!r})))",
        ],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())
