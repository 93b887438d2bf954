"""REP006 — no blocking calls on the server's event loop.

The server's event loop owns the sockets, and besides them runs only
bounded work: the request types the service lists in ``inline_types``
(``ping``; point reads on a read-only table or an in-memory inventory),
whose only I/O is at most one block read per lookup.  Anything that
can block for long — sleeps, opening files, sync clients, subprocesses,
writes, route scans — runs on the worker pool via ``run_in_executor``.  One stray ``time.sleep`` or ``open()`` inside an
``async def`` stalls *every* connection, which is exactly the class of
regression hardest to spot by reading (the code still works, just not
concurrently).

Flagged inside ``async def`` bodies in ``server/`` modules:

- ``time.sleep(...)`` — use ``await asyncio.sleep(...)``;
- ``open(...)`` / ``io.open`` / ``Path.open`` / ``fsio.open_file`` —
  blocking file I/O belongs on the executor;
- constructing or calling the sync :class:`InventoryClient` — it speaks
  blocking sockets; inside the server process use the service directly;
- ``os.system`` / ``subprocess.*`` — processes block the loop.

Nested ``def``\\ s inside an ``async def`` are skipped: they execute
wherever they are *called* (typically handed to the executor), not on
the loop.

The scope is every module under ``server/``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import ImportMap, Module, Project
from repro.analysis.rules.base import Rule, terminal_name, walk_excluding_nested_defs

_BLOCKING_DOTTED = {
    "time.sleep": "use `await asyncio.sleep(...)` instead",
    "os.system": "run it on the executor (or not at all in the server)",
}
_BLOCKING_MODULES = {"subprocess"}
_OPENERS = {"open", "io.open", "builtins.open"}
_SYNC_CLIENT = "InventoryClient"


class AsyncBlockingRule(Rule):
    """Blocking calls inside ``async def`` in the serving layer."""

    id = "REP006"
    title = "async server code must not block the event loop"

    SCOPE = ("server/",)

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        if not module.rel.startswith(self.SCOPE):
            return
        imports = module.import_map()
        for node in module.walk():
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_coroutine(module, imports, node)

    def _check_coroutine(
        self, module: Module, imports: ImportMap, coroutine: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        where = f"in async def {coroutine.name}()"
        for node in walk_excluding_nested_defs(coroutine.body):
            if isinstance(node, ast.Name) and node.id == _SYNC_CLIENT:
                yield self.finding(
                    module, node,
                    f"sync {_SYNC_CLIENT} used {where}: it blocks on sockets; "
                    "call the service directly or use the executor",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            dotted = imports.resolve(node.func)
            if dotted is None:
                continue
            if dotted in _BLOCKING_DOTTED:
                yield self.finding(
                    module, node,
                    f"{dotted}() blocks the event loop {where}; "
                    f"{_BLOCKING_DOTTED[dotted]}",
                )
            elif dotted in _OPENERS or dotted.endswith(".open_file") or (
                terminal_name(node.func) == "open"
                and isinstance(node.func, ast.Attribute)
            ):
                yield self.finding(
                    module, node,
                    f"blocking file I/O ({dotted}) {where}; "
                    "run it on the executor (run_in_executor)",
                )
            elif dotted.partition(".")[0] in _BLOCKING_MODULES:
                yield self.finding(
                    module, node,
                    f"{dotted}() spawns a process and blocks the loop {where}; "
                    "use asyncio.create_subprocess_* or the executor",
                )
