"""REP008 — acquired resources must be released on *every* path out.

PR 8's mid-recovery backend leak — an ``SSTableReader`` opened, then an
exception between the open and the ``close`` — was caught only because
the ``-W error`` CI lane turns ``ResourceWarning`` fatal, i.e. at
runtime, on the lucky test.  This rule catches the shape statically: a
resource acquired into a local variable must reach ``close()`` /
``release()`` on **every** CFG path out of the function — including the
exceptional edges the happy-path reviewer never traces — unless
ownership escapes.

What counts as an acquisition (resolved through the import map, so
aliasing cannot hide one): ``open(...)``, ``fsio.open_file(...)``,
``socket.create_connection(...)`` / ``socket.socket(...)`` and the
``SSTableReader`` / ``WalWriter`` constructors — assigned to a plain
local name.

Ownership **escapes** (the function is no longer responsible) when the
name is returned or yielded, assigned onward (attribute, container,
another name), or passed as a call argument — e.g. a handle given to
the helper that closes it, whose release paths REP008 does not
second-guess.  ``with`` acquisitions are inherently safe and never
tracked; ``with x:`` and guarded ``if x: x.close()`` shapes release.

The analysis is a forward may-leak dataflow over
:mod:`repro.analysis.cfg`: exceptional edges carry the pre-acquisition
state for the acquiring statement itself (if ``open`` raises there is
nothing to close) and the post-release state for releasing statements.
Scope: ``inventory/`` and ``server/`` — the subsystems that own OS
resources; analysis modules hold no file handles past a function call.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.cfg import CFG, FunctionNode, build_cfg
from repro.analysis.findings import Finding
from repro.analysis.project import Module, Project
from repro.analysis.rules.base import Rule, terminal_name, walk_excluding_nested_defs

#: Module path prefixes this rule applies to.
_SCOPE = ("inventory/", "server/")

#: Resolved dotted names whose call acquires a resource.
_ACQUIRE_EXACT = {"open", "socket.socket"}
_ACQUIRE_SUFFIX = ("fsio.open_file", "socket.create_connection")
#: Constructor terminal names that acquire (project resource classes).
_ACQUIRE_CLASSES = {"SSTableReader", "WalWriter"}
#: Method terminal names that release the receiver.
_RELEASE_METHODS = {"close", "release"}


@dataclass(slots=True)
class _Acquisition:
    name: str
    line: int
    what: str  # human-readable description of the acquiring call


class ResourceLeakRule(Rule):
    """Resources must reach close/release on every path, or escape."""

    id = "REP008"
    title = "resources must be released on every path, including exceptions"

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        """Yield leak findings for every function in scope."""
        if not module.rel.startswith(_SCOPE):
            return
        for node in module.walk():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: Module, func: FunctionNode
    ) -> Iterator[Finding]:
        acquisitions = self._acquisitions(module, func)
        if not acquisitions:
            return
        owned = [
            acq
            for acq in acquisitions
            if not _escapes(func, acq.name)
        ]
        if not owned:
            return
        cfg = build_cfg(func, module.import_map())
        leaked = _may_leak_at_exit(cfg, {acq.name for acq in owned})
        for acq in owned:
            if acq.name in leaked:
                yield self.finding(
                    module,
                    acq.line,
                    f"{acq.name} ({acq.what}) may never be closed on some "
                    f"path out of {func.name}() — an exception between this "
                    "acquisition and the release leaks the resource; close "
                    "it in a finally block or acquire it with `with`",
                )

    def _acquisitions(
        self, module: Module, func: FunctionNode
    ) -> list[_Acquisition]:
        found: list[_Acquisition] = []
        for node in walk_excluding_nested_defs(func.body):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            what = _acquiring_call(module, node.value)
            if what is not None:
                found.append(
                    _Acquisition(name=target.id, line=node.lineno, what=what)
                )
        return found


def _acquiring_call(module: Module, value: ast.expr) -> str | None:
    """A description of the acquisition ``value`` performs, else ``None``."""
    if not isinstance(value, ast.Call):
        return None
    resolved = module.import_map().resolve(value.func)
    if resolved is not None:
        if resolved in _ACQUIRE_EXACT or resolved.endswith(_ACQUIRE_SUFFIX):
            return f"from {resolved}()"
        terminal = resolved.rsplit(".", 1)[-1]
        if terminal in _ACQUIRE_CLASSES:
            return f"a {terminal}"
    name = terminal_name(value.func)
    if name in _ACQUIRE_CLASSES:
        return f"a {name}"
    return None


def _escapes(func: FunctionNode, name: str) -> bool:
    """Whether ownership of ``name`` leaves the function syntactically.

    A bare ``Name`` load escapes unless it is the receiver of an
    attribute access (``x.close()``, ``x.read()`` — receiver use keeps
    ownership) or a release-call argument (``pool.release(x)``).
    """
    parent_of: dict[ast.AST, ast.AST] = {}
    for node in walk_excluding_nested_defs(func.body):
        for child in ast.iter_child_nodes(node):
            parent_of.setdefault(child, node)
    for node in walk_excluding_nested_defs(func.body):
        if not (isinstance(node, ast.Name) and node.id == name):
            continue
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            continue
        parent = parent_of.get(node)
        if parent is None:
            continue
        if isinstance(parent, ast.Attribute) and parent.value is node:
            continue  # receiver use: x.close(), x.fileno()
        if isinstance(parent, ast.Call) and node in parent.args:
            if (
                terminal_name(parent.func) in _RELEASE_METHODS
                and parent.func is not node
            ):
                continue  # pool.release(x) is the release, not an escape
            return True
        if isinstance(parent, ast.withitem) and parent.context_expr is node:
            continue  # `with x:` — the with releases it
        if isinstance(parent, (ast.Compare, ast.BoolOp, ast.UnaryOp)):
            continue  # truthiness/None tests don't transfer ownership
        if isinstance(parent, ast.If) and parent.test is node:
            continue
        if isinstance(parent, ast.While) and parent.test is node:
            continue
        return True
    return False


def _may_leak_at_exit(cfg: CFG, names: set[str]) -> set[str]:
    """Forward may-analysis: names still open on some path to the exit."""
    gens: list[set[str]] = [set() for _ in cfg.nodes]
    kills: list[set[str]] = [set() for _ in cfg.nodes]
    for node in cfg.statement_nodes():
        stmt = node.stmt
        assert stmt is not None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                if isinstance(stmt.value, ast.Call):
                    gens[node.index].add(target.id)
        kills[node.index] = _released_names(stmt, names)

    preds = cfg.predecessors()
    reachable = cfg.reachable()
    state: list[set[str] | None] = [None] * len(cfg.nodes)
    state[cfg.entry] = set()
    work = [idx for idx in range(len(cfg.nodes)) if idx in reachable]
    while work:
        idx = work.pop(0)
        if idx == cfg.entry:
            incoming: set[str] = set()
        else:
            incoming = set()
            seen_pred = False
            for pred, via_exc in preds[idx]:
                pred_state = state[pred]
                if pred_state is None:
                    continue
                seen_pred = True
                out = (pred_state - kills[pred]) | (
                    set() if via_exc else gens[pred]
                )
                incoming |= out
            if not seen_pred:
                continue
        if state[idx] is not None and incoming <= state[idx]:
            continue
        state[idx] = (state[idx] or set()) | incoming
        for succ_idx in cfg.nodes[idx].succ | cfg.nodes[idx].exc:
            if succ_idx in reachable and succ_idx not in work:
                work.append(succ_idx)

    exit_state = state[cfg.exit]
    return exit_state if exit_state is not None else set()


def _released_names(stmt: ast.stmt, names: set[str]) -> set[str]:
    """Names this statement releases (header-only for compound stmts)."""
    released: set[str] = set()
    for expr in _header_exprs(stmt):
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # x.close() / x.release()
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _RELEASE_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in names
            ):
                released.add(func.value.id)
            # pool.release(x)
            if terminal_name(func) in _RELEASE_METHODS:
                for arg in node.args:
                    if isinstance(arg, ast.Name) and arg.id in names:
                        released.add(arg.id)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, ast.Name) and expr.id in names:
                released.add(expr.id)  # `with x:` closes x on exit
    if isinstance(stmt, ast.If):
        # Guarded release: `if x: x.close()` / `if x is not None: x.close()`
        # — on the skip path the name was never (successfully) acquired.
        tested = {
            n.id
            for n in ast.walk(stmt.test)
            if isinstance(n, ast.Name) and n.id in names
        }
        if tested:
            closed = {
                f.value.id
                for n in ast.walk(stmt)
                if isinstance(n, ast.Call)
                and isinstance((f := n.func), ast.Attribute)
                and f.attr in _RELEASE_METHODS
                and isinstance(f.value, ast.Name)
                and f.value.id in names
            }
            released |= tested & closed
    return released


def _header_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The expressions evaluated *at* a CFG node (not its nested body)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.Try, *((ast.TryStar,) if hasattr(ast, "TryStar") else ()))):
        return []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [
        child
        for child in ast.iter_child_nodes(stmt)
        if isinstance(child, ast.expr)
    ]
