"""The rule plugin interface and shared AST helpers.

A rule is a class with an ``id``, a ``title`` and two hooks:

- :meth:`Rule.check` runs once per module and yields findings local to
  that module;
- :meth:`Rule.finalize` runs once per project, after every module has
  been checked — cross-module rules (the registry-sync check) collect
  state in ``check`` and judge it here.

Rules never import or execute project code; everything they know comes
from the parsed trees in :class:`~repro.analysis.project.Project`.  New
rules register by appending to ``repro.analysis.runner.default_rules``
(see ``docs/ANALYSIS.md`` for a worked example).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import ClassVar

from repro.analysis.findings import Finding
from repro.analysis.project import Module, Project


class Rule:
    """Base class every invariant check derives from."""

    #: Stable identifier, ``REPnnn`` — what pragmas and baselines key on.
    id: ClassVar[str] = "REP999"
    #: One-line summary shown in reports and ``docs/ANALYSIS.md``.
    title: ClassVar[str] = ""

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        """Yield this rule's findings for one module (default: none)."""
        return iter(())

    def finalize(self, project: Project) -> Iterator[Finding]:
        """Yield project-wide findings after all modules ran (default: none)."""
        return iter(())

    def finding(self, module: Module, node: ast.AST | int, message: str) -> Finding:
        """Build a finding anchored at an AST node (or explicit line)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(path=module.rel, line=line, rule=self.id, message=message)


def terminal_name(func: ast.expr) -> str | None:
    """The rightmost identifier of a call target (``a.b.c`` → ``c``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def attribute_base(node: ast.expr) -> str | None:
    """For ``self.attr`` (possibly wrapped in subscripts/attributes),
    the ``self``-attribute being touched, else ``None``.

    ``self._blocks`` → ``_blocks``; ``self._blocks[i]`` → ``_blocks``;
    ``self._aggregates[name][0]`` → ``_aggregates``; ``other.x`` → ``None``.
    """
    current = node
    while isinstance(current, ast.Subscript):
        current = current.value
    if not isinstance(current, ast.Attribute):
        return None
    value = current.value
    while isinstance(value, (ast.Attribute, ast.Subscript)):
        if isinstance(value, ast.Subscript):
            value = value.value
            continue
        current = value
        value = current.value
    if isinstance(value, ast.Name) and value.id == "self":
        return current.attr
    return None


def walk_excluding_nested_defs(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class defs.

    Code inside a nested ``def`` does not run where it is written — lock
    context and async-ness do not carry into it — so structural rules
    scan each definition's own body only.
    """
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def lock_item_attr(item: ast.withitem) -> str | None:
    """The ``self`` lock attribute one ``with``-item acquires, else ``None``.

    Matches ``with self.<attr containing "lock">:`` — optionally called,
    e.g. ``self._lock.acquire_read()`` styles are out of scope.  REP002
    (lock discipline) reads locks *per item* through it: ``with
    self._a_lock, self._b_lock:`` names two distinct locks, in
    acquisition order.
    """
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        expr = expr.func
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and "lock" in expr.attr.lower()
    ):
        return expr.attr
    return None


def string_literal(node: ast.expr) -> str | None:
    """The value of a plain string-literal expression, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def fstring_prefix(node: ast.expr) -> str | None:
    """The leading literal text of an f-string, else ``None``.

    ``f"server.requests.{kind}"`` → ``"server.requests."`` — enough to
    match a dynamically-registered metric-name family.
    """
    if not isinstance(node, ast.JoinedStr):
        return None
    head: list[str] = []
    for part in node.values:
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            head.append(part.value)
        else:
            break
    prefix = "".join(head)
    return prefix or None
