"""REP003 — span/counter names and the observability registry agree.

PR 4 introduced :mod:`repro.obs.registry`: every span and counter name
is declared once, with a meaning, and ``docs/METRICS.md`` is generated
from the registry.  The runtime half of that contract (doc == registry)
is tested; this rule closes the *static* half in both directions:

- **used ⇒ declared** — every name literal handed to ``obs.span(...)``,
  ``@traced(...)``, ``CounterSet.increment(...)`` or ``Span.add(...)``
  must be declared via ``registry.register_span``/``register_counter``
  somewhere in the tree.  Name families built with f-strings
  (``f"server.requests.{kind}"``) must match a declared dynamic family
  (a registration whose name is itself an f-string with the same
  literal head);
- **declared ⇒ used** — a declared literal must be referenced: either
  its constant (``SPAN_X = register_span(...)``, class attributes
  included) is read somewhere in the project, or the literal itself
  appears at a call site.  Dead metrics rot docs and dashboards.

Resolution is name-based and deliberately conservative: arguments that
are neither string literals, f-strings, nor references to a registered
constant are skipped (``span(label)`` inside the tracer's own decorator
machinery), and ``.add(...)``/``.increment(...)`` literals are only
checked when they look like metric names (contain a dot) so ordinary
``set.add("x")`` calls never trip the rule.

The declaration collector is public (:func:`collect_declarations`):
``tests/test_docs_metrics_sync.py`` uses it to discover the registered
name set statically instead of keeping its own hand-maintained list.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.project import Module, Project
from repro.analysis.rules.base import (
    Rule,
    fstring_prefix,
    string_literal,
    terminal_name,
)

_REGISTER_FUNCS = {"register_span", "register_counter"}
_SPAN_FUNCS = {"span", "traced"}
_COUNTER_FUNCS = {"increment", "add"}


@dataclass(frozen=True, slots=True)
class Declaration:
    """One ``register_span``/``register_counter`` call site."""

    #: The literal name, or the f-string head for dynamic families.
    name: str
    #: ``True`` when the registration name is an f-string (a family).
    dynamic: bool
    #: ``span`` or ``counter``.
    kind: str
    #: Module (root-relative POSIX path) and line of the registration.
    path: str
    line: int
    #: The constant the name was assigned to (``SPAN_X = register_…``).
    symbol: str | None


@dataclass(frozen=True, slots=True)
class Usage:
    """One name-bearing call site (span open, counter bump)."""

    path: str
    line: int
    #: Literal name, f-string head, or resolved constant symbol.
    text: str
    #: ``literal`` | ``prefix`` | ``symbol``.
    form: str


def collect_declarations(project: Project) -> list[Declaration]:
    """Every registry registration in the project, statically discovered."""
    declarations: list[Declaration] = []
    for module in project.modules:
        for node in module.walk():
            # Catch both bare registrations and ``X = register_…(...)``.
            value: ast.expr | None = None
            symbol: str | None = None
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if len(targets) == 1 and isinstance(targets[0], ast.Name):
                    symbol = targets[0].id
            elif isinstance(node, ast.Expr):
                value = node.value
            if not isinstance(value, ast.Call):
                continue
            func_name = terminal_name(value.func)
            if func_name not in _REGISTER_FUNCS or not value.args:
                continue
            kind = "span" if func_name == "register_span" else "counter"
            name_arg = value.args[0]
            literal = string_literal(name_arg)
            if literal is not None:
                declarations.append(
                    Declaration(literal, False, kind, module.rel, value.lineno, symbol)
                )
                continue
            prefix = fstring_prefix(name_arg)
            if prefix is not None:
                declarations.append(
                    Declaration(prefix, True, kind, module.rel, value.lineno, symbol)
                )
    return declarations


def _collect_usages(project: Project) -> list[Usage]:
    usages: list[Usage] = []
    for module in project.modules:
        for node in module.walk():
            call = node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # ``@traced("name")`` — the decorator is the call site.
                for decorator in node.decorator_list:
                    if (
                        isinstance(decorator, ast.Call)
                        and terminal_name(decorator.func) == "traced"
                        and decorator.args
                    ):
                        usages.extend(_usage_of(module, decorator, decorator.args[0]))
                continue
            if not isinstance(call, ast.Call) or not call.args:
                continue
            func_name = terminal_name(call.func)
            if func_name == "span" or func_name == "traced":
                usages.extend(_usage_of(module, call, call.args[0]))
            elif func_name in _COUNTER_FUNCS and isinstance(call.func, ast.Attribute):
                usages.extend(
                    _usage_of(module, call, call.args[0], dotted_literals_only=True)
                )
    return usages


def _usage_of(
    module: Module,
    call: ast.Call,
    arg: ast.expr,
    dotted_literals_only: bool = False,
) -> Iterator[Usage]:
    literal = string_literal(arg)
    if literal is not None:
        if dotted_literals_only and "." not in literal:
            return  # plain set.add("x") / non-metric increment
        yield Usage(module.rel, call.lineno, literal, "literal")
        return
    prefix = fstring_prefix(arg)
    if prefix is not None:
        yield Usage(module.rel, call.lineno, prefix, "prefix")
        return
    symbol = terminal_name(arg) if isinstance(arg, (ast.Name, ast.Attribute)) else None
    if symbol is not None:
        yield Usage(module.rel, call.lineno, symbol, "symbol")


def _symbol_reads(project: Project) -> dict[str, int]:
    """How often each identifier is *read* anywhere in the project."""
    reads: dict[str, int] = {}
    for module in project.modules:
        for node in module.walk():
            name: str | None = None
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            if name is not None:
                reads[name] = reads.get(name, 0) + 1
    return reads


class RegistrySyncRule(Rule):
    """Span/counter names drifting from the observability registry."""

    id = "REP003"
    title = "metric names must be registered, and registered names used"

    def finalize(self, project: Project) -> Iterator[Finding]:
        """Judge the whole project's declarations against its usages."""
        declarations = collect_declarations(project)
        literals = {d.name for d in declarations if not d.dynamic}
        prefixes = {d.name for d in declarations if d.dynamic}
        symbols = {d.symbol for d in declarations if d.symbol is not None}
        usages = _collect_usages(project)

        # used ⇒ declared
        used_literals: set[str] = set()
        used_symbols: set[str] = set()
        for usage in usages:
            if usage.form == "literal":
                used_literals.add(usage.text)
                if usage.text not in literals and not any(
                    usage.text.startswith(p) for p in prefixes
                ):
                    yield Finding(
                        path=usage.path,
                        line=usage.line,
                        rule=self.id,
                        message=(
                            f"name {usage.text!r} is not declared in the "
                            "observability registry — add a register_span/"
                            "register_counter with a meaning (obs/registry.py "
                            "generates docs/METRICS.md from it)"
                        ),
                    )
            elif usage.form == "prefix":
                if not any(
                    usage.text.startswith(p) or p.startswith(usage.text)
                    for p in prefixes
                ):
                    yield Finding(
                        path=usage.path,
                        line=usage.line,
                        rule=self.id,
                        message=(
                            f"dynamic name family {usage.text!r}* has no "
                            "matching dynamic registration — register the "
                            "family's concrete names (closed sets) or a "
                            "prefix entry"
                        ),
                    )
            elif usage.form == "symbol":
                used_symbols.add(usage.text)

        # declared ⇒ used
        reads = _symbol_reads(project)
        for declaration in declarations:
            if declaration.dynamic:
                continue
            if declaration.name in used_literals:
                continue
            if declaration.symbol is not None:
                # the defining assignment itself reads nothing; any other
                # read of the constant (incl. attribute form) counts.
                if reads.get(declaration.symbol, 0) > 0 or (
                    declaration.symbol in used_symbols
                ):
                    continue
            yield Finding(
                path=declaration.path,
                line=declaration.line,
                rule=self.id,
                message=(
                    f"{declaration.kind} {declaration.name!r} is registered "
                    "but never emitted anywhere — remove the registration "
                    "(and regenerate docs/METRICS.md) or wire it up"
                ),
            )
