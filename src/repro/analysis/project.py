"""Parsed-project context: modules, ASTs, symbol tables and pragmas.

The runner loads every ``*.py`` file under one *root package directory*
(normally ``src/repro``) into a :class:`Module` — source text, ``ast``
tree, lazily-built ``symtable`` and the suppression pragmas found in its
comments — and hands rules the whole :class:`Project` so cross-module
invariants (the observability registry, shared constants) can be checked
without importing any project code.  Analysis is purely static: a tree
that cannot be *imported* (missing optional deps, import-time side
effects) still lints.

Suppression pragmas
-------------------

A finding is silenced in place with an inline comment naming the rule
and a **mandatory reason**::

    with open(path, "w") as out:   # repro: allow[REP001] scratch file, not a durable artifact
        ...

A pragma on its own line applies to the next source line; a trailing
pragma applies to its own line.  Several rules may be listed
(``allow[REP001,REP005]``).  A pragma without a reason — or naming an
unknown rule — is itself reported as ``REP000`` and fails the run:
suppressions are part of the audit trail, not an escape hatch.
"""

from __future__ import annotations

import ast
import io
import re
import symtable
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import META_RULE, Finding

#: ``# repro: allow[REP001,REP005] reason…`` (reason captured, may be empty).
_PRAGMA = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]\s*(?P<reason>.*)$"
)
_RULE_ID = re.compile(r"^REP\d{3}$")


@dataclass(frozen=True, slots=True)
class Pragma:
    """One parsed ``# repro: allow[...]`` comment."""

    #: Line the pragma comment sits on.
    line: int
    #: Line the suppression applies to (next line for standalone comments).
    target_line: int
    #: Rule ids being suppressed.
    rules: frozenset[str]
    #: The mandatory justification text.
    reason: str


class Module:
    """One parsed source file plus its per-file analysis context."""

    def __init__(self, path: Path, rel: str, source: str, tree: ast.Module) -> None:
        self.path = path
        #: POSIX path relative to the analysis root — rules scope on this.
        self.rel = rel
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.pragmas: list[Pragma] = []
        #: REP000 findings from malformed pragmas in this file.
        self.pragma_errors: list[Finding] = []
        self._symtable: symtable.SymbolTable | None = None
        self._walk: tuple[ast.AST, ...] | None = None
        self._imports: "ImportMap | None" = None
        self._scan_pragmas()

    def table(self) -> symtable.SymbolTable:
        """The module's ``symtable`` (built on first use)."""
        if self._symtable is None:
            self._symtable = symtable.symtable(self.source, self.rel, "exec")
        return self._symtable

    def walk(self) -> tuple[ast.AST, ...]:
        """Every AST node, pre-walked once and shared across all rules.

        ``ast.walk`` over a large module dominates per-rule cost; rules
        iterate this cached tuple instead so the tree is traversed once
        per *file*, not once per file *per rule*.
        """
        if self._walk is None:
            self._walk = tuple(ast.walk(self.tree))
        return self._walk

    def import_map(self) -> "ImportMap":
        """The module's :class:`ImportMap`, built on first use and shared."""
        if self._imports is None:
            self._imports = ImportMap.of(self)
        return self._imports

    def suppressed(self, rule: str, line: int) -> bool:
        """Whether a well-formed pragma silences ``rule`` at ``line``."""
        return any(
            pragma.target_line == line and rule in pragma.rules
            for pragma in self.pragmas
        )

    def _scan_pragmas(self) -> None:
        # tokenize (not a regex over raw lines) so pragma-shaped text
        # inside string literals is never misread as a real pragma.
        reader = io.StringIO(self.source).readline
        try:
            tokens = list(tokenize.generate_tokens(reader))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return  # the ast parse already succeeded; be permissive here
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(token.string)
            if match is None:
                continue
            line = token.start[0]
            rules = frozenset(
                part.strip() for part in match.group("rules").split(",") if part.strip()
            )
            reason = match.group("reason").strip()
            bogus = sorted(r for r in rules if not _RULE_ID.match(r))
            problem = None
            if not rules:
                problem = "pragma names no rules"
            elif bogus:
                problem = f"pragma names unknown rule ids: {', '.join(bogus)}"
            elif META_RULE in rules:
                problem = f"{META_RULE} (analysis meta-errors) cannot be suppressed"
            elif not reason:
                problem = "pragma needs a reason: # repro: allow[REPnnn] <why>"
            if problem is not None:
                self.pragma_errors.append(
                    Finding(path=self.rel, line=line, rule=META_RULE, message=problem)
                )
                continue
            standalone = self.lines[line - 1].lstrip().startswith("#")
            self.pragmas.append(
                Pragma(
                    line=line,
                    target_line=line + 1 if standalone else line,
                    rules=rules,
                    reason=reason,
                )
            )


class Project:
    """Every module under one root package directory, parsed once."""

    def __init__(self, root: Path, modules: list[Module], errors: list[Finding]) -> None:
        self.root = root
        self.modules = modules
        #: REP000 findings raised while loading (syntax errors etc.).
        self.errors = errors
        self._by_rel = {module.rel: module for module in modules}

    @classmethod
    def load(cls, root: str | Path) -> "Project":
        """Parse every ``*.py`` under ``root`` (skipping ``__pycache__``)."""
        root = Path(root).resolve()
        if not root.is_dir():
            raise FileNotFoundError(f"analysis root is not a directory: {root}")
        modules: list[Module] = []
        errors: list[Finding] = []
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(root).as_posix()
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=rel)
            except SyntaxError as exc:
                errors.append(
                    Finding(
                        path=rel,
                        line=exc.lineno or 1,
                        rule=META_RULE,
                        message=f"module does not parse: {exc.msg}",
                    )
                )
                continue
            modules.append(Module(path, rel, source, tree))
        return cls(root, modules, errors)

    def module(self, rel: str) -> Module | None:
        """Look a module up by its root-relative POSIX path."""
        return self._by_rel.get(rel)


@dataclass(slots=True)
class ImportMap:
    """Local-name → dotted-module bindings from a module's import statements.

    ``import os`` binds ``os → os``; ``import os.path`` binds ``os → os``;
    ``from os import replace`` binds ``replace → os.replace``;
    ``import random as rnd`` binds ``rnd → random``.  Rules resolve call
    targets against this map so aliasing cannot hide a flagged call.
    """

    names: dict[str, str] = field(default_factory=dict)

    @classmethod
    def of(cls, module: Module) -> "ImportMap":
        """Collect the import bindings of one module (all scopes)."""
        names: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    target = alias.name if alias.asname else alias.name.partition(".")[0]
                    names[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports stay project-local
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return cls(names)

    def resolve(self, node: ast.expr) -> str | None:
        """The canonical dotted name a ``Name``/``Attribute`` chain denotes.

        ``fsio.open_file`` under ``from repro.inventory import fsio``
        resolves to ``repro.inventory.fsio.open_file``; unknown bases
        resolve to their literal dotted spelling; non-name expressions
        (calls, subscripts) resolve to ``None``.
        """
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.names.get(current.id, current.id)
        parts.append(base)
        return ".".join(reversed(parts))
