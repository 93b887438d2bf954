"""REP002 — attributes guarded by a lock somewhere are guarded everywhere.

PR 2's thread-safety hardening established the repo's locking
convention: shared mutable state on a class is paired with a
``threading.Lock`` attribute whose name contains ``lock``, and every
mutation happens inside ``with self._lock:``.  The static race
heuristic: if **any** method of a class mutates ``self.attr`` under a
lock, a lock-free mutation of the same attribute in a **different**
method is almost certainly a data race — the author already decided the
attribute is shared, then forgot one site.

The rule tracks lock *identity*, not just "a lock was held": ``with
self._a_lock, self._b_lock:`` acquires two named locks in item order
(:func:`~repro.analysis.rules.base.lock_item_attr`), nested ``with``
blocks stack, and findings name the lock(s) the other sites held — so the fix is "take ``self._mem_lock``
here", not "take some lock".  A **split guard** — the same attribute
mutated under *disjoint* lock sets in different methods — is reported
as well: two sites that each hold "a" lock but never the *same* lock
exclude nobody.

What counts as a mutation of ``self.attr``:

- assignment / augmented assignment / deletion (including through
  subscripts: ``self._blocks[k] = v``);
- calls to known container mutators on it (``append``, ``update``,
  ``popitem``, ``move_to_end``, …).

Exemptions: ``__init__``/``__new__``/``__post_init__`` (the object is
not shared while it is being constructed) and the method that holds the
locked mutation itself (a method may intentionally mutate before
exposing, e.g. building a value it then publishes under its lock).
Nested functions and classes are not attributed to the enclosing
method's lock context.  False positives (single-threaded-by-contract
paths) are allowlisted with ``# repro: allow[REP002] <reason>``.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.project import Module, Project
from repro.analysis.rules.base import Rule, attribute_base, lock_item_attr

_MUTATORS = {
    "append", "appendleft", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "popleft", "remove", "discard", "clear", "sort",
    "reverse", "move_to_end",
}
_EXEMPT_METHODS = {"__init__", "__new__", "__post_init__"}

#: ``record(attr, line, held)`` — one mutation site and the locks held there.
_Record = Callable[[str, int, tuple[str, ...]], None]
#: ``visit(body, held)`` — recurse into a statement list.
_Visit = Callable[[list[ast.stmt], list[str]], None]


@dataclass
class _AttrSites:
    """Where one ``self.`` attribute is mutated across a class."""

    #: method name → every lock set held at a locked mutation site.
    locked_methods: dict[str, list[frozenset[str]]] = field(default_factory=dict)
    unlocked: list[tuple[str, int]] = field(default_factory=list)  # (method, line)


class LockDisciplineRule(Rule):
    """Lock-free mutation of an attribute that is locked elsewhere."""

    id = "REP002"
    title = "lock-guarded attributes must be mutated under their lock everywhere"

    def check(self, module: Module, project: Project) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        for node in module.walk():
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    def _check_class(self, module: Module, cls: ast.ClassDef) -> Iterator[Finding]:
        sites: dict[str, _AttrSites] = {}
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_method(stmt, sites)
        for attr, attr_sites in sorted(sites.items()):
            if not attr_sites.locked_methods:
                continue
            guards = sorted(
                set().union(*(
                    set().union(*lock_sets)
                    for lock_sets in attr_sites.locked_methods.values()
                ))
            )
            guard_text = ", ".join(f"self.{name}" for name in guards)
            for method, line in attr_sites.unlocked:
                if method in attr_sites.locked_methods or method in _EXEMPT_METHODS:
                    continue
                locked_in = ", ".join(sorted(attr_sites.locked_methods))
                yield self.finding(
                    module,
                    line,
                    f"self.{attr} is mutated without its lock in {method}() "
                    f"but under {guard_text} in {locked_in}() — a data race; "
                    "take the same lock here",
                )
            yield from self._check_split_guard(module, attr, attr_sites)

    def _check_split_guard(
        self, module: Module, attr: str, attr_sites: _AttrSites
    ) -> Iterator[Finding]:
        """Two methods lock the attr — but never with a common lock."""
        per_method: dict[str, set[str]] = {
            method: set().union(*lock_sets)
            for method, lock_sets in attr_sites.locked_methods.items()
        }
        methods = sorted(per_method)
        for i, left in enumerate(methods):
            for right in methods[i + 1 :]:
                if per_method[left] & per_method[right]:
                    continue
                left_locks = ", ".join(sorted(per_method[left]))
                right_locks = ", ".join(sorted(per_method[right]))
                yield self.finding(
                    module,
                    1,
                    f"self.{attr} is guarded by disjoint locks: {left}() "
                    f"holds {left_locks} while {right}() holds {right_locks} "
                    "— the two sites exclude nobody; guard the attribute "
                    "with one lock",
                )
                return  # one split-guard finding per attribute is enough

    def _scan_method(
        self,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        sites: dict[str, _AttrSites],
    ) -> None:
        def _record(attr: str, line: int, held: tuple[str, ...]) -> None:
            attr_sites = sites.setdefault(attr, _AttrSites())
            if held:
                attr_sites.locked_methods.setdefault(method.name, []).append(
                    frozenset(held)
                )
            else:
                attr_sites.unlocked.append((method.name, line))

        def _visit(body: list[ast.stmt], held: list[str]) -> None:
            for stmt in body:
                self._scan_statement(stmt, held, _record, _visit)

        _visit(method.body, [])

    def _scan_statement(
        self, stmt: ast.stmt, held: list[str], record: _Record, visit: _Visit
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # a nested scope: its body does not run under our locks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed = 0
            for item in stmt.items:
                # Evaluating item N happens holding items 1..N-1 — a
                # mutator call inside item N's expression is attributed
                # to the locks already acquired, per item.
                self._scan_expr(item.context_expr, held, record)
                attr = lock_item_attr(item)
                if attr is not None:
                    held.append(attr)
                    pushed += 1
            visit(stmt.body, held)
            if pushed:
                del held[len(held) - pushed:]
            return
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets: list[ast.expr]
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.Delete):
                targets = stmt.targets
            else:
                targets = [stmt.target]
            for target in targets:
                for element in self._flatten_target(target):
                    attr = attribute_base(element)
                    if attr is not None:
                        record(attr, element.lineno, tuple(held))
        # mutator calls + nested statements anywhere inside this statement
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan_statement(child, held, record, visit)
            elif isinstance(child, ast.expr):
                self._scan_expr(child, held, record)
            elif hasattr(child, "body") or isinstance(
                child, (ast.excepthandler, ast.match_case)
            ):
                for grandchild in ast.iter_child_nodes(child):
                    if isinstance(grandchild, ast.stmt):
                        self._scan_statement(grandchild, held, record, visit)
                    elif isinstance(grandchild, ast.expr):
                        self._scan_expr(grandchild, held, record)

    def _scan_expr(
        self, expr: ast.expr, held: list[str], record: _Record
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, (ast.Lambda,)):
                continue
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                attr = attribute_base(node.func.value)
                if attr is not None:
                    record(attr, node.lineno, tuple(held))

    @staticmethod
    def _flatten_target(target: ast.expr) -> Iterator[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from LockDisciplineRule._flatten_target(element)
        elif isinstance(target, ast.Starred):
            yield from LockDisciplineRule._flatten_target(target.value)
        else:
            yield target
