"""Per-function control-flow graphs for the flow-aware rules.

The PR-5 rules are syntactic: they can see *that* a lock is taken or a
file is opened, but not *which paths* reach the end of the function.
The flow-aware rules (REP008's exception-path leak check) need exactly
that, so this module builds a statement-granularity CFG for one
``def``/``async def``:

- every simple statement is one node; ``if``/``while``/``for``/
  ``with``/``try``/``match`` headers are nodes with structured edges;
- **normal successors** (:attr:`Node.succ`) model fall-through,
  branching, loops, ``return``/``break``/``continue``;
- **exceptional successors** (:attr:`Node.exc`) model "this statement
  raised": the edge leads to the innermost enclosing handler dispatch,
  through any ``finally`` blocks, and ultimately to :attr:`CFG.exit` —
  so "every path out of the function" includes every raise site;
- ``finally`` bodies are built once and shared by all continuations
  (fall-through, exception, ``return``, ``break``, ``continue``).  The
  merge over-approximates — a path-*insensitive* reading of ``finally``
  — which keeps may-analyses sound: merging only ever adds paths;
- ``with contextlib.suppress(...)`` (resolved through the module's
  :class:`~repro.analysis.project.ImportMap`) additionally routes body
  exceptions to the statement *after* the ``with`` — the one context
  manager in the tree that genuinely swallows exceptions.

The graph never leaves the function: calls are plain statements, and
nested ``def``/``class``/``lambda`` bodies are opaque single nodes —
their code does not run where it is written.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.project import ImportMap

#: Dotted names of context managers that swallow body exceptions.
_SUPPRESSORS = ("contextlib.suppress",)

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(slots=True)
class Node:
    """One CFG node: a statement, or a synthetic entry/exit/join point."""

    index: int
    #: The statement this node models (``None`` for synthetic nodes).
    stmt: ast.stmt | None
    #: ``entry``/``exit``/``join`` for synthetic nodes, else the
    #: statement's class name (``Assign``, ``If``, ``Try``…).
    label: str
    #: 1-based source line (0 for synthetic nodes).
    line: int
    #: Normal-flow successors.
    succ: set[int] = field(default_factory=set)
    #: Exceptional successors ("this statement raised").
    exc: set[int] = field(default_factory=set)


class CFG:
    """The control-flow graph of one function body."""

    def __init__(self, func: FunctionNode) -> None:
        self.func = func
        self.nodes: list[Node] = []
        self.entry = self._synthetic("entry")
        self.exit = self._synthetic("exit")

    def _synthetic(self, label: str) -> int:
        node = Node(index=len(self.nodes), stmt=None, label=label, line=0)
        self.nodes.append(node)
        return node.index

    def _statement(self, stmt: ast.stmt) -> int:
        node = Node(
            index=len(self.nodes),
            stmt=stmt,
            label=type(stmt).__name__,
            line=stmt.lineno,
        )
        self.nodes.append(node)
        return node.index

    # -- queries -------------------------------------------------------------------

    def statement_nodes(self) -> list[Node]:
        """The non-synthetic nodes, in creation (roughly source) order."""
        return [node for node in self.nodes if node.stmt is not None]

    def predecessors(self) -> dict[int, set[tuple[int, bool]]]:
        """node → set of ``(pred, via_exception)`` edges into it."""
        preds: dict[int, set[tuple[int, bool]]] = {n.index: set() for n in self.nodes}
        for node in self.nodes:
            for succ in node.succ:
                preds[succ].add((node.index, False))
            for succ in node.exc:
                preds[succ].add((node.index, True))
        return preds

    def reachable(self) -> set[int]:
        """Node indices reachable from the entry (normal or exceptional)."""
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            node = self.nodes[stack.pop()]
            for succ in node.succ | node.exc:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen


@dataclass(frozen=True, slots=True)
class _Ctx:
    """Where the non-local control transfers of the current body lead."""

    #: Target of "this statement raised".
    exc: int
    #: Target of ``return`` (the exit, or an enclosing ``finally``).
    ret: int
    #: Target of ``break`` / ``continue`` (``None`` outside loops).
    brk: int | None = None
    cont: int | None = None


class _Builder:
    def __init__(self, cfg: CFG, imports: ImportMap | None) -> None:
        self.cfg = cfg
        self.imports = imports

    def build(self) -> None:
        """Wire the whole function body between entry and exit."""
        ctx = _Ctx(exc=self.cfg.exit, ret=self.cfg.exit)
        frontier = self._stmts(self.cfg.func.body, [self.cfg.entry], ctx)
        self._link(frontier, self.cfg.exit)

    # -- wiring helpers ------------------------------------------------------------

    def _link(self, preds: list[int], target: int) -> None:
        for pred in preds:
            self.cfg.nodes[pred].succ.add(target)

    def _stmts(self, body: list[ast.stmt], preds: list[int], ctx: _Ctx) -> list[int]:
        """Build a statement list; returns the fall-through frontier."""
        for stmt in body:
            preds = self._stmt(stmt, preds, ctx)
        return preds

    def _plain(self, stmt: ast.stmt, preds: list[int], ctx: _Ctx) -> int:
        node = self.cfg._statement(stmt)
        self._link(preds, node)
        self.cfg.nodes[node].exc.add(ctx.exc)
        return node

    # -- the dispatch --------------------------------------------------------------

    def _stmt(self, stmt: ast.stmt, preds: list[int], ctx: _Ctx) -> list[int]:
        if isinstance(stmt, (ast.If,)):
            return self._if(stmt, preds, ctx)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, preds, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds, ctx)
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            return self._try(stmt, preds, ctx)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, preds, ctx)
        if isinstance(stmt, ast.Return):
            node = self._plain(stmt, preds, ctx)
            self.cfg.nodes[node].succ.add(ctx.ret)
            return []
        if isinstance(stmt, ast.Raise):
            node = self.cfg._statement(stmt)
            self._link(preds, node)
            self.cfg.nodes[node].exc.add(ctx.exc)
            return []
        if isinstance(stmt, ast.Break):
            node = self._plain(stmt, preds, ctx)
            if ctx.brk is not None:
                self.cfg.nodes[node].succ.add(ctx.brk)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._plain(stmt, preds, ctx)
            if ctx.cont is not None:
                self.cfg.nodes[node].succ.add(ctx.cont)
            return []
        # Everything else — assignments, expressions, nested defs (their
        # bodies are opaque), assert, del, import — is one plain node.
        return [self._plain(stmt, preds, ctx)]

    def _if(self, stmt: ast.If, preds: list[int], ctx: _Ctx) -> list[int]:
        head = self._plain(stmt, preds, ctx)
        then_frontier = self._stmts(stmt.body, [head], ctx)
        if stmt.orelse:
            else_frontier = self._stmts(stmt.orelse, [head], ctx)
        else:
            else_frontier = [head]
        return then_frontier + else_frontier

    def _loop(
        self, stmt: ast.While | ast.For | ast.AsyncFor, preds: list[int], ctx: _Ctx
    ) -> list[int]:
        head = self._plain(stmt, preds, ctx)
        after = self.cfg._synthetic("join")
        body_ctx = _Ctx(exc=ctx.exc, ret=ctx.ret, brk=after, cont=head)
        body_frontier = self._stmts(stmt.body, [head], body_ctx)
        self._link(body_frontier, head)
        # The loop ends (condition false / iterator exhausted): through
        # the ``else`` clause when there is one.  A ``while True`` still
        # gets the exit edge — conservative, and harmless to may-analyses.
        orelse_frontier = self._stmts(stmt.orelse, [head], ctx) if stmt.orelse else [head]
        self._link(orelse_frontier, after)
        return [after]

    def _with(
        self, stmt: ast.With | ast.AsyncWith, preds: list[int], ctx: _Ctx
    ) -> list[int]:
        head = self._plain(stmt, preds, ctx)
        after = self.cfg._synthetic("join")
        body_ctx = ctx
        if self._suppresses(stmt):
            # ``with contextlib.suppress(...)``: a body exception lands
            # *after* the with as well as (conservatively) propagating.
            supp = self.cfg._synthetic("join")
            self.cfg.nodes[supp].succ.add(after)
            self.cfg.nodes[supp].succ.add(ctx.exc)
            body_ctx = _Ctx(exc=supp, ret=ctx.ret, brk=ctx.brk, cont=ctx.cont)
        body_frontier = self._stmts(stmt.body, [head], body_ctx)
        self._link(body_frontier, after)
        return [after]

    def _suppresses(self, stmt: ast.With | ast.AsyncWith) -> bool:
        if self.imports is None:
            return False
        for item in stmt.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                resolved = self.imports.resolve(expr.func)
                if resolved is not None and resolved.endswith(_SUPPRESSORS):
                    return True
        return False

    def _try(self, stmt: ast.stmt, preds: list[int], ctx: _Ctx) -> list[int]:
        handlers = getattr(stmt, "handlers", [])
        finalbody = getattr(stmt, "finalbody", [])
        after = self.cfg._synthetic("join")

        if finalbody:
            # One shared ``finally`` subgraph.  Its continuations are
            # over-approximated: normal fall-through, the outer exception
            # target, and every non-local target the protected region can
            # ask for — path-insensitive but sound for may-analyses.
            fin_entry = self.cfg._synthetic("join")
            fin_frontier = self._stmts(finalbody, [fin_entry], ctx)
            self._link(fin_frontier, after)
            self._link(fin_frontier, ctx.exc)
            self._link(fin_frontier, ctx.ret)
            if ctx.brk is not None:
                self._link(fin_frontier, ctx.brk)
            if ctx.cont is not None:
                self._link(fin_frontier, ctx.cont)
            outer_exc: int = fin_entry
            outer_ret: int = fin_entry
            outer_brk = fin_entry if ctx.brk is not None else None
            outer_cont = fin_entry if ctx.cont is not None else None
            normal_exit: int = fin_entry
        else:
            outer_exc = ctx.exc
            outer_ret = ctx.ret
            outer_brk = ctx.brk
            outer_cont = ctx.cont
            normal_exit = after

        if handlers:
            dispatch = self.cfg._synthetic("join")
            body_exc: int = dispatch
        else:
            body_exc = outer_exc

        body_ctx = _Ctx(exc=body_exc, ret=outer_ret, brk=outer_brk, cont=outer_cont)
        body_frontier = self._stmts(stmt.body, preds, body_ctx)

        # ``else`` runs only when the body completed; its exceptions skip
        # the handlers and go straight out (through ``finally``).
        orelse = getattr(stmt, "orelse", [])
        if orelse:
            orelse_ctx = _Ctx(
                exc=outer_exc, ret=outer_ret, brk=outer_brk, cont=outer_cont
            )
            body_frontier = self._stmts(orelse, body_frontier, orelse_ctx)
        self._link(body_frontier, normal_exit)

        if handlers:
            handler_ctx = _Ctx(
                exc=outer_exc, ret=outer_ret, brk=outer_brk, cont=outer_cont
            )
            catch_all = False
            for handler in handlers:
                head = Node(
                    index=len(self.cfg.nodes),
                    stmt=None,
                    label="except",
                    line=handler.lineno,
                )
                self.cfg.nodes.append(head)
                self.cfg.nodes[dispatch].succ.add(head.index)
                handler_frontier = self._stmts(handler.body, [head.index], handler_ctx)
                self._link(handler_frontier, normal_exit)
                catch_all = catch_all or _catches_everything(handler)
            if not catch_all:
                # No handler matched: the exception keeps propagating.
                self.cfg.nodes[dispatch].succ.add(outer_exc)

        return [after]

    def _match(self, stmt: ast.Match, preds: list[int], ctx: _Ctx) -> list[int]:
        head = self._plain(stmt, preds, ctx)
        frontier: list[int] = [head]  # no case matched: fall through
        for case in stmt.cases:
            frontier.extend(self._stmts(case.body, [head], ctx))
        return frontier


def _catches_everything(handler: ast.excepthandler) -> bool:
    """Whether a handler swallows every exception reaching the ``try``.

    Bare ``except:``, ``except BaseException:`` and — pragmatically —
    ``except Exception:`` all count: the CFG drops the "no handler
    matched" propagation edge for them.  (``Exception`` misses
    ``KeyboardInterrupt``; treating an interrupt-triggered leak as a
    finding would make every broad handler in the tree a false
    positive, so the analysis accepts that blind spot.)
    """
    kind = handler.type
    if kind is None:
        return True
    name = kind.attr if isinstance(kind, ast.Attribute) else (
        kind.id if isinstance(kind, ast.Name) else None
    )
    return name in {"BaseException", "Exception"}


def build_cfg(func: FunctionNode, imports: ImportMap | None = None) -> CFG:
    """Build the CFG of one function definition."""
    cfg = CFG(func)
    _Builder(cfg, imports).build()
    return cfg
