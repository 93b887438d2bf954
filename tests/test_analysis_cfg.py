"""Corner cases of the CFG builder.

The flow-aware rule (REP008) is only as sound as this layer, so the
hard shapes are pinned directly: ``try/finally`` with ``return`` in both
arms, exception-suppressing ``with``, loops, ``async def`` and
unreachable code after ``raise``.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.project import ImportMap


def cfg_of(source: str, index: int = 0, imports: ImportMap | None = None) -> CFG:
    tree = ast.parse(textwrap.dedent(source))
    funcs = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return build_cfg(funcs[index], imports)


def node_at(cfg: CFG, line: int):
    for node in cfg.statement_nodes():
        if node.line == line:
            return node
    raise AssertionError(f"no CFG node at line {line}")


def reaches(cfg: CFG, start: int, goal: int) -> bool:
    """Whether ``goal`` is reachable from ``start`` along any edge kind."""
    seen, stack = {start}, [start]
    while stack:
        node = cfg.nodes[stack.pop()]
        for succ in node.succ | node.exc:
            if succ == goal:
                return True
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return False


# ---------------------------------------------------------------- CFG shapes


def test_return_routes_through_finally():
    cfg = cfg_of(
        """
        def f(x):
            try:
                return 1
            finally:
                cleanup()
        """
    )
    ret = node_at(cfg, 4)
    cleanup = node_at(cfg, 6)
    # The return's successor is the finally region, never the exit directly.
    assert cfg.exit not in ret.succ
    assert reaches(cfg, ret.index, cleanup.index)
    assert reaches(cfg, cleanup.index, cfg.exit)


def test_try_finally_with_return_in_both_arms():
    cfg = cfg_of(
        """
        def f(x):
            try:
                return work()
            finally:
                return fallback()
        """
    )
    body_return = node_at(cfg, 4)
    finally_return = node_at(cfg, 6)
    # Both the normal and the exceptional leg of the body run the finally.
    assert reaches(cfg, body_return.index, finally_return.index)
    assert reaches(cfg, finally_return.index, cfg.exit)
    # Every path out of the function passes the finally's return.
    assert cfg.exit not in body_return.succ


def test_raise_has_only_exceptional_successors():
    cfg = cfg_of(
        """
        def f():
            raise ValueError("no")
        """
    )
    raise_node = node_at(cfg, 3)
    assert raise_node.succ == set()
    assert cfg.exit in raise_node.exc


def test_except_handler_catches_and_continues():
    cfg = cfg_of(
        """
        def f():
            try:
                risky()
            except ValueError:
                handle()
            after()
        """
    )
    risky = node_at(cfg, 4)
    handler_body = node_at(cfg, 6)
    after = node_at(cfg, 7)
    assert reaches(cfg, risky.index, handler_body.index)
    assert reaches(cfg, handler_body.index, after.index)
    # A non-matching exception still propagates to the exit.
    assert reaches(cfg, risky.index, cfg.exit)


def test_with_contextlib_suppress_routes_body_exception_past_the_with():
    source = """
        import contextlib


        def f():
            with contextlib.suppress(OSError):
                raise OSError
            after()
        """
    tree = ast.parse(textwrap.dedent(source))

    class _Fake:
        pass

    module = _Fake()
    module.tree = tree
    imports = ImportMap.of(module)
    func = next(
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
    )
    cfg = build_cfg(func, imports)
    raise_node = node_at(cfg, 7)
    after = node_at(cfg, 8)
    assert reaches(cfg, raise_node.index, after.index)


def test_plain_with_does_not_suppress():
    cfg = cfg_of(
        """
        def f(lock):
            with lock:
                raise OSError
            after()
        """
    )
    raise_node = node_at(cfg, 4)
    after = node_at(cfg, 5)
    assert not reaches(cfg, raise_node.index, after.index)


def test_loop_break_and_continue_edges():
    cfg = cfg_of(
        """
        def f(items):
            for item in items:
                if item:
                    break
                continue
            after()
        """
    )
    head = node_at(cfg, 3)
    brk = node_at(cfg, 5)
    cont = node_at(cfg, 6)
    after = node_at(cfg, 7)
    assert reaches(cfg, brk.index, after.index)
    assert reaches(cfg, cont.index, head.index)


def test_async_def_builds_with_async_constructs():
    cfg = cfg_of(
        """
        async def f(source):
            async with source.lock():
                async for item in source:
                    await handle(item)
            return None
        """
    )
    assert node_at(cfg, 3).label == "AsyncWith"
    assert reaches(cfg, cfg.entry, cfg.exit)


def test_code_after_raise_is_unreachable():
    cfg = cfg_of(
        """
        def f():
            raise RuntimeError
            dead()
        """
    )
    dead = node_at(cfg, 4)
    assert dead.index not in cfg.reachable()


def test_catch_all_handler_removes_the_propagation_path():
    cfg = cfg_of(
        """
        def f():
            try:
                risky()
            except Exception:
                return None
            after()
        """
    )
    risky = node_at(cfg, 4)
    after = node_at(cfg, 7)
    assert reaches(cfg, risky.index, after.index) or reaches(
        cfg, risky.index, cfg.exit
    )
    # The only way from risky() to the exit is the handler's return or
    # normal completion — never an uncaught propagation edge from the
    # dispatch (except Exception is treated as catch-all).
    dispatch_nodes = [
        n for n in cfg.nodes if n.label == "join" and risky.exc == {n.index}
    ]
    assert dispatch_nodes, "risky() should raise into a dispatch join"
    handler_heads = [
        cfg.nodes[i] for i in dispatch_nodes[0].succ
    ]
    assert all(head.label == "except" for head in handler_heads)
