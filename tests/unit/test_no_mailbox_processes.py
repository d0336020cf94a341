"""No generator under ``src/repro`` is a pure mailbox loop (DESIGN.md §5g).

A mailbox loop is a ``while True:`` that takes its next item with
``x = yield <store>.get()``.  If that is its only ``yield`` the body never
waits, and the loop is a ``Store.serve`` handler that costs a generator
resume per item for nothing.  The loops that do wait inside their body
(they answer on a connection before taking the next item) stay processes
and are named here; the guard also fails if one of them stops waiting or
disappears, so the list cannot go stale.
"""

import ast
from pathlib import Path

import repro

#: Mailbox loops that wait inside their body: (module, qualified function).
#: ``MetadataService`` has no control loop of its own: every metadata
#: service runs inside a replica, whose ``_ctl_loop`` answers for it.
WAITING_MAILBOX_LOOPS = {
    ("core/controlplane_ha.py", "MetadataReplica._ctl_loop"),
}


def _own_nodes(node):
    """``node``'s descendants, not entering nested functions or classes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        yield child
        yield from _own_nodes(child)


def _is_get(stmt):
    """``x = yield <anything>.get()``."""
    return (
        isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Yield)
        and isinstance(stmt.value.value, ast.Call)
        and isinstance(stmt.value.value.func, ast.Attribute)
        and stmt.value.value.func.attr == "get"
    )


def _mailbox_loops():
    """{(module, qualname): waits inside its body} for every mailbox loop."""
    root = Path(repro.__file__).parent
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                qualname = f"{prefix}{child.name}"
                for loop in _own_nodes(child):
                    if not (
                        isinstance(loop, ast.While)
                        and isinstance(loop.test, ast.Constant)
                        and loop.test.value is True
                        and any(_is_get(stmt) for stmt in loop.body)
                    ):
                        continue
                    yields = [n for n in _own_nodes(loop) if isinstance(n, (ast.Yield, ast.YieldFrom))]
                    found[(module, qualname)] = len(yields) > 1
                visit(child, module, f"{qualname}.<locals>.")

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(root).as_posix(), "")
    return found


def test_every_mailbox_loop_waits_inside_its_body():
    loops = _mailbox_loops()
    pure = sorted(name for name, waits in loops.items() if not waits)
    assert pure == [], f"pure mailbox loops (use Store.serve): {pure}"
    assert set(loops) == WAITING_MAILBOX_LOOPS
