"""``python -m repro.bench reach``: which functions of ``src/repro`` the
committed rows reach, which only tier-1 reaches, and which nothing does.

``sys.setprofile`` notes every code object of the package entered while
the row suites, then tier-1, run in this process (a checkout is needed);
``ast`` gives each function's body lines (docstring excluded, a nested
function's lines its own).  ``--smoke`` (~2 min) only shows the command
works; the full run (~10 min) is the census in DESIGN.md §7.
"""

from __future__ import annotations

import ast
import contextlib
import json
import runpy
import sys
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
ROOT = SRC.parents[1]


def _entered(run) -> set:
    """(file, first line) of every ``src/repro`` code object ``run()`` enters."""
    seen, prefix = set(), str(SRC)

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def _functions(path: Path) -> list:
    """(first line as the profiler sees it, name, body lines) per function."""
    found, owner = [], {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{prefix}{child.name}."
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append((first, inner[:-1]))
                for stmt in child.body[ast.get_docstring(child) is not None :]:
                    owner.update(dict.fromkeys(range(stmt.lineno, stmt.end_lineno + 1), first))
            visit(child, inner)  # after the parent: the innermost function wins a line

    visit(ast.parse(path.read_text()), "")
    sizes = Counter(owner.values())
    return [(first, name, sizes[first]) for first, name in found]


def main(smoke: bool = False) -> int:
    import pytest

    from .__main__ import main as bench  # late: __main__ imports this module's package

    small = ["--smoke"] if smoke else []
    quiet = ["-q", "-p", "no:cacheprovider"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def rows():
        # No --out: no run writes a report file.
        bench(["fig4", "--ops", "20", "--jobs", "1"] if smoke else ["all", "--jobs", "1"])
        bench(["scale", *small, "--jobs", "1"])
        bench(["chaos", *small, "--jobs", "1"])
        bench(["perf", *small])
        for workload in spec["workloads"]:  # in-process only with --workload
            sys.argv = [str(ROOT / spec["command"][1]), "--workload", workload["name"], "--smoke"]
            with contextlib.suppress(SystemExit):
                runpy.run_path(sys.argv[0], run_name="__main__")

    tier1 = [str(ROOT / "tests" / ("unit" if smoke else "")), *quiet]
    by_rows, by_tests = _entered(rows), _entered(lambda: pytest.main(tier1))
    totals, dead = [0, 0, 0], []
    line = "{:<40}{:>7}{:>12}{:>11}".format
    print(line("module", "rows", "tests-only", "unreached"))
    for path in sorted(SRC.rglob("*.py")):
        counts, module = [0, 0, 0], str(path.relative_to(SRC))
        for first, name, size in _functions(path):
            key = (str(path), first)
            where = 0 if key in by_rows else 1 if key in by_tests else 2
            counts[where] += size
            if where == 2:
                dead.append(f"{module}:{name} ({size})")
        totals = [t + c for t, c in zip(totals, counts)]
        print(line(module, *counts))
    print(line("total", *totals))
    print("unreached:", *dead, sep="\n  ")
    return 0
