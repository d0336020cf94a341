"""Module-size budget (ROADMAP aim 2): no source module over 600 lines.

There is no allowlist: the last module over the budget (``sim/kernel.py``)
got under it in PR 24.  Split a module that outgrows it — deletions first.
"""

from pathlib import Path

import repro

BUDGET = 600


def test_no_module_outgrows_its_budget():
    root = Path(repro.__file__).parent
    over = {
        path.relative_to(root).as_posix(): n
        for path in sorted(root.rglob("*.py"))
        if (n := len(path.read_text().splitlines())) > BUDGET
    }
    assert over == {}, f"modules over budget (split them, deletions first): {over}"
