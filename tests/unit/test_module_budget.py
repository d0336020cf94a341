"""Module-size ratchet (ROADMAP aim 2): no source module over 600 lines.

One module is left over it, listed with its ceiling; a ceiling may only
come down, and a module that gets under the budget leaves the list for
good.
"""

from pathlib import Path

import repro

BUDGET = 600

#: path under src/repro -> lines allowed.  Never raise a number; never add
#: a file.  (``core/storage_node``, ``noob/storage_node.py`` and
#: ``core/controller`` are not here and must not be; ``bench/chaos`` and
#: ``bench/figures.py`` left in PR 23.)
CEILINGS = {"sim/kernel.py": 782}


def line_counts():
    root = Path(repro.__file__).parent
    return {
        path.relative_to(root).as_posix(): len(path.read_text().splitlines())
        for path in sorted(root.rglob("*.py"))
    }


def test_no_module_outgrows_its_budget():
    over = {
        name: n for name, n in line_counts().items() if n > CEILINGS.get(name, BUDGET)
    }
    assert over == {}, f"modules over budget (split them, do not raise the ceiling): {over}"


def test_allowlist_only_names_modules_still_over_budget():
    counts = line_counts()
    stale = {name: counts.get(name) for name in CEILINGS if counts.get(name, 0) <= BUDGET}
    assert stale == {}, f"under budget now — drop them from CEILINGS: {stale}"
    assert not any(
        part in name for name in CEILINGS for part in ("storage_node", "controller", "bench/")
    )
