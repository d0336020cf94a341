"""The controller's directory and planner stay pure (ISSUE 19).

They are values-in, values-out: names and port numbers, no switch object,
control channel, simulator or clock in reach.  Two structural checks keep
it that way: what the two modules import, and which attributes they read.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro

PURE = ("core/controller/directory.py", "core/controller/planner.py")
FORBIDDEN_MODULES = (
    "repro.sim", "repro.net.controlplane", "repro.net.switch", "repro.net.host", "time",
)
FORBIDDEN_ATTRIBUTES = {"channel", "sim", "table", "ports", "groups"}


def parse(relpath):
    return ast.parse((Path(repro.__file__).parent / relpath).read_text())


def imported_origins(relpath):
    """Defining module of every name ``relpath`` imports — a re-export
    through ``repro.net`` does not hide where a class lives."""
    package = "repro." + ".".join(Path(relpath).parent.parts)
    for node in ast.walk(parse(relpath)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.import_module("." * node.level + (node.module or ""), package)
            for alias in node.names:
                obj = getattr(module, alias.name)
                yield getattr(obj, "__module__", None) or getattr(obj, "__name__", module.__name__)


def is_forbidden(origin):
    return any(origin == m or origin.startswith(m + ".") for m in FORBIDDEN_MODULES)


@pytest.mark.parametrize("relpath", PURE)
def test_pure_modules_import_no_switch_channel_simulator_or_clock(relpath):
    assert [o for o in imported_origins(relpath) if is_forbidden(o)] == []


@pytest.mark.parametrize("relpath", PURE)
def test_pure_modules_touch_no_switch_state(relpath):
    hits = sorted(
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(parse(relpath))
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRIBUTES
    )
    assert hits == []


def test_the_check_sees_the_app_as_impure():
    """The installer does hold switches and a channel: the same scan must
    say so, or it is not looking."""
    origins = list(imported_origins("core/controller/app.py"))
    assert any(is_forbidden(o) for o in origins)
