"""The example scripts run: each is its own process and must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ("quickstart.py", "fault_tolerance_demo.py")


@pytest.mark.parametrize("name", EXAMPLES)
def test_examples_exit_zero(name):
    src = str(Path(repro.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, f"{name} exited {done.returncode}:\n{done.stderr}"


def test_every_example_is_run():
    """A new example joins ``EXAMPLES`` or is not shipped."""
    assert sorted(p.name for p in (ROOT / "examples").glob("*.py")) == sorted(EXAMPLES)
