"""Benchmark harness: one experiment per paper figure plus ablations.

Run ``python -m repro.bench all`` (or ``nice-bench``) to regenerate them,
or ``run("fig9", n_ops=50)`` for one experiment of the table.
"""

# Importing a module of cell functions registers its experiments; the
# order here is the order of ``bench all``.
from . import figures, scale, ablations  # noqa: F401  isort: skip
from .harness import (
    EXPERIMENTS,
    SYSTEMS,
    ExperimentResult,
    build,
    build_nice,
    build_noob,
    run,
    run_to_completion,
)
from .report import ascii_chart, format_result, format_table, ratio_summary

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "SYSTEMS",
    "ascii_chart",
    "build",
    "build_nice",
    "build_noob",
    "format_result",
    "format_table",
    "ratio_summary",
    "run",
    "run_to_completion",
]
