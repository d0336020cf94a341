"""The chaos × consistency verification sweep (``python -m repro.bench chaos``).

``cells`` builds a cluster, runs it under a fault schedule and verifies the
recorded history into one row; ``suite`` plans the matrix of cells and
judges the rows (``check`` is the gate the CLI exit code, CI and the
tier-1 test over the committed ``BENCH_chaos.json`` share).
"""

from .cells import chaos_cell, reconcile_vs_scratch, run_faulted
from .suite import (
    DEFAULT_OUT,
    MODES,
    SCHEMA_VERSION,
    check,
    format_report,
    plan,
    run_suite,
    summarize,
)

__all__ = [
    "DEFAULT_OUT",
    "MODES",
    "SCHEMA_VERSION",
    "chaos_cell",
    "check",
    "format_report",
    "plan",
    "reconcile_vs_scratch",
    "run_faulted",
    "run_suite",
    "summarize",
]
