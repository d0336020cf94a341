"""Parallel sweep orchestrator: fan independent experiment cells across cores.

Every figure sweep and the chaos acceptance matrix decompose into *cells*
— a :class:`Cell` names a module-level function, JSON-canonical params,
and a seed, and its execution is a pure function of that triple.  The
orchestrator (:func:`run_cells`) executes cells either inline (``jobs=1``,
zero behavior change) or in a :class:`~concurrent.futures.ProcessPoolExecutor`,
and always merges payloads back **in canonical cell order**, so parallel
output is bit-identical to sequential output.

Bit-identity holds because every payload — inline or pooled — is
round-tripped through canonical JSON before it is returned: Python's
``float`` → JSON → ``float`` conversion is exact (``repr`` round-trip),
so a worker result is indistinguishable from a fresh inline run.

Per-cell wall-time records accumulate in a session log that the CLI
folds into the ``BENCH_*.json`` reports for trend tracking.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Cell",
    "configure",
    "derive_seed",
    "drain_records",
    "provenance",
    "run_cells",
]

#: Session-wide worker count, set by the CLI via :func:`configure`.
#: Library callers (tests, benchmarks) get inline execution, i.e. exactly
#: the pre-orchestrator behavior.
_config: Dict[str, int] = {"jobs": 1}

#: Per-cell execution records of this session (see :func:`drain_records`).
_records: List[Dict[str, Any]] = []


def configure(jobs: int) -> Dict[str, int]:
    """Set the session-wide worker count (1 = inline); returns the prior config."""
    prior = dict(_config)
    _config["jobs"] = max(1, int(jobs))
    return prior


def derive_seed(base: int, *parts: Any) -> int:
    """A deterministic 63-bit seed derived from ``base`` and any labels.

    Mirrors the sim's ``RngRegistry`` discipline (sha256 of root + name):
    adding or reordering *other* cells never perturbs a cell's seed.
    """
    material = ":".join([str(base), *(str(p) for p in parts)])
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _coerce(value: Any) -> Any:
    """JSON fallback for numpy scalars (exact float64 → float conversion)."""
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cell payloads must be JSON-serializable, got {type(value)!r}")


def canonical(value: Any) -> Any:
    """Round-trip ``value`` through JSON so both execution paths (inline,
    worker) yield structurally identical payloads."""
    return json.loads(json.dumps(value, default=_coerce))


@dataclass(frozen=True)
class Cell:
    """One schedulable unit of an experiment sweep.

    ``fn`` must be a module-level callable (picklable by reference) taking
    ``(**params, seed=seed)`` and returning a JSON-serializable payload;
    its execution must be a pure function of ``(params, seed)`` — no
    dependence on global mutable state, wall clock, or sweep order.
    """

    fn: Callable[..., Any]
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        # Canonicalize params up front (tuples → lists, numpy → native) so
        # execution and sweep memoizing see the same values.
        object.__setattr__(self, "params", canonical(dict(self.params)))

    @property
    def fn_name(self) -> str:
        return f"{self.fn.__module__}.{self.fn.__qualname__}"

    @property
    def label(self) -> str:
        parts = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.fn.__qualname__}({parts})#s{self.seed}"

    def execute(self) -> Any:
        """Run the cell inline (no pool); canonical payload."""
        return canonical(self.fn(seed=self.seed, **self.params))


# ------------------------------------------------------------------ records
def drain_records() -> List[Dict[str, Any]]:
    """Return and clear the session's per-cell execution records."""
    out = list(_records)
    _records.clear()
    return out


# ----------------------------------------------------------------- executor
def _execute_remote(fn: Callable, params: Dict[str, Any], seed: int):
    """Worker-side cell execution; returns (canonical payload, wall_s)."""
    t0 = time.perf_counter()
    payload = canonical(fn(seed=seed, **params))
    return payload, time.perf_counter() - t0


def _named(cell: Cell, run: Callable[[], Any]) -> Any:
    """``run()``, with any failure re-raised naming the cell (fn, params,
    seed) — a bare traceback out of a 300-cell sweep reproduces nothing."""
    try:
        return run()
    except Exception as exc:
        raise RuntimeError(
            f"cell {cell.label} failed: {type(exc).__name__}: {exc}"
        ) from exc


def run_cells(cells: List[Cell], jobs: Optional[int] = None) -> List[Any]:
    """Execute ``cells`` and return their payloads **in input order**.

    ``jobs`` defaults to the session config (:func:`configure`).  ``jobs=1``
    runs every cell inline in the calling process — no pool, no pickling,
    no behavioral difference from a hand-written loop.  With ``jobs>1`` the
    cells are fanned to a process pool; the merge is by cell index, so
    result order (and content — see module docstring) is independent of
    worker scheduling.
    """
    jobs = _config["jobs"] if jobs is None else max(1, int(jobs))
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            futures = [
                pool.submit(_execute_remote, cell.fn, cell.params, cell.seed)
                for cell in cells
            ]
            outcomes = [
                _named(cell, future.result) for cell, future in zip(cells, futures)
            ]
    else:
        outcomes = []
        for cell in cells:
            t0 = time.perf_counter()
            payload = _named(cell, cell.execute)
            outcomes.append((payload, time.perf_counter() - t0))
    for cell, (_, wall_s) in zip(cells, outcomes):
        _records.append(
            {"cell": cell.label, "fn": cell.fn_name, "seed": cell.seed, "wall_s": wall_s}
        )
    return [payload for payload, _ in outcomes]


# --------------------------------------------------------------- provenance
def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or a hung one (TimeoutExpired)
        pass
    return "unknown"


def provenance(records: Optional[List[Dict[str, Any]]] = None, **extra: Any) -> Dict:
    """Provenance block stamped into every ``BENCH_*.json`` report: enough
    to interpret a perf trajectory across machines and source revisions.

    ``extra`` carries run parameters (``ops``, ``jobs``, ...); ``records``
    — per-cell execution records — contributes the cell count.
    """
    block = {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "generated_unix": time.time(),
    }
    block.update(extra)
    if records is not None:
        block["cells"] = len(records)
    return block
