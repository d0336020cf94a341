"""Parallel sweep orchestrator: fan independent experiment cells across cores.

Every figure sweep and the chaos acceptance matrix decompose into *cells*
— a :class:`Cell` names a module-level function, JSON-canonical params,
and a seed, and its execution is a pure function of that triple.  The
orchestrator (:func:`run_cells`) executes cells either inline (``jobs=1``,
zero behavior change) or in a :class:`~concurrent.futures.ProcessPoolExecutor`,
and always merges payloads back **in canonical cell order**, so parallel
output is bit-identical to sequential output.

Bit-identity holds because every payload — inline, pooled, or cached —
is round-tripped through canonical JSON before it is returned: Python's
``float`` → JSON → ``float`` conversion is exact (``repr`` round-trip),
so a cache hit or a worker result is indistinguishable from a fresh
inline run.

The content-addressed result cache (``.bench_cache/`` by default, enabled
only when the CLI asks for it) keys each cell on
``sha256(fn qualname + canonical params + seed + source fingerprint)``
where the source fingerprint hashes every ``.py`` file under
``src/repro/`` — any source edit invalidates the whole cache, any
param/seed change invalidates exactly that cell.

Per-cell wall time and cache-hit records accumulate in a session log that
the CLI folds into the ``BENCH_*.json`` reports for trend tracking.
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
    "source_fingerprint",
    "DEFAULT_CACHE_DIR",
]

#: Default cache directory, relative to the working directory (gitignored).
DEFAULT_CACHE_DIR = ".bench_cache"

#: Bumped when the cache entry layout changes (invalidates old entries).
#: 3: the simulation mode left the cache key (one mode, PR 15) — entries
#: written under the flow-approximation mode must never be served.
CACHE_SCHEMA = 3

#: Sentinel distinguishing "not passed" from an explicit ``None``.
_UNSET = object()

#: Session-wide orchestration defaults, set by the CLI via :func:`configure`.
#: Library callers (tests, benchmarks) get inline execution and no cache,
#: i.e. exactly the pre-orchestrator behavior.
_config: Dict[str, Any] = {"jobs": 1, "cache_dir": None}

#: Per-cell execution records of this session (see :func:`drain_records`).
_records: List[Dict[str, Any]] = []


def configure(jobs: Any = _UNSET, cache_dir: Any = _UNSET) -> Dict[str, Any]:
    """Set session-wide orchestration defaults; returns the prior config.

    ``jobs`` is the worker count (1 = inline); ``cache_dir`` is the result
    cache directory or ``None`` to disable caching.
    """
    prior = dict(_config)
    if jobs is not _UNSET:
        _config["jobs"] = max(1, int(jobs))
    if cache_dir is not _UNSET:
        _config["cache_dir"] = cache_dir
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
    """Round-trip ``value`` through JSON so every execution path (inline,
    worker, cache hit) yields structurally identical payloads."""
    return json.loads(json.dumps(value, default=_coerce))


def _canonical_dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=_coerce)


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
        # execution and cache keying see the same values.
        object.__setattr__(self, "params", canonical(dict(self.params)))

    @property
    def fn_name(self) -> str:
        return f"{self.fn.__module__}.{self.fn.__qualname__}"

    @property
    def label(self) -> str:
        parts = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.fn.__qualname__}({parts})#s{self.seed}"

    def cache_key(self, fingerprint: str) -> str:
        material = _canonical_dumps(
            {
                "schema": CACHE_SCHEMA,
                "fn": self.fn_name,
                "params": self.params,
                "seed": self.seed,
                "src": fingerprint,
            }
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def execute(self) -> Any:
        """Run the cell inline (no cache, no pool); canonical payload."""
        return canonical(self.fn(seed=self.seed, **self.params))


# ------------------------------------------------------------- fingerprint
#: Memo: root path -> fingerprint (one tree walk per process).
_fingerprint_memo: Dict[str, str] = {}


def source_fingerprint(root: Optional[str] = None) -> str:
    """sha256 over every ``.py`` file under ``root`` (default: the
    ``repro`` package), path-sorted, so any source edit — to any layer the
    simulation could touch — invalidates cached results."""
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(root)
    memo = _fingerprint_memo.get(root)
    if memo is not None:
        return memo
    h = hashlib.sha256()
    entries = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in filenames:
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                entries.append((os.path.relpath(path, root), path))
    for rel, path in sorted(entries):
        h.update(rel.encode())
        h.update(b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    digest = h.hexdigest()
    _fingerprint_memo[root] = digest
    return digest


def invalidate_fingerprint_memo() -> None:
    """Drop the per-process fingerprint memo (tests; post-edit reruns)."""
    _fingerprint_memo.clear()


# ------------------------------------------------------------------ records
def drain_records() -> List[Dict[str, Any]]:
    """Return and clear the session's per-cell execution records."""
    out = list(_records)
    _records.clear()
    return out


def _record(cell: Cell, wall_s: float, cache_hit: bool, key: Optional[str]) -> Dict:
    rec = {
        "cell": cell.label,
        "fn": cell.fn_name,
        "seed": cell.seed,
        "wall_s": wall_s,
        "cache_hit": cache_hit,
        "key": key,
    }
    _records.append(rec)
    return rec


# -------------------------------------------------------------------- cache
def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, key[:2], key + ".json")


def _cache_load(cache_dir: str, key: str) -> Optional[Dict[str, Any]]:
    try:
        with open(_cache_path(cache_dir, key)) as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if entry.get("schema") != CACHE_SCHEMA:
        return None
    return entry


def _cache_store(cache_dir: str, key: str, cell: Cell, payload: Any, wall_s: float) -> None:
    path = _cache_path(cache_dir, key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    entry = {
        "schema": CACHE_SCHEMA,
        "fn": cell.fn_name,
        "params": cell.params,
        "seed": cell.seed,
        "wall_s": wall_s,
        "created_unix": time.time(),
        "payload": payload,
    }
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(entry, fh)
    os.replace(tmp, path)  # atomic: concurrent runs never see partial entries


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


def run_cells(
    cells: List[Cell],
    jobs: Any = _UNSET,
    cache_dir: Any = _UNSET,
) -> List[Any]:
    """Execute ``cells`` and return their payloads **in input order**.

    ``jobs``/``cache_dir`` default to the session config (:func:`configure`);
    pass explicit values to override.  ``jobs=1`` runs every cell inline in
    the calling process — no pool, no pickling, no behavioral difference
    from a hand-written loop.  With ``jobs>1`` cache misses are fanned to a
    process pool; the merge is by cell index, so result order (and content
    — see module docstring) is independent of worker scheduling.
    """
    jobs = _config["jobs"] if jobs is _UNSET else max(1, int(jobs))
    cache_dir = _config["cache_dir"] if cache_dir is _UNSET else cache_dir

    results: List[Any] = [None] * len(cells)
    pending: List[int] = []
    keys: List[Optional[str]] = [None] * len(cells)

    if cache_dir:
        fingerprint = source_fingerprint()
        for i, cell in enumerate(cells):
            key = cell.cache_key(fingerprint)
            keys[i] = key
            entry = _cache_load(cache_dir, key)
            if entry is not None:
                results[i] = entry["payload"]
                _record(cell, entry.get("wall_s", 0.0), True, key)
            else:
                pending.append(i)
    else:
        pending = list(range(len(cells)))

    if pending:
        if jobs > 1 and len(pending) > 1:
            workers = min(jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    i: pool.submit(
                        _execute_remote, cells[i].fn, cells[i].params, cells[i].seed
                    )
                    for i in pending
                }
                outcomes = {i: _named(cells[i], futures[i].result) for i in pending}
        else:
            outcomes = {}
            for i in pending:
                t0 = time.perf_counter()
                payload = _named(cells[i], cells[i].execute)
                outcomes[i] = (payload, time.perf_counter() - t0)
        for i in pending:
            payload, wall_s = outcomes[i]
            results[i] = payload
            _record(cells[i], wall_s, False, keys[i])
            if cache_dir:
                _cache_store(cache_dir, keys[i], cells[i], payload, wall_s)
    return results


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
    — per-cell execution records — contributes cache-hit counts.
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
        block["cache_hits"] = sum(1 for r in records if r["cache_hit"])
    return block
