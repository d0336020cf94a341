"""Per-layer host self time from a cProfile run.

A layer is a source file under ``src/repro`` (``net/flowtable.py`` →
``net.flowtable``).  Each profiled function's ``tottime`` (time in its own
frame) goes to its file's layer.  Time in builtins and the standard
library (``heapq``, generator ``send``, ``dict.get`` …) is charged to the
``src/repro`` file that called it, through the profiler's caller edges, so
``other`` holds only what no simulator code asked for: this driver and
numpy.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

#: Rows reported by name; every other module of a package lands in
#: ``<package>.rest`` so the shares always sum to one.
ROWS = (
    "sim.kernel", "sim.process", "sim.primitives", "sim.rest",
    "net.link", "net.switch", "net.flowtable", "net.packet",
    "net.controlplane", "net.host", "net.addressing", "net.rest",
    "transport.reliable_multicast", "transport.tcp", "transport.sockets",
    "kv.disk", "kv.wal", "kv.store", "kv.locks", "kv.rest",
    "core.storage_node", "core.client", "core.controller", "core.metadata",
    "core.membership", "core.rest",
    "noob.storage_node", "noob.client", "noob.gateway", "noob.rest",
    "chaos.engine", "chaos.rest",
    "check.linearizability", "check.monotonic", "check.history", "check.rest",
    "obs", "workloads", "other",
)  # fmt: skip

def layer_of(filename: str, src_root: str) -> str:
    """The row a source file belongs to: its module's own row, else its
    package's ``rest`` row, else the whole-package row (``obs``,
    ``workloads``), else ``other`` (anything outside ``src/repro``)."""
    if not filename.startswith(src_root + os.sep):
        return "other"
    parts = filename[len(src_root) + 1 : -len(".py")].split(os.sep)
    package = parts[0]
    for row in (".".join(parts[:2]), f"{package}.rest", package):
        if row in ROWS:
            return row
    return "other"


def self_seconds(profiler, src_root: str) -> Tuple[Dict[str, float], int]:
    """Self time per row (seconds, summed over the whole profile) and the
    number of function calls the profile saw."""
    stats = pstats.Stats(profiler).stats  # func -> (cc, nc, tt, ct, callers)
    layer = {func: layer_of(func[0], src_root) for func in stats}
    # The driver's own frames and numpy are ``other`` for good; only
    # builtins ("~") and the standard library climb to their callers.
    own_dir = os.path.dirname(os.path.abspath(__file__)) + os.sep
    pinned = {
        func for func in stats
        if func[0].startswith(own_dir) or "site-packages" in func[0]
    }
    out = {row: 0.0 for row in ROWS}

    def charge(func, seconds: float, depth: int) -> None:
        """Give ``seconds`` of ``func``'s self time to a row; time outside
        ``src/repro`` climbs to its callers in proportion to their edges."""
        if layer[func] != "other" or func in pinned or depth == 0:
            out[layer[func]] += seconds
            return
        callers = stats[func][4]
        edge_total = sum(edge[2] for edge in callers.values())
        if not callers or edge_total <= 0.0:
            out["other"] += seconds
            return
        for caller, edge in callers.items():
            if caller in stats and caller != func:
                charge(caller, seconds * edge[2] / edge_total, depth - 1)
            else:
                out["other"] += seconds * edge[2] / edge_total

    calls = 0
    for func, (_, n_calls, tottime, _, _) in stats.items():
        charge(func, tottime, depth=4)
        calls += n_calls
    return out, calls
