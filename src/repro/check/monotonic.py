"""Cheap real-time staleness checker (necessary condition for linearizability).

Where the Wing–Gong search is exact but exponential in the worst case,
this screen is O(n log n) per key and catches the violation class
the NOOB misconfigurations actually produce — *stale reads*: a get
returns a value that some acked put had already overwritten before the
get was even invoked.

Two rules per key (writes must carry distinct values — the chaos workload
guarantees this by tagging each put ``"{client}:{seq}"``):

* **stale read**: get ``G`` returned the value of put ``W`` (or the
  initial ``None``), yet some acked put ``Q ≠ W`` satisfies
  ``Q.return < G.invoke`` and ``W.return < Q.invoke`` — ``Q`` strictly
  follows ``W`` and was fully acknowledged before ``G`` began, so ``G``
  observed an overwritten value.
* **read regression**: gets ``G1``, ``G2`` with ``G1.return < G2.invoke``
  (any clients) where ``G2``'s writer strictly precedes ``G1``'s writer
  (``W2.return < W1.invoke``) — the value went backwards in real time.

Every violation it reports is a true linearizability violation; a pass is
*not* a linearizability proof (use :func:`check_linearizable` for that).
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

from .history import Operation
from .linearizability import CheckResult

__all__ = ["check_monotonic"]


def _writer_window(
    value: object, writers: Dict[object, Operation]
) -> Tuple[float, float]:
    """(invoke, return) of the put that wrote ``value``; initial = (-inf, -inf)."""
    if value is None:
        return (-math.inf, -math.inf)
    w = writers.get(value)
    if w is None:
        # Value from outside the recorded history (e.g. seeded before
        # recording started): treat like the initial value.
        return (-math.inf, -math.inf)
    return (w.invoke_ts, w.return_ts if w.completed else math.inf)


def _check_key(key: str, ops: List[Operation], n_total: int) -> Optional[CheckResult]:
    writers: Dict[object, Operation] = {}
    for op in ops:
        if op.kind == "put":
            writers[op.value] = op
    acked_puts = [op for op in ops if op.kind == "put" and op.acked]
    gets = [
        op
        for op in ops
        if op.kind == "get" and (op.acked or (op.completed and op.status == "miss"))
    ]

    def violation(core: List[Operation], reason: str) -> CheckResult:
        seen, ordered = set(), []
        for op in sorted(core, key=lambda o: o.invoke_ts):
            if id(op) not in seen:
                seen.add(id(op))
                ordered.append(op)
        return CheckResult(
            ok=False, n_ops=n_total, key=key, violation=ordered, reason=reason
        )

    # -- stale reads: acked puts sorted by return; prefix-max of invoke lets
    # us ask "did any put acked before G.invoke start after W returned?"
    acked_by_ret = sorted(acked_puts, key=lambda p: p.return_ts)
    rets = [p.return_ts for p in acked_by_ret]
    prefix_best: List[Operation] = []  # prefix-argmax by invoke_ts
    best: Optional[Operation] = None
    for p in acked_by_ret:
        if best is None or p.invoke_ts > best.invoke_ts:
            best = p
        prefix_best.append(best)

    for g in gets:
        w_inv, w_ret = _writer_window(g.value, writers)
        # puts fully acked strictly before g was invoked
        hi = bisect.bisect_left(rets, g.invoke_ts)
        if hi == 0:
            continue
        q = prefix_best[hi - 1]
        if q.invoke_ts > w_ret and writers.get(g.value) is not q:
            core = [q, g]
            w = writers.get(g.value)
            if w is not None:
                core.insert(0, w)
            what = f"value {g.value!r}" if g.value is not None else "the initial value"
            return violation(
                core,
                f"stale read: {g.client} get({key}) returned {what}, "
                f"overwritten by an acked put before the get was invoked",
            )

    # -- read regressions across the whole history (subsumes per-client
    # monotonic reads since every client sees the same global order).
    # Completed gets sorted by return carry the prefix-max of their
    # writer's invoke time, so "did a get that returned before g2 was
    # invoked read a value written after g2's writer returned?" is one
    # bisect; only a get for which it may be true re-runs the scan, which
    # names the earliest such g1 in invoke order.
    gets_by_inv = sorted(gets, key=lambda g: g.invoke_ts)
    done_by_ret = sorted((g for g in gets if g.completed), key=lambda g: g.return_ts)
    done_rets = [g.return_ts for g in done_by_ret]
    newest_w_inv = list(
        itertools.accumulate(
            (_writer_window(g.value, writers)[0] for g in done_by_ret), max
        )
    )
    for j, g2 in enumerate(gets_by_inv):
        w2_inv, w2_ret = _writer_window(g2.value, writers)
        hi = bisect.bisect_left(done_rets, g2.invoke_ts)
        if hi == 0 or not w2_ret < newest_w_inv[hi - 1]:
            continue
        for g1 in gets_by_inv[:j]:
            if not g1.completed or g1.return_ts >= g2.invoke_ts:
                continue
            if g1.value == g2.value:
                continue
            w1_inv, _ = _writer_window(g1.value, writers)
            if w2_ret < w1_inv:
                core = [g1, g2]
                for v in (g1.value, g2.value):
                    w = writers.get(v)
                    if w is not None:
                        core.append(w)
                return violation(
                    core,
                    f"read regression: {g2.client} get({key}) returned "
                    f"{g2.value!r} after {g1.client} had already read the "
                    f"strictly newer {g1.value!r}",
                )
    return None


def check_monotonic(ops: Sequence[Operation]) -> CheckResult:
    """Screen a history for stale reads and read regressions, per key."""
    by_key: Dict[str, List[Operation]] = {}
    for op in ops:
        if op.kind in ("put", "get"):
            by_key.setdefault(op.key, []).append(op)
    for key in sorted(by_key):
        bad = _check_key(key, by_key[key], len(ops))
        if bad is not None:
            return bad
    return CheckResult(ok=True, n_ops=len(ops), checked_keys=tuple(sorted(by_key)))
