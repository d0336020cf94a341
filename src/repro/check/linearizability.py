"""Wing–Gong linearizability checker for the per-key KV register model.

The storage systems under test expose independent single-value registers
(one per key), so a history is linearizable iff each key's subhistory is —
the checker partitions by key and runs an exact memoized Wing&Gong [1986]
search per register:

* state = (set of linearized ops, value of the register);
* an op may be linearized next iff no *other* unlinearized op returned
  before it was invoked (real-time order is preserved);
* a read may be linearized only if it returns the current register value;
* acked puts and completed gets are *required*; puts that failed, timed
  out, or were still pending at cut-off are *ambiguous* — they may take
  effect at any point after invocation or never (they get an infinite
  linearization window and need not be linearized at all).  Gets that
  timed out carry no information and are dropped.  Gets that returned
  ``status="miss"`` are reads of the initial value ``None``.

On violation the checker shrinks the offending key's subhistory to a
minimal violating core (greedy delta-debugging over a failing prefix) so
the counterexample is human-readable — typically the 3-op stale-read
pattern ``put(old) · put(new) · get->old``.

Long read-heavy subhistories (chaos runs record tens of thousands of gets
against a hot key) are handled by *commit-point windowed decomposition*:
the per-key subhistory is cut at every instant where all earlier ops have
returned before all later ops invoke — no op spans the cut, so a
linearization of the whole is exactly a linearization of each window in
sequence, with the set of possible register values carried across the
boundary.  Windows are searched independently against the carried value
set, which keeps the search's bitmask width (and the memo table) bounded
by the widest burst of truly-overlapping ops instead of the whole
history.  Ambiguous puts get an infinite return time and therefore block
every later cut, which is what makes the decomposition sound.  If even
one window exceeds ``window_ops`` the checker refuses loudly
(:class:`CheckLimitExceeded`) instead of grinding into an exponential
search — raise ``window_ops`` explicitly to force the attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .history import Operation

__all__ = ["CheckLimitExceeded", "CheckResult", "check_linearizable"]

#: Register value before any put is linearized.
INITIAL = None

#: Client name of the synthetic write that pins a decomposition window's
#: inherited register value (see :func:`_boundary_entry`).
_BOUNDARY_CLIENT = "<window-boundary>"


class CheckLimitExceeded(RuntimeError):
    """The search visited more states than ``max_states`` allows."""


@dataclass
class CheckResult:
    """Outcome of a history check."""

    ok: bool
    n_ops: int
    checked_keys: Tuple[str, ...] = ()
    key: Optional[str] = None  #: first violating key (None when ok)
    violation: List[Operation] = field(default_factory=list)  #: minimal core
    reason: str = ""
    states: int = 0  #: search states visited (cost diagnostics)

    def describe(self) -> str:
        """Multi-line human-readable report (empty string when ok)."""
        if self.ok:
            return ""
        lines = [f"non-linearizable history on key {self.key!r}: {self.reason}"]
        lines += [f"  {op}" for op in self.violation]
        return "\n".join(lines)


@dataclass
class _Entry:
    """One op of a per-key subhistory, normalised for the search."""

    op: Operation
    is_write: bool
    value: object
    inv: float
    ret: float  # math.inf for ambiguous/pending ops
    required: bool


def _entries_for_key(ops: Sequence[Operation]) -> List[_Entry]:
    entries: List[_Entry] = []
    for op in ops:
        if op.kind == "put":
            if op.acked:
                entries.append(_Entry(op, True, op.value, op.invoke_ts, op.return_ts, True))
            else:
                # Failed / timed-out / pending put: may have taken effect on
                # some replica anyway, at any time after invocation.
                entries.append(_Entry(op, True, op.value, op.invoke_ts, math.inf, False))
        elif op.kind == "get":
            if op.acked:
                entries.append(_Entry(op, False, op.value, op.invoke_ts, op.return_ts, True))
            elif op.completed and op.status == "miss":
                # A definite "no such key" answer: a read of INITIAL.
                entries.append(_Entry(op, False, INITIAL, op.invoke_ts, op.return_ts, True))
            # else: timed-out/pending get — no information, drop.
    return entries


def _search_key(
    entries: List[_Entry],
    max_states: int,
    initial_values: Sequence = (INITIAL,),
    collect_finals: bool = False,
) -> Tuple[bool, int, List]:
    """Exact W&G search over one register's entries.

    The search may start from any of ``initial_values`` (one initial DFS
    state per candidate register value — a window of a decomposed history
    inherits the previous window's possible ending values).  Returns
    ``(linearizable, states_visited, finals)`` where ``finals`` is the
    register values reachable at an accepting state; with
    ``collect_finals=False`` the search stops at the first accept and
    ``finals`` holds just that state's value.  Raises
    :class:`CheckLimitExceeded` past ``max_states``.
    """
    n = len(entries)
    if n == 0:
        return True, 0, list(initial_values)
    inv = [e.inv for e in entries]
    ret = [e.ret for e in entries]
    required_mask = 0
    for i, e in enumerate(entries):
        if e.required:
            required_mask |= 1 << i
    all_mask = (1 << n) - 1

    # State: (mask of linearized entries, index of last linearized write;
    # negative = still on initial_values[-cur - 1]).  DFS with memoization
    # on visited states.
    seen = set()
    states = 0
    ok = False
    finals: List = []
    stack: List[Tuple[int, int]] = [(0, -(k + 1)) for k in range(len(initial_values))]
    while stack:
        mask, cur = stack.pop()
        if (mask, cur) in seen:
            continue
        seen.add((mask, cur))
        states += 1
        if states > max_states:
            raise CheckLimitExceeded(
                f"linearizability search exceeded {max_states} states "
                f"({n} ops on one key)"
            )
        cur_value = initial_values[-cur - 1] if cur < 0 else entries[cur].value
        if mask & required_mask == required_mask:
            ok = True
            if not collect_finals:
                return True, states, [cur_value]
            if not any(f == cur_value for f in finals):
                finals.append(cur_value)
            # Fall through: linearizing a remaining (ambiguous) write past
            # this accept can still produce further boundary values.

        # Real-time rule: entry i is eligible iff no *unlinearized* j has
        # ret[j] < inv[i].  min over unlinearized rets decides for all i
        # (using the second-smallest when i itself holds the minimum).
        remaining = all_mask & ~mask
        min1 = min2 = math.inf
        argmin1 = -1
        m = remaining
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            r = ret[i]
            if r < min1:
                min2 = min1
                min1, argmin1 = r, i
            elif r < min2:
                min2 = r

        m = remaining
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            bound = min2 if i == argmin1 else min1
            if bound < inv[i]:
                continue  # some other pending op returned before i invoked
            e = entries[i]
            if e.is_write:
                stack.append((mask | (1 << i), i))
            elif e.value == cur_value:
                stack.append((mask | (1 << i), cur))
    return ok, states, finals


def _is_linearizable(entries: List[_Entry], max_states: int) -> bool:
    return _search_key(entries, max_states)[0]


def _split_windows(entries: List[_Entry]) -> List[List[_Entry]]:
    """Cut a subhistory at its commit points.

    A cut is placed before entry ``i`` (in invocation order) when every
    earlier entry returned strictly before ``i`` invoked: no op spans the
    cut, so real time forces all earlier ops to linearize first and the
    only state crossing the boundary is the register value.  Ambiguous
    ops carry ``ret = inf`` and therefore suppress every later cut.
    """
    ordered = sorted(entries, key=lambda e: e.inv)
    windows: List[List[_Entry]] = []
    start = 0
    horizon = -math.inf
    for i, e in enumerate(ordered):
        if i > start and horizon < e.inv:
            windows.append(ordered[start:i])
            start = i
        if e.ret > horizon:
            horizon = e.ret
    if start < len(ordered):
        windows.append(ordered[start:])
    return windows


def _boundary_entry(key: str, value) -> _Entry:
    """A synthetic acked write pinning a window's inherited register value.

    Its return time precedes every real invocation, so the real-time rule
    forces it to linearize first — prepending it to a window makes "check
    the window from boundary value v" expressible to the plain searcher
    (the minimizer reuses it, and may drop it if the core fails without)."""
    op = Operation(
        op_index=-1,
        client=_BOUNDARY_CLIENT,
        kind="put",
        key=key,
        invoke_ts=-math.inf,
        value=value,
        return_ts=-math.inf,
        ok=True,
        status="boundary",
    )
    return _Entry(op, True, value, -math.inf, -math.inf, True)


def _minimize(entries: List[_Entry], max_states: int) -> List[_Entry]:
    """Shrink a non-linearizable per-key subhistory to a minimal core.

    Two passes: (1) cut to the shortest failing prefix by invocation time
    (keeping every write whose value some kept read returned, so reads
    never dangle); (2) greedy delta-debugging — drop each op if the
    remainder still fails.  Writes that a kept read observed are never
    dropped, which keeps the counterexample semantically meaningful.
    Synthetic window-boundary writes are likewise never dropped: they are
    what explains a stale read whose overwriting put lives in an earlier
    decomposition window.
    """

    def read_values(subset: List[_Entry]) -> set:
        return {e.value for e in subset if not e.is_write and e.value is not INITIAL}

    def closed(subset: List[_Entry]) -> List[_Entry]:
        # Keep writes whose value is observed by a kept read.
        needed = read_values(subset)
        extra = [
            e
            for e in entries
            if e.is_write and e.value in needed and e not in subset
        ]
        if not extra:
            return subset
        merged = subset + extra
        merged.sort(key=lambda e: e.inv)
        return merged

    def fails(subset: List[_Entry]) -> bool:
        try:
            return not _is_linearizable(subset, max_states)
        except CheckLimitExceeded:
            return False  # inconclusive: treat as "cannot shrink this way"

    ordered = sorted(entries, key=lambda e: e.inv)
    core = ordered
    # Pass 1: shortest failing invocation-prefix (doubling then refine).
    for cut in range(1, len(ordered) + 1):
        prefix = closed(ordered[:cut])
        if fails(prefix):
            core = prefix
            break

    # Pass 2: greedy removal, latest ops first.
    changed = True
    while changed:
        changed = False
        for e in sorted(core, key=lambda x: -x.inv):
            if e.op.client == _BOUNDARY_CLIENT:
                continue  # boundary value must stay explained
            trial = [x for x in core if x is not e]
            if e.is_write and e.value in read_values(trial):
                continue  # a kept read observed this write
            if fails(trial):
                core = trial
                changed = True
    return sorted(core, key=lambda e: e.inv)


def check_linearizable(
    ops: Sequence[Operation],
    max_states: int = 2_000_000,
    minimize: bool = True,
    window_ops: int = 256,
) -> CheckResult:
    """Check a recorded history against the per-key register model.

    Keys are checked independently (cheapest first, so a violation on a
    quiet key surfaces before an expensive search on a busy one).  On the
    first violating key the returned :class:`CheckResult` carries a
    minimal violating subhistory in ``violation``.

    Subhistories longer than ``window_ops`` are decomposed at commit
    points (see module docstring) and the windows checked in sequence;
    a single window wider than ``window_ops`` raises
    :class:`CheckLimitExceeded` instead of attempting a search whose
    memo table would not fit — the failure is loud by design, never a
    silently skipped key.
    """
    by_key: Dict[str, List[Operation]] = {}
    for op in ops:
        if op.kind in ("put", "get"):
            by_key.setdefault(op.key, []).append(op)

    total_states = 0
    for key in sorted(by_key, key=lambda k: len(by_key[k])):
        entries = _entries_for_key(by_key[key])
        if len(entries) <= window_ops:
            ok, states, _ = _search_key(entries, max_states)
            total_states += states
            if ok:
                continue
            core = _minimize(entries, max_states) if minimize else entries
            reason = (
                f"no valid linearization of {len(entries)} ops "
                f"(minimal core: {len(core)} ops)"
            )
        else:
            ok, states, bad = _check_key_windowed(
                key, entries, max_states, window_ops
            )
            total_states += states
            if ok:
                continue
            window, boundary = bad
            seed = window if INITIAL in boundary else (
                [_boundary_entry(key, boundary[0])] + window
            )
            core = _minimize(seed, max_states) if minimize else seed
            reason = (
                f"no valid linearization of a {len(window)}-op commit-point "
                f"window of {len(entries)} ops, from any of "
                f"{len(boundary)} boundary value(s) "
                f"(minimal core: {len(core)} ops)"
            )
        return CheckResult(
            ok=False,
            n_ops=len(ops),
            checked_keys=tuple(sorted(by_key)),
            key=key,
            violation=[e.op for e in core],
            reason=reason,
            states=total_states,
        )
    return CheckResult(
        ok=True,
        n_ops=len(ops),
        checked_keys=tuple(sorted(by_key)),
        states=total_states,
    )


def _check_key_windowed(
    key: str, entries: List[_Entry], max_states: int, window_ops: int
) -> Tuple[bool, int, Optional[Tuple[List[_Entry], List]]]:
    """Commit-point decomposition check of one long subhistory.

    Returns ``(ok, states, bad)`` where ``bad`` is ``(window,
    boundary_values)`` for the first window with no valid linearization
    from any inherited register value.
    """
    windows = _split_windows(entries)
    widest = max(len(w) for w in windows)
    if widest > window_ops:
        raise CheckLimitExceeded(
            f"key {key!r}: {len(entries)}-op subhistory decomposes into a "
            f"{widest}-op commit-point window (> window_ops={window_ops}); "
            f"that many truly-overlapping ops would blow up the exact "
            f"search — pass a larger window_ops to force the attempt"
        )
    boundary: List = [INITIAL]
    states = 0
    for wi, window in enumerate(windows):
        last = wi == len(windows) - 1
        ok, used, finals = _search_key(
            window, max_states, tuple(boundary), collect_finals=not last
        )
        states += used
        if not ok:
            return False, states, (window, boundary)
        boundary = finals
    return True, states, None
