"""Sim-time structured tracing.

A :class:`Tracer` records a flat, append-only list of
:class:`TraceEvent` records stamped with *simulated* time.  Events are
either instants (``ph == "i"``) or span begin/end pairs (``"B"``/``"E"``)
correlated by an *op id* — the same ``op_id`` tuple the protocols already
carry in every message payload, so one client operation's span encloses
its switch hops and per-replica 2PC phases with no protocol changes.

Determinism contract
--------------------
Tracing must never perturb the simulation:

* the tracer allocates no simulator objects (no events, no processes,
  no timeouts) and draws no randomness — it only appends to a Python
  list;
* every hook site guards with ``tr = self.sim.tracer`` / ``if tr is not
  None`` so the disabled path is a single attribute load plus a branch
  (the null-tracer pattern);
* event timestamps are ``sim.now`` — identical runs produce identical
  traces, and traced runs produce identical *results* to untraced runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["TraceEvent", "Tracer", "install", "uninstall", "packet_op"]


class TraceEvent:
    """One trace record: ``(ts, ph, name, cat, node, op, args)``.

    ``ph`` is the phase: ``"B"``/``"E"`` bracket a span, ``"i"`` is an
    instant.  ``cat`` is a coarse category (``op``, ``switch``, ``link``,
    ``2pc``, ``fault``, ``proc``, …), ``node`` the emitting component's
    name (a lane in the exported timeline), ``op`` the correlation id
    (or ``None`` for uncorrelated events).
    """

    __slots__ = ("ts", "ph", "name", "cat", "node", "op", "args")

    def __init__(self, ts, ph, name, cat, node, op, args):
        self.ts = ts
        self.ph = ph
        self.name = name
        self.cat = cat
        self.node = node
        self.op = op
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        d = {
            "ts": self.ts,
            "ph": self.ph,
            "name": self.name,
            "cat": self.cat,
            "node": self.node,
        }
        if self.op is not None:
            d["op"] = list(self.op) if isinstance(self.op, tuple) else self.op
        if self.args:
            d["args"] = self.args
        return d

    def __repr__(self) -> str:  # pragma: no cover
        op = f" op={self.op}" if self.op is not None else ""
        return f"<{self.ph} {self.ts:.6f} {self.cat}/{self.name} @{self.node}{op}>"


class Span:
    """Handle returned by :meth:`Tracer.begin`; call :meth:`end` once.

    ``end`` is idempotent — protocol coroutines have many exit paths and
    a double-close must not corrupt the trace.
    """

    __slots__ = ("_tracer", "name", "cat", "node", "op", "_open")

    def __init__(self, tracer: "Tracer", name: str, cat: str, node: str, op):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.node = node
        self.op = op
        self._open = True

    def end(self, **args) -> None:
        if not self._open:
            return
        self._open = False
        t = self._tracer
        t.events.append(
            TraceEvent(t.sim.now, "E", self.name, self.cat, self.node, self.op, args)
        )


class Tracer:
    """Collects :class:`TraceEvent` records for one simulator.

    ``verbose=True`` additionally records per-wake kernel instants
    (``cat="proc"``, ``name="wake"`` — one per process resumption).
    They are invaluable when debugging a stuck coroutine but dominate
    the trace by volume (~3 wakes per protocol message), so the default
    keeps only protocol-level events plus process spawns — the setting
    ``benchmarks/e2e`` measures ``trace.overhead_x`` at, and the one the
    tier-1 traced-equals-untraced test
    (``tests/bench/test_harness_cli.py``) runs a real cluster under.
    """

    __slots__ = ("sim", "label", "events", "verbose")

    def __init__(self, sim, label: str = "", verbose: bool = False):
        self.sim = sim
        self.label = label
        self.verbose = verbose
        self.events: List[TraceEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def instant(self, name: str, cat: str, node: str = "", op=None, **args) -> None:
        self.events.append(TraceEvent(self.sim.now, "i", name, cat, node, op, args))

    def begin(self, name: str, cat: str, node: str = "", op=None, **args) -> Span:
        self.events.append(TraceEvent(self.sim.now, "B", name, cat, node, op, args))
        return Span(self, name, cat, node, op)

    @contextmanager
    def span(self, name: str, cat: str, node: str = "", op=None, **args):
        handle = self.begin(name, cat, node, op, **args)
        try:
            yield handle
        finally:
            handle.end()

    # -- queries (used by tests and exporters) ------------------------------
    def spans(self, name: Optional[str] = None) -> List[Tuple[TraceEvent, TraceEvent]]:
        """Matched ``(begin, end)`` pairs, oldest first.

        Pairs are matched per ``(name, cat, node, op)`` key in LIFO order,
        which is how nested same-key spans close.  Unclosed begins are
        omitted.
        """
        stacks: Dict[tuple, List[TraceEvent]] = {}
        out = []
        for ev in self.events:
            if ev.ph not in ("B", "E"):
                continue
            if name is not None and ev.name != name:
                continue
            key = (ev.name, ev.cat, ev.node, ev.op)
            if ev.ph == "B":
                stacks.setdefault(key, []).append(ev)
            else:
                stack = stacks.get(key)
                if stack:
                    out.append((stack.pop(), ev))
        out.sort(key=lambda pair: pair[0].ts)
        return out

    def by_op(self, op) -> List[TraceEvent]:
        """All events correlated with ``op``, in emission order."""
        return [ev for ev in self.events if ev.op == op]


def install(sim, label: str = "", verbose: bool = False) -> Tracer:
    """Create a tracer, set it as ``sim.tracer``, and return it."""
    tracer = Tracer(sim, label=label, verbose=verbose)
    sim.tracer = tracer
    return tracer


def uninstall(sim) -> Optional[Tracer]:
    """Detach and return ``sim.tracer`` (hooks go back to no-ops)."""
    tracer = sim.tracer
    sim.tracer = None
    return tracer


def packet_op(payload) -> Optional[tuple]:
    """Extract the op correlation id from a message payload, if any.

    Payloads carry ``op_id`` either at the top level (client requests,
    node control messages) or inside the reliable-multicast tuple framing
    (``("mc_data", op, ack_port, payload)`` / ``("mc_ctrl", payload)``,
    whose application payload is a dict).  Returns a tuple or ``None``.
    """
    t = type(payload)
    if t is dict:
        op = payload.get("op_id")
        if op is not None:
            return tuple(op)
        return None
    if t is tuple and payload:
        kind = payload[0]
        if kind == "mc_data":
            inner = payload[3]
        elif kind == "mc_ctrl":
            inner = payload[1]
        else:
            return None
        if type(inner) is dict:
            op = inner.get("op_id")
            if op is not None:
                return tuple(op)
    return None
