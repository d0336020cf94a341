"""Trace exporters: JSONL and Chrome trace (catapult) JSON.

The Chrome format is the *JSON array* flavor understood by
``chrome://tracing`` and by Perfetto's legacy-trace importer: an object
with a ``traceEvents`` list.  Mapping from our model:

* one *process* (pid) per traced simulator run, named by the tracer
  label (``bench all`` builds many clusters; each becomes its own
  process row);
* one *thread* (tid) per emitting component (``node`` field) — client
  hosts, storage nodes, the switch, links — sorted by name so the
  export is deterministic;
* op-correlated spans become **async** events (``ph`` ``"b"``/``"e"``)
  sharing ``id = <op id>`` so a client op's span visually encloses its
  switch hops and 2PC phases even though they happen on different
  components;
* uncorrelated spans become duration events (``"B"``/``"E"``) on their
  component's thread;
* instants become ``"i"`` events — fault markers use global scope
  (``"s": "g"``) so injected faults draw a line across the whole
  timeline.

Timestamps are microseconds of *simulated* time (``sim.now * 1e6``).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from ..net.addressing import IPv4Address
from .tracer import Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_lines",
    "write_jsonl",
]


def _plain(value):
    """``value`` as the exporters write it.  Hot-path tracer sites store
    addresses raw (no per-event ``str()`` cost) and an address is an
    ``int``, which ``json`` writes as a number without consulting
    ``default``: so addresses become dotted strings here, also inside
    lists, tuples and dict values."""
    if isinstance(value, IPv4Address):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _op_str(op) -> str:
    if isinstance(op, tuple):
        return "/".join(str(part) for part in op)
    return str(op)


def chrome_trace(tracers: Iterable[Tracer]) -> dict:
    """Render tracers as a Chrome trace dict (``{"traceEvents": [...]}``)."""
    trace_events: List[dict] = []
    for pid, tracer in enumerate(tracers, start=1):
        name = tracer.label or f"run {pid}"
        trace_events.append(
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
             "args": {"name": name}}
        )
        trace_events.append(
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_sort_index",
             "args": {"sort_index": pid}}
        )
        nodes = sorted({ev.node for ev in tracer.events})
        tids = {node: i for i, node in enumerate(nodes, start=1)}
        for node, tid in tids.items():
            trace_events.append(
                {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                 "args": {"name": node or "(sim)"}}
            )
            trace_events.append(
                {"ph": "M", "pid": pid, "tid": tid, "name": "thread_sort_index",
                 "args": {"sort_index": tid}}
            )
        for ev in tracer.events:
            out = {
                "name": ev.name,
                "cat": ev.cat,
                "pid": pid,
                "tid": tids[ev.node],
                "ts": ev.ts * 1e6,
                "args": _plain(ev.args) if ev.args else {},
            }
            if ev.ph == "i":
                out["ph"] = "i"
                out["s"] = "g" if ev.cat == "fault" else "t"
                if ev.op is not None:
                    out["args"] = dict(out["args"], op=_op_str(ev.op))
            elif ev.op is not None:
                out["ph"] = "b" if ev.ph == "B" else "e"
                out["id"] = _op_str(ev.op)
            else:
                out["ph"] = ev.ph  # plain duration "B"/"E"
            trace_events.append(out)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, tracers: Iterable[Tracer]) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    doc = chrome_trace(tracers)
    with open(path, "w") as fh:
        # default=str: any other non-JSON value stringifies at export time.
        json.dump(doc, fh, indent=None, separators=(",", ":"), sort_keys=True,
                  default=str)
        fh.write("\n")
    return len(doc["traceEvents"])


def jsonl_lines(tracers: Iterable[Tracer]) -> Iterable[str]:
    """One compact JSON object per trace event, run label included."""
    for tracer in tracers:
        label = tracer.label
        for ev in tracer.events:
            d: Dict = {"run": label}
            d.update(_plain(ev.to_dict()))
            yield json.dumps(d, separators=(",", ":"), sort_keys=True, default=str)


def write_jsonl(path: str, tracers: Iterable[Tracer]) -> int:
    """Write raw events as JSON Lines; returns the number of lines."""
    n = 0
    with open(path, "w") as fh:
        for line in jsonl_lines(tracers):
            fh.write(line)
            fh.write("\n")
            n += 1
    return n
