"""The chaos engine: plays a :class:`FaultSchedule` against a cluster.

The engine is a simulator process.  It walks the schedule's events in
time order and fires each one the same way (:meth:`ChaosEngine._fire`):
look the kind up in :data:`~repro.chaos.faults.FAULTS`, resolve the
symbolic target against *current* membership, let the record's ``apply``
perform the fault through the primitives operators have — host
fail/recover, link down, switch flow-mods, control-plane latency — and
append a ``(sim_time_s, label)`` pair to the typed event log (the same
shape as :class:`~repro.workloads.faultload.FaultTimelineResult.events`).

Determinism: all randomness (loss, jitter, bit-rot picks) comes from
per-event numpy streams derived from ``(engine seed, event index)``, so a
run is bit-reproducible from ``(cluster seed, schedule, engine seed)`` —
the determinism tests compare whole event logs and op histories across
runs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .faults import FAULTS, Fault, Skip
from .schedule import FaultEvent, FaultSchedule

__all__ = ["ChaosEngine"]


class ChaosEngine:
    """Interprets one schedule against one built cluster."""

    def __init__(self, cluster, schedule: FaultSchedule, seed: int = 0):
        self.cluster = cluster
        self.schedule = schedule
        self.seed = seed
        self.sim = cluster.sim
        #: Typed event log: each entry is a ``(sim_time_s, label)`` pair.
        self.events: List[Tuple[float, str]] = []
        #: What ``Fault.needs`` may name; ``None`` = this cluster lacks it.
        self.parts = {
            "fabric": cluster.fabric,
            "controller": cluster.controller,
            "control_plane": cluster.control_plane,
            "metadata_ha": cluster.metadata_ha,
        }
        #: target spec -> FIFO of what an outage hit (a spec can have
        #: several outstanding outages, e.g. two "primary:<k>" crashes where
        #: the second hits the promoted replica).  The cluster-scope pairs
        #: use the symbolic specs "meta" and "power".
        self.bound: Dict[str, list] = {}
        #: The deterministic stream of the event being fired.
        self.rng: Optional[np.random.Generator] = None
        self._event_index = 0

    # -- lifecycle ---------------------------------------------------------------
    def start(self):
        """Spawn the schedule-player process; returns the Process."""
        return self.sim.process(self._run())

    def _run(self):
        for event in self.schedule:
            if event.at > self.sim.now:
                yield self.sim.timeout(event.at - self.sim.now)
            self._fire(event)

    def _fire(self, event: FaultEvent) -> None:
        """Fire one event: everything that is the same for every kind."""
        self._event_index += 1
        fault = FAULTS[event.kind]
        self.rng = np.random.default_rng([self.seed, self._event_index])
        try:
            for part in fault.needs:
                if self.parts[part] is None:
                    raise Skip(f"no {part.replace('_', ' ')}")
            target = self._target(fault, event.target)
            label = fault.apply(self, target, {**fault.defaults, **dict(event.params)})
        except Skip as why:
            label = f"{event.kind} skipped ({why})"
        if label is not None:
            self.mark(label)

    def mark(self, label: str) -> None:
        self.events.append((float(self.sim.now), label))
        tr = self.sim.tracer
        if tr is not None:
            # Fault markers render as global instants so injected faults
            # are visible inline across the whole trace timeline.
            tr.instant(label, "fault", node="chaos")

    # -- target resolution ---------------------------------------------------------
    def _target(self, fault: Fault, spec: str):
        """What ``fault.apply`` is aimed at: ``spec`` read the way the
        fault's scope reads it, :class:`Skip` if it names nothing now."""
        if fault.scope == "cluster":
            return None
        prefix, _, arg = spec.partition(":")
        if fault.scope == "key":
            if prefix != "key":
                raise ValueError(f"{fault.name} wants a 'key:<key>' target, got {spec!r}")
            return self.cluster.partition_of_key(arg)
        if fault.scope == "rack":
            if prefix != "rack" or not 0 <= int(arg) < self.cluster.fabric.n_racks:
                raise Skip(spec)
            return int(arg)
        name = self._resolve_node(spec, fault.binding)
        if name is None or (fault.node_up and not self.cluster.nodes[name].host.up):
            raise Skip(spec)
        return name

    def _resolve_node(self, spec: str, binding: str) -> Optional[str]:
        """Map a symbolic node target to a node name against current
        membership, honouring ``binding`` (see :mod:`~repro.chaos.faults`)."""
        if binding in ("unbind", "peek") and self.bound.get(spec):
            fifo = self.bound[spec]
            return fifo.pop(0) if binding == "unbind" else fifo[0]
        role, _, arg = spec.partition(":")
        if role == "node":
            name = arg
        elif role in ("primary", "secondary"):
            rs = self.cluster.partition_map.get(self.cluster.partition_of_key(arg))
            if role == "primary":
                name = rs.primary
            else:
                secondaries = [m for m in rs.members if m != rs.primary]
                if not secondaries:
                    return None
                name = secondaries[0]
        else:
            raise ValueError(f"unknown chaos target {spec!r}")
        if name not in self.cluster.nodes:
            return None
        if binding == "bind":
            self.bound.setdefault(spec, []).append(name)
        return name

    # -- what several kinds do, written once -----------------------------------------
    def restart(self, name: str, verb: str = "restarts") -> None:
        """Power ``name`` back on; log that, and "consistent" once its
        rejoin (NICE: a two-stage process; NOOB: nothing) completes."""
        self.mark(f"{name} {verb}")
        rejoin = self.cluster.nodes[name].restart()
        if rejoin is not None:
            self.sim.process(self._then_mark(rejoin, f"{name} consistent"))

    def _then_mark(self, event, label: str):
        yield event
        self.mark(label)

    def burst(self, duration: float, undo: Callable[[], None], label: str) -> None:
        """End a self-healing fault ``duration`` from now: ``undo()``, then
        log ``label``."""

        def end():
            undo()
            self.mark(label)

        self.sim.call_in(duration, end)

    def crash_leader(self) -> Optional[str]:
        """Fail-stop the acting metadata leader and return its name, or
        ``None`` without a standby (restored, a lone leader would judge
        every node by heartbeat clocks that stopped with it) or a live
        leader.  Bound under "meta" so that :meth:`revive_leader` brings
        back the replica that actually crashed, not whoever leads by then."""
        ha = self.cluster.metadata_ha
        leader = ha.leader if ha.size > 1 else None
        if leader is None or not leader.host.up:
            return None
        leader.crash()
        self.bound.setdefault("meta", []).append(leader.host.name)
        return leader.host.name

    def revive_leader(self) -> Optional[str]:
        """Power the longest-crashed metadata replica back on; its name, or
        ``None`` if none is down."""
        fifo = self.bound.get("meta")
        replica = self.cluster.metadata_ha.replica_named(fifo.pop(0)) if fifo else None
        if replica is None:
            return None
        replica.recover()
        return replica.host.name
