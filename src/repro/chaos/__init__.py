"""Chaos engine: seeded, declarative fault schedules for the simulator.

A :class:`FaultSchedule` is a plain list of timed :class:`FaultEvent`\\ s —
node crashes and rejoins, link partitions, loss and delay bursts, switch
rule flaps, controller stalls.  A :class:`ChaosEngine` plays a schedule
against a built :class:`~repro.core.system.NiceCluster` or
:class:`~repro.noob.system.NoobCluster` inside the discrete-event kernel,
so every run is bit-reproducible from ``(cluster seed, schedule)`` and the
engine's typed event log can be compared across runs.

Used with :mod:`repro.check` this gives a Jepsen-style harness: inject
faults, record client histories, verify linearizability
(``python -m repro.bench chaos``).
"""

from .engine import ChaosEngine
from .faults import FAULTS, Fault
from .schedule import (
    FaultEvent,
    FaultSchedule,
    controlplane_schedules,
    durability_schedules,
    episode,
    named,
    standard_schedules,
)

__all__ = [
    "ChaosEngine",
    "FAULTS",
    "Fault",
    "FaultEvent",
    "FaultSchedule",
    "controlplane_schedules",
    "durability_schedules",
    "episode",
    "named",
    "standard_schedules",
]
