"""Deterministic discrete-event simulation kernel.

Public surface:

* :class:`Simulator` — the event loop.
* :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` — waitables.
* :class:`Process` — generator coroutines; :class:`Subroutine` — one run
  from a callback chain.
* :class:`Store`, :class:`Resource` — queues and counted resources.
* :class:`RngRegistry` — named deterministic random streams.
* :class:`Counter`, :class:`Tally`, :class:`RateSeries` — measurement.
"""

from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    NORMAL,
    SimulationError,
    Timeout,
    URGENT,
)
from .kernel import Simulator, StopSimulation
from .monitor import Counter, RateSeries, Tally, summary_stats
from .primitives import Resource, Store
from .process import Process, Subroutine
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Counter",
    "Event",
    "NORMAL",
    "Process",
    "RateSeries",
    "Resource",
    "RngRegistry",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "Subroutine",
    "Tally",
    "Timeout",
    "URGENT",
    "summary_stats",
]
