"""Deterministic discrete-event simulation kernel.

Public surface:

* :class:`Simulator` — the event loop.
* :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` — waitables.
* :class:`Process` — generator coroutines; :class:`Subroutine` — one run
  from a callback chain; :class:`Race`, :class:`Fold` — a chain's reply
  against a timer, its replies counted up to a target; ``sim.wait(fn,
  *args)`` — a ``then=`` wait API as an Event a generator can yield.
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
from .process import Fold, Process, Race, Subroutine
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Counter",
    "Event",
    "Fold",
    "NORMAL",
    "Process",
    "Race",
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
