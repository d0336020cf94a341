"""The event algebra of the simulation kernel: what a callback or a process
can wait on.

:class:`Event` is a one-shot occurrence, :class:`Timeout` one that fires
after a delay, :class:`AnyOf` / :class:`AllOf` joins over several.  The
only thing they ask of the loop (:class:`~repro.sim.kernel.Simulator`) is
to be scheduled — ``sim._schedule_event`` / ``_schedule_call`` /
``cancel_timer`` — and to be processed, which the loop does inline: it
clears ``_entry`` and ``_callbacks``, sets ``_processed`` and runs the
callbacks in order, raising a failure that nobody handled.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

__all__ = [
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AnyOf",
    "AllOf",
    "URGENT",
    "NORMAL",
    "SimulationError",
]

#: Scheduling priority for bookkeeping events that must run before ordinary
#: events scheduled at the same timestamp (e.g. process initialization and
#: interrupts).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class SimulationError(Exception):
    """Raised for misuse of the kernel API (not for modeled failures)."""


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event goes through three states:

    1. *pending* — created, not yet triggered; callbacks may be attached.
    2. *triggered* — a value or an exception has been set and the event is
       scheduled on the simulator heap; callbacks may still be attached.
    3. *processed* — the simulator has popped the event and run all
       callbacks.  Attaching a callback to a processed event schedules an
       immediate (same-timestamp, urgent) delivery so late waiters are not
       lost.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_ok", "_processed", "_defused", "_entry")

    _PENDING = object()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # Created lazily on first add_callback: most events carry 0–1
        # callbacks, and the empty-list allocation shows up on the hot path.
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._value: Any = Event._PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        self._defused = False
        #: Live heap record while scheduled (a list), the original fire time
        #: (a float) after a tombstone cancel, else None.
        self._entry = None

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> Optional[bool]:
        """True if the event succeeded, False if it failed, None if pending."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance, if it failed)."""
        if self._value is Event._PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not Event._PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._schedule_event(self, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is delivered into every waiting process.  If nobody
        waits (and nobody calls :meth:`defuse`), the simulation aborts when
        the event is processed — silent failures hide protocol bugs.
        """
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not Event._PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exc
        self.sim._schedule_event(self, priority)
        return self

    def defuse(self) -> "Event":
        """Mark a failed event as handled even if no process awaits it."""
        self._defused = True
        return self

    def _complete(self, value: Any = None) -> None:
        """Succeed with ``value`` if anyone waits; otherwise the event is
        processed on the spot — a completion nobody observes needs no heap
        record whose pop would run no callback, and a waiter that shows up
        later is served like any late waiter on a processed event.  The
        end of a process or a callback chain; failures never take this
        path (an unhandled one must abort the run)."""
        if self._callbacks:
            self.succeed(value)
            return
        self._ok = True
        self._value = value
        self._processed = True

    # -- callbacks ---------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Attach ``callback(event)``; runs when the event is processed."""
        if self._processed:
            # Late registration: deliver on the next urgent tick so the
            # callback still observes a fully-triggered event.
            self.sim._schedule_call(0.0, callback, self, priority=URGENT)
            return
        if type(self._entry) is float:
            # Revive a tombstone-cancelled timer: a new waiter appeared, so
            # put it back on the heap at its original fire time — or now,
            # if that time already passed while it sat cancelled (the heap
            # must never carry an entry behind the clock).
            delay = self._entry - self.sim._now
            self.sim._schedule_event(self, NORMAL, delay=delay if delay > 0.0 else 0.0)
        if self._callbacks is None:
            self._callbacks = [callback]
        else:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Detach a previously-attached callback (no-op if absent)."""
        if self._callbacks is not None:
            try:
                self._callbacks.remove(callback)
            except ValueError:
                pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self._processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule_event(self, NORMAL, delay=delay)


class ConditionValue(Mapping):
    """A condition's result: the constituent events that had been processed
    when it triggered, mapped to their values.

    Semantically identical to the dict ``{ev: ev.value for ev in events}``
    (supports ``in``, ``[]``, ``.get``, ``.values()``, ``==`` against
    dicts), but stores only a tuple of those events.  Membership is frozen
    at trigger time — exactly what an eager dict would capture — and the
    constituent values are immutable once processed, so lazy access is
    safe.  For the 1–3 event ``AnyOf``/``AllOf`` cases that dominate the
    2PC and retry paths, an identity scan over ≤3 events beats hashing
    event objects into a fresh dict on every join.
    """

    __slots__ = ("_events",)

    def __init__(self, events: tuple):
        self._events = events

    def __getitem__(self, ev: Event) -> Any:
        for e in self._events:
            if e is ev:
                return e._value
        raise KeyError(ev)

    def __contains__(self, ev: object) -> bool:
        for e in self._events:
            if e is ev:
                return True
        return False

    def __iter__(self):
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def get(self, ev: Event, default: Any = None) -> Any:
        # Overrides Mapping.get: skip the try/except KeyError round-trip.
        for e in self._events:
            if e is ev:
                return e._value
        return default

    def values(self):
        # Overrides Mapping.values: a tuple beats a ValuesView that would
        # re-run the identity scan per element.
        return tuple(e._value for e in self._events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConditionValue({ {e: e._value for e in self._events}!r})"


class Condition(Event):
    """Waits on several events: :class:`AnyOf` or :class:`AllOf`, which say
    when (``_on_trigger``).  A constituent's failure fails the condition.

    The condition's value maps each constituent event that was *processed*
    at trigger time to its value (a :class:`ConditionValue`).
    """

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self.succeed(ConditionValue(()))
            return
        cb = self._on_trigger  # one bound method shared by all constituents
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("conditions cannot span simulators")
            if ev._processed:
                cb(ev)
            else:
                # Not yet *processed*: even if the value is already set
                # (e.g. Timeout sets it at creation), the occurrence happens
                # when the event is popped from the heap — wait for that.
                ev.add_callback(cb)

    def _settle_losers(self) -> None:
        """Cancel loser *timers* once the condition has settled.

        A pure :class:`Timeout` whose only waiter is this condition can
        never matter again (timeouts cannot fail), so its heap record is
        tombstoned instead of letting it expire and run a dead callback —
        this is where e.g. the per-put 2s client retry timer dies the
        moment the reply wins the race.  Other event kinds are left
        untouched: their late failures must keep the historic
        swallowed-by-the-settled-condition behaviour.
        """
        for ev in self._events:
            if type(ev) is Timeout and not ev._processed:
                cbs = ev._callbacks
                if (
                    cbs is not None
                    and len(cbs) == 1
                    and getattr(cbs[0], "__self__", None) is self
                ):
                    ev._callbacks = None
                    ev.sim.cancel_timer(ev)

    def _collect(self) -> ConditionValue:
        return ConditionValue(tuple(ev for ev in self._events if ev._processed and ev._ok))


class AnyOf(Condition):
    """Condition that triggers as soon as any constituent triggers."""

    __slots__ = ()

    def _on_trigger(self, ev: Event) -> None:
        if self._value is not Event._PENDING:
            return
        if ev._ok is False:
            ev._defused = True
            self.fail(ev._value)
        else:
            self._ok = True
            self._value = self._collect()
            self.sim._schedule_event(self, NORMAL)
        self._settle_losers()


class AllOf(Condition):
    """Condition that triggers when all constituents have triggered."""

    __slots__ = ()

    def _on_trigger(self, ev: Event) -> None:
        if self._value is not Event._PENDING:
            return
        if ev._ok is False:
            ev._defused = True
            self.fail(ev._value)
            self._settle_losers()
            return
        self._count = count = self._count + 1
        if count >= len(self._events):
            # Every constituent is processed — no losers left to settle.
            self._ok = True
            self._value = self._collect()
            self.sim._schedule_event(self, NORMAL)
