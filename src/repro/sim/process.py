"""Coroutine processes for the simulation kernel.

A *process* wraps a Python generator.  The generator yields
:class:`~repro.sim.events.Event` objects; the process suspends until the
yielded event triggers, then resumes with the event's value (or with the
event's exception thrown into the generator, so protocol code can use
ordinary ``try/except``).

Processes are themselves events: waiting on a process means waiting for it
to return, and its :attr:`value` is the generator's return value.  This is
how protocol state machines compose (e.g. a put operation spawns one
process per secondary replica and joins them with ``AllOf``).

A process is for background code that waits between steps and has work
left after a wait (heartbeats, recovery, the chaos engine, closed-loop
workloads); a background send nobody waits on is an URGENT call where its
process started.  A mailbox whose handler never waits is served
(``Store.serve``), and every request path — a disk IO, a TCP send or
handshake, a client op's attempts, a multicast send, a replica's get
service, its 2PC prepare and coordination, every NOOB handler — is a fixed
chain of waits whose callbacks schedule the records the process would
have, a wait it is the only waiter of being a call record in its event's
slot (DESIGN.md §5g).  A chain is an ``Event`` only where a caller waits
on it (the client op, the multicast send); one nobody waits on is a plain
object and ends without a record.  A chain that races a reply against a
timer is a :class:`Race`; one that counts replies up to a target (an
``AllOf``, a quorum, a 2PC phase's acks) is a :class:`Fold`.  A chain
that must wait on generator code it does not own (the get path's
read-repair, the put path's strikes) runs it as a :class:`Subroutine`:
``yield from`` without a process around it.

A wait API has one form: ``then=`` (``None``: nobody waits, so nothing is
scheduled at its end and no Event built).  A generator yields
``sim.wait(fn, *args)`` instead — an Event whose waiters run inside
``then``'s record.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator

from .events import URGENT, Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

__all__ = ["Fold", "Process", "Race", "Subroutine"]


class _Started:
    """Singleton stand-in for the initial wake-up event of every process.

    ``_resume`` only reads ``ok`` / ``value`` (and ``_defused`` on the
    failure path), so one immutable shared instance replaces the per-process
    ``Event`` + callback-list allocation the old init path paid.
    """

    __slots__ = ()
    ok = True
    value = None
    _ok = True
    _value = None
    _defused = True


_STARTED = _Started()


class Process(Event):
    """A running generator, resumable by the event loop."""

    __slots__ = ("_gen", "name", "_wake")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise SimulationError(
                f"process() needs a generator, got {type(generator).__name__}"
            )
        # The Event fields, written here rather than through Event.__init__:
        # one frame less on every spawn.
        self.sim = sim
        self._callbacks = None
        self._value = Event._PENDING
        self._ok = None
        self._processed = False
        self._defused = False
        self._entry = None
        self._gen = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: ``_resume`` bound once, for the start and every wake (cleared when
        #: the generator ends, so a finished process is not kept alive by a
        #: cycle through its own bound method).
        self._wake = wake = self._resume
        # First resume happens on an urgent same-time call so that process
        # bodies start deterministically before ordinary events at `now`.
        sim._schedule_call(0.0, wake, _STARTED, priority=URGENT)

    # -- engine ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        tr = self.sim.tracer
        if tr is not None and tr.verbose:
            tr.instant("wake", "proc", node=self.name)

        send = self._gen.send
        while True:
            try:
                if event._ok:
                    next_ev = send(event._value)
                else:
                    event._defused = True
                    next_ev = self._gen.throw(event._value)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            except BaseException as exc:
                self._wake = None
                self.fail(exc)
                return

            if not isinstance(next_ev, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded {next_ev!r}, expected an Event"
                )
                try:
                    self._gen.throw(exc)
                except StopIteration as stop:
                    self._finish(stop.value)
                except BaseException as err:
                    self._wake = None
                    self.fail(err)
                return

            if next_ev._processed:
                # Already settled: loop and deliver synchronously.
                event = next_ev
                continue
            if next_ev._callbacks is None and type(next_ev._entry) is not float:
                next_ev._callbacks = [self._wake]
            else:
                # Another waiter, or a tombstoned timer to revive.
                next_ev.add_callback(self._wake)
            return

    def _finish(self, value: Any) -> None:
        """The generator returned ``value``: complete the process event
        (most processes are fire-and-forget handlers nobody waits on)."""
        self._wake = None
        self._complete(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"


class Subroutine(Process):
    """``yield from generator`` for a callback chain: the generator runs
    from the current record (no start record) and its return value goes to
    ``then(value)`` in the record in which it returns (no completion
    record) — the records the generator schedules inline in a process,
    and no others.  Not counted as a spawn."""

    __slots__ = ("_then",)

    def __init__(self, sim: Simulator, generator: Generator, then):
        Event.__init__(self, sim)
        self._gen = generator
        self.name = getattr(generator, "__name__", "subroutine")
        self._then = then
        self._wake = self._resume
        self._resume(_STARTED)

    def _finish(self, value: Any) -> None:
        self._wake = None
        self._then(value)


class Race:
    """A chain's reply raced against a timer (``_race``), settled in the
    records an ``AnyOf`` over the two took: the first to come schedules
    one NORMAL zero-delay ``_join``, which hands ``_settled`` the reply, or
    ``None`` on timeout; a reply that wins tombstones the timer, and one
    that comes after the race settled is ignored.  A mixin: the subclass
    declares the slots ``settled``, ``reply`` and ``timer``."""

    __slots__ = ()

    def _race(self, sim: Simulator, delay: float) -> None:
        self.settled = False
        self.reply = None
        self.timer = timer = sim.timeout(delay)
        timer._callbacks = [self._timed_out]

    def _won(self, reply: Any) -> None:
        if self.settled:
            return
        self.settled = True
        self.reply = reply
        timer = self.timer
        sim = timer.sim
        sim._schedule_call(0.0, self._join)
        timer._callbacks = None
        sim.cancel_timer(timer)

    def _timed_out(self, timer: Event) -> None:
        if not self.settled:
            self.settled = True
            timer.sim._schedule_call(0.0, self._join)

    def _join(self) -> None:
        self._settled(self.reply)


class Fold:
    """A chain's replies counted up to ``target`` (a target of 0 is met at
    once): the :meth:`add` that meets it schedules ``then()``, once, in a
    NORMAL zero-delay record — where the ``AllOf`` or "all acked" event
    triggered.  A ``None`` reply (a timeout) marks the fold ``failed``."""

    __slots__ = ("sim", "left", "then", "failed")

    def __init__(self, sim: Simulator, target: int, then):
        self.sim = sim
        self.left = target
        self.failed = False
        if target > 0:
            self.then = then
        else:
            sim._schedule_call(0.0, then)

    def add(self, reply: Any = True) -> None:
        if reply is None:
            self.failed = True
        self.left = left = self.left - 1
        if left == 0:
            then, self.then = self.then, None
            self.sim._schedule_call(0.0, then)
