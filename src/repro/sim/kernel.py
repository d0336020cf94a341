"""Discrete-event simulation kernel.

This module provides the event loop (:class:`Simulator`); the events it
schedules (:class:`Event`, :class:`Timeout`, :class:`AnyOf`,
:class:`AllOf`) live in :mod:`.events`.  The design follows the classic
calendar-queue / coroutine-process structure (cf. SimPy), re-implemented
here because the reproduction must be fully self-contained.

Determinism is a hard requirement: two runs with the same seed must produce
bit-identical results.  The event heap therefore breaks ties on
``(time, priority, event_id)`` where ``event_id`` is a monotonically
increasing counter — never on object identity.

Data layout (DESIGN.md §5g): every scheduled event is one *pooled event
record* — a mutable 5-slot list ``[when, priority, eid, target, args]``
recycled through a per-simulator free list, so the steady-state timer path
allocates nothing.  An *event record* (``args is None``) runs the event's
callbacks; a *call record* is a deferred call, ``target(*args)``.  Records
compare element-wise exactly like the tuples they replaced (``eid`` is
unique, so comparison never reaches the target slot).  A record with a
delay waits in an array-backed binary heap; a
zero-delay record (over half of all events) waits in a FIFO per priority
and never touches the heap.  Cancelling a timer tombstones its record in
O(1) (``target = None``); tombstones are skipped and recycled if they
surface, and compacted away as soon as they outnumber the live records —
the protocols arm a timeout at every step that the common case beats, and
waiting 0.5–2 simulated seconds for each to surface left the heap 99 %
dead.  Neither mechanism can reorder anything: the pop order is a function
of the unique ``(time, priority, eid)`` keys of the live records alone.
"""

from __future__ import annotations

import heapq
from collections import deque
from math import inf
from typing import Any, Callable, Iterable, List, Optional

from .events import NORMAL, URGENT, AllOf, Event, SimulationError, Timeout
from .process import Process

__all__ = ["Simulator", "StopSimulation"]


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Simulator.run` early."""


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.process(my_protocol(sim))
        sim.run(until=120.0)
    """

    #: Maximum number of recycled heap records kept in the free list; above
    #: this the records are simply dropped (steady state never gets here
    #: unless a burst scheduled far more concurrent timers than usual).
    ENTRY_POOL_CAP = 8192
    #: Tombstones are compacted away as soon as they outnumber the live
    #: records *and* this floor (below it a sweep costs more than it saves):
    #: no cancel leaves more than ``2 * live + COMPACT_FLOOR`` records queued.
    COMPACT_FLOOR = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list = []
        #: Zero-delay records, FIFO per priority (= ``eid`` order at one
        #: timestamp); any other priority goes through the heap.
        self._urgent: deque = deque()
        self._normal: deque = deque()
        self._eid = 0
        self._running = False
        #: Free list of recycled 5-slot records (event and call alike).
        self._entry_pool: List[list] = []
        #: Number of tombstoned (cancelled) records still queued, in the
        #: heap or in a ready queue.
        self._cancelled = 0
        self._compactions = 0
        # Pool-reuse statistics (see :meth:`pool_stats`).  Hits are derived
        # (records - misses) to keep the hit branch increment-free.
        self._entry_misses = 0
        self._calls = 0
        self._call_misses = 0
        #: Processes started through :meth:`process` (a deterministic count).
        self._spawned = 0
        #: Never triggered: what :meth:`run` and :meth:`step` wait for.
        self._never = Event(self)
        #: Optional :class:`repro.obs.Tracer`.  ``None`` means tracing is
        #: off and every hook site reduces to an attribute load + branch
        #: (the null-tracer pattern; install via ``repro.obs.install``).
        self.tracer = None

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling (internal) ----------------------------------------------
    # The event and call builders below are the same record code told twice:
    # a shared helper costs one Python frame per scheduled record, which
    # measured slower end to end (DESIGN.md §5g).  A record in the free list
    # always has ``target`` and ``args`` cleared to None.
    def _schedule_event(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self._eid = eid = self._eid + 1
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = self._now + delay
            entry[1] = priority
            entry[2] = eid
            entry[3] = event
        else:
            # Misses are the rare branch; hits are derived as eid - misses
            # (every schedule consumes exactly one record and one eid).
            self._entry_misses += 1
            entry = [self._now + delay, priority, eid, event, None]
        event._entry = entry
        if delay == 0.0 and priority == NORMAL:
            self._normal.append(entry)
        elif delay == 0.0 and priority == URGENT:
            self._urgent.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def _schedule_call(
        self, delay: float, func: Callable, *args: Any, priority: int = NORMAL,
        after: Optional[float] = None,
    ) -> None:
        # ``after``: the absolute time ``delay`` counts from instead of now,
        # so ``after + delay`` is the float sum two steps would have made.
        self._calls += 1
        self._eid = eid = self._eid + 1
        now = self._now
        when = (now if after is None else after) + delay
        pool = self._entry_pool
        if pool:
            entry = pool.pop()
            entry[0] = when
            entry[1] = priority
            entry[2] = eid
            entry[3] = func
            entry[4] = args
        else:
            self._entry_misses += 1
            self._call_misses += 1
            entry = [when, priority, eid, func, args]
        if when == now and priority == NORMAL:
            self._normal.append(entry)
        elif when == now and priority == URGENT:
            self._urgent.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def cancel_timer(self, event: Event) -> bool:
        """Tombstone ``event``'s record in O(1) amortised; True if cancelled.

        Only meaningful for events that are scheduled but not yet processed
        (i.e. Timeouts, or triggered events awaiting their pop).  The record
        is skipped and recycled if it surfaces, but most never do: once
        tombstones outnumber the live records they are compacted away.  A
        cancelled timer that later gains a new waiter (``add_callback``) is
        transparently revived at its original fire time.
        """
        entry = event._entry
        if type(entry) is list and entry[3] is event:
            entry[3] = None
            event._entry = entry[0]  # remember the fire time for revival
            self._cancelled = dead = self._cancelled + 1
            if dead > self.COMPACT_FLOOR and dead > self.pending_events:
                self._compact()
            return True
        return False

    def _compact(self) -> None:
        """Drop every tombstone, *in place*: a running loop holds the heap
        and the ready queues in locals.  Each sweep removes more records
        than it keeps, so the cost is O(1) amortised per cancel; pop order
        is a function of the surviving keys alone, so it cannot move."""
        pool = self._entry_pool
        for queue in (self._heap, self._urgent, self._normal):
            live = [entry for entry in queue if entry[3] is not None]
            if len(live) < len(queue):
                room = self.ENTRY_POOL_CAP - len(pool)
                pool.extend([entry for entry in queue if entry[3] is None][:room])
                queue.clear()
                queue.extend(live)
        heapq.heapify(self._heap)
        self._cancelled = 0
        self._compactions += 1

    # -- public API ----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        # Inline construction: skips the Timeout/Event __init__ frames on
        # the single hottest allocation site in the kernel.
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        t = Timeout.__new__(Timeout)
        t.sim = self
        t._callbacks = None
        t._value = value
        t._ok = True
        t._processed = False
        t._defused = False
        t._entry = None
        t.delay = delay
        self._schedule_event(t, NORMAL, delay=delay)
        return t

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, generator) -> Process:
        """Start a new process running ``generator`` (see :mod:`.process`)."""
        proc = Process(self, generator)
        self._spawned += 1
        tr = self.tracer
        if tr is not None:
            tr.instant("spawn", "proc", node=proc.name)
        return proc

    def wait(self, fn: Callable, *args: Any, **kwargs: Any) -> Event:
        """``fn(*args, then=…, **kwargs)`` as an Event for a generator to
        yield: ``then``'s value, its waiters run in ``then``'s record."""
        done = Event(self)
        fn(*args, then=done._fire, **kwargs)
        return done

    def call_at(self, when: float, func: Callable, *args: Any) -> None:
        """Invoke ``func(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise SimulationError(f"call_at({when}) is in the past (now={self._now})")
        self._schedule_call(when - self._now, func, *args)

    def call_in(self, delay: float, func: Callable, *args: Any) -> None:
        """Invoke ``func(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._schedule_call(delay, func, *args)

    def _run(self, until: Optional[float], event: Event, once: bool = False) -> bool:
        """The one pop loop: process records in ``(time, priority, eid)``
        order until ``event`` is processed, the next record lies beyond
        ``until`` (the clock then stops at ``until``), one live record ran
        (``once``), a callback raised :class:`StopSimulation`, or nothing
        is left — the only case that returns True.

        The next record is the smaller of the ready head and the heap top:
        ready records carry ``time == now`` (the clock only moves when both
        queues are empty) and each queue is in ``eid`` order, so this is
        the order a single heap holding all of them would produce.
        """
        if self._running:
            raise SimulationError("run(), run_until() and step() are not reentrant")
        if until is None:
            until = inf
        elif until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        heap = self._heap
        urgent, normal = self._urgent, self._normal
        heappop = heapq.heappop
        pool = self._entry_pool
        cap = self.ENTRY_POOL_CAP
        self._running = True
        try:
            while not event._processed:
                queue = urgent or normal
                if queue:
                    entry = queue[0]
                    if heap and heap[0] < entry:
                        entry = heappop(heap)
                    else:
                        queue.popleft()
                elif heap:
                    entry = heap[0]
                    if entry[0] > until:
                        self._now = until
                        break
                    heappop(heap)
                else:
                    return True
                target = entry[3]
                if len(pool) < cap:
                    pool.append(entry)
                if target is None:  # tombstone: cancelled, just recycle
                    self._cancelled -= 1
                    continue
                self._now = entry[0]
                args = entry[4]
                entry[3] = entry[4] = None
                try:
                    if args is not None:
                        target(*args)
                    else:
                        # An event: run its callbacks once, in order; a
                        # failure nobody waited for or defused aborts the run.
                        target._entry = None
                        callbacks = target._callbacks
                        target._callbacks = None
                        target._processed = True
                        if callbacks:
                            for callback in callbacks:
                                callback(target)
                        elif target._ok is False and not target._defused:
                            raise target._value
                except StopSimulation:
                    break
                if once:
                    break
        finally:
            self._running = False
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Run until nothing is left or simulated time reaches ``until``.

        Returns the simulated time at which the run stopped.  ``until``
        may equal ``now`` (drain the current instant) but not precede it.
        """
        if self._run(until, self._never) and until is not None:
            self._now = until
        return self._now

    def run_until(self, event: Event, until: Optional[float] = None) -> float:
        """Run until ``event`` has been processed; return the stop time.

        Stops *exactly* when ``event``'s callbacks have run — no spinning
        through fixed-size ``run(until=...)`` chunks and no draining of
        unrelated same-time events afterwards.  Also stops if nothing is
        left or simulated time would pass ``until`` (whichever comes
        first); callers distinguish the cases via ``event.processed`` and
        ``pending_events``.
        """
        if event.sim is not self:
            raise SimulationError("run_until() got an event from another simulator")
        self._run(until, event)
        return self._now

    def step(self) -> bool:
        """Process exactly one live event; returns False if none remain.

        Tombstoned (cancelled) records encountered on the way are skipped
        and recycled without counting as the step.
        """
        return not self._run(None, self._never, once=True)

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events currently scheduled."""
        return len(self._heap) + len(self._urgent) + len(self._normal) - self._cancelled

    def pool_stats(self) -> dict:
        """Reuse statistics of the one record free list — over every record
        (``entry_pool``: hits + misses = records scheduled) and over the
        call records alone (``call_pool``: hits + misses = calls scheduled)
        — the event heap's occupancy (computed here, nothing per event) and
        the processes spawned so far."""
        e_hits = self._eid - self._entry_misses
        c_hits = self._calls - self._call_misses
        return {
            "entry_pool": {
                "hits": e_hits,
                "misses": self._entry_misses,
                "reuse_rate": e_hits / self._eid if self._eid else 0.0,
                "free": len(self._entry_pool),
            },
            "call_pool": {
                "hits": c_hits,
                "misses": self._call_misses,
                "reuse_rate": c_hits / self._calls if self._calls else 0.0,
            },
            "heap": {
                "size": len(self._heap),
                "ready": len(self._urgent) + len(self._normal),
                "live": self.pending_events,
                "dead": self._cancelled,
                "compactions": self._compactions,
            },
            "processes": {"spawned": self._spawned},
        }
