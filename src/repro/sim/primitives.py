"""Shared-state primitives built on the kernel: queues and resources.

These are the building blocks for NICs (FIFO packet queues), links
(capacity-1 resources serializing transmissions), and disks (capacity-1
resources with service-time modeling).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from .events import URGENT, Event, SimulationError
from .kernel import Simulator

__all__ = ["Store", "Resource"]


class _StoreGet(Event):
    """A ``get()``: an Event the item succeeds (for generators)."""

    __slots__ = ("filter",)

    def __init__(self, sim: Simulator, filter: Optional[Callable[[Any], bool]]):
        super().__init__(sim)
        self.filter = filter

    _deliver = Event.succeed


class _GetThen:
    """A ``get_then()``: the item goes to ``then`` in a call record of its
    own, the slot a ``get()`` event's record would take."""

    __slots__ = ("sim", "filter", "then")

    def __init__(self, sim: Simulator, filter, then):
        self.sim = sim
        self.filter = filter
        self.then = then

    def _deliver(self, item: Any) -> None:
        self.sim._schedule_call(0.0, self.then, item)


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks (the network model applies backpressure at links,
    not at host queues); ``get`` returns an event that triggers when an item
    is available (``get_then(then)`` hands it to a callback instead).  An
    optional filter ``get(lambda item: ...)`` supports selective receive
    (used by transport-layer demultiplexing).  A mailbox
    whose consumer never waits between items is served (:meth:`serve`)
    instead of read.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: List = []
        #: :meth:`serve`'s handler, and whether it waits for the next item
        #: (the state in which the loop it replaces sat in ``get()``).
        self._handler: Optional[Callable[[Any], None]] = None
        self._armed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (diagnostics only)."""
        return tuple(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the first matching waiter, if any."""
        if self._armed:
            # Where ``getter.succeed(item)`` went: one NORMAL zero-delay record.
            self._armed = False
            self.sim._schedule_call(0.0, self._dispatch, item)
            return
        for i, getter in enumerate(self._getters):
            if getter.filter is None or getter.filter(item):
                del self._getters[i]
                getter._deliver(item)
                return
        self._items.append(item)

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> Event:
        """Return an event yielding the next (matching) item."""
        return self._wait(_StoreGet(self.sim, filter))

    def get_then(self, then: Callable[[Any], None],
                 filter: Optional[Callable[[Any], bool]] = None) -> _GetThen:
        """``get()`` for a callback chain: ``then(item)`` with the next
        (matching) item, in the record the event ``get()`` returns would
        have fired in.  Returns the getter, to :meth:`cancel`."""
        return self._wait(_GetThen(self.sim, filter, then))

    def _wait(self, getter):
        """Hand ``getter`` the first matching queued item, else queue it."""
        if self._handler is not None:
            raise SimulationError(f"{self.name}: get() on a served store")
        filter = getter.filter
        for i, item in enumerate(self._items):
            if filter is None or filter(item):
                del self._items[i]
                getter._deliver(item)
                return getter
        self._getters.append(getter)
        return getter

    def serve(self, handler: Callable[[Any], None]) -> None:
        """Call ``handler(item)`` for every item, in order, forever.

        Schedules exactly the records of the process it replaces,
        ``while True: handler((yield store.get()))``, in the same slots
        (DESIGN.md §5g): one URGENT zero-delay call now (the process
        start), then one NORMAL zero-delay call per item — made by ``put``
        when the store is armed, else once the previous handler returns,
        where the loop's next ``get()`` ran.  The handler must not wait;
        a consumer that does is a process.
        """
        if self._handler is not None:
            raise SimulationError(f"{self.name}: already served")
        if self._getters:
            raise SimulationError(f"{self.name}: cannot serve a store with getters")
        self._handler = handler
        self.sim._schedule_call(0.0, self._next, priority=URGENT)

    def _next(self) -> None:
        if self._items:
            self.sim._schedule_call(0.0, self._dispatch, self._items.popleft())
        else:
            self._armed = True

    def _dispatch(self, item: Any) -> None:
        self._handler(item)
        self._next()

    def cancel(self, getter) -> None:
        """Withdraw an unfired ``get`` or ``get_then`` (e.g. its waiter's
        timeout fired first)."""
        try:
            self._getters.remove(getter)
        except ValueError:
            pass

    def clear(self) -> int:
        """Drop all queued items; returns how many were dropped."""
        n = len(self._items)
        self._items.clear()
        return n


class Resource:
    """A counted resource with FIFO admission (capacity-1 ⇒ a mutex).

    A request is a callback, not an event: ``request_then(then)`` calls
    ``then()`` in a NORMAL zero-delay record of its own once a slot is
    granted — scheduled now if a slot is free, else by the ``release()``
    that frees one (the slots a grant event's records took)::

        def granted():
            ... hold the resource ...
            resource.release()

        resource.request_then(granted)
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Callable[[], None]] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def request_then(self, then: Callable[[], None]) -> None:
        """Queue for a slot; ``then()`` runs in the record that grants it."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self.sim._schedule_call(0.0, then)
        else:
            self._queue.append(then)

    def release(self) -> None:
        """Free a granted slot: the first queued request takes it over."""
        if self._queue:
            self.sim._schedule_call(0.0, self._queue.popleft())
        elif self._in_use:
            self._in_use -= 1
        else:
            raise SimulationError(f"{self.name}: release() with no slot granted")
