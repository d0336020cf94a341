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

__all__ = ["Store", "Resource", "ResourceRequest"]


class _StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(self, sim: Simulator, filter: Optional[Callable[[Any], bool]]):
        super().__init__(sim)
        self.filter = filter


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks (the network model applies backpressure at links,
    not at host queues); ``get`` returns an event that triggers when an item
    is available.  An optional filter ``get(lambda item: ...)`` supports
    selective receive (used by transport-layer demultiplexing).  A mailbox
    whose consumer never waits between items is served (:meth:`serve`)
    instead of read.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: List[_StoreGet] = []
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
            if getter.triggered:
                continue
            if getter.filter is None or getter.filter(item):
                del self._getters[i]
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> Event:
        """Return an event yielding the next (matching) item."""
        if self._handler is not None:
            raise SimulationError(f"{self.name}: get() on a served store")
        ev = _StoreGet(self.sim, filter)
        for i, item in enumerate(self._items):
            if filter is None or filter(item):
                del self._items[i]
                ev.succeed(item)
                return ev
        self._getters.append(ev)
        return ev

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

    def cancel(self, get_event: Event) -> None:
        """Withdraw an unfired ``get`` (e.g. its waiter's timeout fired first)."""
        try:
            self._getters.remove(get_event)  # type: ignore[arg-type]
        except ValueError:
            pass

    def clear(self) -> int:
        """Drop all queued items; returns how many were dropped."""
        n = len(self._items)
        self._items.clear()
        return n


class ResourceRequest(Event):
    """Pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, sim: Simulator, resource: "Resource"):
        super().__init__(sim)
        self.resource = resource

    def release(self) -> None:
        self.resource.release(self)


class Resource:
    """A counted resource with FIFO admission (capacity-1 ⇒ a mutex).

    Usage from a process::

        req = link.resource.request()
        yield req
        try:
            ... hold the resource ...
        finally:
            req.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._users: List[ResourceRequest] = []
        self._queue: Deque[ResourceRequest] = deque()

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queued(self) -> int:
        return len(self._queue)

    def request(self) -> ResourceRequest:
        req = ResourceRequest(self.sim, self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def release(self, req: ResourceRequest) -> None:
        """Release a granted slot (or cancel a queued request)."""
        try:
            self._users.remove(req)
        except ValueError:
            # Not granted yet: cancel from the waiting queue if present.
            try:
                self._queue.remove(req)
            except ValueError:
                pass
            return
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.append(nxt)
            nxt.succeed()
