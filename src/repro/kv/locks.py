"""Per-object in-memory locks (§4.3: "Object locks are maintained in
memory only").

A replica locks the object between receiving the put data and receiving
the commit timestamp.  After a primary failure, the new primary enumerates
locked objects across the replica set to decide commit-vs-abort (§4.4),
so the table exposes exactly that enumeration.

Contended acquisitions queue FIFO (:meth:`LockTable.request_then`).  Grant
order therefore follows arrival order — which, for NICE, the switch makes
*identical on every replica* (one multicast serialization point), so
concurrent puts to one object cannot deadlock across the replica set.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["LockTable"]


class LockTable:
    """Non-reentrant per-key locks, owner-tracked, memory-only."""

    def __init__(self) -> None:
        self._owners: Dict[str, Tuple] = {}
        self._queues: Dict[str, Deque] = {}

    def acquire(self, key: str, op_id: Tuple) -> bool:
        """Take the lock for ``op_id``; False if another op holds it.

        Re-acquiring under the same op (a retried multicast) succeeds.
        """
        owner = self._owners.get(key)
        if owner is None or owner == op_id:
            self._owners[key] = op_id
            return True
        return False

    def request_then(self, sim, key: str, op_id: Tuple, then: Callable[[], None]) -> None:
        """FIFO blocking acquisition: ``then()`` runs in a NORMAL
        zero-delay record once ``op_id`` holds the lock — now if it is
        free (or already held by ``op_id``), else in the release that
        hands it over; the slot a lock-grant event's record took."""
        if self.acquire(key, op_id):
            sim._schedule_call(0.0, then)
        else:
            self._queues.setdefault(key, deque()).append((op_id, sim, then))

    def release(self, key: str, op_id: Tuple) -> bool:
        """Release if held by ``op_id``; False otherwise.  Grants the next
        FIFO waiter, if any."""
        if self._owners.get(key) == op_id:
            del self._owners[key]
            self._grant_next(key)
            return True
        return False

    def _grant_next(self, key: str) -> None:
        queue = self._queues.get(key)
        if queue:
            next_op, sim, then = queue.popleft()
            self._owners[key] = next_op
            sim._schedule_call(0.0, then)
            if not queue:
                del self._queues[key]

    def force_release(self, key: str) -> None:
        """Administrative unlock (failover reconciliation)."""
        if key in self._owners:
            del self._owners[key]
            self._grant_next(key)

    def holder(self, key: str) -> Optional[Tuple]:
        return self._owners.get(key)

    def is_locked(self, key: str) -> bool:
        return key in self._owners

    def locked_keys(self) -> List[str]:
        return list(self._owners)

    def clear(self) -> None:
        """Node crash: in-memory locks vanish (§4.4 complete-failure case)."""
        self._owners.clear()
        self._queues.clear()

    def queued(self, key: str) -> int:
        return len(self._queues.get(key, ()))

    def __len__(self) -> int:
        return len(self._owners)
