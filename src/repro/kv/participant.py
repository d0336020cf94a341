"""The local half of two-phase commit (Fig 3): lock, +L, W, commit, −L.

What a replica does to its own lock table, log and disk during a put is
the same whether the put reached it through the switch's multicast group
(NICE) or over a unicast RPC from a primary (NOOB 2PC).  This is that
shared part — the prepare sequence, commit, abort, the outcomes that can
race a prepare, what a crash clears — and it knows nothing about messages
or who coordinates: callers map their wire protocol onto
``admit → prepare → commit | abort``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Iterator, Mapping, Optional, Set, Tuple

from ..sim import Simulator
from .disk import Disk
from .locks import LockTable
from .store import ObjectStore, StoredObject
from .timestamps import PutStamp
from .wal import LogRecord, WriteAheadLog

__all__ = ["PreparedOp", "TwoPhaseParticipant"]

#: Entries kept in each outcome table (aborts, early and recent commits).
OUTCOME_TABLE_LIMIT = 4096


@dataclass
class PreparedOp(LogRecord):
    """A put between arrival and its 2PC outcome: its log record plus what
    only memory knows."""

    #: "primary" / "secondary" / "handoff"; a handoff commits into the
    #: store's separate handoff namespace (§4.4).
    role: str = "secondary"
    #: Disk sequence of the object data write (W in Fig 3, not forced):
    #: the committed object survives power loss only once a flush covers
    #: this sequence — until then a committed WAL record resurrects it.
    data_seq: int = 0


def _remember(table: Dict, key, value) -> None:
    """Insert into a bounded outcome table, evicting the oldest entry."""
    table[key] = value
    if len(table) > OUTCOME_TABLE_LIMIT:
        table.pop(next(iter(table)))


class TwoPhaseParticipant:
    """One node's prepared-operation state and the sequence that builds it.

    ``is_up`` is asked once per prepare, when the data write lands: a
    participant that died mid-prepare registers nothing (the process dies
    with the node).
    """

    def __init__(self, sim: Simulator, disk: Disk, store: ObjectStore, wal: WriteAheadLog,
                 locks: LockTable, is_up: Callable[[], bool]):
        self.sim = sim
        self.disk = disk
        self.store = store
        self.wal = wal
        self.locks = locks
        self.is_up = is_up
        #: Prepared (locked, logged, written) but unresolved operations.
        self._pending: Dict[Tuple, PreparedOp] = {}
        #: Ops (→ partition) between admission and ``_pending``
        #: registration (CPU/lock/log/disk stages of the prepare).  Rejoin
        #: snapshots drain these so a mid-prepare put is never lost.
        self._preparing: Dict[Tuple, int] = {}
        #: Ops aborted before this replica finished preparing them — the
        #: prepare bails out when it finally gets the lock.
        self._aborted: Dict[Tuple, bool] = {}
        #: Commits that raced our prepare (possible for best-effort joining
        #: replicas, whose ack the coordinator does not wait for).
        self._early_commits: Dict[Tuple, PutStamp] = {}
        self._recently_committed: Dict[Tuple, PutStamp] = {}
        #: Read-only views for everyone else: op id → prepared op, and
        #: op id → stamp of the commits still remembered.
        self.pending: Mapping[Tuple, PreparedOp] = MappingProxyType(self._pending)
        self.committed: Mapping[Tuple, PutStamp] = MappingProxyType(self._recently_committed)

    # -- inspection ---------------------------------------------------------
    def in_flight(self, partition: int) -> Set[Tuple]:
        """Ops of ``partition`` that are mid-prepare or prepared."""
        ops = {op for op, p in self._pending.items() if p.partition == partition}
        return ops | {op for op, p in self._preparing.items() if p == partition}

    def _resolved(self, op_id: Tuple) -> bool:
        return op_id in self._recently_committed or op_id in self._aborted

    def locked_ops(self, partition: int) -> Iterator[dict]:
        """What lock reconciliation needs to know about every operation
        held locked for ``partition``: live prepared ops first, then
        crash-surviving log records (§4.4: "the persistent logs on the
        nodes will identify the latest puts")."""
        live = [op for op in self._pending.values() if op.partition == partition]
        live_ids = {op.op_id for op in live}
        logged = [
            rec for rec in self.wal.replay()
            if rec.partition == partition and rec.op_id not in live_ids
        ]
        for rec in live + logged:
            yield {
                "op_id": rec.op_id,
                "key": rec.key,
                "client_ip": rec.client_addr,
                "client_ts": rec.client_ts,
                "client_port": rec.client_port,
            }

    # -- prepare --------------------------------------------------------------
    def admit(self, op: PreparedOp) -> bool:
        """Take ``op`` in — it counts as in flight from this moment —
        unless it is a duplicate delivery (a retried message for an op
        already prepared or committed here)."""
        if op.op_id in self._pending or op.op_id in self._recently_committed:
            return False
        self._preparing[op.op_id] = op.partition
        return True

    def prepare(self, op: PreparedOp):
        """Lock → forced log append → data write → pending, then apply an
        outcome that raced us here.  Returns how it ended: ``"prepared"``,
        ``"early_commit"``, ``"aborted"``, ``"raced"`` (resolved while
        queued on the lock) or ``"crashed"``."""
        op_id, key = op.op_id, op.key
        try:
            # Lock; contended writers queue FIFO — grant order equals
            # arrival order, which for NICE the switch makes identical on
            # every replica.
            yield self.locks.request(self.sim, key, op_id)
            if self._resolved(op_id):
                self.locks.release(key, op_id)
                return "raced"
            # +L then W (Fig 3): the log append carries the flush; the
            # object write needs ordering but not a second fsync (group
            # commit — the durable log record already covers the op).
            yield self.wal.append(op)
            data_write = self.disk.write(op.size_bytes, forced=False)
            op.data_seq = self.disk.issued_seq
            yield data_write
            if not self.is_up():
                return "crashed"
            self._pending[op_id] = op
        finally:
            self._preparing.pop(op_id, None)
        # The outcome may have raced the prepare (we might be a best-effort
        # joiner whose ack the coordinator didn't wait for).
        early_stamp = self._early_commits.pop(op_id, None)
        if op_id in self._aborted:
            self.abort(op_id)
            return "aborted"
        if early_stamp is not None:
            self.commit(op_id, early_stamp)
            return "early_commit"
        return "prepared"

    # -- outcomes ---------------------------------------------------------------
    def commit(self, op_id: Tuple, stamp: PutStamp) -> Optional[PreparedOp]:
        """Commit a prepared op: store the object under ``stamp``, −L,
        unlock.  Returns the op, or ``None`` (and changes nothing) if
        nothing is prepared under ``op_id``."""
        op = self._pending.pop(op_id, None)
        if op is not None:
            self._store_committed(op, stamp, op.role == "handoff")
            self.locks.release(op.key, op_id)
        return op

    def commit_early(self, op_id: Tuple, stamp: PutStamp) -> None:
        """A commit arrived for an op not prepared yet — possibly racing
        its prepare: stash the stamp so :meth:`prepare` can commit the
        moment it finishes."""
        if not self._resolved(op_id):
            _remember(self._early_commits, op_id, stamp)

    def commit_logged(self, rec: LogRecord, stamp: PutStamp, handoff: bool) -> None:
        """Commit straight from a crash-surviving log record (§4.4
        complete-cluster-failure): no in-memory state is left, the record
        carries the value."""
        self._store_committed(rec, stamp, handoff)
        self.locks.force_release(rec.key)

    def abort(self, op_id: Tuple) -> None:
        """Abort ``op_id`` whatever stage it is in: a prepared op is
        unlogged and unlocked, one still queued bails out when it gets the
        lock, and a crash-surviving log record is dropped (§4.4 abort rule)."""
        self._early_commits.pop(op_id, None)
        _remember(self._aborted, op_id, True)
        op = self._pending.pop(op_id, None)
        self.wal.remove(op_id)
        if op is not None:
            self.locks.release(op.key, op_id)

    def crash(self) -> None:
        """Fail-stop: locks and prepared state are memory-only (§4.3) and
        vanish; the log and the store model the disk and stay."""
        self.locks.clear()
        self._pending.clear()
        self._preparing.clear()
        self._recently_committed.clear()

    def _store_committed(self, rec: LogRecord, stamp: PutStamp, handoff: bool) -> None:
        obj = StoredObject(rec.key, rec.value, rec.size_bytes, stamp)
        if handoff:
            self.store.put_handoff(obj)
        else:
            self.store.put(obj)
        self.wal.mark_committed(rec.op_id, stamp)
        self.wal.remove(rec.op_id)
        _remember(self._recently_committed, rec.op_id, stamp)
