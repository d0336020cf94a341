"""Write-ahead operation log.

Fig 3's ``+L``/``−L`` markers: a replica *forces* a log record before
writing the object (gray box = durable), and deletes the record once the
operation commits.  After a complete cluster failure "the persistent logs
on the nodes will identify the latest put operations" (§4.4) — hence
:meth:`replay`.

Crash consistency (DESIGN.md §5k): alongside the in-memory record map the
log keeps a *journal* — the fields of the frame each append wrote to
disk, tagged with the disk write's sequence number; the byte-exact frames
are encoded only when a power loss reads them.  A frame is an 8-byte
header (big-endian body length + CRC32 of the body) followed by the
pickled record fields.  On power loss (:meth:`power_loss`) the journal is
replayed against the disk's durability barrier to reconstruct exactly
what the platter holds:

* appends at or below the barrier survive; the oldest one above it is
  *torn* — its frame is cut at a deterministic mid-frame offset and the
  CRC check truncates it away (never a phantom or corrupt record);
* ``remove`` (−L) is not forced: the deletion is a cache-resident
  metadata update, durable only once a flush cycle that *started after*
  the removal completes — a crash before that resurrects the record
  from the durable image;
* ``mark_committed`` updates the journal frame *in place*: we model the
  commit decision as an in-place update to the already-durable
  value-carrying record, so a record whose append was flushed carries
  its commit bit across power loss (the optimistic durable commit bit —
  see §5k for why Fig 3's white −L/commit boxes force this choice).

:func:`encode_record` / :func:`decode_log` are pure functions shared by
the in-simulator crash path and the torn-tail property tests.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .disk import Disk
from .timestamps import PutStamp

__all__ = [
    "LogRecord",
    "WriteAheadLog",
    "encode_record",
    "decode_log",
]

#: Serialized size of one log record on disk (op id, key, stamp, lengths).
RECORD_BYTES = 256

#: Frame header: body length, CRC32 of the body.
_HEADER = struct.Struct(">II")


@dataclass
class LogRecord:
    """One in-flight put operation.

    The record carries the object payload (real logs write the data or a
    pointer to the staged object): after a complete cluster failure the
    reconciliation can commit straight from the log (§4.4).
    """

    op_id: Tuple
    key: str
    size_bytes: int
    client_addr: str
    client_ts: float
    value: object = None
    client_port: int = 0
    partition: int = -1
    committed: bool = False
    stamp: Optional[PutStamp] = None


def _fields(record: LogRecord) -> tuple:
    """What a frame of ``record`` holds, as of now."""
    stamp = record.stamp
    return (
        record.op_id,
        record.key,
        record.size_bytes,
        record.client_addr,
        record.client_ts,
        record.value,
        record.client_port,
        record.partition,
        record.committed,
        None
        if stamp is None
        else (stamp.primary_addr, stamp.primary_ts, stamp.client_addr, stamp.client_ts),
    )


def _frame(fields: tuple) -> bytes:
    body = pickle.dumps(fields, protocol=4)
    return _HEADER.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


def encode_record(record: LogRecord) -> bytes:
    """One checksummed on-disk frame for ``record``."""
    return _frame(_fields(record))


def decode_log(image: bytes) -> Tuple[List[LogRecord], bool]:
    """Parse a log image into ``(records, torn)``.

    Frames decode in order until the image is exhausted or a frame fails
    validation (short header, short body, or CRC mismatch) — everything
    from the first bad frame on is the torn tail and is truncated.  A
    record is only ever emitted from a complete, checksum-verified frame,
    so truncation at any byte offset cannot fabricate or corrupt one.
    """
    records: List[LogRecord] = []
    offset, size = 0, len(image)
    while offset < size:
        if offset + _HEADER.size > size:
            return records, True
        length, crc = _HEADER.unpack_from(image, offset)
        body = image[offset + _HEADER.size : offset + _HEADER.size + length]
        if len(body) < length or (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            return records, True
        fields = pickle.loads(body)
        stamp = fields[9]
        records.append(
            LogRecord(
                *fields[:9],
                stamp=None if stamp is None else PutStamp(*stamp),
            )
        )
        offset += _HEADER.size + length
    return records, False


class _JournalEntry:
    """Bookkeeping for one append: its disk write sequence, the fields of
    the frame it wrote (encoded only when a power loss reads the image),
    and (once −L ran) the disk's flush-cycle count at removal."""

    __slots__ = ("seq", "fields", "removed_cycle")

    def __init__(self, seq: int, fields: tuple):
        self.seq = seq
        self.fields = fields
        self.removed_cycle: Optional[int] = None


class WriteAheadLog:
    """Per-node durable operation log (backed by the node's disk)."""

    def __init__(self, disk: Disk):
        self.disk = disk
        self._records: Dict[Tuple, LogRecord] = {}
        #: op id → journal entry, in append order (insertion-ordered).
        self._journal: Dict[Tuple, _JournalEntry] = {}
        self.appended = 0
        self.removed = 0
        self.torn_records = 0
        self.lost_records = 0
        self.resurrected_records = 0

    def append(self, record: LogRecord, then=None) -> None:
        """Durably append (+L, forced write), then ``then()`` once the
        record is durable (``None``: nobody waits)."""
        self._records[record.op_id] = record
        self.appended += 1
        self.disk.write(RECORD_BYTES, forced=True, then=then)
        self._journal[record.op_id] = _JournalEntry(self.disk.issued_seq, _fields(record))

    def mark_committed(self, op_id: Tuple, stamp: PutStamp) -> None:
        """Record the commit stamp (in-place update before removal)."""
        rec = self._records.get(op_id)
        if rec is not None:
            rec.committed = True
            rec.stamp = stamp
            entry = self._journal.get(op_id)
            if entry is not None:
                entry.fields = _fields(rec)

    def remove(self, op_id: Tuple) -> None:
        """Delete the record (−L): cheap, not forced (Fig 3 shows −L white)."""
        if self._records.pop(op_id, None) is not None:
            self.removed += 1
        entry = self._journal.get(op_id)
        if entry is not None and entry.removed_cycle is None:
            # The deletion is cache-resident: it reaches the platter with
            # the first flush cycle that starts after this moment; until
            # such a cycle completes, a power loss resurrects the record.
            entry.removed_cycle = self.disk.flush_cycles_started
            self._gc()

    def _removal_durable(self, entry: _JournalEntry) -> bool:
        # Cycles complete in start order, so once more cycles have
        # completed than had started at removal time, at least one of
        # them began after the removal and carried the deletion down.
        return (
            entry.removed_cycle is not None
            and self.disk.flush_cycles_done > entry.removed_cycle
        )

    def _gc(self) -> None:
        """Drop journal entries whose removal is durable."""
        dead = [
            op_id
            for op_id, e in self._journal.items()
            if self._removal_durable(e)
        ]
        for op_id in dead:
            del self._journal[op_id]

    def unflushed_appends(self) -> int:
        """Live appends above the disk's durability barrier — the records
        a power loss right now would tear or lose."""
        barrier = self.disk.durable_seq
        return sum(
            1
            for e in self._journal.values()
            if e.removed_cycle is None and e.seq > barrier
        )

    def get(self, op_id: Tuple) -> Optional[LogRecord]:
        return self._records.get(op_id)

    def __len__(self) -> int:
        return len(self._records)

    def pending(self) -> List[LogRecord]:
        """Uncommitted records (crash-recovery reconciliation input)."""
        return [r for r in self._records.values() if not r.committed]

    def replay(self) -> List[LogRecord]:
        """All surviving records, oldest first — §4.4's complete-cluster-
        failure path feeds these to the new primary's lock rules."""
        return list(self._records.values())

    # -- power loss ----------------------------------------------------
    def power_loss(self) -> bool:
        """Rebuild the log to exactly what the platter holds.

        Call *after* ``disk.crash()``.  Assembles the durable log image
        — surviving appends minus durable removals, with the oldest
        unflushed append cut mid-frame — and decodes it through the same
        :func:`decode_log` the property tests exercise.  Returns whether
        a torn tail was detected (and truncated)."""
        barrier = self.disk.durable_seq
        image = bytearray()
        lost = 0
        torn_entry: Optional[_JournalEntry] = None
        for entry in self._journal.values():
            if entry.seq <= barrier:
                if self._removal_durable(entry):
                    continue  # durably removed
                image += _frame(entry.fields)
            elif torn_entry is None:
                torn_entry = entry  # oldest unflushed append: torn tail
            else:
                lost += 1  # later unflushed appends: wholly gone
        if torn_entry is not None:
            # Cut at a deterministic mid-frame offset derived from the
            # write sequence (Fibonacci hashing keeps it well spread).
            frame = _frame(torn_entry.fields)
            cut = 1 + (torn_entry.seq * 2654435761) % (len(frame) - 1)
            image += frame[:cut]
        records, torn = decode_log(bytes(image))
        resurrected = sum(1 for r in records if r.op_id not in self._records)
        self._records = {r.op_id: r for r in records}
        journal: Dict[Tuple, _JournalEntry] = {}
        for rec in records:
            old = self._journal[rec.op_id]
            journal[rec.op_id] = _JournalEntry(old.seq, _fields(rec))
        self._journal = journal
        self.torn_records += int(torn)
        self.lost_records += lost
        self.resurrected_records += resurrected
        return torn
