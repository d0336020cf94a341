"""KV storage engine substrate: consistent hashing, object store, disk,
write-ahead log, locks, put timestamps and the local 2PC participant."""

from .disk import Disk
from .hashring import RING_BITS, RING_SIZE, ConsistentHashRing, key_hash
from .locks import LockTable
from .participant import PreparedOp, TwoPhaseParticipant
from .store import ObjectStore, StoredObject, object_checksum
from .timestamps import PutStamp
from .wal import LogRecord, WriteAheadLog, decode_log, encode_record

__all__ = [
    "ConsistentHashRing",
    "Disk",
    "LockTable",
    "LogRecord",
    "ObjectStore",
    "PreparedOp",
    "PutStamp",
    "RING_BITS",
    "RING_SIZE",
    "StoredObject",
    "TwoPhaseParticipant",
    "WriteAheadLog",
    "decode_log",
    "encode_record",
    "key_hash",
    "object_checksum",
]
