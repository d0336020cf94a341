"""Versioned in-memory object index backed by the simulated disk.

A storage node's data set: object name → latest committed version.  The
handoff role (§4.4) keeps its temporarily-stored objects in a *separate
namespace* ("the handoff node stores the newly stored objects in a separate
directory") so recovery can enumerate exactly what the failed node missed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from .timestamps import PutStamp

__all__ = ["StoredObject", "ObjectStore", "object_checksum"]


def object_checksum(name: str, value: object) -> int:
    """Content checksum stored alongside each object (DESIGN.md §5k);
    bit-rot is any stored value that no longer matches it."""
    return zlib.crc32(repr((name, value)).encode("utf-8", "replace")) & 0xFFFFFFFF


@dataclass
class StoredObject:
    """One committed object version."""

    name: str
    value: object
    size_bytes: int
    stamp: Optional[PutStamp]
    #: Computed at construction; never recomputed on mutation, so a
    #: corrupted value is detectable by :meth:`ObjectStore.verify`.
    checksum: int = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.checksum is None:
            self.checksum = object_checksum(self.name, self.value)

    def newer_than(self, other: Optional["StoredObject"]) -> bool:
        if other is None or other.stamp is None:
            return True
        if self.stamp is None:
            return False
        return self.stamp > other.stamp


class ObjectStore:
    """Name → object map with a separate handoff namespace."""

    def __init__(self) -> None:
        self._objects: Dict[str, StoredObject] = {}
        self._handoff: Dict[str, StoredObject] = {}
        self.corruptions = 0

    # -- primary namespace -----------------------------------------------------
    def put(self, obj: StoredObject) -> None:
        """Commit ``obj`` if it is newer than what we hold (idempotent
        against client retries, which reuse the client timestamp)."""
        current = self._objects.get(obj.name)
        if current is None or obj.newer_than(current):
            self._objects[obj.name] = obj

    def get(self, name: str) -> Optional[StoredObject]:
        return self._objects.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def names(self) -> List[str]:
        return list(self._objects)

    def objects(self) -> Iterable[StoredObject]:
        return self._objects.values()

    def total_bytes(self) -> int:
        return sum(o.size_bytes for o in self._objects.values())

    def drop(self, name: str) -> None:
        self._objects.pop(name, None)

    # -- integrity (§5k) -------------------------------------------------------
    @staticmethod
    def verify(obj: StoredObject) -> bool:
        """Whether ``obj``'s bytes still match its stored checksum."""
        return obj.checksum == object_checksum(obj.name, obj.value)

    def corrupt(self, name: str) -> bool:
        """Inject bit-rot: silently damage the stored value without
        touching the checksum (the chaos ``disk_corrupt`` fault)."""
        obj = self._objects.get(name)
        if obj is None:
            return False
        obj.value = ("\x00bitrot", obj.value)
        self.corruptions += 1
        return True

    def repair(self, obj: StoredObject) -> None:
        """Replace a damaged version with a verified replica copy —
        unconditional, unlike :meth:`put` (same stamp, so ``newer_than``
        would refuse)."""
        self._objects[obj.name] = obj

    # -- handoff namespace --------------------------------------------------------
    def put_handoff(self, obj: StoredObject) -> None:
        current = self._handoff.get(obj.name)
        if current is None or obj.newer_than(current):
            self._handoff[obj.name] = obj

    def get_handoff(self, name: str) -> Optional[StoredObject]:
        return self._handoff.get(name)

    def handoff_objects(self) -> List[StoredObject]:
        return list(self._handoff.values())

    def drop_handoff(self, name: str) -> None:
        self._handoff.pop(name, None)

    def handoff_count(self) -> int:
        return len(self._handoff)

    def clear_handoff(self) -> None:
        self._handoff.clear()
