"""The packet model.

Packets carry real header fields (the switch matches and rewrites them, as
OpenFlow does) plus an opaque ``payload`` object for protocol messages.

Two granularities share this one class (see DESIGN.md §5):

* *control packets* — requests, acks, heartbeats: ``payload_bytes`` small,
  one simulator event per hop.
* *flow bursts* — bulk data: one Packet represents the whole chunked
  transfer; ``payload_bytes`` is the object size and the wire size accounts
  for one header per MTU-sized chunk, so link-load byte counters match what
  the real chunked transfer would generate.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional

from .addressing import IPv4Address, MacAddress

__all__ = ["Packet", "Proto", "MTU_BYTES", "HEADER_BYTES", "wire_size"]

#: Chunk payload ceiling used by the NICEKV reliable multicast transport
#: (§5: "each less than a single network MTU (1400 bytes)").
MTU_BYTES = 1400

#: Ethernet + IPv4 + UDP/TCP header overhead per chunk (14+20+20 rounded up
#: with preamble/FCS).
HEADER_BYTES = 66


def wire_size(payload_bytes: int) -> int:
    """Total bytes on the wire for ``payload_bytes`` of application data,
    accounting for per-MTU-chunk headers.  Zero-byte messages still cost one
    header (e.g. pure acks)."""
    if payload_bytes < 0:
        raise ValueError(f"negative payload size: {payload_bytes}")
    chunks = max(1, -(-payload_bytes // MTU_BYTES))
    return payload_bytes + chunks * HEADER_BYTES


class Proto(Enum):
    """L3/L4 protocol discriminator for flow-table matching."""

    UDP = "udp"
    TCP = "tcp"
    ARP = "arp"

    #: Members are singletons, so identity hashing is correct, and it runs
    #: in C on every flow-memo key.  ``Enum``'s own hash hashes the member
    #: name — a ``str``, so it was already salted per process.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover
        return f"Proto.{self.name}"


class Packet:
    """A simulated packet / flow burst."""

    __slots__ = (
        "src_ip", "dst_ip", "proto", "sport", "dport", "payload", "payload_bytes",
        "src_mac", "dst_mac", "virtual_dst", "_wire_size",
    )

    def __init__(
        self,
        src_ip: IPv4Address,
        dst_ip: IPv4Address,
        proto: Proto,
        sport: int = 0,
        dport: int = 0,
        payload: Any = None,
        payload_bytes: int = 0,
        src_mac: Optional[MacAddress] = None,
        dst_mac: Optional[MacAddress] = None,
        virtual_dst: Optional[IPv4Address] = None,
    ):
        # payload_bytes is immutable after construction, so the wire size
        # (re-read on every link transmit and rule touch) is computed once;
        # wire_size rejects a negative payload.
        self._wire_size = wire_size(payload_bytes)
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.proto = proto
        self.sport = sport
        self.dport = dport
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        #: Original (virtual) destination before any switch rewrite; set by
        #: the first SetIpDst action so replies can echo the vnode a client
        #: targeted.
        self.virtual_dst = virtual_dst

    @property
    def size_bytes(self) -> int:
        """Bytes this packet occupies on a wire (chunk headers included)."""
        return self._wire_size

    def copy(self) -> "Packet":
        """Independent copy for multicast fan-out: every slot copied; the
        payload is shared."""
        new = object.__new__(Packet)
        new.src_ip = self.src_ip
        new.dst_ip = self.dst_ip
        new.proto = self.proto
        new.sport = self.sport
        new.dport = self.dport
        new.payload = self.payload
        new.payload_bytes = self.payload_bytes
        new.src_mac = self.src_mac
        new.dst_mac = self.dst_mac
        new.virtual_dst = self.virtual_dst
        new._wire_size = self._wire_size
        return new

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet {self.proto.name} {self.src_ip}:{self.sport} -> "
            f"{self.dst_ip}:{self.dport} {self.payload_bytes}B>"
        )
