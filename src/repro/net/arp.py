"""Controller-side ARP machinery.

The NICEKV controller implements an L3 learning switch (§5, Mapping
Service): it learns which (IP, MAC) lives behind which switch port, ARPs
for unknown addresses while buffering the triggering packet, and rate-limits
ARP floods by remembering recently-queried addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .addressing import IPv4Address, MacAddress
from .packet import Packet, Proto

__all__ = ["ArpEntry", "ArpTable", "make_arp_request"]


@dataclass(frozen=True)
class ArpEntry:
    """Learned location of a host: its MAC and the switch port it sits on."""

    ip: IPv4Address
    mac: MacAddress
    switch_name: str
    port_no: int


class ArpTable:
    """IP → location map plus pending-query bookkeeping."""

    def __init__(self, reask_interval_s: float = 1.0):
        self._entries: Dict[IPv4Address, ArpEntry] = {}
        #: IPs we recently broadcast a request for, with the ask time —
        #: "keeps a list of recently ARPed addresses to avoid flooding" (§5).
        self._recently_asked: Dict[IPv4Address, float] = {}
        self.reask_interval_s = reask_interval_s
        #: Monotonic mutation counter: anything derived from host locations
        #: (the controller's plan cache and host→switch indexes) keys its
        #: validity on this.
        self.generation = 0

    def learn(self, ip: IPv4Address, mac: MacAddress, switch_name: str, port_no: int) -> ArpEntry:
        entry = ArpEntry(ip, mac, switch_name, port_no)
        self._entries[ip] = entry
        self._recently_asked.pop(ip, None)
        self.generation += 1
        return entry

    def forget(self, ip: IPv4Address) -> None:
        if self._entries.pop(ip, None) is not None:
            self.generation += 1

    def lookup(self, ip: IPv4Address) -> Optional[ArpEntry]:
        return self._entries.get(ip)

    def should_ask(self, ip: IPv4Address, now: float) -> bool:
        """True if we may broadcast another request for ``ip`` now."""
        last = self._recently_asked.get(ip)
        if last is not None and now - last < self.reask_interval_s:
            return False
        self._recently_asked[ip] = now
        return True


def make_arp_request(requester_ip: IPv4Address, requester_mac: MacAddress, target_ip: IPv4Address) -> Packet:
    """Build a broadcast ARP who-has packet."""
    return Packet(
        src_ip=requester_ip,
        dst_ip=target_ip,
        proto=Proto.ARP,
        payload={"op": "request", "target_ip": target_ip},
        payload_bytes=28,
        src_mac=requester_mac,
        dst_mac=MacAddress.BROADCAST,
    )
