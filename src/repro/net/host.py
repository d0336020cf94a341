"""End hosts.

A host owns one access port, an IP/MAC identity, a liveness flag (failure
injection black-holes all traffic at the NIC, modeling a crashed or
disconnected machine per the §4.4 transient-failure model), and a protocol
stack installed by :mod:`repro.transport`.

Hosts answer ARP requests for their own IP so the controller's L3 learning
switch can discover them (§5, Mapping Service).
"""

from __future__ import annotations

from typing import Optional

from ..sim import Counter, Simulator
from .addressing import IPv4Address, MacAddress
from .link import Port
from .packet import Packet, Proto
from .topology import Device

__all__ = ["Host"]


class Host(Device):
    """A simulated machine with a single NIC."""

    def __init__(self, sim: Simulator, name: str, ip: IPv4Address, mac: MacAddress):
        super().__init__(sim, name)
        self.ip = IPv4Address(ip)
        self.mac = MacAddress(mac)
        self.up = True
        self.stack = None  # repro.transport.ProtocolStack, installed later
        self.tx_bytes = Counter(f"{name}.tx_bytes")
        self.rx_bytes = Counter(f"{name}.rx_bytes")

    @property
    def port(self) -> Port:
        """The host's single access port (created on first use)."""
        if not self.ports:
            self.new_port()
        return self.ports[1]

    # -- failure injection -----------------------------------------------------
    def fail(self) -> None:
        """Crash/disconnect: NIC black-holes all traffic from now on."""
        self.up = False

    def recover(self) -> None:
        """Power back on (application state handled by the storage layer)."""
        self.up = True

    # -- data path ---------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Stamp L2/L3 source fields and transmit; silently dropped if down."""
        if not self.up:
            return
        if packet.src_mac is None:
            packet.src_mac = self.mac
        self.tx_bytes.value += packet._wire_size
        self.port.send(packet)

    def receive(self, packet: Packet, in_port_no: int) -> None:
        if not self.up:
            return
        self.rx_bytes.value += packet._wire_size
        if packet.proto is Proto.ARP:
            self._handle_arp(packet)
            return
        if self.stack is not None:
            self.stack.deliver(packet)

    # -- ARP ----------------------------------------------------------------------
    def _handle_arp(self, packet: Packet) -> None:
        body = packet.payload or {}
        if body.get("op") == "request" and body.get("target_ip") == self.ip:
            reply = Packet(
                src_ip=self.ip,
                dst_ip=packet.src_ip,
                proto=Proto.ARP,
                payload={"op": "reply", "sender_ip": self.ip, "sender_mac": self.mac},
                payload_bytes=28,
                dst_mac=packet.src_mac,
            )
            self.send(reply)
        elif body.get("op") == "reply" and self.stack is not None:
            self.stack.deliver(packet)
