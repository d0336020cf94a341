"""The per-host protocol stack and UDP sockets.

NICEKV sends client requests over UDP (so the switch can rewrite the vnode
destination freely and multicast puts — §5, Request Routing) and uses TCP
for everything else.  The stack demultiplexes inbound packets to UDP
bindings, TCP connections (:mod:`.tcp`) and the reliable-multicast engine
(:mod:`.reliable_multicast`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..net import Host, IPv4Address, Packet, Proto
from ..sim import Simulator, Store

__all__ = ["ProtocolStack", "Datagram", "EPHEMERAL_BASE"]

#: First ephemeral port number handed out by a stack.
EPHEMERAL_BASE = 32768


class Datagram:
    """An application-visible UDP message."""

    __slots__ = ("src_ip", "sport", "dst_ip", "dport", "payload", "payload_bytes", "virtual_dst")

    def __init__(
        self,
        src_ip: IPv4Address,
        sport: int,
        dst_ip: IPv4Address,
        dport: int,
        payload: Any,
        payload_bytes: int,
        virtual_dst: Optional[IPv4Address],
    ):
        self.src_ip = src_ip
        self.sport = sport
        self.dst_ip = dst_ip
        self.dport = dport
        self.payload = payload
        self.payload_bytes = payload_bytes
        #: The vnode address the sender targeted, when the switch rewrote
        #: the destination (None for plain physical-address traffic).
        self.virtual_dst = virtual_dst


class ProtocolStack:
    """Installed on a :class:`~repro.net.Host`; owns its sockets."""

    def __init__(self, sim: Simulator, host: Host):
        self.sim = sim
        self.host = host
        host.stack = self
        self._udp_bindings: Dict[int, Store] = {}
        self._next_ephemeral = EPHEMERAL_BASE
        # Installed lazily to avoid import cycles.
        from .tcp import TcpLayer

        self.tcp = TcpLayer(self)

    @property
    def ip(self) -> IPv4Address:
        return self.host.ip

    def ephemeral_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # -- UDP ---------------------------------------------------------------
    def udp_bind(self, port: int) -> Store:
        """Bind ``port``; returns the Store that receives Datagrams."""
        if port in self._udp_bindings:
            raise ValueError(f"{self.host.name}: UDP port {port} already bound")
        store = Store(self.sim, name=f"{self.host.name}:udp:{port}")
        self._udp_bindings[port] = store
        return store

    def udp_unbind(self, port: int) -> None:
        self._udp_bindings.pop(port, None)

    def udp_send(
        self,
        dst_ip: IPv4Address,
        dport: int,
        payload: Any,
        payload_bytes: int,
        sport: int = 0,
    ) -> None:
        """Fire-and-forget datagram (may be rewritten/multicast in-network)."""
        self.host.send(
            Packet(
                src_ip=self.ip,
                dst_ip=IPv4Address(dst_ip),
                proto=Proto.UDP,
                sport=sport,
                dport=dport,
                payload=payload,
                payload_bytes=payload_bytes,
            )
        )

    # -- inbound demux --------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        if packet.proto == Proto.UDP:
            binding = self._udp_bindings.get(packet.dport)
            if binding is not None:
                binding.put(
                    Datagram(
                        src_ip=packet.src_ip,
                        sport=packet.sport,
                        dst_ip=packet.dst_ip,
                        dport=packet.dport,
                        payload=packet.payload,
                        payload_bytes=packet.payload_bytes,
                        virtual_dst=packet.virtual_dst,
                    )
                )
            # Unbound ports drop silently, as real UDP does (minus the ICMP).
        elif packet.proto == Proto.TCP:
            self.tcp.deliver(packet)
        # ARP replies reach the controller path, not host stacks.
