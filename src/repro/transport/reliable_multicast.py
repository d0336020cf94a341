"""NICEKV's reliable UDP multicast transport (§5, Replication).

A multicast transfer is one flow burst fanned out by the switch group
table; the wire model charges it per MTU chunk (``wire_size``).  Every
receiver that gets the ``mc_data`` datagram acks it and delivers it to the
application.  The quorum variant ("reliable any-k multicasting") returns as
soon as any *k* receivers have acked; the sender then unbinds its ack port,
and later acks drop there the way UDP drops them at an unbound port.

The one loss model is the link's: ``Link.set_loss`` drops whole datagrams.
The paper's receivers NACK lost MTU chunks and the sender repairs them;
this transport does not, so a lost ``mc_data`` or ack is recovered by the
caller's own timeouts and retransmits, the way a lost ``mc_ctrl`` is.

Wire envelopes are plain tuples tagged by their first element — cheaper to
build and dispatch than dicts on the per-packet hot path, and the declared
``payload_bytes`` (what the wire model charges for) is unchanged:

* ``("mc_ctrl", payload)``
* ``("mc_data", op, ack_port, payload)``
* ``("mc_ack", op)``
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Tuple

from ..net import IPv4Address
from ..sim import URGENT, Event, Store

from .sockets import Datagram, ProtocolStack

__all__ = ["MulticastSender", "MulticastEndpoint", "MulticastMessage"]


class MulticastMessage:
    """A multicast message as delivered to the application."""

    __slots__ = ("src_ip", "ack_port", "op", "payload", "payload_bytes", "virtual_dst")

    def __init__(
        self,
        src_ip: IPv4Address,
        ack_port: int,
        op: Tuple,
        payload: Any,
        payload_bytes: int,
        virtual_dst: Optional[IPv4Address],
    ):
        self.src_ip = src_ip
        self.ack_port = ack_port
        self.op = op
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.virtual_dst = virtual_dst


class MulticastSender:
    """Initiator side: sends bursts, collects ACKs up to the quorum."""

    def __init__(self, stack: ProtocolStack):
        self.stack = stack
        self._op_seq = itertools.count(1)

    def send_ctrl(
        self,
        group_ip: IPv4Address,
        dport: int,
        payload: Any,
        payload_bytes: int,
    ) -> None:
        """Unreliable small multicast (the 2PC timestamp message, Fig 3):
        single chunk, no ACK — losses surface as protocol timeouts, as with
        real UDP."""
        self.stack.udp_send(
            IPv4Address(group_ip),
            dport,
            ("mc_ctrl", payload),
            payload_bytes,
        )

    def send(
        self,
        group_ip: IPv4Address,
        dport: int,
        payload: Any,
        payload_bytes: int,
        n_receivers: int,
        quorum: Optional[int] = None,
    ):
        """Multicast ``payload``; returns an Event to ``yield`` on.

        The event completes when ``quorum`` receivers (default: all
        ``n_receivers``) have acknowledged reception; its value is the list
        of ``(receiver_ip, ack_time)`` pairs, in arrival order.
        """
        if n_receivers < 1:
            raise ValueError(f"n_receivers must be >= 1: {n_receivers}")
        k = n_receivers if quorum is None else quorum
        if not 1 <= k <= n_receivers:
            raise ValueError(f"quorum {k} out of range 1..{n_receivers}")
        return _Send(self, group_ip, dport, payload, payload_bytes, k)


class _Send(Event):
    """One :meth:`MulticastSender.send` as a callback chain that schedules
    the records of the process it replaced (DESIGN.md §5g): the URGENT
    start — which draws the op id and the ack port, binds it and sends the
    burst — then one ``inbox.get_then()`` per datagram (a call record in the
    slot of the ``get()`` event it replaced) until ``k`` acks for this op
    are in; it unbinds the port and completes like a process, with the
    acks as its value."""

    __slots__ = ("sender", "group_ip", "dport", "payload", "payload_bytes", "k",
                 "op", "ack_port", "inbox", "acks")

    def __init__(self, sender: MulticastSender, group_ip, dport: int, payload: Any,
                 payload_bytes: int, k: int):
        super().__init__(sender.stack.sim)
        self.sender = sender
        self.group_ip = group_ip
        self.dport = dport
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.k = k
        self.sim._schedule_call(0.0, self._start, priority=URGENT)

    def _start(self) -> None:
        stack = self.sender.stack
        self.op = op = (stack.ip, next(self.sender._op_seq))
        self.ack_port = ack_port = stack.ephemeral_port()
        self.inbox = stack.udp_bind(ack_port)
        stack.udp_send(
            IPv4Address(self.group_ip),
            self.dport,
            ("mc_data", op, ack_port, self.payload),
            self.payload_bytes,
            sport=ack_port,
        )
        self.acks = []
        self.inbox.get_then(self._on_dgram)

    def _on_dgram(self, dgram) -> None:
        body = dgram.payload
        acks = self.acks
        if type(body) is tuple and len(body) == 2 and body[0] == "mc_ack" and body[1] == self.op:
            acks.append((dgram.src_ip, self.sim.now))
        if len(acks) < self.k:
            self.inbox.get_then(self._on_dgram)
            return
        self.sender.stack.udp_unbind(self.ack_port)
        self._complete(acks)


class MulticastEndpoint:
    """Receiver side: acks and delivers every ``mc_data`` it gets."""

    def __init__(self, stack: ProtocolStack, port: int):
        self.stack = stack
        self.port = port
        #: Delivered messages, for the application.
        self.messages = Store(stack.sim, name=f"{stack.host.name}:mc:{port}")
        self._raw = stack.udp_bind(port)
        # Always 0: the transport has no NACK/repair; the e2e snapshot reads them.
        self.nacks_sent = 0
        self.repairs_received = 0
        self._raw.serve(self._on_dgram)

    def _on_dgram(self, dgram: Datagram) -> None:
        body = dgram.payload
        if type(body) is not tuple or not body:
            return  # not one of ours; drop.
        kind = body[0]
        if kind == "mc_data":
            self._on_data(dgram, body)
        elif kind == "mc_ctrl":
            self._on_ctrl(dgram, body)
        # anything else on this port is not ours; drop.

    def _on_ctrl(self, dgram: Datagram, body: tuple) -> None:
        """Unreliable control message: delivered, never acked."""
        self.messages.put(
            MulticastMessage(
                src_ip=dgram.src_ip,
                ack_port=0,
                op=(),
                payload=body[1],
                payload_bytes=dgram.payload_bytes,
                virtual_dst=dgram.virtual_dst,
            )
        )

    def _on_data(self, dgram: Datagram, body: tuple) -> None:
        _, op, ack_port, payload = body
        self.stack.udp_send(
            dgram.src_ip,
            ack_port,
            ("mc_ack", op),
            0,
            sport=self.port,
        )
        self.messages.put(
            MulticastMessage(
                src_ip=dgram.src_ip,
                ack_port=ack_port,
                op=op,
                payload=payload,
                payload_bytes=dgram.payload_bytes,
                virtual_dst=dgram.virtual_dst,
            )
        )
