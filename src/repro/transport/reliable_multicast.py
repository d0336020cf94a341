"""NICEKV's reliable UDP multicast transport (§5, Replication).

Data is conceptually divided into chunks of less than one MTU (1400 B).
Receivers NACK missing chunks; the sender repairs them over unicast; ACKs
implement flow control.  The quorum variant ("reliable any-k multicasting")
returns as soon as any *k* receivers hold the complete data, and keeps
servicing straggler NACKs afterwards until they finish or time out.

In the simulator a multicast transfer is one flow burst fanned out by the
switch group table; chunk loss is drawn per receiver (binomial over the
chunk count) so the NACK/repair path is exercised without per-chunk events.

Wire envelopes are plain tuples tagged by their first element — cheaper to
build and dispatch than dicts on the per-packet hot path, and the declared
``payload_bytes`` (what the wire model charges for) is unchanged:

* ``("mc_ctrl", payload)``
* ``("mc_data", op, ack_port, payload)``
* ``("mc_ack", op)``
* ``("mc_nack", op, missing, repair_port)``
* ``("mc_repair", op, chunks)``
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..net import IPv4Address, MTU_BYTES
from ..sim import Store

from .sockets import Datagram, ProtocolStack

__all__ = ["MulticastSender", "MulticastEndpoint", "MulticastMessage"]


class MulticastMessage:
    """A fully-reassembled multicast message, handed to the application."""

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


def _chunks(payload_bytes: int) -> int:
    return max(1, -(-payload_bytes // MTU_BYTES))


class MulticastSender:
    """Initiator side: sends bursts, services NACKs, collects ACKs."""

    #: How long after quorum the sender keeps repairing stragglers (§5).
    STRAGGLER_TIMEOUT_S = 5.0

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
        single chunk, no ACK, no repair — losses surface as protocol
        timeouts, as with real UDP."""
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
        """Multicast ``payload``; returns a Process to ``yield`` on.

        The process completes when ``quorum`` receivers (default: all
        ``n_receivers``) have acknowledged complete reception; its value is
        the list of ``(receiver_ip, ack_time)`` pairs, in arrival order.
        """
        if n_receivers < 1:
            raise ValueError(f"n_receivers must be >= 1: {n_receivers}")
        k = n_receivers if quorum is None else quorum
        if not 1 <= k <= n_receivers:
            raise ValueError(f"quorum {k} out of range 1..{n_receivers}")
        return self.stack.sim.process(
            self._send(group_ip, dport, payload, payload_bytes, n_receivers, k)
        )

    def _send(self, group_ip, dport, payload, payload_bytes, n_receivers, k):
        sim = self.stack.sim
        op = (self.stack.ip, next(self._op_seq))
        ack_port = self.stack.ephemeral_port()
        inbox = self.stack.udp_bind(ack_port)
        self.stack.udp_send(
            IPv4Address(group_ip),
            dport,
            ("mc_data", op, ack_port, payload),
            payload_bytes,
            sport=ack_port,
        )
        acks: List[Tuple[IPv4Address, float]] = []
        while len(acks) < k:
            dgram = yield inbox.get()
            body = dgram.payload
            if type(body) is not tuple or len(body) < 2 or body[1] != op:
                continue
            if body[0] == "mc_ack":
                acks.append((dgram.src_ip, sim.now))
            elif body[0] == "mc_nack":
                self._repair(dgram, payload_bytes)
        if len(acks) < n_receivers:
            sim.process(
                self._serve_stragglers(
                    inbox, ack_port, op, payload_bytes, n_receivers - len(acks)
                )
            )
        else:
            self.stack.udp_unbind(ack_port)
        return acks

    def _serve_stragglers(self, inbox: Store, ack_port: int, op, payload_bytes, remaining: int):
        """Post-quorum: keep answering NACKs until all finish or timeout."""
        sim = self.stack.sim
        deadline = sim.now + self.STRAGGLER_TIMEOUT_S
        while remaining > 0 and sim.now < deadline:
            get = inbox.get()
            got = yield sim.any_of([get, sim.timeout(max(deadline - sim.now, 0.0))])
            if get not in got:
                inbox.cancel(get)
                break
            dgram = got[get]
            body = dgram.payload
            if type(body) is not tuple or len(body) < 2 or body[1] != op:
                continue
            if body[0] == "mc_ack":
                remaining -= 1
            elif body[0] == "mc_nack":
                self._repair(dgram, payload_bytes)
        self.stack.udp_unbind(ack_port)
        return remaining

    def _repair(self, nack: Datagram, payload_bytes: int) -> None:
        """Unicast the missing chunks back to the NACKing receiver."""
        _, op, missing, repair_port = nack.payload
        missing = int(missing)
        repair_bytes = min(missing * MTU_BYTES, payload_bytes)
        self.stack.udp_send(
            nack.src_ip,
            repair_port,
            ("mc_repair", op, missing),
            repair_bytes,
            sport=nack.dport,
        )


class MulticastEndpoint:
    """Receiver side: reassembles bursts, NACKs losses, ACKs completion.

    ``chunk_loss_rate`` injects per-chunk loss (binomially over the burst's
    chunk count) to exercise the repair protocol; production experiments run
    with 0.
    """

    def __init__(
        self,
        stack: ProtocolStack,
        port: int,
        chunk_loss_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if chunk_loss_rate and rng is None:
            raise ValueError("chunk loss injection requires an rng")
        if not 0.0 <= chunk_loss_rate < 1.0:
            raise ValueError(f"chunk loss rate must be in [0, 1): {chunk_loss_rate}")
        self.stack = stack
        self.port = port
        self.chunk_loss_rate = chunk_loss_rate
        self.rng = rng
        #: Complete messages, for the application.
        self.messages = Store(stack.sim, name=f"{stack.host.name}:mc:{port}")
        self._raw = stack.udp_bind(port)
        #: op -> (missing chunk count, original datagram)
        self._partial: Dict[Tuple, Tuple[int, Datagram]] = {}
        self.nacks_sent = 0
        self.repairs_received = 0
        self._raw.serve(self._on_dgram)

    def _lose(self, chunks: int) -> int:
        if not self.chunk_loss_rate:
            return 0
        return int(self.rng.binomial(chunks, self.chunk_loss_rate))

    def _on_dgram(self, dgram: Datagram) -> None:
        body = dgram.payload
        if type(body) is not tuple or not body:
            return  # not one of ours; drop.
        kind = body[0]
        if kind == "mc_data":
            self._on_data(dgram, body)
        elif kind == "mc_repair":
            self._on_repair(dgram, body)
        elif kind == "mc_ctrl":
            self._on_ctrl(dgram, body)
        # anything else on this port is not ours; drop.

    def _on_ctrl(self, dgram: Datagram, body: tuple) -> None:
        """Unreliable control message: deliver unless its single chunk is lost."""
        if self._lose(1):
            return
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
        total = _chunks(dgram.payload_bytes)
        lost = self._lose(total)
        if lost == 0:
            self._complete(dgram, body)
        else:
            self._partial[body[1]] = (lost, dgram)
            self._nack(dgram, body, lost)

    def _on_repair(self, dgram: Datagram, body: tuple) -> None:
        op = body[1]
        entry = self._partial.get(op)
        if entry is None:
            return  # duplicate repair after completion
        self.repairs_received += 1
        missing, original = entry
        repaired = int(body[2])
        still_lost = self._lose(repaired)
        missing = missing - repaired + still_lost
        if missing <= 0:
            del self._partial[op]
            self._complete(original, original.payload)
        else:
            self._partial[op] = (missing, original)
            self._nack(original, original.payload, missing)

    def _nack(self, dgram: Datagram, body: tuple, missing: int) -> None:
        self.nacks_sent += 1
        self.stack.udp_send(
            dgram.src_ip,
            body[2],
            ("mc_nack", body[1], missing, self.port),
            0,
            sport=self.port,
        )

    def _complete(self, dgram: Datagram, body: tuple) -> None:
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
