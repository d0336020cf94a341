"""Message-oriented TCP model.

NICEKV uses TCP for every transfer except client requests (§5).  What the
evaluation is sensitive to is (a) connection *establishment* cost — Fig 9a
attributes NOOB's small-object degradation partly to "the overhead of
creating and maintaining up to 8 TCP connections" — and (b) the bytes and
serialization of the data itself.  The model therefore provides:

* a 3-way handshake (SYN / SYN-ACK / ACK control packets, 1.5 RTT) on first
  contact, with per-(peer, port) connection caching thereafter;
* message sends that complete when the message reaches the peer's stack
  (the data traverses the network for real, so link contention applies);
* per-connection inboxes plus listener sockets with selective receive.

Segment-level ACK clocking is *not* modeled: it contributes no asymmetry
between the compared systems and would multiply event counts (DESIGN.md §5).
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from ..net import IPv4Address, Packet, Proto
from ..sim import URGENT, Event, Store

__all__ = ["TcpLayer", "TcpConnection", "TcpMessage"]


class TcpMessage:
    """An application message received over a connection."""

    __slots__ = ("conn", "src_ip", "sport", "payload", "payload_bytes")

    def __init__(
        self,
        conn: "TcpConnection",
        src_ip: IPv4Address,
        sport: int,
        payload: Any,
        payload_bytes: int,
    ):
        self.conn = conn
        self.src_ip = src_ip
        self.sport = sport
        self.payload = payload
        self.payload_bytes = payload_bytes


class TcpConnection:
    """One established (or establishing) connection endpoint."""

    _ids = itertools.count(1)

    def __init__(
        self,
        layer: "TcpLayer",
        local_port: int,
        remote_ip: IPv4Address,
        remote_port: int,
    ):
        self.layer = layer
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.established = False
        self.conn_id = next(self._ids)
        #: Messages arriving on this connection when no listener is bound to
        #: the local port (the initiator side's receive path).
        self.inbox = Store(layer.stack.sim, name=f"tcp-conn-{self.conn_id}")
        self._msg_seq = itertools.count(1)

    def send(self, payload: Any, payload_bytes: int, then=None) -> None:
        """Transmit one message, then ``then()`` in a NORMAL zero-delay
        record once it is delivered (``None``: nobody waits).

        That never happens if the peer is down — callers guard with
        protocol timeouts, exactly as the paper's protocols do (§4.4).
        """
        body = {
            "kind": "data",
            "msg": next(self._msg_seq),
            "payload": payload,
            "_delivered": None if then is None
            else partial(self.layer.stack.sim._schedule_call, 0.0, then),
        }
        self.layer._send_segment(self, body, payload_bytes)

    def __repr__(self) -> str:  # pragma: no cover
        state = "est" if self.established else "syn"
        return (
            f"<TcpConnection {self.layer.stack.ip}:{self.local_port} -> "
            f"{self.remote_ip}:{self.remote_port} {state}>"
        )


class TcpLayer:
    """Per-host TCP endpoint: listeners, connection cache, handshake engine."""

    #: Handshake control segments carry no payload (66 B on the wire).
    CTRL_BYTES = 0
    #: SYN retransmission schedule: base interval and max attempts.  A peer
    #: that stays dark wedges nothing — the handshake state is torn down
    #: after the last attempt so later connects start fresh.
    SYN_RETRY_S = 0.5
    SYN_MAX_TRIES = 20

    def __init__(self, stack):
        self.stack = stack
        self._listeners: Dict[int, Store] = {}
        #: Initiator-side cache: (dst_ip, dst_port) -> TcpConnection.
        self._client_conns: Dict[Tuple[IPv4Address, int], TcpConnection] = {}
        #: All connections keyed for demux: (remote_ip, remote_port, local_port).
        self._conns: Dict[Tuple[IPv4Address, int, int], TcpConnection] = {}
        #: In-flight handshakes: (dst_ip, dst_port) -> waiters' callbacks.
        self._connecting: Dict[Tuple[IPv4Address, int], List[Callable]] = {}
        self.handshakes = 0

    # -- server side ------------------------------------------------------------
    def listen(self, port: int) -> Store:
        """Accept connections and receive messages on ``port``."""
        if port in self._listeners:
            raise ValueError(f"{self.stack.host.name}: TCP port {port} already listening")
        store = Store(self.stack.sim, name=f"{self.stack.host.name}:tcp:{port}")
        self._listeners[port] = store
        return store

    # -- client side --------------------------------------------------------------
    def connect(self, dst_ip: IPv4Address, dport: int, then: Callable) -> None:
        """``then(conn)`` with an established connection, in a NORMAL
        zero-delay record: now for a cached connection, else once the
        3-way handshake completes.  Concurrent connects to the same
        destination share one handshake.
        """
        dst_ip = IPv4Address(dst_ip)
        cached = self._client_conns.get((dst_ip, dport))
        if cached is not None and cached.established:
            self.stack.sim._schedule_call(0.0, then, cached)
            return
        waiters = self._connecting.get((dst_ip, dport))
        if waiters is not None:
            waiters.append(then)
            return
        self._connecting[(dst_ip, dport)] = [then]
        self.handshakes += 1
        local_port = self.stack.ephemeral_port()
        conn = TcpConnection(self, local_port, dst_ip, dport)
        self._client_conns[(dst_ip, dport)] = conn
        self._conns[(dst_ip, dport, local_port)] = conn
        self._send_ctrl(conn, "syn")
        _SynRetry(self, conn, (dst_ip, dport))

    def _teardown(self, conn: TcpConnection, key) -> None:
        """The last SYN went unanswered: forget the handshake so a
        recovered peer can be reconnected with a fresh one."""
        if self._client_conns.get(key) is conn:
            del self._client_conns[key]
        self._conns.pop((conn.remote_ip, conn.remote_port, conn.local_port), None)
        # Waiters stay untriggered: protocol timeouts own that failure.
        self._connecting.pop(key, None)

    def send_message(
        self, dst_ip: IPv4Address, dport: int, payload: Any, payload_bytes: int, then=None
    ) -> None:
        """Connect (cached) then send, then ``then(conn)`` once delivered —
        the connection, so callers can await the reply on ``conn.inbox``
        (``None``: nobody waits)."""
        _SendMessage(self, dst_ip, dport, payload, payload_bytes, then)

    def reset_peer(self, ip: IPv4Address) -> int:
        """Tear down all cached state toward ``ip`` (peer declared failed).

        Returns the number of connections dropped.  Pending handshake
        waiters toward the peer are left to their protocol timeouts.
        """
        ip = IPv4Address(ip)
        dropped = 0
        for key in [k for k in self._client_conns if k[0] == ip]:
            self._client_conns.pop(key)
            dropped += 1
        for key in [k for k in self._conns if k[0] == ip]:
            conn = self._conns.pop(key)
            conn.established = False
        for key in [k for k in self._connecting if k[0] == ip]:
            self._connecting.pop(key)  # abandon in-flight handshakes
        return dropped

    # -- wire --------------------------------------------------------------------
    def _send_ctrl(self, conn: TcpConnection, kind: str) -> None:
        self._send_segment(conn, {"kind": kind}, self.CTRL_BYTES)

    def _send_segment(self, conn: TcpConnection, body: dict, payload_bytes: int) -> None:
        self.stack.host.send(
            Packet(
                src_ip=self.stack.ip,
                dst_ip=conn.remote_ip,
                proto=Proto.TCP,
                sport=conn.local_port,
                dport=conn.remote_port,
                payload=body,
                payload_bytes=payload_bytes,
            )
        )

    # -- inbound ------------------------------------------------------------------
    def deliver(self, packet: Packet) -> None:
        kind = (packet.payload or {}).get("kind")
        if kind == "syn":
            self._on_syn(packet)
        elif kind == "synack":
            self._on_synack(packet)
        elif kind == "ack":
            self._on_ack(packet)
        elif kind == "data":
            self._on_data(packet)
        # Unknown kinds are dropped (corrupt/late segments).

    def _on_syn(self, packet: Packet) -> None:
        if packet.dport not in self._listeners:
            return  # nothing listening: silently dropped (peer times out)
        key = (packet.src_ip, packet.sport, packet.dport)
        conn = self._conns.get(key)
        if conn is None:
            conn = TcpConnection(self, packet.dport, packet.src_ip, packet.sport)
            self._conns[key] = conn
        conn.established = True
        self._send_ctrl(conn, "synack")

    def _on_synack(self, packet: Packet) -> None:
        key = (packet.src_ip, packet.sport, packet.dport)
        conn = self._conns.get(key)
        if conn is None:
            return
        conn.established = True
        self._send_ctrl(conn, "ack")
        schedule = self.stack.sim._schedule_call
        for then in self._connecting.pop((packet.src_ip, packet.sport), ()):
            schedule(0.0, then, conn)

    def _on_ack(self, packet: Packet) -> None:
        # Final handshake leg; the server connection is already usable.
        return

    def _on_data(self, packet: Packet) -> None:
        key = (packet.src_ip, packet.sport, packet.dport)
        conn = self._conns.get(key)
        if conn is None:
            # Data on an implicitly-established connection (server restarted
            # or segment raced the handshake): accept if a listener exists.
            if packet.dport not in self._listeners:
                return
            conn = TcpConnection(self, packet.dport, packet.src_ip, packet.sport)
            conn.established = True
            self._conns[key] = conn
        message = TcpMessage(
            conn=conn,
            src_ip=packet.src_ip,
            sport=packet.sport,
            payload=packet.payload["payload"],
            payload_bytes=packet.payload_bytes,
        )
        listener = self._listeners.get(packet.dport)
        if listener is not None:
            listener.put(message)
        else:
            conn.inbox.put(message)
        # Once: a message is delivered (and its sender told) at most once.
        delivered = packet.payload.pop("_delivered", None)
        if delivered is not None:
            delivered()


class _SendMessage:
    """:meth:`TcpLayer.send_message` as a callback chain that schedules the
    records of the process it replaced (DESIGN.md §5g): the URGENT start,
    the connect (cached, shared or fresh handshake), the delivery — each
    a call record in the slot its event took — and ``then(conn)`` in the
    record the process's completion fired in, or nothing when nobody
    waits."""

    __slots__ = ("layer", "dst_ip", "dport", "payload", "payload_bytes", "then", "conn")

    def __init__(self, layer: TcpLayer, dst_ip, dport: int, payload: Any, payload_bytes: int,
                 then):
        self.layer = layer
        self.dst_ip = dst_ip
        self.dport = dport
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.then = then
        layer.stack.sim._schedule_call(0.0, self._start, priority=URGENT)

    def _start(self) -> None:
        self.layer.connect(self.dst_ip, self.dport, self._connected)

    def _connected(self, conn: TcpConnection) -> None:
        self.conn = conn
        conn.send(self.payload, self.payload_bytes, self._delivered)

    def _delivered(self) -> None:
        if self.then is not None:
            self.layer.stack.sim._schedule_call(0.0, self.then, self.conn)


class _SynRetry(Event):
    """A handshake's SYN retransmission with backoff as a timer chain that
    schedules the records of the process it replaced (DESIGN.md §5g): the
    URGENT start, then one retry timer per attempt until the connection is
    established or the last attempt is spent, when it tears the handshake
    down; it completes like a process."""

    __slots__ = ("layer", "conn", "key", "tries")

    def __init__(self, layer: TcpLayer, conn: TcpConnection, key):
        super().__init__(layer.stack.sim)
        self.layer = layer
        self.conn = conn
        self.key = key
        self.tries = 1
        self.sim._schedule_call(0.0, self._wait, priority=URGENT)

    def _wait(self) -> None:
        if not self.conn.established:
            layer = self.layer
            if self.tries < layer.SYN_MAX_TRIES:
                self.sim.timeout(
                    layer.SYN_RETRY_S * min(self.tries, 4))._callbacks = [self._retry]
                return
            self.layer._teardown(self.conn, self.key)
        self._complete()

    def _retry(self, _timer: Event) -> None:
        if self.conn.established:
            self._complete()
            return
        self.layer._send_ctrl(self.conn, "syn")
        self.tries += 1
        self._wait()
