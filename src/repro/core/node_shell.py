"""What every storage server is built on, NICE or NOOB.

The paper's two systems differ in *where* routing and replication run
(switch vs end host, §2.1 vs §4), not in what a server is: a protocol
stack, one CPU, a disk with an object store, a write-ahead log and a lock
table on it, and a handful of wire idioms — the token-matched reply wait,
the get reply, the put reply.  The NICE and NOOB nodes add their protocols.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..kv import Disk, LockTable, ObjectStore, StoredObject, WriteAheadLog
from ..net import Host, IPv4Address
from ..sim import AnyOf, Counter, Resource, Simulator
from ..transport import ProtocolStack
from .config import ACK_BYTES, NODE_PORT, REQUEST_BYTES, BaseConfig

__all__ = ["NodeShell"]


class NodeShell:
    """Identity, resources and wire idioms of one storage server."""

    def __init__(self, sim: Simulator, host: Host, name: str, config: BaseConfig,
                 directory: Dict[str, IPv4Address]):
        self.sim = sim
        self.host = host
        self.name = name
        self.config = config
        #: The dotted address put stamps carry.
        self.ip_str = str(host.ip)
        #: name -> physical IP of the peers this node may address.
        self.directory = directory
        self.stack = ProtocolStack(sim, host)
        self.cpu = Resource(sim, capacity=1, name=f"{name}.cpu")
        self.disk = Disk(sim, name=f"{name}.disk")
        self.store = ObjectStore()
        self.wal = WriteAheadLog(self.disk)
        self.locks = LockTable()
        self._token_seq = itertools.count(1)
        self.puts_served = Counter(f"{name}.puts")
        self.gets_served = Counter(f"{name}.gets")

    @property
    def ip(self) -> IPv4Address:
        return self.host.ip

    # Two wire idioms come in two forms side by side: a generator for code
    # that runs as a process (``yield from``), and a callback chain for the
    # chains of the get path (DESIGN.md §5g).  A chain step gives each fresh
    # event its one callback, as a process yielding it would, and calls
    # ``then`` where the generator returns: both schedule the same records.
    def cpu_work(self):
        """One request's worth of CPU service time (serialized per node)."""
        cost = self.config.node_cpu_per_op_s
        if cost <= 0:
            return
        req = self.cpu.request()
        yield req
        try:
            yield self.sim.timeout(cost)
        finally:
            req.release()

    def cpu_work_then(self, then) -> None:
        """:meth:`cpu_work` as a chain: CPU grant, service timer, release,
        then ``then()``."""
        cost = self.config.node_cpu_per_op_s
        if cost <= 0:
            then()
            return
        req = self.cpu.request()

        def granted(_req) -> None:
            def served(_timer) -> None:
                req.release()
                then()

            self.sim.timeout(cost)._callbacks = [served]

        req._callbacks = [granted]

    # -- node-to-node request/reply -------------------------------------------
    def new_token(self) -> Tuple:
        """A tag that pairs a request with its reply on a shared connection."""
        return (self.name, next(self._token_seq))

    def await_reply(self, conn, match, wait_s: float):
        """Wait up to ``wait_s`` for a message satisfying ``match`` on
        ``conn``; returns its payload, or ``None`` on timeout."""
        get = conn.inbox.get(match)
        got = yield AnyOf(self.sim, [get, self.sim.timeout(wait_s)])
        if get in got:
            return got[get].payload
        conn.inbox.cancel(get)
        return None

    def bounded_send(self, ip: IPv4Address, port: int, body: dict, size: int, wait_s: float):
        """A send that cannot wedge this process on an unreachable peer
        (e.g. a handoff inside an isolated rack that nobody has declared
        failed yet): returns the connection, or ``None`` after ``wait_s``."""
        send = self.stack.tcp.send_message(ip, port, body, size)
        got = yield AnyOf(self.sim, [send, self.sim.timeout(wait_s)])
        return got[send] if send in got else None

    def request(self, ip: IPv4Address, body: dict, size: int, reply_type: str,
                wait_s: Optional[float] = None):
        """Request/response over the node TCP port; both halves — the send
        and the wait for the reply — are bounded by ``wait_s`` (default:
        the peer timeout)."""
        wait = wait_s if wait_s is not None else self.config.peer_timeout_s
        token = self.new_token()
        conn = yield from self.bounded_send(ip, NODE_PORT, dict(body, token=token), size, wait)
        if conn is None:
            return None
        return (yield from self.await_reply(
            conn,
            lambda m: (m.payload or {}).get("token") == token
            and m.payload.get("type") == reply_type,
            wait,
        ))

    # -- client replies ---------------------------------------------------------
    def reply_put(self, client_ip: str, client_port: int, op_id: Tuple, status: str) -> None:
        self.stack.tcp.send_message(
            IPv4Address(client_ip),
            client_port,
            {"type": "put_reply", "op_id": op_id, "status": status},
            ACK_BYTES,
        )

    def reply_get(self, request: dict, obj: Optional[StoredObject]):
        """Read ``obj`` off the disk and answer the get ``request`` — a
        hit carries the value, ``None`` is an authoritative miss.  Returns
        the reply's send Event, for callers that wait for it to leave."""
        self.gets_served.add()
        reply = {"type": "get_reply", "op_id": tuple(request["op_id"])}
        if obj is not None:
            yield self.disk.read(obj.size_bytes)
            reply.update(status="ok", value=obj.value, size=obj.size_bytes)
            size = REQUEST_BYTES + obj.size_bytes
        else:
            reply["status"] = "miss"
            size = ACK_BYTES
        return self.stack.tcp.send_message(
            IPv4Address(request["client_ip"]), request["client_port"], reply, size
        )

    def reply_get_then(self, request: dict, obj: Optional[StoredObject], then) -> None:
        """``yield (yield from reply_get(request, obj))`` as a chain: the
        disk read on a hit, the reply's send, then ``then(send)`` once the
        reply has left."""
        self.gets_served.add()
        reply = {"type": "get_reply", "op_id": tuple(request["op_id"])}
        client_ip = IPv4Address(request["client_ip"])
        if obj is None:
            reply["status"] = "miss"
            self.stack.tcp.send_message(
                client_ip, request["client_port"], reply, ACK_BYTES
            )._callbacks = [then]
            return

        def read(_io) -> None:
            reply.update(status="ok", value=obj.value, size=obj.size_bytes)
            self.stack.tcp.send_message(
                client_ip, request["client_port"], reply, REQUEST_BYTES + obj.size_bytes
            )._callbacks = [then]

        self.disk.read(obj.size_bytes)._callbacks = [read]
