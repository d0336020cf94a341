"""NOOB storage node: end-host replication over point-to-point TCP (§2.1).

Everything the network does for NICE happens here in server code: the
primary fans the object out over R−1 unicast TCP connections (primary-only
and quorum modes), or runs two explicit 2PC rounds, or pushes the object
down a replication chain [43].  The node keeps *full membership* — the
complete partition map — as production NOOB systems do (§2.1), so any node
can forward a misdirected request (the ROG extra hop).

The server itself is the same :class:`~repro.core.node_shell.NodeShell` a
NICE node is built on, and what a 2PC replica does locally is the same
:class:`~repro.kv.TwoPhaseParticipant`; this module is the unicast wire
protocols around them.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.config import ACK_BYTES, COMMIT_BYTES, NODE_PORT, REQUEST_BYTES
from ..core.membership import PartitionMap
from ..core.node_shell import NodeShell
from ..kv import PreparedOp, PutStamp, StoredObject, TwoPhaseParticipant
from ..net import Host, IPv4Address
from ..sim import URGENT, Counter, Event, Fold, Race, Simulator
from .config import NoobConfig

__all__ = ["NoobStorageNode"]


class NoobStorageNode(NodeShell):
    """One NOOB storage server."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        name: str,
        config: NoobConfig,
        partition_map: PartitionMap,
        directory: Dict[str, IPv4Address],
    ):
        super().__init__(sim, host, name, config, directory)
        #: Full membership (§2.1): the complete map, not an O(R) slice.
        self.partition_map = partition_map
        # NOOB has no recovery protocol (§2.1): a handler that was running
        # when the node crashed simply carries on, so nothing a prepare
        # does depends on the host being up.
        self.participant = TwoPhaseParticipant(
            sim, self.disk, self.store, self.wal, self.locks, is_up=lambda: True
        )
        self._inbox = self.stack.tcp.listen(NODE_PORT)
        self.forwards = Counter(f"{name}.forwards")
        self.membership_updates = Counter(f"{name}.membership_updates")
        self._inbox.serve(self._on_msg)

    # -- failure injection -------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: NIC dark, volatile 2PC state lost; the object store
        and WAL survive (they model the disk, as in the NICE node)."""
        self.host.fail()
        self.participant.crash()

    def restart(self) -> None:
        """Power back on.  NOOB has no staged rejoin (§2.1): the node
        serves again immediately with whatever (possibly stale) data it
        holds — the gap the chaos consistency checker exists to expose."""
        self.host.recover()

    # -- helpers -----------------------------------------------------------------
    def _send(self, ip: IPv4Address, body: dict, size: int, then=None) -> None:
        self.stack.tcp.send_message(ip, NODE_PORT, body, size, then)

    def _reply_put(self, body: dict, status: str) -> None:
        self.reply_put(body["client_ip"], body["client_port"], tuple(body["op_id"]), status)

    @staticmethod
    def _copy(body: dict, stamp: PutStamp, msg_type: str, **extra) -> dict:
        """The object and its stamp, as one replica ships it to another."""
        return {
            "type": msg_type,
            "key": body["key"],
            "value": body["value"],
            "size": body["size"],
            "stamp": stamp,
            "op_id": tuple(body["op_id"]),
            "client_ip": body["client_ip"],
            "client_ts": body["client_ts"],
            **extra,
        }

    def _stamp(self, body: dict) -> PutStamp:
        return PutStamp(self.ip_str, self.sim.now, body["client_ip"], body["client_ts"])

    def _commit_local(self, body: dict, stamp: PutStamp, then) -> None:
        """Forced write, store the object, then ``then()``."""

        def written() -> None:
            self.store.put(StoredObject(body["key"], body["value"], body["size"], stamp))
            then()

        self.disk.write(body["size"], forced=True, then=written)

    def _prepare(self, body: dict, role: str, then) -> None:
        """The local participant sequence for one put (lock, +L, W), then
        ``then(status)``."""
        op = PreparedOp(
            tuple(body["op_id"]), body["key"], body["size"], body["client_ip"],
            body["client_ts"], value=body["value"], role=role,
        )
        self.participant.admit(op)
        self.participant.prepare(op, then)

    def _chain_forward(self, body: dict, replicas: List[str], position: int,
                       stamp: PutStamp, then=None) -> None:
        """Pass the object down the chain [43] and ``then(conn)`` once it
        has arrived; the tail acknowledges the client and calls ``then()``
        (``None``: nobody waits)."""
        if position + 1 < len(replicas):
            nxt = replicas[position + 1]
            copy = self._copy(
                body, stamp, "chain_put",
                client_port=body["client_port"], position=position + 1,
            )
            self._send(self.directory[nxt], copy, body["size"], then)
        else:
            self.puts_served.add()
            self._reply_put(body, "ok")
            if then is not None:
                then()

    # -- dispatch --------------------------------------------------------------------
    # No message spawns a process (DESIGN.md §5g): a put or a get is a chain
    # object; a replica-side handler runs in an URGENT call, where its
    # process started, and its later steps are closures.
    def _on_msg(self, msg) -> None:
        body = msg.payload or {}
        kind = body.get("type")
        if kind == "put":
            _Put(self, body)
        elif kind == "get":
            _Get(self, body)
        elif kind == "membership_update":
            self.membership_updates.add()
            self.sim._schedule_call(0.0, msg.conn.send, {"type": "membership_ack"},
                                    ACK_BYTES, priority=URGENT)
        else:
            handler = self._HANDLERS.get(kind)
            if handler is not None:
                self.sim._schedule_call(0.0, handler, self, msg, body, priority=URGENT)

    # -- replica-side handlers --------------------------------------------------------------
    def _handle_replicate(self, msg, body: dict) -> None:
        def ack() -> None:
            msg.conn.send({"type": "replicate_ack", "token": body["token"]}, ACK_BYTES)

        self.cpu_work_then(lambda: self._commit_local(body, body["stamp"], ack))

    def _handle_prepare(self, msg, body: dict) -> None:
        def prepare() -> None:
            tr = self.sim.tracer
            span = None if tr is None else tr.begin(
                "2pc.prepare", "2pc", node=self.name, op=tuple(body["op_id"]), key=body["key"])

            def prepared(_status) -> None:
                if span is not None:
                    span.end(status="prepared")
                msg.conn.send({"type": "prepare_ack", "token": body["token"]}, ACK_BYTES)

            self._prepare(body, "secondary", prepared)

        self.cpu_work_then(prepare)

    def _handle_commit2pc(self, msg, body: dict) -> None:
        op_id = tuple(body["op_id"])
        op = self.participant.commit(op_id, body["stamp"])
        if op is None:
            # A crash since the prepare took the value with it; all that
            # is left of the op is its log record.
            self.wal.remove(op_id)
        tr = self.sim.tracer
        if tr is not None:
            tr.instant("commit", "2pc", node=self.name, op=op_id,
                       applied=op is not None)
        msg.conn.send({"type": "commit_ack", "token": body["token"]}, ACK_BYTES)

    def _handle_chain_put(self, _msg, body: dict) -> None:
        stamp = body["stamp"]

        def stored() -> None:
            replicas = self.partition_map.replicas_of_key(body["key"])
            self._chain_forward(body, replicas, body["position"], stamp)

        self.cpu_work_then(lambda: self._commit_local(body, stamp, stored))

    def _handle_read_version(self, msg, body: dict) -> None:
        """Quorum-read participant: return our version of the object."""

        def serve() -> None:
            obj = self.store.get(body["key"])

            def reply() -> None:
                msg.conn.send(
                    {
                        "type": "read_version_reply",
                        "token": body["token"],
                        "stamp": obj.stamp if obj else None,
                        "value": obj.value if obj else None,
                        "size": obj.size_bytes if obj else 0,
                    },
                    (obj.size_bytes if obj else 0) + ACK_BYTES,
                )

            if obj is not None:
                self.disk.read(obj.size_bytes, then=reply)
            else:
                reply()

        self.cpu_work_then(serve)

    _HANDLERS = {
        "replicate": _handle_replicate,
        "prepare": _handle_prepare,
        "commit2pc": _handle_commit2pc,
        "chain_put": _handle_chain_put,
        "read_version": _handle_read_version,
    }


class _Rpc(Race):
    """One request to ``peer`` and its token-matched reply, or ``None``
    after ``timeout_factor`` peer timeouts, run as ``yield from`` did: from
    the current record, with ``then(reply)`` in the record it ends in.
    Only the reply wait is bounded — the send is not (unlike
    :meth:`NodeShell.request`), which is part of the NOOB schedule.  A
    callback chain that schedules the records of the generator it
    replaced (DESIGN.md §5g): the send, then a :class:`~repro.sim.Race` of
    the reply — a ``get_then`` call in its get event's slot — against the
    peer timer; a timer that wins withdraws the getter."""

    __slots__ = ("node", "peer", "body", "size", "wait_s", "then", "token", "conn",
                 "getter", "settled", "reply", "timer")

    def __init__(self, node: NoobStorageNode, peer: str, body: dict, size: int,
                 timeout_factor: int, then=None):
        self.node = node
        self.peer = peer
        self.body = body
        self.size = size
        self.wait_s = node.config.peer_timeout_s * timeout_factor
        self.then = then
        if then is not None:
            self._start()

    def _start(self) -> None:
        node = self.node
        self.token = node.new_token()
        node._send(node.directory[self.peer], dict(self.body, token=self.token),
                   self.size, self._sent)

    def _sent(self, conn) -> None:
        self.conn = conn
        token = self.token
        self.getter = conn.inbox.get_then(
            self._got, lambda m: (m.payload or {}).get("token") == token)
        self._race(self.node.sim, self.wait_s)

    def _got(self, msg) -> None:
        self._won(msg.payload)

    def _settled(self, reply) -> None:
        if reply is None:
            self.conn.inbox.cancel(self.getter)
        self.conn = self.getter = self.timer = None
        self._end(reply)

    def _end(self, reply) -> None:
        then, self.then = self.then, None
        then(reply)


class _Gathered(_Rpc):
    """An :class:`_Rpc` that one put fans out and gathers later: it starts
    in an URGENT record of its own, where its process was spawned, and a
    gather (``then``, set by :meth:`_Put._gather`) takes its reply in the
    NORMAL zero-delay record where the process's completion fired; a
    reply no one gathers yet waits in ``reply``, as a process nobody
    waited on completed on the spot."""

    __slots__ = ("done",)

    def __init__(self, node: NoobStorageNode, peer: str, body: dict, size: int,
                 timeout_factor: int):
        super().__init__(node, peer, body, size, timeout_factor)
        self.done = False
        node.sim._schedule_call(0.0, self._start, priority=URGENT)

    def _end(self, reply) -> None:
        then = self.then
        if then is None:
            self.done = True
        else:
            self.then = None
            self.node.sim._schedule_call(0.0, then, reply)


class _Replicate(_Gathered):
    """One unicast copy to one secondary; completes on its app ack.  Each
    outbound copy costs the primary CPU time first — the end-host
    replication work NICE offloads to the switch (§4.2)."""

    __slots__ = ()

    def __init__(self, node: NoobStorageNode, peer: str, body: dict, stamp: PutStamp,
                 msg_type: str):
        super().__init__(node, peer, node._copy(body, stamp, msg_type), body["size"], 4)

    def _start(self) -> None:
        self.node.cpu_work_then(super()._start)


class _Put(Event):
    """A client put on this node as a callback chain that schedules the
    records of the process it replaced (DESIGN.md §5g): the URGENT start,
    the CPU step, then a forward to the primary (ROG), or one of the four
    replication modes; it completes like a process.

    A gather over the secondaries' RPCs (the copies, the prepares, the
    commits) is a :class:`~repro.sim.Fold` where an ``AllOf`` was: each
    reply is counted in the record where its RPC's completion fired
    (counted at once if it already came).  The quorum write folds its
    successful copies the same way."""

    __slots__ = ("node", "body", "span", "secondaries", "stamp", "transfers", "fold")

    def __init__(self, node: NoobStorageNode, body: dict):
        super().__init__(node.sim)
        self.node = node
        self.body = body
        self.span = None
        self.sim._schedule_call(0.0, node.cpu_work_then, self._route, priority=URGENT)

    def _route(self) -> None:
        node = self.node
        body = self.body
        key = body["key"]
        replicas = node.partition_map.replicas_of_key(key)
        tr = node.sim.tracer
        if replicas[0] != node.name:
            # Misdirected (ROG random node): one extra hop to the primary.
            node.forwards.add()
            if tr is not None:
                tr.instant("put_forward", "op", node=node.name,
                           op=tuple(body["op_id"]), to=replicas[0])
            node._send(node.directory[replicas[0]], dict(body), body["size"],
                       self._forwarded)
            return
        self.secondaries = secondaries = replicas[1:]
        mode = node.config.consistency
        if tr is not None:
            self.span = tr.begin(f"put.{mode}", "op", node=node.name,
                                 op=tuple(body["op_id"]), key=key)
        if mode == "2pc":
            # Two explicit rounds (Fig 2's dashed arrows): prepare (data)
            # then commit, each acked by every secondary.
            node._prepare(body, "primary", self._prepared)
            return
        self.stamp = stamp = node._stamp(body)
        if mode == "chain":
            # Chain replication [43]: store locally, pass the object down
            # the chain; the tail acknowledges the client.
            node._commit_local(body, stamp, lambda: node._chain_forward(
                body, replicas, 0, stamp, self._end))
        elif mode in ("primary", "quorum"):
            # Write locally and fan out R−1 unicast copies concurrently.
            self.transfers = [_Replicate(node, s, body, stamp, "replicate")
                              for s in secondaries]
            node._commit_local(body, stamp, self._stored)
        else:
            self._end()

    def _forwarded(self, _conn) -> None:
        self._complete()

    def _end(self, _conn=None) -> None:
        if self.span is not None:
            self.span.end()
        self._complete()

    def _acked(self) -> None:
        node = self.node
        node.puts_served.add()
        node._reply_put(self.body, "ok")
        self._end()

    def _gather(self, rpcs: List[_Gathered], join) -> None:
        """Fold the replies of ``rpcs`` (an ``AllOf``), then ``join()``."""
        if not rpcs:
            join()
            return
        self.fold = fold = Fold(self.sim, len(rpcs), join)
        for rpc in rpcs:
            if rpc.done:
                fold.add(rpc.reply)
            else:
                rpc.then = fold.add

    def _stored(self) -> None:
        """Primary-backup: the client is acked once every replica
        confirmed.  Quorum write: once the write set is met (the local
        write counts toward it; ``quorum_k ≤ R``, so the copies can meet
        it), while the remaining transfers keep running — the link
        contention the paper blames for NOOB's Fig 8 behaviour.  A copy
        that already came is counted in an URGENT record of its own, where
        a late callback on its processed event ran."""
        transfers, self.transfers = self.transfers, None
        config = self.node.config
        if config.consistency == "primary":
            self._gather(transfers, self._acked)
            return
        if config.quorum_k <= 1:
            self._acked()
            return
        self.fold = Fold(self.sim, config.quorum_k - 1, self._acked)
        for t in transfers:
            if t.done:
                self.sim._schedule_call(0.0, self._copied, t.reply, priority=URGENT)
            else:
                t.then = self._copied

    def _copied(self, reply) -> None:
        if reply is not None:
            self.fold.add()

    def _prepared(self, _status) -> None:
        node = self.node
        self.stamp = stamp = node._stamp(self.body)
        prepares = [_Replicate(node, s, self.body, stamp, "prepare") for s in self.secondaries]
        if prepares:
            self._gather(prepares, self._voted)
        else:
            self._commit()

    def _voted(self) -> None:
        if self.fold.failed:
            self.node.participant.abort(tuple(self.body["op_id"]))
            self.node._reply_put(self.body, "fail")
            self._end()
            return
        self._commit()

    def _commit(self) -> None:
        node = self.node
        body = self.body
        op_id = tuple(body["op_id"])
        commit = {"type": "commit2pc", "op_id": op_id, "key": body["key"], "stamp": self.stamp}
        commits = [_Gathered(node, s, commit, COMMIT_BYTES, 4) for s in self.secondaries]
        node.participant.commit(op_id, self.stamp)
        self._gather(commits, self._acked)


class _Get(Event):
    """A client get on this node as a callback chain that schedules the
    records of the process it replaced (DESIGN.md §5g): the URGENT start,
    the CPU step, then a forward to the primary, or the reply — after a
    quorum read of the peers' versions, one :class:`_Rpc` at a time, in
    quorum mode; it completes like a process, without waiting for the
    reply to leave."""

    __slots__ = ("node", "body", "span", "obj", "peers", "votes")

    def __init__(self, node: NoobStorageNode, body: dict):
        super().__init__(node.sim)
        self.node = node
        self.body = body
        self.sim._schedule_call(0.0, self._start, priority=URGENT)

    def _start(self) -> None:
        node = self.node
        tr = node.sim.tracer
        self.span = None if tr is None else tr.begin(
            "get.serve", "op", node=node.name, op=tuple(self.body["op_id"]),
            key=self.body["key"])
        node.cpu_work_then(self._route)

    def _route(self) -> None:
        node = self.node
        body = self.body
        key = body["key"]
        replicas = node.partition_map.replicas_of_key(key)
        config = node.config
        can_serve = (
            node.name in replicas
            if config.consistency in ("2pc", "chain", "quorum")
            or config.get_lb == "round_robin"
            else node.name == replicas[0]
        )
        if not can_serve:
            node.forwards.add()
            node._send(node.directory[replicas[0]], dict(body), REQUEST_BYTES,
                       self._forwarded)
            return
        self.obj = node.store.get(key)
        if config.consistency == "quorum":
            # §3.3: quorum systems must read a write-set-covering quorum —
            # R − W + 1 replicas — to guarantee they see the latest commit.
            # This is the "unnecessary high overhead during get operations"
            # the paper charges quorum designs with.
            read_set = config.replication_level - config.quorum_k + 1
            self.peers = iter([r for r in replicas if r != node.name][: read_set - 1])
            self.votes = []
            self._read_quorum()
            return
        node.reply_get_then(body, self.obj, self._replied)

    def _read_quorum(self) -> None:
        for peer in self.peers:
            _Rpc(self.node, peer, {"type": "read_version", "key": self.body["key"]},
                 REQUEST_BYTES, 2, then=self._voted)
            return
        obj = self.obj
        votes = self.votes
        if obj is not None:
            votes.append((obj.stamp, obj.value, obj.size_bytes))
        if votes:
            votes.sort(key=lambda v: v[0])
            stamp, value, size = votes[-1]
            self.obj = StoredObject(self.body["key"], value, size, stamp)
        else:
            self.obj = None
        self.node.reply_get_then(self.body, self.obj, self._replied)

    def _voted(self, reply) -> None:
        if reply is not None and reply.get("stamp") is not None:
            self.votes.append((reply["stamp"], reply["value"], reply["size"]))
        self._read_quorum()

    def _forwarded(self, _conn) -> None:
        if self.span is not None:
            self.span.end(status="forwarded")
        self._complete()

    def _replied(self) -> None:
        if self.span is not None:
            self.span.end(status="ok" if self.obj is not None else "miss")
        self._complete()
