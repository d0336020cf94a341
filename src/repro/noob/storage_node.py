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
from ..sim import AllOf, Counter, Event, Simulator
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
    def _send(self, ip: IPv4Address, body: dict, size: int) -> Event:
        return self.stack.tcp.send_message(ip, NODE_PORT, body, size)

    def _rpc(self, peer: str, body: dict, size: int, timeout_factor: int):
        """One request to ``peer``; returns its token-matched reply, or
        ``None`` after ``timeout_factor`` peer timeouts.  Only the reply
        wait is bounded — the send is not (unlike
        :meth:`NodeShell.request`), which is part of the NOOB schedule."""
        token = self.new_token()
        conn = yield self._send(self.directory[peer], dict(body, token=token), size)
        return (yield from self.await_reply(
            conn,
            lambda m: (m.payload or {}).get("token") == token,
            self.config.peer_timeout_s * timeout_factor,
        ))

    def _reply_put(self, body: dict, status: str) -> None:
        self.reply_put(body["client_ip"], body["client_port"], tuple(body["op_id"]), status)

    # -- dispatch --------------------------------------------------------------------
    def _on_msg(self, msg) -> None:
        body = msg.payload or {}
        kind = body.get("type")
        if kind == "put":
            self.sim.process(self._handle_put(body))
        elif kind == "get":
            self.sim.process(self._handle_get(body))
        elif kind == "replicate":
            self.sim.process(self._handle_replicate(msg, body))
        elif kind == "prepare":
            self.sim.process(self._handle_prepare(msg, body))
        elif kind == "commit2pc":
            self.sim.process(self._handle_commit2pc(msg, body))
        elif kind == "chain_put":
            self.sim.process(self._handle_chain_put(body))
        elif kind == "read_version":
            self.sim.process(self._handle_read_version(msg, body))
        elif kind == "membership_update":
            self.membership_updates.add()
            self.sim.process(self._ack(msg))

    def _ack(self, msg):
        yield msg.conn.send({"type": "membership_ack"}, ACK_BYTES)

    def _handle_read_version(self, msg, body: dict):
        """Quorum-read participant: return our version of the object."""
        yield from self.cpu_work()
        obj = self.store.get(body["key"])
        if obj is not None:
            yield self.disk.read(obj.size_bytes)
        yield msg.conn.send(
            {
                "type": "read_version_reply",
                "token": body["token"],
                "stamp": obj.stamp if obj else None,
                "value": obj.value if obj else None,
                "size": obj.size_bytes if obj else 0,
            },
            (obj.size_bytes if obj else 0) + ACK_BYTES,
        )

    # -- put coordination ----------------------------------------------------------------
    def _handle_put(self, body: dict):
        yield from self.cpu_work()
        key = body["key"]
        replicas = self.partition_map.replicas_of_key(key)
        tr = self.sim.tracer
        if replicas[0] != self.name:
            # Misdirected (ROG random node): one extra hop to the primary.
            self.forwards.add()
            if tr is not None:
                tr.instant("put_forward", "op", node=self.name,
                           op=tuple(body["op_id"]), to=replicas[0])
            yield self._send(self.directory[replicas[0]], dict(body), body["size"])
            return
        secondaries = replicas[1:]
        mode = self.config.consistency
        span = None
        if tr is not None:
            span = tr.begin(f"put.{mode}", "op", node=self.name,
                            op=tuple(body["op_id"]), key=key)
        if mode == "primary":
            yield from self._put_primary_only(body, secondaries)
        elif mode == "2pc":
            yield from self._put_2pc(body, secondaries)
        elif mode == "quorum":
            yield from self._put_quorum(body, secondaries)
        elif mode == "chain":
            yield from self._put_chain(body, replicas)
        if span is not None:
            span.end()

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

    def _commit_local(self, body: dict, stamp: PutStamp):
        yield self.disk.write(body["size"], forced=True)
        self.store.put(StoredObject(body["key"], body["value"], body["size"], stamp))

    def _replication_request(self, peer: str, body: dict, stamp: PutStamp, msg_type: str):
        """One unicast copy to one secondary; completes on its app ack.

        Each outbound copy costs the primary CPU time — the end-host
        replication work NICE offloads to the switch (§4.2).
        """
        yield from self.cpu_work()
        copy = self._copy(body, stamp, msg_type)
        return (yield from self._rpc(peer, copy, body["size"], timeout_factor=4))

    def _put_primary_only(self, body: dict, secondaries: List[str]):
        """Primary-backup: write locally, fan out R−1 unicast copies, ack
        client when every replica confirmed."""
        stamp = self._stamp(body)
        transfers = [
            self.sim.process(self._replication_request(s, body, stamp, "replicate"))
            for s in secondaries
        ]
        yield from self._commit_local(body, stamp)
        if transfers:
            yield AllOf(self.sim, transfers)
        self.puts_served.add()
        self._reply_put(body, "ok")

    def _prepare(self, body: dict, role: str):
        """The local participant sequence for one put (lock, +L, W)."""
        op = PreparedOp(
            tuple(body["op_id"]), body["key"], body["size"], body["client_ip"],
            body["client_ts"], value=body["value"], role=role,
        )
        self.participant.admit(op)
        yield from self.participant.prepare(op)

    def _put_2pc(self, body: dict, secondaries: List[str]):
        """Two explicit rounds (Fig 2's dashed arrows): prepare (data) then
        commit, each acked by every secondary."""
        op_id = tuple(body["op_id"])
        yield from self._prepare(body, "primary")
        stamp = self._stamp(body)
        prepares = [
            self.sim.process(self._replication_request(s, body, stamp, "prepare"))
            for s in secondaries
        ]
        if prepares:
            replies = yield AllOf(self.sim, prepares)
            if any(v is None for v in replies.values()):
                self.participant.abort(op_id)
                self._reply_put(body, "fail")
                return
        commit = {"type": "commit2pc", "op_id": op_id, "key": body["key"], "stamp": stamp}
        commits = [
            self.sim.process(self._rpc(s, commit, COMMIT_BYTES, timeout_factor=4))
            for s in secondaries
        ]
        self.participant.commit(op_id, stamp)
        if commits:
            yield AllOf(self.sim, commits)
        self.puts_served.add()
        self._reply_put(body, "ok")

    def _put_quorum(self, body: dict, secondaries: List[str]):
        """Quorum write: the primary concurrently unicasts to *all* replicas
        but acks the client after the write-set is met.  The remaining
        transfers keep running — the link contention the paper blames for
        NOOB's Fig 8 behaviour."""
        stamp = self._stamp(body)
        k = self.config.quorum_k
        transfers = [
            self.sim.process(self._replication_request(s, body, stamp, "replicate"))
            for s in secondaries
        ]
        yield from self._commit_local(body, stamp)
        needed = k - 1  # local write counts toward the write set
        if needed > 0:
            done = Event(self.sim)
            state = {"acks": 0}

            def on_done(ev):
                if ev.ok and ev.value is not None:
                    state["acks"] += 1
                    if state["acks"] >= needed and not done.triggered:
                        done.succeed()

            for t in transfers:
                t.add_callback(on_done)
            if len(transfers) >= needed:
                yield done
        self.puts_served.add()
        self._reply_put(body, "ok")

    def _put_chain(self, body: dict, replicas: List[str]):
        """Chain replication [43]: store locally, pass the object down the
        chain; the tail acknowledges the client."""
        stamp = self._stamp(body)
        yield from self._commit_local(body, stamp)
        yield from self._chain_forward(body, replicas, position=0, stamp=stamp)

    def _chain_forward(self, body: dict, replicas: List[str], position: int, stamp: PutStamp):
        if position + 1 < len(replicas):
            nxt = replicas[position + 1]
            copy = self._copy(
                body, stamp, "chain_put",
                client_port=body["client_port"], position=position + 1,
            )
            yield self._send(self.directory[nxt], copy, body["size"])
        else:
            self.puts_served.add()
            self._reply_put(body, "ok")

    # -- replica-side handlers --------------------------------------------------------------
    def _handle_replicate(self, msg, body: dict):
        yield from self.cpu_work()
        yield from self._commit_local(body, body["stamp"])
        yield msg.conn.send({"type": "replicate_ack", "token": body["token"]}, ACK_BYTES)

    def _handle_prepare(self, msg, body: dict):
        yield from self.cpu_work()
        tr = self.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("2pc.prepare", "2pc", node=self.name,
                            op=tuple(body["op_id"]), key=body["key"])
        yield from self._prepare(body, "secondary")
        if span is not None:
            span.end(status="prepared")
        yield msg.conn.send({"type": "prepare_ack", "token": body["token"]}, ACK_BYTES)

    def _handle_commit2pc(self, msg, body: dict):
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
        yield msg.conn.send({"type": "commit_ack", "token": body["token"]}, ACK_BYTES)

    def _handle_chain_put(self, body: dict):
        yield from self.cpu_work()
        yield from self._commit_local(body, body["stamp"])
        replicas = self.partition_map.replicas_of_key(body["key"])
        yield from self._chain_forward(body, replicas, body["position"], body["stamp"])

    # -- gets ------------------------------------------------------------------------------
    def _handle_get(self, body: dict):
        tr = self.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("get.serve", "op", node=self.name,
                            op=tuple(body["op_id"]), key=body["key"])
        yield from self.cpu_work()
        key = body["key"]
        replicas = self.partition_map.replicas_of_key(key)
        can_serve = (
            self.name in replicas
            if self.config.consistency in ("2pc", "chain", "quorum")
            or self.config.get_lb == "round_robin"
            else self.name == replicas[0]
        )
        if not can_serve:
            self.forwards.add()
            yield self._send(self.directory[replicas[0]], dict(body), REQUEST_BYTES)
            if span is not None:
                span.end(status="forwarded")
            return
        obj = self.store.get(key)
        if self.config.consistency == "quorum":
            # §3.3: quorum systems must read a write-set-covering quorum —
            # R − W + 1 replicas — to guarantee they see the latest commit.
            # This is the "unnecessary high overhead during get operations"
            # the paper charges quorum designs with.
            read_set = self.config.replication_level - self.config.quorum_k + 1
            peers = [r for r in replicas if r != self.name][: read_set - 1]
            votes = []
            for peer in peers:
                reply = yield from self._rpc(
                    peer, {"type": "read_version", "key": key}, REQUEST_BYTES,
                    timeout_factor=2,
                )
                if reply is not None and reply.get("stamp") is not None:
                    votes.append((reply["stamp"], reply["value"], reply["size"]))
            if obj is not None:
                votes.append((obj.stamp, obj.value, obj.size_bytes))
            if votes:
                votes.sort(key=lambda v: v[0])
                stamp, value, size = votes[-1]
                obj = StoredObject(key, value, size, stamp)
            else:
                obj = None
        yield from self.reply_get(body, obj)
        if span is not None:
            span.end(status="ok" if obj is not None else "miss")
