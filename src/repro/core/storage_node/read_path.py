"""The NICE get path (§4.3–§4.5) and the integrity checks that ride on it.

A get lands on whichever replica the switch's load balancer picked.  A
consistent replica answers from its store; a handoff answers only for
objects it received itself and forwards the rest to the primary (§4.4); a
node that must not answer at all (stale rule, mid-rejoin) forwards too.
Bit-rot (§5k) is never served: a checksum failure triggers read-repair
from a consistent replica, on the get path and in the opt-in scrubber.
"""

from __future__ import annotations

from typing import Optional

from ...kv import StoredObject
from ...sim import URGENT, Event, Subroutine
from ..config import ACK_BYTES, NODE_PORT, REQUEST_BYTES
from ..membership import ReplicaSet

__all__ = ["ReadPath"]


class ReadPath:
    """Serve, forward and repair reads for one node."""

    def __init__(self, node):
        self.node = node

    def serve(self, body: dict, virtual_dst) -> Event:
        """Serve one get that landed here; returns the chain (an Event)."""
        return _Serve(self, body, virtual_dst)

    def serve_forwarded(self, request: dict) -> Event:
        """Primary side of a forwarded get: answer the client directly."""
        return _Serve(self, request, None, forwarded=True)

    # -- integrity (§5k) ----------------------------------------------------------
    def serve_fetch_object(self, msg, body: dict):
        """Serve a peer's read-repair: ship our copy of one object, but
        only if it passes its own checksum — repair must never spread a
        second replica's rot."""
        node = self.node
        obj = node.store.get(body["key"])
        good = obj is not None and node.store.verify(obj)
        if good:
            yield node.sim.wait(node.disk.read, obj.size_bytes)
        yield node.sim.wait(msg.conn.send,
            {
                "type": "object_data",
                "token": body["token"],
                "object": (obj.name, obj.value, obj.size_bytes, obj.stamp)
                if good
                else None,
            },
            (obj.size_bytes if good else 0) + ACK_BYTES,
        )

    def _read_repair(self, key: str, rs: ReplicaSet):
        """Replace a checksum-failing local copy from a consistent replica
        (§5k).  Returns the repaired object, or ``None`` when no peer
        could supply a verified copy — in which case the rotten version
        is dropped rather than ever served."""
        node = self.node
        for peer in rs.get_targets():
            if peer == node.name:
                continue
            ip = node.directory.get(peer)
            if ip is None:
                continue
            reply = yield from node.request(
                ip,
                {"type": "fetch_object", "key": key},
                REQUEST_BYTES,
                reply_type="object_data",
            )
            if reply is None or reply.get("object") is None:
                continue
            name, value, size, stamp = reply["object"]
            obj = StoredObject(name, value, size, stamp)
            yield node.sim.wait(node.disk.write, size, forced=True)
            node.store.repair(obj)
            node.puts.made_durable(key)
            tr = node.sim.tracer
            if tr is not None:
                tr.instant("read_repair", "node", node=node.name, key=key,
                           source=peer)
            return obj
        node.store.drop(key)
        node.puts.made_durable(key)
        return None

    def scrub_loop(self):
        """Background scrubber (§5k, opt-in via ``scrub_interval_s``):
        walk the store on a cadence, re-verify every object checksum, and
        read-repair latent bit-rot before a client read ever trips on it."""
        node = self.node
        while True:
            yield node.sim.timeout(node.config.scrub_interval_s)
            if not node.host.up:
                continue
            for key in node.store.names():
                if not node.host.up:
                    break
                obj = node.store.get(key)
                if obj is None:
                    continue
                node.scrub_scans.add()
                yield node.sim.wait(node.disk.read, obj.size_bytes)
                if node.store.verify(obj):
                    continue
                rs = node.replica_sets.get(node.uni.subgroup_of_key(key))
                if rs is None:
                    continue
                repaired = yield from self._read_repair(key, rs)
                if repaired is not None:
                    node.scrub_repairs.add()


class _Serve(Event):
    """One get's service on this node as a callback chain that schedules
    the records of the process it replaced (DESIGN.md §5g): the URGENT
    start, the CPU step (grant, service timer, release), then one of —
    the reply (disk read on a hit, the send), a forward to the primary
    (the send), or read-repair first (a :class:`~repro.sim.Subroutine`,
    which adds no record of its own).  It completes like a process.  A
    forwarded get skips the span and the CPU step and is answered from
    the store, as the primary's old ``serve_forwarded`` was."""

    __slots__ = ("reads", "body", "virtual_dst", "span", "status")

    def __init__(self, reads: ReadPath, body: dict, virtual_dst, forwarded: bool = False):
        super().__init__(reads.node.sim)
        self.reads = reads
        self.body = body
        self.virtual_dst = virtual_dst
        self.span = None
        self.sim._schedule_call(
            0.0, self._answer_forwarded if forwarded else self._start, priority=URGENT)

    def _start(self) -> None:
        node = self.reads.node
        tr = node.sim.tracer
        if tr is not None:
            body = self.body
            self.span = tr.begin("get.serve", "op", node=node.name,
                                 op=tuple(body["op_id"]), key=body["key"])
        node.cpu_work_then(self._route)

    def _route(self) -> None:
        node = self.reads.node
        body = self.body
        key = body["key"]
        virtual_dst = self.virtual_dst
        if "partition" in body:
            partition = body["partition"]
        elif virtual_dst is not None and virtual_dst in node.uni.prefix:
            partition = node.uni.subgroup_of_address(virtual_dst)
        else:
            partition = node.uni.subgroup_of_key(key)
        self.body = body = dict(body, partition=partition)
        my_role = node.role(partition)
        if my_role == "handoff":
            obj = node.store.get_handoff(key)
            if obj is None:
                # §4.4: handoff forwards gets for objects it never received.
                self._forward(partition, "forwarded")
                return
        elif my_role is None:
            # A stale switch rule routed this get here (e.g. to a node
            # just released from handoff duty, before the controller's
            # flow-mods re-sync).  This node is not a consistent replica
            # for the partition and must not answer from its store —
            # §4.3's invariant is that clients only ever reach consistent
            # replicas.  Forward to the primary if the slice is known,
            # else stay silent and let the client's retry find the
            # updated rules.
            self._forward(partition, "forwarded_stale")
            return
        else:
            rs = node.replica_sets.get(partition)
            if rs is not None and node.name in rs.absent and node.name not in rs.handoffs:
                # Member but not get-visible (failed/mid-rejoin): a stale
                # rule routed the get here — e.g. the controller crashed
                # before the post-failure flow-mods landed.  The local
                # store may be arbitrarily behind; forward to the primary.
                self._forward(partition, "forwarded_joining")
                return
            obj = node.store.get(key)
            if obj is not None and not node.store.verify(obj):
                # Bit-rot (§5k): never serve a value that fails its
                # checksum — read-repair from a consistent replica first.
                Subroutine(node.sim, self.reads._read_repair(key, rs), self._repaired)
                return
        self._reply(obj)

    def _repaired(self, obj: Optional[StoredObject]) -> None:
        if obj is not None:
            self.reads.node.read_repairs.add()
        self._reply(obj)

    def _reply(self, obj: Optional[StoredObject]) -> None:
        self.status = "ok" if obj is not None else "miss"
        self.reads.node.reply_get_then(self.body, obj, sent=self._end)

    def _answer_forwarded(self) -> None:
        node = self.reads.node
        obj = node.store.get(self.body["key"])
        node.gets_forwarded.add()
        self._reply(obj)

    def _forward(self, partition: int, status: str) -> None:
        """Relay a get we must not answer to the partition's primary."""
        node = self.reads.node
        self.status = status
        rs = node.replica_sets.get(partition)
        primary_ip = node.directory.get(rs.primary) if rs else None
        if primary_ip is None:
            self._end()
            return
        node.gets_forwarded.add()
        node.stack.tcp.send_message(
            primary_ip,
            NODE_PORT,
            {"type": "get_forward", "request": self.body},
            REQUEST_BYTES,
            then=self._end,
        )

    def _end(self, _sent=None) -> None:
        if self.span is not None:
            self.span.end(status=self.status)
        self._complete()
