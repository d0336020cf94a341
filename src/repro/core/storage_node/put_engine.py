"""The NICE-2PC put path (§4.3, Fig 3).

The client's put is multicast by the switch to the whole replica set.
Each replica runs the local participant sequence (lock, +L, W) and ack1's
the primary; the primary, on all ack1s, stamps the operation and
multicasts the timestamp; replicas commit, unlock (−L) and ack2; the
primary then acknowledges the client.  This module is the wire protocol
around :class:`~repro.kv.TwoPhaseParticipant`: who acks whom, the
primary-side coordination, and the commit/abort entry points the failover
reconciliation forces.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ...kv import PreparedOp, PutStamp, StoredObject, TwoPhaseParticipant
from ...sim import AnyOf, Event
from ..config import ACK_BYTES, COMMIT_BYTES, NODE_PORT, PUT_PORT
from ..membership import ReplicaSet
from ..vring import mc_group_address

__all__ = ["PutEngine"]


class _Coordination:
    """Primary-side per-operation 2PC state: per phase (1 = prepared,
    2 = committed), who acked and the event that fires when all have."""

    def __init__(self, sim, need: Set[str]):
        self.need = need
        self.acks: Dict[int, Set[str]] = {1: set(), 2: set()}
        self.done: Dict[int, Event] = {1: Event(sim), 2: Event(sim)}


class PutEngine:
    """Participant + coordinator of one node's puts."""

    def __init__(self, node):
        self.node = node
        self.participant = TwoPhaseParticipant(
            node.sim, node.disk, node.store, node.wal, node.locks,
            is_up=lambda: node.host.up,
        )
        self._coord: Dict[Tuple, _Coordination] = {}
        #: Acks that raced ahead of the primary's own prepare (its disk can
        #: queue behind concurrent gets); drained when the coord is created.
        self._early_acks: Dict[Tuple, Dict[int, Set[str]]] = {}
        #: key → disk sequence of its latest object data write (W is not
        #: forced); entries above the flush barrier are lost on power loss.
        self._volatile: Dict[str, int] = {}
        #: partition → client addresses seen since the last heartbeat.
        self._clients_seen: Dict[int, set] = {}

    # -- what the other components ask ----------------------------------------
    def drain_client_stats(self) -> Dict[int, list]:
        stats = {p: sorted(c) for p, c in self._clients_seen.items()}
        self._clients_seen.clear()
        return stats

    def made_durable(self, key: str) -> None:
        """``key``'s object was rewritten with a forced write (or dropped)."""
        self._volatile.pop(key, None)

    def prune_volatile(self) -> None:
        """Bound the volatile-object map: entries at or below the flush
        barrier are durable and no longer need tracking."""
        if self._volatile:
            barrier = self.node.disk.durable_seq
            for key in [k for k, s in self._volatile.items() if s <= barrier]:
                del self._volatile[key]

    def crash(self) -> None:
        self.participant.crash()
        self._coord.clear()
        self._early_acks.clear()

    def power_loss(self, barrier: int) -> None:
        """Object writes above the disk's flush ``barrier`` vanish."""
        for key, seq in self._volatile.items():
            if seq > barrier:
                self.node.store.drop(key)
        self._volatile.clear()

    # -- replica side -----------------------------------------------------------
    def prepare(self, msg, body: dict):
        node = self.node
        if msg.virtual_dst is None or msg.virtual_dst not in node.mc.prefix:
            return
        partition = node.mc.subgroup_of_address(msg.virtual_dst)
        my_role = node.role(partition)
        if my_role is None:
            return
        op = PreparedOp(
            tuple(body["op_id"]), body["key"], body["size"], body["client_ip"],
            body["client_ts"], value=body["value"], client_port=body["client_port"],
            partition=partition, role=my_role,
        )
        op_id = op.op_id
        if not self.participant.admit(op):
            return  # duplicate delivery of a retried put
        tr = node.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("2pc.prepare", "2pc", node=node.name, op=op_id,
                            role=my_role, key=op.key)
        yield from node.cpu_work()
        status = yield from self.participant.prepare(op)
        if status in ("raced", "crashed"):
            # Aborted (or already force-committed) while we queued, or
            # crashed mid-prepare: the process dies with the node.
            if span is not None:
                span.end(status=status)
            return
        self._clients_seen.setdefault(partition, set()).add(op.client_addr)
        rs = node.replica_sets[partition]
        if status == "aborted":
            self._after_abort(op_id)
        if span is not None:
            span.end(status=status)
        if status == "early_commit":
            self._after_commit(op)
            if my_role != "primary":
                yield from self._ack_primary(rs, op_id, phase=2)
        elif status == "prepared":
            if my_role == "primary":
                yield from self._coordinate(op, rs)
            else:
                yield from self._ack_primary(rs, op_id, phase=1)

    def _ack_primary(self, rs: Optional[ReplicaSet], op_id: Tuple, phase: int):
        node = self.node
        primary_ip = node.directory.get(rs.primary) if rs else None
        if primary_ip is not None:
            yield node.stack.tcp.send_message(
                primary_ip,
                NODE_PORT,
                {"type": f"put_ack{phase}", "op_id": op_id, "node": node.name},
                ACK_BYTES,
            )

    def store_anyk(self, body: dict):
        """Quorum-mode put (§5 any-k multicast): the transport already
        acked reception; just persist — no 2PC round."""
        node = self.node
        yield node.disk.write(body["size"], forced=True)
        stamp = PutStamp(node.ip_str, node.sim.now, body["client_ip"], body["client_ts"])
        node.store.put(StoredObject(body["key"], body["value"], body["size"], stamp))
        node.puts_served.add()
        tr = node.sim.tracer
        if tr is not None:
            tr.instant("store_anyk", "op", node=node.name,
                       op=tuple(body["op_id"]), key=body["key"])

    def on_commit(self, body: dict):
        """The primary's timestamp multicast reached this replica."""
        op_id = tuple(body["op_id"])
        op = self.participant.pending.get(op_id)
        if op is None:
            self.participant.commit_early(op_id, body["stamp"])
            return
        if op.role == "primary":
            return  # primary committed inline; duplicates ignored
        self.apply_commit(op_id, body["stamp"])
        yield from self._ack_primary(
            self.node.replica_sets.get(op.partition), op_id, phase=2
        )

    def apply_commit(self, op_id: Tuple, stamp: PutStamp) -> None:
        node = self.node
        if not node.host.up:
            return
        op = self.participant.commit(op_id, stamp)
        if op is not None:
            self._after_commit(op)
            return
        # No in-memory state: a crash-surviving log record (§4.4
        # complete-cluster-failure) can still be committed from the log.
        rec = node.wal.get(op_id)
        if rec is not None:
            self.participant.commit_logged(
                rec, stamp, handoff=node.role(rec.partition) == "handoff"
            )

    def _after_commit(self, op: PreparedOp) -> None:
        node = self.node
        if (
            op.role != "handoff"
            and op.data_seq > 0
            and not node.disk.is_durable(op.data_seq)
        ):
            self._volatile[op.key] = op.data_seq
        tr = node.sim.tracer
        if tr is not None:
            tr.instant("commit", "2pc", node=node.name, op=op.op_id, role=op.role)

    def apply_abort(self, op_id: Tuple) -> None:
        if not self.node.host.up:
            return
        self.participant.abort(op_id)
        self._after_abort(op_id)

    def _after_abort(self, op_id: Tuple) -> None:
        self._early_acks.pop(op_id, None)
        tr = self.node.sim.tracer
        if tr is not None:
            tr.instant("abort", "2pc", node=self.node.name, op=op_id)

    # -- primary side -------------------------------------------------------------
    def record_ack(self, op_id: Tuple, peer: str, phase: int) -> None:
        coord = self._coord.get(op_id)
        if coord is None:
            if op_id not in self.participant.committed:
                self._early_acks.setdefault(op_id, {}).setdefault(phase, set()).add(peer)
            return
        coord.acks[phase].add(peer)
        self.node.meta.clear_strikes(peer)
        if coord.need <= coord.acks[phase] and not coord.done[phase].triggered:
            coord.done[phase].succeed()

    def _coordinate(self, op: PreparedOp, rs: ReplicaSet):
        """Primary-side 2PC (Fig 3): gather ack1, multicast the timestamp,
        gather ack2, acknowledge the client."""
        node = self.node
        op_id = op.op_id
        tr = node.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("2pc.coordinate", "2pc", node=node.name, op=op_id,
                            key=op.key)
        # Phase-1 rejoiners receive puts best-effort: they are still
        # catching up and will fetch anything missed from the handoff, so
        # the operation's success must not depend on their acks (§4.4).
        secondaries = {s for s in rs.secondaries() if s not in rs.joining}
        coord = self._coord[op_id] = _Coordination(node.sim, need=secondaries)
        # Drain acks that beat us here while our prepare was on the disk.
        early = self._early_acks.pop(op_id, None)
        if early:
            for phase, peers in early.items():
                for peer in peers:
                    self.record_ack(op_id, peer, phase)
        if not secondaries:
            for done in coord.done.values():
                if not done.triggered:
                    done.succeed()
        # Nodes address the replica set's IP multicast group directly (they
        # hold the O(R) membership); works on cores that cannot rewrite.
        group_addr = mc_group_address(op.partition)
        if not (yield from self._await(coord.done[1])):
            # Secondary failed mid-put: abort, tell the client, report peers.
            missing = coord.need - coord.acks[1]
            node.aborts.add()
            node.mc_sender.send_ctrl(
                group_addr, PUT_PORT, {"type": "abort", "op_id": op_id}, ACK_BYTES
            )
            self.apply_abort(op_id)
            self._coord.pop(op_id, None)
            node.reply_put(op.client_addr, op.client_port, op_id, "fail")
            for peer in sorted(missing):
                yield from node.meta.strike(peer)
            if span is not None:
                span.end(status="aborted", missing=sorted(missing))
            return
        stamp = PutStamp(node.ip_str, node.sim.now, op.client_addr, op.client_ts)
        node.mc_sender.send_ctrl(
            group_addr,
            PUT_PORT,
            {"type": "commit", "op_id": op_id, "stamp": stamp},
            COMMIT_BYTES,
        )
        if tr is not None:
            tr.instant("commit_mcast", "2pc", node=node.name, op=op_id)
        if not node.host.up:
            if span is not None:
                span.end(status="crashed")
            return  # crashed at the timestamp boundary: no local commit
        self.apply_commit(op_id, stamp)
        ok2 = yield from self._await(coord.done[2])
        self._coord.pop(op_id, None)
        if not ok2:
            missing = coord.need - coord.acks[2]
            for peer in sorted(missing):
                yield from node.meta.strike(peer)
            node.reply_put(op.client_addr, op.client_port, op_id, "fail")
            if span is not None:
                span.end(status="fail", missing=sorted(missing))
            return
        node.puts_served.add()
        node.reply_put(op.client_addr, op.client_port, op_id, "ok")
        if span is not None:
            span.end(status="ok")

    def _await(self, ev: Event):
        sim = self.node.sim
        got = yield AnyOf(sim, [ev, sim.timeout(self.node.config.peer_timeout_s)])
        return ev in got
