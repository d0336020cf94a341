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

from functools import partial
from typing import Dict, Optional, Set, Tuple

from ...kv import PreparedOp, PutStamp, StoredObject, TwoPhaseParticipant
from ...sim import URGENT, Event, Fold, Race, Subroutine
from ..config import ACK_BYTES, COMMIT_BYTES, NODE_PORT, PUT_PORT
from ..membership import ReplicaSet
from ..vring import mc_group_address

__all__ = ["PutEngine"]


class PutEngine:
    """Participant + coordinator of one node's puts."""

    def __init__(self, node):
        self.node = node
        self.participant = TwoPhaseParticipant(
            node.sim, node.disk, node.store, node.wal, node.locks,
            is_up=lambda: node.host.up,
        )
        #: op id → the primary's put chain coordinating it.
        self._coord: Dict[Tuple, _Put] = {}
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
    def prepare(self, msg, body: dict) -> Event:
        """A put multicast reached this replica: admit it, run the local
        participant sequence, then ack the primary — or, on the primary,
        coordinate.  Returns the chain (an Event)."""
        return _Put(self, msg, body)

    def _ack_primary(self, rs: Optional[ReplicaSet], op_id: Tuple, phase: int,
                     then=None) -> None:
        """Send ``put_ack{phase}`` to the primary; ``then(conn)`` once it
        has arrived (at once, with no send, when the primary is unknown;
        ``None``: nobody waits)."""
        node = self.node
        primary_ip = node.directory.get(rs.primary) if rs else None
        if primary_ip is None:
            if then is not None:
                then()
            return
        node.stack.tcp.send_message(
            primary_ip,
            NODE_PORT,
            {"type": f"put_ack{phase}", "op_id": op_id, "node": node.name},
            ACK_BYTES,
            then=then,
        )

    def store_anyk(self, body: dict) -> None:
        """Quorum-mode put (§5 any-k multicast): the transport already
        acked reception; just persist — no 2PC round.  Called in an URGENT
        record; the forced write's completion stores the object."""
        node = self.node

        def stored() -> None:
            stamp = PutStamp(node.ip_str, node.sim.now, body["client_ip"], body["client_ts"])
            node.store.put(StoredObject(body["key"], body["value"], body["size"], stamp))
            node.puts_served.add()
            tr = node.sim.tracer
            if tr is not None:
                tr.instant("store_anyk", "op", node=node.name,
                           op=tuple(body["op_id"]), key=body["key"])

        node.disk.write(body["size"], forced=True, then=stored)

    def on_commit(self, body: dict) -> None:
        """The primary's timestamp multicast reached this replica.  Called
        in an URGENT record; nothing waits for the ack2 send."""
        op_id = tuple(body["op_id"])
        op = self.participant.pending.get(op_id)
        if op is None:
            self.participant.commit_early(op_id, body["stamp"])
            return
        if op.role == "primary":
            return  # primary committed inline; duplicates ignored
        self.apply_commit(op_id, body["stamp"])
        self._ack_primary(self.node.replica_sets.get(op.partition), op_id, 2)

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
        put = self._coord.get(op_id)
        if put is None:
            if op_id not in self.participant.committed:
                self._early_acks.setdefault(op_id, {}).setdefault(phase, set()).add(peer)
            return
        acks = put.acks[phase]
        needed = peer in put.need and peer not in acks
        acks.add(peer)
        self.node.meta.clear_strikes(peer)
        if needed:
            put.folds[phase].add()


class _Put(Race, Event):
    """One delivered put on this replica as a callback chain that schedules
    the records of the process it replaced (DESIGN.md §5g): the URGENT
    start, the admit checks, the CPU step, the participant's prepare, then
    the ack to the primary — or, on the primary, the coordination (Fig 3):
    gather ack1, multicast the timestamp, gather ack2, answer the client.
    It completes like a process.

    Each phase's acks are a :class:`~repro.sim.Fold` over the secondaries
    it needs (``record_ack`` adds to it), whose record is where the
    phase's done event fired; each gather is a :class:`~repro.sim.Race`
    of that record against the peer timer.  Acks all in before their
    gather starts (no secondaries) join at once and leave the timer armed,
    as the ``AnyOf`` over a processed event did.  Strikes against silent
    peers run one after another, each a :class:`~repro.sim.Subroutine`."""

    __slots__ = ("engine", "virtual_dst", "body", "op", "span", "need", "acks", "folds",
                 "phase", "early", "missing", "strikes", "settled", "reply", "timer")

    def __init__(self, engine: PutEngine, msg, body: dict):
        super().__init__(engine.node.sim)
        self.engine = engine
        self.virtual_dst = msg.virtual_dst
        self.body = body
        self.span = None
        self.sim._schedule_call(0.0, self._start, priority=URGENT)

    def _end(self, _sent=None) -> None:
        self._complete()

    # -- replica side ---------------------------------------------------------------
    def _start(self) -> None:
        engine = self.engine
        node = engine.node
        virtual_dst = self.virtual_dst
        if virtual_dst is None or virtual_dst not in node.mc.prefix:
            self._complete()
            return
        partition = node.mc.subgroup_of_address(virtual_dst)
        my_role = node.role(partition)
        if my_role is None:
            self._complete()
            return
        body = self.body
        self.op = op = PreparedOp(
            tuple(body["op_id"]), body["key"], body["size"], body["client_ip"],
            body["client_ts"], value=body["value"], client_port=body["client_port"],
            partition=partition, role=my_role,
        )
        if not engine.participant.admit(op):
            self._complete()  # duplicate delivery of a retried put
            return
        tr = node.sim.tracer
        if tr is not None:
            self.span = tr.begin("2pc.prepare", "2pc", node=node.name, op=op.op_id,
                                 role=my_role, key=op.key)
        node.cpu_work_then(self._prepare)

    def _prepare(self) -> None:
        self.engine.participant.prepare(self.op, self._prepared)

    def _prepared(self, status: str) -> None:
        engine = self.engine
        op = self.op
        span = self.span
        if status in ("raced", "crashed"):
            # Aborted (or already force-committed) while we queued, or
            # crashed mid-prepare: the put ends with the node.
            if span is not None:
                span.end(status=status)
            self._complete()
            return
        node = engine.node
        engine._clients_seen.setdefault(op.partition, set()).add(op.client_addr)
        rs = node.replica_sets[op.partition]
        if status == "aborted":
            engine._after_abort(op.op_id)
        if span is not None:
            span.end(status=status)
        if status == "early_commit":
            engine._after_commit(op)
            if op.role != "primary":
                engine._ack_primary(rs, op.op_id, 2, self._end)
                return
        elif status == "prepared":
            if op.role == "primary":
                self._coordinate(rs)
            else:
                engine._ack_primary(rs, op.op_id, 1, self._end)
            return
        self._complete()

    # -- primary side -------------------------------------------------------------------
    def _coordinate(self, rs: ReplicaSet) -> None:
        engine = self.engine
        node = engine.node
        op = self.op
        op_id = op.op_id
        tr = node.sim.tracer
        self.span = None if tr is None else tr.begin(
            "2pc.coordinate", "2pc", node=node.name, op=op_id, key=op.key)
        # Phase-1 rejoiners receive puts best-effort: they are still
        # catching up and will fetch anything missed from the handoff, so
        # the operation's success must not depend on their acks (§4.4).
        self.need = secondaries = {s for s in rs.secondaries() if s not in rs.joining}
        self.acks = {1: set(), 2: set()}
        self.early = None
        sim = node.sim
        self.folds = {phase: Fold(sim, len(secondaries), partial(self._acked, phase))
                      for phase in (1, 2)}
        engine._coord[op_id] = self
        # Drain acks that beat us here while our prepare was on the disk.
        early = engine._early_acks.pop(op_id, None)
        if early:
            for phase, peers in early.items():
                for peer in peers:
                    engine.record_ack(op_id, peer, phase)
        self._gather(1)

    def _gather(self, phase: int) -> None:
        """Wait for the phase's acks or the peer timeout."""
        self.phase = phase
        sim = self.sim
        self._race(sim, self.engine.node.config.peer_timeout_s)
        if self.early == phase:  # join at once; the timer stays armed
            self.settled = True
            self.reply = True
            sim._schedule_call(0.0, self._join)

    def _acked(self, phase: int) -> None:
        """All of ``phase``'s needed acks are in."""
        if phase == self.phase:
            self._won(True)
        else:
            self.early = phase  # before its gather began

    def _settled(self, acked) -> None:
        if self.phase == 1:
            self._committing(acked)
        else:
            self._committed(acked)

    def _committing(self, acked) -> None:
        engine = self.engine
        node = engine.node
        op = self.op
        op_id = op.op_id
        # Nodes address the replica set's IP multicast group directly (they
        # hold the O(R) membership); works on cores that cannot rewrite.
        group_addr = mc_group_address(op.partition)
        if not acked:
            # Secondary failed mid-put: abort, tell the client, report peers.
            self.missing = missing = sorted(self.need - self.acks[1])
            node.aborts.add()
            node.mc_sender.send_ctrl(
                group_addr, PUT_PORT, {"type": "abort", "op_id": op_id}, ACK_BYTES
            )
            engine.apply_abort(op_id)
            engine._coord.pop(op_id, None)
            node.reply_put(op.client_addr, op.client_port, op_id, "fail")
            self._strike_all()
            return
        stamp = PutStamp(node.ip_str, node.sim.now, op.client_addr, op.client_ts)
        node.mc_sender.send_ctrl(
            group_addr,
            PUT_PORT,
            {"type": "commit", "op_id": op_id, "stamp": stamp},
            COMMIT_BYTES,
        )
        tr = node.sim.tracer
        if tr is not None:
            tr.instant("commit_mcast", "2pc", node=node.name, op=op_id)
        if not node.host.up:
            if self.span is not None:
                self.span.end(status="crashed")
            self._complete()
            return  # crashed at the timestamp boundary: no local commit
        engine.apply_commit(op_id, stamp)
        self._gather(2)

    def _committed(self, acked) -> None:
        engine = self.engine
        op = self.op
        engine._coord.pop(op.op_id, None)
        if not acked:
            self.missing = sorted(self.need - self.acks[2])
            self._strike_all()
            return
        node = engine.node
        node.puts_served.add()
        node.reply_put(op.client_addr, op.client_port, op.op_id, "ok")
        if self.span is not None:
            self.span.end(status="ok")
        self._complete()

    def _strike_all(self) -> None:
        self.strikes = iter(self.missing)
        self._strike()

    def _strike(self, _reported=None) -> None:
        """One strike per silent peer, in order (§4.4), then the end."""
        for peer in self.strikes:
            Subroutine(self.sim, self.engine.node.meta.strike(peer), self._strike)
            return
        op = self.op
        if self.phase == 2:
            self.engine.node.reply_put(op.client_addr, op.client_port, op.op_id, "fail")
        if self.span is not None:
            self.span.end(status="aborted" if self.phase == 1 else "fail",
                          missing=self.missing)
        self._complete()
