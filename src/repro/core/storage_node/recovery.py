"""Membership changes, and how a node gets consistent again (§4.4).

* **Rejoin** — a restarting node rejoins put-first, fetches missed objects
  from its handoffs, then reports consistency to the metadata service
  (which restores its get visibility); **catch-up** does the same for a
  node freshly added to a replica set, from the primary.
* **Fetch servers** — the other side of both.
* **Primary failover** — a promoted secondary queries peers for locked
  operations and applies the paper's rule: committed-anywhere ⇒ commit
  everywhere; locked-everywhere (no commit evidence) ⇒ abort.
* **Cold restart** — after power loss, rebuild from the platter.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ...kv import PutStamp, StoredObject
from ...sim import Event
from ..config import ACK_BYTES, MEMBERSHIP_BYTES, NODE_PORT, REQUEST_BYTES
from ..membership import ReplicaSet

__all__ = ["Recovery", "FETCH_DRAIN_POLL_S"]

#: Poll cadence while a partition snapshot waits for in-flight 2PC ops to
#: resolve (the §4.4 catch-up/commit race) — well under one commit round.
FETCH_DRAIN_POLL_S = 100e-6


class Recovery:
    """Rejoin, catch-up, fetch servers, new-primary reconcile, cold restart."""

    def __init__(self, node):
        self.node = node
        #: True while the crash-recovery rejoin drives catch-up itself (the
        #: §4.4 node-addition catch-up must not double-trigger).
        self._rejoining = False
        #: Partitions this node already leads: a promotion (re)runs the
        #: lock reconciliation only for partitions not in here.
        self._was_primary: Set[int] = set()
        #: True after a power failure until the cold restart rebuilds the
        #: store from the durable image + WAL replay (§4.4, §5k).
        self._cold = False

    # -- lifecycle ----------------------------------------------------------------
    def seed(self, rs: ReplicaSet) -> None:
        """A build-time slice: leading it needs no reconciliation."""
        if rs.primary == self.node.name:
            self._was_primary.add(rs.partition)

    def crash(self, power_loss: bool) -> None:
        # Forget primary roles: if re-promoted after restart, run the
        # log-driven reconciliation again (complete-cluster-failure path).
        self._was_primary.clear()
        if power_loss:
            self._cold = True

    def restart(self) -> Event:
        """Rebuild from the platter if the power was lost, then run the
        two-phase rejoin; returns the rejoin Process."""
        self._was_primary.clear()
        if self._cold:
            self._cold = False
            self._cold_restart()
        return self.node.sim.process(self.rejoin())

    def on_rejoin_restart(self, body: dict) -> None:
        """The new metadata leader found us mid-rejoin in the replayed log:
        our phase-1 state did not survive the takeover, so the rejoin
        restarts from the beginning (§4.4 semantics hold: we are still
        absent, hence not get-visible)."""
        node = self.node
        if (
            not node.meta.fence(body.get("epoch"))
            and not self._rejoining
            and node.host.up
        ):
            node.meta.adopt_leader(body.get("epoch"), body.get("ip"))
            node.sim.process(self.rejoin())

    def _cold_restart(self) -> None:
        """Rebuild after power loss from what the platter holds (§4.4:
        "the persistent logs on the nodes will identify the latest put
        operations").  Committed WAL records re-apply to the store —
        completing the −L the crash interrupted — while uncommitted ones
        stay pending for the primary's lock reconciliation."""
        node = self.node
        node.cold_restarts.add()
        for rec in node.wal.replay():
            if not rec.committed:
                continue
            node.store.put(StoredObject(rec.key, rec.value, rec.size_bytes, rec.stamp))
            node.wal.remove(rec.op_id)
            node.replayed_commits.add()
        tr = node.sim.tracer
        if tr is not None:
            tr.instant(
                "cold_restart", "node",
                node=node.name,
                wal_pending=len(node.wal),
                torn=node.wal.torn_records,
            )

    # -- membership -----------------------------------------------------------------
    def on_membership(self, rs: ReplicaSet) -> None:
        node = self.node
        old = node.replica_sets.get(rs.partition)
        node.replica_sets[rs.partition] = rs
        # Freshly added to this replica set (§4.4 Ring Re-Configuration):
        # catch up from the primary, then report consistency.
        if (
            node.name in rs.joining
            and (old is None or node.name not in old.members)
            and rs.primary != node.name
            and not self._rejoining
        ):
            node.sim.process(self._catch_up(rs))
        # Released from handoff duty: purge that partition's handoff objects.
        if old is not None and node.name in old.handoffs and node.name not in rs.handoffs:
            for obj in node.store.handoff_objects():
                if node.uni.subgroup_of_key(obj.name) == rs.partition:
                    node.store.drop_handoff(obj.name)
        # Newly promoted to primary: reconcile in-flight 2PC state (§4.4).
        if rs.primary == node.name and rs.partition not in self._was_primary:
            self._was_primary.add(rs.partition)
            node.sim.process(self._reconcile(rs))
        if rs.primary != node.name:
            self._was_primary.discard(rs.partition)

    # -- fetching what we missed -------------------------------------------------------
    def _fetch(self, ip, kind: str, partition: int, wait_s=None):
        """Ask ``ip`` for a partition's objects (``kind``: ``"handoff"`` or
        ``"partition"``), then force-write and store each.  Returns how
        many arrived, or ``None`` if the peer did not answer."""
        node = self.node
        data = yield from node.request(
            ip,
            {"type": f"fetch_{kind}", "partition": partition},
            REQUEST_BYTES,
            reply_type=f"{kind}_data",
            wait_s=wait_s,
        )
        if data is None:
            return None
        for name, value, size, stamp in data["objects"]:
            yield node.sim.wait(node.disk.write, size, forced=True)
            node.store.put(StoredObject(name, value, size, stamp))
        return len(data["objects"])

    def _catch_up(self, rs: ReplicaSet):
        """New-replica catch-up: fetch the hash range from the primary,
        then tell the metadata service we are consistent."""
        node = self.node
        primary_ip = node.directory.get(rs.primary)
        if primary_ip is None:
            return
        if (yield from self._fetch(primary_ip, "partition", rs.partition)) is None:
            return  # primary unreachable: stay put-only; retry on next slice
        yield from node.meta.request(
            {"type": "consistent", "node": node.name}, reply_type="consistent_ack"
        )

    def rejoin(self):
        """Contact the metadata service, fetch what we missed, report
        consistency.  Returns the number of objects recovered.

        Phase 1 (``rejoin``) must succeed before anything else happens: a
        node that never became put-visible must not report ``consistent``
        (it would be made get-visible with an arbitrarily stale store).
        The request retries with backoff — the metadata leader may be
        failing over, or deferring us while its switch channel is down.
        """
        node = self.node
        self._rejoining = True
        try:
            reply = None
            for _ in range(8):
                reply = yield from node.meta.request(
                    {"type": "rejoin", "node": node.name}, reply_type="rejoin_ack"
                )
                if reply is not None or not node.host.up:
                    break
                yield node.sim.timeout(node.config.peer_timeout_s)
            if reply is None:
                return 0
            node.meta.fence(reply.get("epoch"))
            recovered = 0
            for wire in reply.get("replica_sets") or []:
                self.on_membership(ReplicaSet.from_wire(wire))
            for partition, handoffs in (reply.get("handoffs") or {}).items():
                for handoff in handoffs:
                    ip = node.directory.get(handoff)
                    if ip is None:
                        continue
                    recovered += (yield from self._fetch(ip, "handoff", partition)) or 0
            # Partitions whose handoff chain broke while we were away
            # (correlated failures can kill the stand-in too): the
            # incremental handoff fetch cannot cover the gap, so pull the
            # whole partition from the acting primary.  The server-side
            # drain holds the snapshot until in-flight 2PC rounds that
            # predate our put-visibility have resolved.
            for partition in reply.get("full_fetch") or ():
                rs = node.replica_sets.get(partition)
                if rs is None or rs.primary == node.name:
                    continue
                ip = node.directory.get(rs.primary)
                if ip is None:
                    continue
                for _ in range(2):
                    fetched = yield from self._fetch(
                        ip, "partition", partition, wait_s=node.config.peer_timeout_s * 3
                    )
                    if fetched is not None or not node.host.up:
                        recovered += fetched or 0
                        break
            # ``complete_rejoin`` is idempotent on the service side, so
            # retrying a lost ack is safe.
            for _ in range(3):
                ack = yield from node.meta.request(
                    {"type": "consistent", "node": node.name},
                    reply_type="consistent_ack",
                )
                if ack is not None:
                    break
            return recovered
        finally:
            self._rejoining = False

    # -- serving what others missed ---------------------------------------------------------
    def serve_fetch(self, msg, body: dict):
        """Ship one partition's objects to a joiner: the handoff namespace
        for ``fetch_handoff`` (what a stand-in collected for a rejoining
        member), the whole hash range for ``fetch_partition`` (primary side
        of §4.4 node addition)."""
        node = self.node
        partition = body["partition"]
        yield from self._drain_partition_writes(partition)
        handoff = body["type"] == "fetch_handoff"
        source = node.store.handoff_objects() if handoff else node.store.objects()
        objs = [o for o in source if node.uni.subgroup_of_key(o.name) == partition]
        total = sum(o.size_bytes for o in objs) + ACK_BYTES
        # The joiner waits for this reply; nothing here waits for it to land.
        msg.conn.send(
            {
                "type": "handoff_data" if handoff else "partition_data",
                "token": body["token"],
                "objects": [(o.name, o.value, o.size_bytes, o.stamp) for o in objs],
            },
            total,
        )

    def _drain_partition_writes(self, partition: int):
        """Hold a rejoin snapshot until in-flight puts for ``partition``
        have resolved (the §4.4 catch-up/commit race).

        A put fanned out *before* the joiner became put-visible has no
        joiner in its data multicast or 2PC round; if it commits after the
        snapshot is taken, the joiner never learns of it and serves stale
        reads once marked consistent.  The settle delay first lets such
        puts arrive — the switch keeps the old multicast group for up to
        the control-plane latency after the metadata decision — then the
        ops captured at that point (mid-prepare or pending) are waited
        out.  Puts arriving later include the joiner and are safe to omit.
        Bounded: unreachable participants abort theirs at the peer timeout.
        """
        node = self.node
        participant = node.puts.participant
        settle = node.config.controller_latency_s + 4 * node.config.link_latency_s
        yield node.sim.timeout(settle)
        in_flight = participant.in_flight(partition)
        deadline = node.sim.now + 2 * node.config.peer_timeout_s
        while in_flight and node.host.up and node.sim.now < deadline:
            yield node.sim.timeout(FETCH_DRAIN_POLL_S)
            in_flight &= participant.in_flight(partition)

    # -- failover reconciliation -----------------------------------------------------------
    # The two query services answer at once: each runs in an URGENT call,
    # where its process started, and nothing waits for the reply to land.
    def serve_query_locks(self, msg, body: dict) -> None:
        participant = self.node.puts.participant
        msg.conn.send(
            {
                "type": "query_locks_reply",
                "token": body["token"],
                "locked": list(participant.locked_ops(body["partition"])),
                "committed": dict(participant.committed),
            },
            MEMBERSHIP_BYTES,
        )

    def serve_query_commit(self, msg, body: dict) -> None:
        """Report commit evidence for one client attempt: does our store
        hold a version committed from that exact (client, timestamp) put?"""
        stamp = self._store_commit_evidence(body["key"], body["client_ip"], body["client_ts"])
        msg.conn.send(
            {"type": "query_commit_reply", "token": body["token"], "stamp": stamp},
            ACK_BYTES,
        )

    def _store_commit_evidence(self, key: str, client_ip: str, client_ts: float):
        store = self.node.store
        obj = store.get(key) or store.get_handoff(key)
        if (
            obj is not None
            and obj.stamp is not None
            and obj.stamp.client_addr == client_ip
            and obj.stamp.client_ts == client_ts
        ):
            return obj.stamp
        return None

    def _reconcile(self, rs: ReplicaSet):
        """New-primary lock reconciliation (§4.4, Failures during Put).

        Gathers locked operations from live 2PC state *and* from the
        crash-surviving write-ahead logs (complete-cluster-failure case),
        then applies the paper's rule: committed anywhere ⇒ commit
        everywhere; otherwise abort.
        """
        node = self.node
        participant = node.puts.participant
        peers = [n for n in rs.secondaries() if node.directory.get(n) is not None]
        committed: Dict[Tuple, PutStamp] = dict(participant.committed)
        locked: Dict[Tuple, dict] = {
            entry["op_id"]: entry for entry in participant.locked_ops(rs.partition)
        }
        for peer in peers:
            reply = yield from node.request(
                node.directory.get(peer),
                {"type": "query_locks", "partition": rs.partition},
                REQUEST_BYTES,
                reply_type="query_locks_reply",
            )
            if reply is None:
                continue
            for entry in reply["locked"]:
                locked.setdefault(tuple(entry["op_id"]), entry)
            for op, stamp in reply["committed"].items():
                committed[tuple(op)] = stamp
        for op, info in locked.items():
            stamp = committed.get(op)
            if stamp is None:
                # Crash path: look for a committed version in the stores.
                stamp = self._store_commit_evidence(
                    info["key"], info["client_ip"], info["client_ts"]
                )
            if stamp is None:
                for peer in peers:
                    reply = yield from node.request(
                        node.directory.get(peer),
                        {**info, "type": "query_commit"},
                        REQUEST_BYTES,
                        reply_type="query_commit_reply",
                    )
                    if reply is not None and reply.get("stamp") is not None:
                        stamp = reply["stamp"]
                        break
            if stamp is not None:
                # Committed somewhere: the old primary had committed — the
                # object may have been served already, so commit everywhere.
                node.puts.apply_commit(op, stamp)
                body = {"type": "force_commit", "op_id": op, "stamp": stamp}
            else:
                node.puts.apply_abort(op)
                body = {"type": "force_abort", "op_id": op}
            for peer in peers:
                # Bounded: a peer that became unreachable mid-reconcile
                # must not wedge the remaining force decisions.
                yield from node.stack.tcp.bounded_send(
                    node.directory.get(peer), NODE_PORT, dict(body), ACK_BYTES,
                    node.config.peer_timeout_s,
                )
