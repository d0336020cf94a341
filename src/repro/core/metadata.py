"""The metadata service (§4.1): membership module + SDN controller driver.

The service is the only component with complete membership knowledge.  It:

* receives UDP heartbeats from storage nodes and declares a node failed
  after ``heartbeat_miss_limit`` missed beats, or immediately upon a peer's
  failure report (§4.4, Failure Detection);
* hides failed nodes by re-syncing switch rules without them (§4.4,
  Failure Hiding) and selects a handoff node per affected partition (§4.4,
  Maintaining Replication Level);
* stages node rejoin in two phases — put-visible first, get-visible after
  the node reports consistency (§4.4, Node Recovery);
* supports administrative ring reconfiguration (§4.4, Ring Re-Configuration);
* pushes O(R) membership slices to affected replicas only, keeping
  maintenance O(S) switch messages + O(R) node messages per change (§4.1).

The service always runs inside a
:class:`~repro.core.controlplane_ha.MetadataReplica`, which owns its
sockets.  It stamps an **epoch** on every flow-mod and membership message;
with standbys (``ClusterConfig.metadata_standbys``) it also appends every
membership transition to a persisted, replicated
:class:`~repro.core.controlplane_ha.MembershipLog`.  In the default group
of one — the paper's single process — the epoch stays 1 and the log is
``None``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..net import IPv4Address
from ..sim import AnyOf, Counter, Simulator
from ..transport import ProtocolStack
from .config import (
    ACK_BYTES,
    ClusterConfig,
    HEARTBEAT_BYTES,
    MEMBERSHIP_BYTES,
    META_PORT,
    NODE_PORT,
)
from .controller import NiceControllerApp
from .membership import PartitionMap, ReplicaSet

__all__ = ["MetadataService"]

#: Node lifecycle states tracked by the membership module.
UP, DOWN, JOINING = "up", "down", "joining"


class MetadataService:
    """Runs on a metadata host; owns the partition map and the controller.

    Its :class:`~repro.core.controlplane_ha.MetadataReplica` owns the
    sockets and forwards traffic in (:meth:`on_heartbeat`,
    :meth:`handle_control`), so a promoted standby takes over without
    rebinding ports.  ``active`` gates the monitor loop — a deposed
    leader's service is deactivated in place and its still-running
    process becomes a no-op.
    """

    def __init__(
        self,
        sim: Simulator,
        stack: ProtocolStack,
        config: ClusterConfig,
        partition_map: PartitionMap,
        controller: NiceControllerApp,
        epoch: int = 1,
        peers: Iterable[IPv4Address] = (),
        log=None,
    ):
        self.sim = sim
        self.stack = stack
        self.config = config
        self.partition_map = partition_map
        self.controller = controller
        #: Monotonically increasing leadership epoch; stamped on every
        #: flow-mod and membership message so switches and nodes can fence
        #: a deposed leader.  The build-time leader starts at 1.
        self.epoch = epoch
        self.peers: Tuple[IPv4Address, ...] = tuple(peers)
        self.log = log
        self.active = True
        # Keep the controller's stamp in step: the reactive packet-in path
        # stamps flow-mods with controller.epoch, and it must never lag the
        # acting leader's epoch or the switches would fence it.
        controller.epoch = epoch
        controller.partition_map = partition_map
        self.status: Dict[str, str] = {}
        self.last_heartbeat: Dict[str, float] = {}
        #: Client IPs observed per partition (heartbeat workload stats, §4.5).
        self.client_stats: Dict[int, set] = {}
        self._handoff_rr = 0  # round-robin cursor for handoff selection
        #: Nodes currently reporting a fail-slow disk (§5k); excluded from
        #: the read round-robin and from primary/handoff selection.
        self.degraded: set = set()
        self.failures_declared = Counter("meta.failures")
        self.rejoins_completed = Counter("meta.rejoins")
        self.membership_messages = Counter("meta.membership_msgs")
        self.reconcile_passes = Counter("meta.reconciles")
        self.failslow_detections = Counter("meta.failslow_detections")
        self.failslow_handoffs = Counter("meta.failslow_handoffs")
        sim.process(self._monitor_loop())
        if self.log is not None and len(self.log) == 0:
            self._log_append("init", slices=list(partition_map))

    # -- registration -------------------------------------------------------------
    def register_node(self, name: str) -> None:
        self.status[name] = UP
        # Seed the liveness clock at registration: a node that dies before
        # its first beat must still be declared within the miss limit.
        self.last_heartbeat[name] = self.sim.now
        self._log_append("register", node=name)

    def node_ip(self, name: str) -> Optional[IPv4Address]:
        rec = self.controller.directory.hosts.get(name)
        return rec.ip if rec else None

    def live_nodes(self) -> List[str]:
        return [n for n, s in self.status.items() if s == UP]

    # -- inbound handlers ---------------------------------------------------------------
    def on_heartbeat(self, body: dict) -> None:
        if body.get("type") != "hb":
            return
        node = body["node"]
        if self.status.get(node) == DOWN:
            return  # must rejoin explicitly first (§4.4)
        self.last_heartbeat[node] = self.sim.now
        for partition, clients in (body.get("stats") or {}).items():
            self.client_stats.setdefault(partition, set()).update(clients)
        slow = bool(body.get("disk_slow"))
        if slow != (node in self.degraded):
            self._set_degraded(node, slow)

    def handle_control(self, msg, body: dict):
        """One TCP control message; a generator the replica's control loop
        runs with ``yield from``."""
        kind = body.get("type")
        if kind == "report_failure":
            suspect = body["suspect"]
            # Idempotent under races: a report for a node already mid-rejoin
            # re-declares it (its rejoin restarts at phase 1), a report for
            # a node already DOWN is a no-op.
            if self.status.get(suspect) in (UP, JOINING):
                self.declare_failed(suspect)
            yield self.sim.wait(msg.conn.send, {"type": "report_ack"}, ACK_BYTES)
        elif kind == "rejoin":
            if self._switch_channel_down():
                # The §4.4 two-phase visibility protocol depends on the
                # flow-mods landing; with the switch channel down they are
                # dropped, which would leave a "joining" node invisible to
                # puts yet later marked consistent.  Defer the node.
                yield self.sim.wait(msg.conn.send, {"type": "retry_later"}, ACK_BYTES)
                return
            reply = self.begin_rejoin(body["node"])
            yield self.sim.wait(msg.conn.send,
                {"type": "rejoin_ack", "epoch": self.epoch, **reply}, MEMBERSHIP_BYTES
            )
        elif kind == "consistent":
            if self._switch_channel_down():
                yield self.sim.wait(msg.conn.send, {"type": "retry_later"}, ACK_BYTES)
                return
            self.complete_rejoin(body["node"])
            yield self.sim.wait(msg.conn.send, {"type": "consistent_ack"}, ACK_BYTES)
        elif kind == "admin_remove":
            self.admin_remove(body["node"])
            yield self.sim.wait(msg.conn.send, {"type": "admin_ack"}, ACK_BYTES)

    def _switch_channel_down(self) -> bool:
        """True while the controller's switch channel is severed (the
        OpenFlow session drop is observable — echo timeouts in a real
        controller; the chaos ``controller_crash`` fault here)."""
        channel = getattr(self.controller, "channel", None)
        return bool(getattr(channel, "down", False))

    # -- failure detection ------------------------------------------------------------
    def _monitor_loop(self):
        interval = self.config.heartbeat_interval_s
        limit = self.config.heartbeat_miss_limit * interval
        while True:
            yield self.sim.timeout(interval)
            # A deposed or crashed leader's monitor must not keep declaring
            # failures (its clock of heartbeats stopped with its NIC).
            if not self.active or not self.stack.host.up:
                continue
            now = self.sim.now
            for node, state in list(self.status.items()):
                # JOINING nodes are monitored too: a node that dies
                # mid-rejoin must not stay put-visible forever.  A missing
                # entry counts as "never beat", not "fresh".
                beat = self.last_heartbeat.get(node, float("-inf"))
                if state in (UP, JOINING) and now - beat > limit:
                    self.declare_failed(node)

    def send_leader_beat(self) -> None:
        """Announce leadership to the standbys; a standby promotes when
        this lease expires."""
        body = {"type": "leader_hb", "epoch": self.epoch, "ip": str(self.stack.ip)}
        for ip in self.peers:
            self.stack.udp_send(ip, META_PORT, body, HEARTBEAT_BYTES)

    # -- membership log (control-plane HA) ------------------------------------------------
    def _log_append(self, kind: str, node: str = "", slices: Iterable[ReplicaSet] = ()) -> None:
        if self.log is None:
            return
        record = {
            "kind": kind,
            "epoch": self.epoch,
            "node": node,
            "slices": [rs.to_wire() for rs in slices],
        }
        self.log.append(record)
        for ip in self.peers:
            self.sim.process(self._replicate_record(ip, record))

    def _replicate_record(self, ip: IPv4Address, record: dict):
        send = self.sim.wait(
            self.stack.tcp.send_message, ip, META_PORT,
            {"type": "meta_log", "epoch": self.epoch, "record": record},
            MEMBERSHIP_BYTES,
        )
        # Best-effort: a dead standby must not wedge the leader.
        yield AnyOf(self.sim, [send, self.sim.timeout(self.config.peer_timeout_s * 4)])

    def reconcile_switches(self) -> Dict[str, int]:
        """Recompute the desired ruleset from membership and diff-repair
        every switch (takeover / controller-reconnect path)."""
        stats = self.controller.reconcile(epoch=self.epoch)
        self.reconcile_passes.add()
        tr = self.sim.tracer
        if tr is not None:
            tr.instant("reconcile", "ctrl", node=self.stack.host.name,
                       epoch=self.epoch, **stats)
        return stats

    # -- failure handling (§4.4) --------------------------------------------------------
    def declare_failed(self, node: str) -> None:
        """Hide ``node`` everywhere and install handoffs for its partitions."""
        if self.status.get(node) == DOWN:
            return
        self.status[node] = DOWN
        self.failures_declared.add()
        # Drop cached transport state toward the corpse: reconnects to the
        # rejoined node must run a fresh handshake.
        ip = self.node_ip(node)
        if ip is not None:
            self.stack.tcp.reset_peer(ip)
        affected = self.partition_map.partitions_of(node)
        for rs in affected:
            was_member = node in rs.members
            rs.mark_failed(node)
            # One handoff per uncovered absence: re-declaring a node whose
            # partitions already hold replacement handoffs (e.g. a failure
            # report racing its rejoin) must not stack a second one.
            if was_member and len(rs.absent) > len(rs.handoffs):
                handoff = self._select_handoff(rs)
                if handoff is not None:
                    rs.add_handoff(handoff)
                else:
                    # No stand-in exists to accumulate the writes this
                    # node will miss: its rejoin needs a full fetch.
                    rs.uncovered.add(node)
        for rs in affected:
            self.controller.sync_partition(rs.partition, epoch=self.epoch)
            self._inform_replicas(rs)
        self._log_append("fail", node=node, slices=affected)

    def _set_degraded(self, node: str, slow: bool) -> None:
        """React to a node's fail-slow report (§5k).

        The node stays a consistent replica — its data is fine, only its
        device is slow — so it is *drained*, not failed: the controller
        drops it from the read round-robin / LB divisions, and any
        partition it leads is handed to a healthy replica (the primary
        serves forwarded gets, reconciliation, and commit stamping; a
        fail-slow primary throttles the whole partition)."""
        if slow:
            self.degraded.add(node)
            self.failslow_detections.add()
        else:
            self.degraded.discard(node)
        # Degradation changes desired rules without bumping membership
        # revisions, so the controller must drop its plan cache.
        self.controller.directory.set_degraded(node, slow)
        affected = self.partition_map.partitions_of(node)
        for rs in affected:
            if slow and rs.primary == node:
                candidates = [
                    m
                    for m in rs.members
                    if m != node
                    and m not in rs.absent
                    and m not in rs.joining
                    and m not in self.degraded
                    and self.status.get(m) == UP
                ]
                if candidates and rs.set_primary(candidates[0]):
                    self.failslow_handoffs.add()
            self.controller.sync_partition(rs.partition, epoch=self.epoch)
            self._inform_replicas(rs)
        self._log_append("degraded" if slow else "undegraded", node=node,
                         slices=affected)
        tr = self.sim.tracer
        if tr is not None:
            tr.instant("failslow" if slow else "failslow_clear", "ctrl", node=node)

    def _select_handoff(self, rs: ReplicaSet) -> Optional[str]:
        eligible = self.partition_map.eligible_handoffs(rs.partition, self.live_nodes())
        if not eligible:
            return None
        eligible.sort()
        # Rack awareness: prefer a stand-in from a rack the surviving put
        # targets do not already cover, keeping the set spread over >= 2
        # failure domains.  Outside fabric mode every rack is None, the
        # preference filter is empty, and selection is exactly the
        # pre-fabric round-robin.
        rack_of = self.controller.directory.rack_of_node
        covered = {rack_of(n) for n in rs.put_targets()}
        preferred = [c for c in eligible if rack_of(c) not in covered]
        pool = preferred or eligible
        choice = pool[self._handoff_rr % len(pool)]
        self._handoff_rr += 1
        return choice

    # -- rejoin (§4.4, Node Recovery) ------------------------------------------------------
    def begin_rejoin(self, node: str) -> dict:
        """Phase 1: make ``node`` put-visible; tell it where its handoffs are.

        §4.4: the node becomes "accessible to other storage nodes and to
        client put requests only" — L3 reachability returns now (peers must
        reach it for catch-up traffic), get visibility only in phase 2.
        """
        self.status[node] = JOINING
        self.last_heartbeat[node] = self.sim.now
        self.controller.unhide_host(node, epoch=self.epoch)
        handoff_info = {}
        full_fetch = []
        slices = []
        affected = self.partition_map.partitions_where_member(node)
        for rs in affected:
            rs.begin_rejoin(node)
            self.controller.sync_partition(rs.partition, epoch=self.epoch)
            self._inform_replicas(rs)
            slices.append(rs.to_wire())
            if rs.handoffs:
                handoff_info[rs.partition] = list(rs.handoffs)
            if node in rs.uncovered:
                # The handoff chain broke while this node was away (a
                # stand-in died, or none existed): incremental catch-up
                # cannot be trusted — fetch the whole partition.
                full_fetch.append(rs.partition)
        self._log_append("rejoin_begin", node=node, slices=affected)
        # The reply carries the fresh O(R) slices so the node can start
        # participating in puts the moment it learns its handoffs.
        return {
            "handoffs": handoff_info,
            "replica_sets": slices,
            "full_fetch": full_fetch,
        }

    def complete_rejoin(self, node: str) -> None:
        """Phase 2: node reports consistent data — restore get visibility,
        release handoffs, restore its primary roles.

        Also serves admin node-addition (§4.4 Ring Re-Configuration): the
        node is already UP there, joining only the new partitions.
        """
        if self.status.get(node) not in (JOINING, UP):
            return
        if self.status.get(node) == JOINING:
            self.rejoins_completed.add()
        self.status[node] = UP
        self.controller.unhide_host(node, epoch=self.epoch)
        completed = []
        for rs in self.partition_map.partitions_where_member(node):
            if node not in rs.joining:
                continue
            released = rs.complete_rejoin(node)
            self.controller.sync_partition(rs.partition, epoch=self.epoch)
            self._inform_replicas(rs, extra=released)
            completed.append(rs)
        self._log_append("rejoin_complete", node=node, slices=completed)

    # -- admin reconfiguration (§4.4, Ring Re-Configuration) -------------------------------
    def admin_add_to_replica_set(self, node: str, partition: int) -> None:
        """Add an existing storage node to a partition's replica set.

        §4.4: "Adding a new node to a replica set follows a procedure
        similar to rejoining a node after a temporary failure.  The node is
        added first to the put vring ... the node contacts the primary node
        to retrieve all keys stored in the hash range.  Once the new node
        has consistent data it is added to the get vring."

        The metadata side: extend membership, stage the node put-visible,
        and re-sync the switch.  The node-side catch-up transfer runs when
        the node receives the membership slice (it sees itself joining).
        """
        rs = self.partition_map.get(partition)
        if rs.is_member(node):
            raise ValueError(f"{node} already serves partition {partition}")
        if self.status.get(node) != UP:
            raise ValueError(f"{node} is not a live registered node")
        rs.members.append(node)
        rs.absent.add(node)   # not yet consistent: hidden from gets
        rs.begin_rejoin(node)  # put-visible immediately
        self.controller.sync_partition(partition, epoch=self.epoch)
        self._inform_replicas(rs)
        self._log_append("admin_add", node=node, slices=[rs])

    def admin_remove(self, node: str) -> None:
        """Permanently remove ``node``: hide it and erase it from membership."""
        if self.status.get(node) != DOWN:
            self.declare_failed(node)
        affected = [
            rs for rs in self.partition_map if node in rs.members or node in rs.handoffs
        ]
        for rs in affected:
            if node in rs.members:
                rs.members.remove(node)
                rs.absent.discard(node)
                rs.joining.discard(node)
            if node in rs.handoffs:
                rs.handoffs.remove(node)
            self.controller.sync_partition(rs.partition, epoch=self.epoch)
            self._inform_replicas(rs)
        self.status.pop(node, None)
        self._log_append("admin_remove", node=node, slices=affected)

    # -- pushing membership slices -----------------------------------------------------------
    def _inform_replicas(self, rs: ReplicaSet, extra: Optional[List[str]] = None) -> None:
        """Send the O(R) slice to every node serving (or just released from)
        the partition."""
        targets = set(rs.put_targets()) | set(rs.get_targets()) | set(extra or [])
        wire = rs.to_wire()
        for name in sorted(targets):
            ip = self.node_ip(name)
            if ip is None or self.status.get(name) == DOWN:
                continue
            self.membership_messages.add()
            self.sim.process(self._send_membership(ip, wire))

    def _send_membership(self, ip: IPv4Address, wire: dict):
        yield self.sim.wait(
            self.stack.tcp.send_message, ip, NODE_PORT,
            {"type": "membership", "epoch": self.epoch, "replica_set": wire},
            MEMBERSHIP_BYTES,
        )
