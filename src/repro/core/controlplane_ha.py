"""The metadata service's replica group, and control-plane fault
tolerance: epoch-fenced takeover (the robustness layer NICE §4.4 assumes
away).

Every NICE cluster builds its metadata service as a :class:`ControlPlaneHA`
group of ``1 + metadata_standbys`` replicas (:class:`MetadataReplica`);
rank 0 leads at epoch 1.  The default group of one is the paper's single
process: it runs no tick loop, writes no membership log and is never
crashed by a fault (nobody could take over).  With standbys the group
gains a primary/standby replication scheme built from the same machinery
storage nodes already use:

* **Leader lease** — each replica has one timed loop on the
  node-heartbeat cadence: the acting leader beats ``leader_hb`` datagrams
  to every standby, and a standby promotes itself when
  ``heartbeat_miss_limit × heartbeat_interval_s`` elapses without one
  (staggered by replica rank so standbys don't race each other).
* **Membership log** — every membership transition (register / fail /
  rejoin phases / admin ops) is appended to a disk-backed log
  (``kv.wal`` pattern: forced sequential writes) and replicated to the
  standbys over TCP.  A promoting standby **replays** the log to rebuild
  the :class:`~repro.core.membership.PartitionMap` and node-status table
  — nodes that were mid-rejoin replay as JOINING and are told to restart
  at phase 1, which is always safe (§4.4 rejoin is idempotent).
* **Epochs** — each promotion mints ``epoch+1``; flow-mods and
  membership messages carry the minting epoch, and switches / storage
  nodes fence anything older, so a deposed leader that wakes up cannot
  corrupt rules or membership no matter what it still believes.
* **Reconciliation** — after takeover the new leader diffs the desired
  ruleset against actual ``FlowTable`` contents by cookie and repairs
  only the differences (see ``NiceControllerApp.reconcile``), keeping
  switch flow caches warm instead of reinstalling the world.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..kv import Disk
from ..net import Host, IPv4Address
from ..sim import Counter, Simulator
from ..transport import ProtocolStack
from .config import (
    ACK_BYTES,
    ClusterConfig,
    MEMBERSHIP_BYTES,
    META_PORT,
    NODE_PORT,
    REQUEST_BYTES,
)
from .controller import NiceControllerApp
from .membership import PartitionMap, ReplicaSet
from .metadata import DOWN, JOINING, MetadataService, UP

__all__ = ["ControlPlaneHA", "MembershipLog", "MetadataReplica", "replay_log"]

#: Bytes persisted per membership-log record (kv.wal pattern).
RECORD_BYTES = 256


class MembershipLog:
    """Durable, replicated log of membership transitions.

    Each record is a plain dict ``{kind, epoch, node, slices}`` where
    ``slices`` are post-mutation ``ReplicaSet.to_wire()`` snapshots —
    state-carrying records make replay trivial and order-insensitive
    within one epoch.  Appends are persisted with a forced sequential
    disk write, mirroring :class:`~repro.kv.WriteAheadLog`.
    """

    def __init__(self, disk: Disk):
        self.disk = disk
        self._records: List[dict] = []

    def append(self, record: dict) -> None:
        self._records.append(record)
        # Fire-and-forget persistence: the disk write costs sim time on
        # the device but membership progress does not block on it.
        self.disk.write(RECORD_BYTES, forced=True)

    def replace(self, records) -> None:
        """Adopt a full log copy (standby bootstrap / post-demotion sync)."""
        self._records = list(records)

    def records(self) -> Tuple[dict, ...]:
        return tuple(self._records)

    def last_epoch(self) -> int:
        return max((r.get("epoch", 0) for r in self._records), default=0)

    def __len__(self) -> int:
        return len(self._records)


def replay_log(records) -> Tuple[Optional[PartitionMap], Dict[str, str]]:
    """Rebuild (partition map, node status) from a membership log.

    The ``init`` record snapshots the build-time map; every later record
    installs its post-mutation slices over it.  A node whose last
    transition was ``rejoin_begin`` replays as JOINING — the new leader
    restarts its rejoin at phase 1.
    """
    pm: Optional[PartitionMap] = None
    status: Dict[str, str] = {}
    for rec in records:
        kind = rec.get("kind")
        if kind == "init":
            pm = PartitionMap([ReplicaSet.from_wire(w) for w in rec.get("slices", ())])
            continue
        if pm is not None:
            for w in rec.get("slices", ()):
                pm.install(ReplicaSet.from_wire(w))
        node = rec.get("node") or ""
        if kind == "register":
            status[node] = UP
        elif kind == "fail":
            status[node] = DOWN
        elif kind == "rejoin_begin":
            status[node] = JOINING
        elif kind == "rejoin_complete":
            status[node] = UP
        elif kind == "admin_remove":
            status.pop(node, None)
        # admin_add / takeover records carry slices only.
    return pm, status


class MetadataReplica:
    """One metadata host: socket owner + promotion state machine.

    The replica owns the protocol stack, the membership-log disk, and the
    META_PORT inboxes; the actual :class:`MetadataService` logic runs
    *inside* the replica, so a standby can promote — construct a fresh
    service over the replayed state — without rebinding any socket.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: ClusterConfig,
        controller: NiceControllerApp,
        ha: "ControlPlaneHA",
        rank: int,
    ):
        self.sim = sim
        self.host = host
        self.config = config
        self.controller = controller
        self.ha = ha
        self.rank = rank
        self.stack = ProtocolStack(sim, host)
        self.log = MembershipLog(Disk(sim, name=f"{host.name}.disk"))
        self.role = "standby"
        self.service: Optional[MetadataService] = None
        #: Highest epoch this replica has heard of (beats, log records).
        self.epoch_seen = 0
        self.last_leader_beat = sim.now
        self.leader_ip: Optional[IPv4Address] = None
        self._hb_inbox = self.stack.udp_bind(META_PORT)
        self._ctl_inbox = self.stack.tcp.listen(META_PORT)
        self._hb_inbox.serve(self._on_hb)
        sim.process(self._ctl_loop())
        if ha.size > 1:
            sim.process(self._tick_loop())
        ha.add_replica(self)

    # -- lifecycle ----------------------------------------------------------------
    def lead(self, partition_map: PartitionMap, epoch: int = 1) -> MetadataService:
        """Become the build-time leader (rank 0); a group of one keeps no
        membership log."""
        self.role = "leader"
        self.service = MetadataService(
            self.sim, self.stack, self.config, partition_map, self.controller,
            epoch=epoch, log=self.log if self.ha.size > 1 else None,
        )
        self.epoch_seen = epoch
        return self.service

    def crash(self) -> None:
        self.host.fail()

    def recover(self) -> None:
        self.host.recover()
        # Fresh lease: judge the current leader from now, not from before
        # the outage, or a recovering standby would promote instantly.
        self.last_leader_beat = self.sim.now

    @property
    def leading(self) -> bool:
        """Actively serving as leader: a crashed leader's service object
        stays ``active`` (nobody deactivated it) but its NIC is dark."""
        return self.service is not None and self.service.active and self.host.up

    @property
    def current_epoch(self) -> int:
        return self.service.epoch if self.leading else self.epoch_seen

    def _peer_ips(self) -> List[IPv4Address]:
        return [r.host.ip for r in self.ha.replicas if r is not self]

    # -- inbound ------------------------------------------------------------------
    def _on_hb(self, dgram) -> None:
        body = dgram.payload or {}
        if body.get("type") == "leader_hb":
            self._on_leader_hb(body)
        elif self.leading:
            self.service.on_heartbeat(body)

    def _on_leader_hb(self, body: dict) -> None:
        epoch = body.get("epoch", 0)
        if self.leading:
            if epoch > self.service.epoch:
                # Someone took over while we were dead: stand down and
                # resync the log from the new leader.
                self._demote(epoch, body.get("ip"))
            return
        if epoch < self.epoch_seen:
            return  # stale beat from a deposed leader
        self.epoch_seen = epoch
        self.last_leader_beat = self.sim.now
        if body.get("ip"):
            self.leader_ip = IPv4Address(body["ip"])

    def _demote(self, new_epoch: int, leader_ip_str: Optional[str]) -> None:
        svc = self.service
        if svc is not None:
            svc.active = False
        self.service = None
        self.role = "standby"
        self.epoch_seen = max(self.epoch_seen, new_epoch)
        self.last_leader_beat = self.sim.now
        self.ha.demotions.add()
        tr = self.sim.tracer
        if tr is not None:
            tr.instant("meta_demote", "ctrl", node=self.host.name, epoch=new_epoch)
        if leader_ip_str:
            self.leader_ip = IPv4Address(leader_ip_str)
            self.sim.process(self._sync_log_from(self.leader_ip))

    def _ctl_loop(self):
        while True:
            msg = yield self._ctl_inbox.get()
            body = msg.payload or {}
            kind = body.get("type")
            if kind == "meta_log":
                epoch = body.get("epoch", 0)
                if epoch >= self.epoch_seen and not self.leading:
                    self.epoch_seen = epoch
                    self.last_leader_beat = self.sim.now
                    record = body.get("record") or {}
                    tail = self.log.records()
                    # TCP retransmits delayed across an outage can deliver a
                    # record we already copied via log_sync; drop the dup.
                    if not tail or tail[-1] != record:
                        self.log.append(record)
            elif kind == "log_sync":
                if self.leading:
                    yield self.sim.wait(msg.conn.send,
                        {
                            "type": "log_sync_reply",
                            "epoch": self.service.epoch,
                            "records": list(self.log.records()),
                        },
                        MEMBERSHIP_BYTES,
                    )
            elif self.leading:
                yield from self.service.handle_control(msg, body)
            elif kind in ("rejoin", "consistent", "report_failure"):
                # Standby redirect: if the leader we follow holds a fresh
                # lease, point the node at it directly.  With a stale lease
                # we stay silent — the sender's timeout/failover path keeps
                # rotating while a promotion is pending.
                lease = (
                    self.config.heartbeat_miss_limit
                    * self.config.heartbeat_interval_s
                )
                if (
                    self.leader_ip is not None
                    and self.sim.now - self.last_leader_beat <= lease
                ):
                    yield self.sim.wait(msg.conn.send,
                        {
                            "type": "meta_redirect",
                            "epoch": self.epoch_seen,
                            "ip": str(self.leader_ip),
                        },
                        ACK_BYTES,
                    )

    def _sync_log_from(self, ip: IPv4Address):
        """Post-demotion catch-up: copy the new leader's full log."""
        timeout = self.config.peer_timeout_s * 4
        conn = yield from self.stack.tcp.bounded_send(
            ip, META_PORT, {"type": "log_sync"}, REQUEST_BYTES, timeout)
        if conn is None:
            return
        body = yield from conn.await_reply(
            lambda m: (m.payload or {}).get("type") == "log_sync_reply", timeout)
        if body is None:
            return
        if body.get("epoch", 0) >= self.epoch_seen:
            self.log.replace(body.get("records") or [])
            self.epoch_seen = max(self.epoch_seen, body.get("epoch", 0))

    # -- lease and promotion ---------------------------------------------------------
    def _tick_loop(self):
        """The replica's one timer: a leader beats its lease, a standby
        watches it."""
        interval = self.config.heartbeat_interval_s
        lease = self.config.heartbeat_miss_limit * interval
        while True:
            yield self.sim.timeout(interval)
            if not self.host.up:
                continue
            if self.leading:
                self.service.send_leader_beat()
            # Rank-staggered threshold: the lowest-ranked live standby wins
            # the race, later ranks only step up if it too is dead.
            elif self.sim.now - self.last_leader_beat > lease * (1 + self.rank / 4):
                self.promote()

    def promote(self) -> Optional[MetadataService]:
        """Take over leadership: replay the log, mint the next epoch,
        reconcile every switch, and point the fleet at this replica."""
        pm, status = replay_log(self.log.records())
        if pm is None:
            return None  # never bootstrapped: nothing to lead
        new_epoch = max(self.epoch_seen, self.log.last_epoch()) + 1
        self.role = "leader"
        svc = MetadataService(
            self.sim, self.stack, self.config, pm, self.controller,
            epoch=new_epoch, peers=self._peer_ips(), log=self.log,
        )
        svc.status = dict(status)
        now = self.sim.now
        for node, state in status.items():
            if state != DOWN:
                # Fresh grace period: judge liveness from takeover time.
                svc.last_heartbeat[node] = now
        self.service = svc
        self.epoch_seen = new_epoch
        svc._log_append("takeover", node=self.host.name)
        self.ha.promotions.add()
        tr = self.sim.tracer
        if tr is not None:
            tr.instant("meta_promote", "ctrl", node=self.host.name,
                       epoch=new_epoch, joining=sum(1 for s in status.values()
                                                    if s == JOINING))
        stats = svc.reconcile_switches()
        self.ha.reconcile_installed.add(stats["installed"])
        self.ha.reconcile_deleted.add(stats["deleted"])
        self.ha.reconcile_matched.add(stats["matched"])
        svc.send_leader_beat()
        self._announce(svc)
        return svc

    def _announce(self, svc: MetadataService) -> None:
        """Tell every live node about the new leader; nodes mid-rejoin are
        told to restart at phase 1 (their old rejoin died with the old
        leader; §4.4 rejoin is idempotent so restarting is always safe)."""
        for node, state in sorted(svc.status.items()):
            if state == DOWN:
                continue
            ip = svc.node_ip(node)
            if ip is None:
                continue
            svc._send(ip, NODE_PORT, {
                "type": "meta_leader", "epoch": svc.epoch, "ip": str(self.host.ip),
            })
            if state == JOINING:
                svc._send(ip, NODE_PORT, {
                    "type": "rejoin_restart", "epoch": svc.epoch,
                    "ip": str(self.host.ip),
                })


class ControlPlaneHA:
    """The replica group: build-time wiring plus promotion accounting."""

    def __init__(self, sim: Simulator, config: ClusterConfig, controller: NiceControllerApp):
        self.sim = sim
        self.config = config
        self.controller = controller
        #: Replicas the group is built with; ``size > 1`` is the one test
        #: for what a lone replica skips (see the module docstring).
        self.size = 1 + config.metadata_standbys
        self.replicas: List[MetadataReplica] = []
        self.promotions = Counter("meta.ha.promotions")
        self.demotions = Counter("meta.ha.demotions")
        self.reconcile_installed = Counter("meta.ha.reconcile_installed")
        self.reconcile_deleted = Counter("meta.ha.reconcile_deleted")
        self.reconcile_matched = Counter("meta.ha.reconcile_matched")

    def add_replica(self, replica: MetadataReplica) -> None:
        self.replicas.append(replica)

    @property
    def leader(self) -> Optional[MetadataReplica]:
        """The acting leader.  During a zombie window two replicas may both
        believe they lead; the higher epoch is authoritative."""
        leading = [r for r in self.replicas if r.leading]
        if not leading:
            return None
        return max(leading, key=lambda r: r.current_epoch)

    @property
    def active_service(self) -> Optional[MetadataService]:
        leader = self.leader
        return leader.service if leader else None

    def replica_named(self, name: str) -> Optional[MetadataReplica]:
        for replica in self.replicas:
            if replica.host.name == name:
                return replica
        return None

    def finalize(self) -> None:
        """Wire peer addresses and provision standby logs.

        Build-time registrations were appended before the standbys
        existed, so each standby starts from a direct copy of the
        leader's log — live TCP replication covers everything after.
        """
        leader = self.leader
        if leader is None:
            raise RuntimeError("finalize() requires a build-time leader")
        svc = leader.service
        svc.peers = tuple(r.host.ip for r in self.replicas if r is not leader)
        for replica in self.replicas:
            if replica is leader:
                continue
            replica.log.replace(list(leader.log.records()))
            replica.epoch_seen = svc.epoch
            replica.last_leader_beat = self.sim.now
            replica.leader_ip = leader.host.ip
