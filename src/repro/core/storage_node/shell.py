"""The NICE storage node's shell (§4.3–§4.4, Fig 3): identity, resources,
the O(R) membership slice, the three inbound mailboxes, crash/restart.

Everything protocol-specific lives in four components that own their
state and are reached through a few public methods: ``node.puts``
(:mod:`.put_engine`), ``node.reads`` (:mod:`.read_path`),
``node.recovery`` (:mod:`.recovery`) and ``node.meta`` (:mod:`.meta_link`).
"""

from __future__ import annotations

from typing import Dict, Optional

from ...net import Host, IPv4Address
from ...sim import URGENT, Counter, Event, Simulator
from ...transport import MulticastEndpoint, MulticastSender
from ..config import ClusterConfig, GET_PORT, NODE_PORT, PUT_PORT
from ..membership import ReplicaSet
from ..node_shell import NodeShell
from ..vring import VirtualRing
from .meta_link import MetaLink
from .put_engine import PutEngine
from .read_path import ReadPath
from .recovery import Recovery

__all__ = ["NiceStorageNode"]


class NiceStorageNode(NodeShell):
    """One storage server: local storage engine + protocol components."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        name: str,
        config: ClusterConfig,
        unicast_vring: VirtualRing,
        multicast_vring: VirtualRing,
        metadata_ips,
        directory: Dict[str, IPv4Address],
    ):
        # ``directory``: the builder hands over the full name -> IP map for
        # convenience, but the node only ever addresses its O(R)
        # replica-set peers.
        super().__init__(sim, host, name, config, directory)
        self.uni = unicast_vring
        self.mc = multicast_vring
        self.replica_sets: Dict[int, ReplicaSet] = {}
        self.mc_sender = MulticastSender(self.stack)
        self.mc_endpoint = MulticastEndpoint(self.stack, PUT_PORT)
        self._get_inbox = self.stack.udp_bind(GET_PORT)
        self._node_inbox = self.stack.tcp.listen(NODE_PORT)
        self.gets_forwarded = Counter(f"{name}.gets_forwarded")
        self.aborts = Counter(f"{name}.aborts")
        self.membership_fenced = Counter(f"{name}.membership_fenced")
        self.meta_failovers = Counter(f"{name}.meta_failovers")
        self.cold_restarts = Counter(f"{name}.cold_restarts")
        self.replayed_commits = Counter(f"{name}.replayed_commits")
        self.read_repairs = Counter(f"{name}.read_repairs")
        self.scrub_scans = Counter(f"{name}.scrub_scans")
        self.scrub_repairs = Counter(f"{name}.scrub_repairs")
        self.meta = MetaLink(self, metadata_ips)
        self.puts = PutEngine(self)
        self.reads = ReadPath(self)
        self.recovery = Recovery(self)
        self.mc_endpoint.messages.serve(self._on_put_msg)
        self._get_inbox.serve(self._on_get_dgram)
        self._node_inbox.serve(self._on_node_msg)
        sim.process(self.meta.heartbeat_loop())
        if config.scrub_interval_s > 0:
            # Opt-in: no scrubber process exists on default configs, so
            # default event timelines are untouched.
            sim.process(self.reads.scrub_loop())

    # ------------------------------------------------------------------ identity
    @property
    def metadata_ip(self) -> IPv4Address:
        """The metadata target currently believed to be the leader."""
        return self.meta.ip

    @property
    def meta_epoch(self) -> int:
        return self.meta.epoch

    @property
    def failslow(self) -> bool:
        return self.meta.failslow

    def install_replica_set(self, rs: ReplicaSet) -> None:
        """Seed/update this node's O(R) membership slice."""
        self.replica_sets[rs.partition] = rs
        self.recovery.seed(rs)

    def role(self, partition: int) -> Optional[str]:
        rs = self.replica_sets.get(partition)
        if rs is None:
            return None
        if self.name in rs.handoffs:
            return "handoff"
        if self.name not in rs.members:
            return None
        return "primary" if rs.primary == self.name else "secondary"

    # ------------------------------------------------------------------ failure injection
    def crash(self, power_loss: bool = False) -> None:
        """Fail-stop: NIC dark, in-memory locks and 2PC state lost.

        A *process* crash (the default) leaves the disk alone — the
        write cache sits below the failing software, exactly as an OS
        page cache survives an application crash, so the object store
        and WAL carry over (§4.4).  ``power_loss=True`` additionally
        drops the disk's volatile cache (§5k): unflushed WAL appends are
        torn or lost, volatile removals resurrect their records, and
        object writes above the flush barrier vanish — the next
        ``restart`` rebuilds from the durable image + WAL replay.
        """
        self.host.fail()
        self.puts.crash()
        self.recovery.crash(power_loss)
        if power_loss:
            barrier = self.disk.crash()
            self.wal.power_loss()
            self.puts.power_loss(barrier)

    def restart(self) -> Event:
        """Power on and run the two-phase rejoin; returns the rejoin Process."""
        self.host.recover()
        # Membership knowledge may be arbitrarily stale (e.g. we might
        # still believe we are a primary): drop it and wait for fresh O(R)
        # slices — the rejoin reply carries them.
        self.replica_sets.clear()
        return self.recovery.restart()

    # ------------------------------------------------------------------ inbound dispatch
    # Three served mailboxes (``Store.serve``): the handlers never wait, so
    # whatever takes time runs on its own — a put or a get as a callback
    # chain (``node.puts``, ``node.reads``), a commit or an any-k store as
    # an URGENT call where a process would have started, and the recovery
    # and repair services as processes.
    def _on_put_msg(self, msg) -> None:
        """The multicast vring: puts and the 2PC outcome (Fig 3)."""
        body = msg.payload or {}
        kind = body.get("type")
        if kind == "put":
            self.puts.prepare(msg, body)
        elif kind == "put_anyk":
            self.sim._schedule_call(0.0, self.puts.store_anyk, body, priority=URGENT)
        elif kind == "commit":
            self.sim._schedule_call(0.0, self.puts.on_commit, body, priority=URGENT)
        elif kind == "abort":
            self.puts.apply_abort(tuple(body["op_id"]))

    def _on_get_dgram(self, dgram) -> None:
        """The unicast vring: gets."""
        body = dgram.payload or {}
        if body.get("type") == "get":
            self.reads.serve(body, dgram.virtual_dst)

    def _on_node_msg(self, msg) -> None:
        """Node-to-node and metadata-to-node TCP."""
        body = msg.payload or {}
        kind = body.get("type")
        if kind == "put_ack1":
            self.puts.record_ack(tuple(body["op_id"]), body["node"], phase=1)
        elif kind == "put_ack2":
            self.puts.record_ack(tuple(body["op_id"]), body["node"], phase=2)
        elif kind == "membership":
            if not self.meta.fence(body.get("epoch")):
                self.recovery.on_membership(ReplicaSet.from_wire(body["replica_set"]))
        elif kind == "meta_leader":
            # A standby took over: re-point heartbeats and control.
            self.meta.adopt_leader(body.get("epoch"), body.get("ip"))
        elif kind == "rejoin_restart":
            self.recovery.on_rejoin_restart(body)
        elif kind == "get_forward":
            self.reads.serve_forwarded(body["request"])
        elif kind == "query_locks":
            self.sim.process(self.recovery.serve_query_locks(msg, body))
        elif kind == "query_commit":
            self.sim.process(self.recovery.serve_query_commit(msg, body))
        elif kind == "force_commit":
            self.puts.apply_commit(tuple(body["op_id"]), body["stamp"])
        elif kind == "force_abort":
            self.puts.apply_abort(tuple(body["op_id"]))
        elif kind in ("fetch_handoff", "fetch_partition"):
            self.sim.process(self.recovery.serve_fetch(msg, body))
        elif kind == "fetch_object":
            self.sim.process(self.reads.serve_fetch_object(msg, body))
