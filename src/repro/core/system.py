"""NICE cluster builder: wires the full system of Figure 1.

Storage nodes, client nodes and the metadata service hang off an
OpenFlow-enabled switch; the metadata service's controller module installs
the vring mappings.  The builder mirrors the §6 deployment: one metadata
node (plus ``metadata_standbys``), ``n_storage_nodes`` storage servers,
``n_clients`` client machines, 1 Gbps links.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..net import (
    ControlPlane,
    HarmoniaRegistry,
    Host,
    IPv4Address,
    IPv4Network,
    LeafSpineFabric,
    MacAddress,
    Network,
    OpenFlowSwitch,
)
from ..sim import Simulator
from .client import NiceClient
from .config import ClusterConfig
from .controller import NiceControllerApp
from .controlplane_ha import ControlPlaneHA, MetadataReplica
from .membership import PartitionMap, ReplicaSet
from .metadata import MetadataService
from .storage_node import NiceStorageNode
from .vring import VirtualRing

__all__ = ["ClusterBase", "NiceCluster"]

#: Physical address plan.
STORAGE_BASE = IPv4Address("10.0.0.1")
METADATA_IP = IPv4Address("10.0.0.250")
_MAC_BASE = 0x020000000100


class ClusterBase:
    """What a test, a bench, the chaos engine or the metrics registry may
    ask of any deployment, NICE or NOOB.

    Every deployment sets ``sim``, ``config``, ``network``, ``nodes``
    (name -> storage node), ``clients``, ``directory`` (node name -> IP),
    ``partition_map`` and ``switches`` (every data-plane switch), and
    answers :meth:`partition_of_key`.  The parts only NICE has are declared
    here as absent, so a caller tests ``is None`` on a name every cluster
    answers instead of probing for it.
    """

    #: Leaf-spine fabric (``n_racks > 1``), the controller app and its
    #: switch channel, the build-time metadata service, its replica group
    #: (one replica plus ``metadata_standbys``) and the acting leader's
    #: service.
    fabric = None
    controller = None
    control_plane = None
    metadata = None
    metadata_ha = None
    metadata_active = None
    #: Client-side Open vSwitches (NICE "ovs" deployment) and NOOB gateways.
    edge_switches = ()
    gateways = ()

    def partition_of_key(self, key: str) -> int:
        """The partition (index into ``partition_map``) serving ``key``."""
        raise NotImplementedError

    def warm_up(self, duration: float = 0.05) -> None:
        """Let flow-mods land and heartbeats start before measuring."""
        self.sim.run(until=self.sim.now + duration)

    def reset_measurements(self) -> None:
        self.network.reset_link_counters()
        for host in self.network.devices.values():
            if isinstance(host, Host):
                host.tx_bytes.reset()
                host.rx_bytes.reset()


class NiceCluster(ClusterBase):
    """A fully-wired NICEKV deployment inside one simulator."""

    def __init__(self, config: ClusterConfig = None, sim: Simulator = None):
        self.config = config or ClusterConfig()
        cfg = self.config
        self.sim = sim or Simulator()
        self.network = Network(self.sim)
        if cfg.n_racks > 1:
            #: Leaf–spine fabric (DESIGN.md §5h).  ``self.switch`` stays
            #: meaningful as "rack 0's access switch" for legacy callers.
            self.fabric = LeafSpineFabric(
                self.sim,
                self.network,
                cfg.n_racks,
                cfg.n_spines,
                lookup_latency_s=cfg.switch_lookup_latency_s,
                table_capacity=cfg.switch_rule_budget,
                link_bandwidth_bps=cfg.link_bandwidth_bps,
                link_latency_s=cfg.link_latency_s,
            )
            self.switch = self.fabric.leaves[0]
        else:
            self.switch = OpenFlowSwitch(
                self.sim, "sw0", lookup_latency_s=cfg.switch_lookup_latency_s
            )
            self.network.register(self.switch)
        #: Client-side Open vSwitches (§5.1 "ovs" deployment; empty for "hw").
        self.edge_switches = []

        self.uni_vring = VirtualRing(cfg.unicast_vring, cfg.n_partitions)
        self.mc_vring = VirtualRing(cfg.multicast_vring, cfg.n_partitions)

        #: Shared dirty-set registry in Harmonia mode (DESIGN.md §5j);
        #: None keeps every switch on the untouched NICE read path.
        self.harmonia = None
        if cfg.protocol_mode != "nice":
            self.harmonia = HarmoniaRegistry(self.uni_vring)
            core = self.fabric.switches if self.fabric is not None else [self.switch]
            for sw in core:
                sw._harmonia = self.harmonia

        node_names = [f"n{i}" for i in range(cfg.n_storage_nodes)]
        per_rack = -(-cfg.n_storage_nodes // cfg.n_racks)
        #: node name -> rack index (all rack 0 in the single-switch default).
        self.rack_of = {name: i // per_rack for i, name in enumerate(node_names)}
        partition_map = PartitionMap.build(
            node_names,
            cfg.n_partitions,
            cfg.replication_level,
            racks=self.rack_of if cfg.n_racks > 1 else None,
        )

        self.controller = NiceControllerApp(
            cfg, partition_map, self.uni_vring, self.mc_vring
        )
        self.controller.harmonia = self.harmonia
        #: The controller's host/switch directory (``self.directory`` below is
        #: the cluster's plain name -> IP map).
        ctrl_dir = self.controller.directory
        self.control_plane = ControlPlane(
            self.sim, self.controller, latency_s=cfg.controller_latency_s
        )
        if self.fabric is not None:
            for rack, leaf in enumerate(self.fabric.leaves):
                self.control_plane.attach(leaf)
                ctrl_dir.register_switch(leaf.name, role="leaf", rack=rack)
            for spine in self.fabric.spines:
                self.control_plane.attach(spine)
                ctrl_dir.register_switch(spine.name, role="spine", can_rewrite=False)
            # Rack address blocks: the units of spine-side aggregation.
            client_subnets = self._client_subnets()
            for rack in range(cfg.n_racks):
                ctrl_dir.register_rack_prefix(rack, IPv4Network(f"10.0.{rack}.0/24"))
                ctrl_dir.register_rack_prefix(rack, client_subnets[rack])
        else:
            self.control_plane.attach(self.switch)
            # §5.1: the CloudLab hardware switch forwards and multicasts but
            # cannot modify destination addresses — the edge OVSes do that.
            ctrl_dir.register_switch(
                self.switch.name, role="core", can_rewrite=(cfg.deployment == "hw")
            )

        # -- hosts ---------------------------------------------------------
        self.directory: Dict[str, IPv4Address] = {}
        mac = _MAC_BASE
        storage_hosts: List[Host] = []
        rack_fill: Dict[int, int] = {}
        for i, name in enumerate(node_names):
            if self.fabric is not None:
                rack = self.rack_of[name]
                slot = rack_fill.get(rack, 0)
                rack_fill[rack] = slot + 1
                ip = IPv4Address(f"10.0.{rack}.1") + slot
            else:
                ip = STORAGE_BASE + i
            host = Host(self.sim, name, ip, MacAddress(mac))
            mac += 1
            self.network.register(host)
            self._attach(host, self.rack_of[name])
            ctrl_dir.register_host(name, host.ip, host.mac)
            self.directory[name] = host.ip
            storage_hosts.append(host)

        # The metadata replica group (``meta``, then standbys ``meta1``, …)
        # lives in rack 0, inside rack 0's 10.0.0.0/24 block.
        self.metadata_ha = ControlPlaneHA(self.sim, cfg, self.controller)
        meta_hosts: List[Host] = []
        for i in range(self.metadata_ha.size):
            host = Host(self.sim, f"meta{i or ''}", METADATA_IP + i, MacAddress(mac))
            mac += 1
            self.network.register(host)
            self._attach(host, 0)
            ctrl_dir.register_host(host.name, host.ip, host.mac)
            meta_hosts.append(host)

        client_hosts: List[Host] = []
        for i in range(cfg.n_clients):
            if self.fabric is not None:
                # Round-robin clients over racks, packed into each rack's
                # client subnet so client traffic aggregates per rack too.
                client_rack = i % cfg.n_racks
                ip = client_subnets[client_rack].address + 1 + (i // cfg.n_racks)
            else:
                client_rack = 0
                ip = cfg.client_ip(i)
            host = Host(self.sim, f"c{i}", ip, MacAddress(mac))
            mac += 1
            self.network.register(host)
            ctrl_dir.register_host(f"c{i}", host.ip, host.mac)
            if cfg.deployment == "ovs":
                # Client-side Open vSwitch between the client and the fabric.
                ovs = OpenFlowSwitch(
                    self.sim, f"ovs{i}", lookup_latency_s=cfg.switch_lookup_latency_s
                )
                self.network.register(ovs)
                self.network.connect(ovs, host, cfg.link_bandwidth_bps, cfg.link_latency_s)
                uplink = self.network.connect(
                    self.switch, ovs, cfg.link_bandwidth_bps, cfg.link_latency_s
                )
                uplink_port = (uplink.a if uplink.a.device is ovs else uplink.b).number
                self.control_plane.attach(ovs)
                ctrl_dir.register_switch(
                    ovs.name, role="edge", can_rewrite=True,
                    client_ip=host.ip, uplink_port=uplink_port,
                )
                if self.harmonia is not None:
                    ovs._harmonia = self.harmonia
                self.edge_switches.append(ovs)
            else:
                self._attach(host, client_rack)
            client_hosts.append(host)

        # -- control plane bootstrap ----------------------------------------
        self.controller.discover_topology(self.network)
        self.controller.install_static_rules()
        self.controller.sync_all()

        # -- services ----------------------------------------------------------
        # The replicas own the metadata sockets; rank 0 leads at epoch 1.
        ha = self.metadata_ha
        leader = MetadataReplica(self.sim, meta_hosts[0], cfg, self.controller, ha, rank=0)
        self.metadata = leader.lead(partition_map, epoch=1)
        for rank, host in enumerate(meta_hosts[1:], start=1):
            MetadataReplica(self.sim, host, cfg, self.controller, ha, rank=rank)
        ha.finalize()

        self.nodes: Dict[str, NiceStorageNode] = {}
        # One pass over the map instead of O(nodes × partitions) scans of
        # partitions_of() — at 20×50 the repeated scans dominated build time.
        member_of: Dict[str, List[ReplicaSet]] = {name: [] for name in node_names}
        for rs in partition_map:
            for member in dict.fromkeys([*rs.members, *rs.handoffs]):
                if member in member_of:
                    member_of[member].append(rs)
        for host, name in zip(storage_hosts, node_names):
            node = NiceStorageNode(
                self.sim,
                host,
                name,
                cfg,
                self.uni_vring,
                self.mc_vring,
                [host.ip for host in meta_hosts],
                self.directory,
            )
            self.metadata.register_node(name)
            for rs in member_of[name]:
                if ha.size > 1:
                    # A private copy per node: a deposed leader replaying
                    # old state must not be able to mutate node views
                    # through shared objects (epoch fencing guards the
                    # message path; this guards the reference path).  A
                    # group of one shares the service's objects, a shortcut
                    # rows depend on (DESIGN.md §5f).
                    rs = ReplicaSet.from_wire(rs.to_wire())
                node.install_replica_set(rs)
            self.nodes[name] = node

        self.clients: List[NiceClient] = [
            NiceClient(self.sim, host, cfg, self.uni_vring, self.mc_vring)
            for host in client_hosts
        ]

    # -- topology helpers ---------------------------------------------------------
    def _attach(self, host: Host, rack: int):
        """Wire a host to its access switch (the rack's leaf, or ``sw0``)."""
        cfg = self.config
        if self.fabric is not None:
            return self.fabric.attach_host(
                host, rack, cfg.link_bandwidth_bps, cfg.link_latency_s
            )
        return self.network.connect(
            self.switch, host, cfg.link_bandwidth_bps, cfg.link_latency_s
        )

    def _client_subnets(self) -> List[IPv4Network]:
        """The per-rack client blocks: the first ``n_racks`` subnets of the
        client space after a power-of-two split."""
        cfg = self.config
        blocks = 1
        while blocks < cfg.n_racks:
            blocks *= 2
        plen = cfg.client_space.prefixlen + (blocks.bit_length() - 1)
        return list(cfg.client_space.subnets(plen))[: cfg.n_racks]

    @property
    def switches(self) -> list:
        """Every data-plane switch: fabric (or sw0), then client edges."""
        core = self.fabric.switches if self.fabric is not None else [self.switch]
        return [*core, *self.edge_switches]

    # -- conveniences -------------------------------------------------------------
    @property
    def partition_map(self) -> PartitionMap:
        """The authoritative map: the acting leader rebinds the controller's
        reference on takeover, so reading through it always sees the
        current leader's copy."""
        return self.controller.partition_map

    @property
    def metadata_active(self) -> Optional[MetadataService]:
        """The acting metadata leader's service (``None`` only between a
        leader crash and a standby's promotion)."""
        return self.metadata_ha.active_service

    def node_of_partition(self, partition: int) -> NiceStorageNode:
        """The current acting primary of ``partition``."""
        return self.nodes[self.partition_map.get(partition).primary]

    def partition_of_key(self, key: str) -> int:
        return self.uni_vring.subgroup_of_key(key)

    def replica_nodes(self, key: str) -> List[NiceStorageNode]:
        """Replica set (primary first) currently serving ``key``'s partition."""
        rs = self.partition_map.get(self.partition_of_key(key))
        return [self.nodes[n] for n in rs.get_targets() if n in self.nodes]
