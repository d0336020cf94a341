"""NOOB cluster builder: the same physical platform as NICE, with the
storage logic in end hosts and the network as a dumb (statically routed)
fabric (§2.1).

Also implements the NOOB full-membership maintenance path: a membership
change is broadcast to *every* node over O(N) point-to-point messages
(§2.1: "this update happens through contacting every node ... using O(N)
connections and messages"), measured by the scalability ablation bench.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.config import MEMBERSHIP_BYTES, NODE_PORT
from ..core.membership import PartitionMap
from ..core.system import ClusterBase
from ..kv import ConsistentHashRing, key_hash
from ..net import (
    Host,
    IPv4Address,
    MacAddress,
    Match,
    Network,
    OpenFlowSwitch,
    Output,
    Rule,
    SetEthDst,
)
from ..sim import AllOf, RngRegistry, Simulator
from ..transport import ProtocolStack
from .client import NoobClient
from .config import NoobConfig
from .gateway import Gateway
from .storage_node import NoobStorageNode

__all__ = ["NoobCluster"]

STORAGE_BASE = IPv4Address("10.0.0.1")
GATEWAY_BASE = IPv4Address("10.0.2.1")
_MAC_BASE = 0x020000001100


class NoobCluster(ClusterBase):
    """A fully-wired NOOB deployment inside one simulator."""

    def __init__(self, config: NoobConfig = None, sim: Simulator = None):
        self.config = config or NoobConfig()
        cfg = self.config
        self.sim = sim or Simulator()
        self.rng = RngRegistry(cfg.seed)
        self.network = Network(self.sim)
        self.switch = OpenFlowSwitch(
            self.sim, "sw0", lookup_latency_s=cfg.switch_lookup_latency_s
        )
        self.network.register(self.switch)
        self.switches = [self.switch]

        node_names = [f"n{i}" for i in range(cfg.n_storage_nodes)]
        self.partition_map = PartitionMap.build(
            node_names, cfg.n_partitions, cfg.replication_level
        )

        self.directory: Dict[str, IPv4Address] = {}
        mac = _MAC_BASE
        hosts: List[Host] = []

        def add_host(name: str, ip: IPv4Address) -> Host:
            nonlocal mac
            host = Host(self.sim, name, ip, MacAddress(mac))
            mac += 1
            self.network.register(host)
            self.network.connect(
                self.switch, host, cfg.link_bandwidth_bps, cfg.link_latency_s
            )
            hosts.append(host)
            return host

        storage_hosts = [add_host(n, STORAGE_BASE + i) for i, n in enumerate(node_names)]
        for name, host in zip(node_names, storage_hosts):
            self.directory[name] = host.ip

        gateway_hosts: List[Host] = []
        if cfg.access in ("rog", "rag"):
            gateway_hosts = [
                add_host(f"gw{i}", GATEWAY_BASE + i) for i in range(cfg.n_gateways)
            ]

        client_hosts = [add_host(f"c{i}", cfg.client_ip(i)) for i in range(cfg.n_clients)]

        # Static L3 forwarding: NOOB's network is a plain switched fabric.
        for host in hosts:
            link = self.network.link_between(self.switch, host)
            port_no = (link.a if link.a.device is self.switch else link.b).number
            self.switch.install_rule(
                Rule(Match(ip_dst=host.ip), [SetEthDst(host.mac), Output(port_no)], 100)
            )

        self.nodes: Dict[str, NoobStorageNode] = {
            name: NoobStorageNode(
                self.sim, host, name, cfg, self.partition_map, self.directory
            )
            for name, host in zip(node_names, storage_hosts)
        }

        self.gateways: List[Gateway] = [
            Gateway(
                self.sim,
                host,
                cfg,
                self.partition_map,
                self.directory,
                self.rng.stream(f"gw:{host.name}"),
            )
            for host in gateway_hosts
        ]
        gateway_ips = [g.host.ip for g in self.gateways]

        self.clients: List[NoobClient] = [
            NoobClient(
                self.sim,
                host,
                cfg,
                self.partition_map,
                self.directory,
                gateway_ips,
                self.rng.stream(f"client:{host.name}"),
            )
            for host in client_hosts
        ]

        #: The "membership coordinator" stack used for O(N) broadcasts: in
        #: production NOOB systems a seed node plays this role; we reuse the
        #: first gateway or the first storage host's stack.
        self._coordinator_stack: ProtocolStack = (
            self.gateways[0].stack if self.gateways else self.nodes[node_names[0]].stack
        )
        self.membership_messages_sent = 0

    # -- O(N) membership maintenance (§2.1) -------------------------------------
    def broadcast_membership_change(self):
        """Push a membership update to every node; returns a Process that
        completes when all nodes acknowledged.  Message count is O(N)."""
        stack = self._coordinator_stack

        def one(ip):
            conn = yield self.sim.wait(
                stack.tcp.send_message, ip, NODE_PORT, {"type": "membership_update"}, MEMBERSHIP_BYTES
            )
            yield conn.inbox.get(
                lambda m: (m.payload or {}).get("type") == "membership_ack"
            )

        def run():
            procs = []
            for name, ip in self.directory.items():
                self.membership_messages_sent += 1
                procs.append(self.sim.process(one(ip)))
            if procs:
                yield AllOf(self.sim, procs)
            return len(procs)

        return self.sim.process(run())

    # -- conveniences ---------------------------------------------------------------
    def partition_of_key(self, key: str) -> int:
        return ConsistentHashRing.partition_of_hash(key_hash(key), len(self.partition_map))

    def replica_nodes(self, key: str) -> List[NoobStorageNode]:
        return [self.nodes[n] for n in self.partition_map.replicas_of_key(key)]

    def primary_of(self, key: str) -> NoobStorageNode:
        return self.replica_nodes(key)[0]
