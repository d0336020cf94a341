"""Cluster-wide configuration and wire-protocol constants.

Defaults mirror the paper's deployment (§6): 15 storage nodes + 1 metadata
node, 14 client machines, 1 Gbps links, replication level 3, sequential
consistency; unicast vring 10.10.0.0/16 and multicast vring 10.11.0.0/16
(§4.2's example ranges).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..net import GBPS, IPv4Address, IPv4Network

__all__ = [
    "BaseConfig",
    "ClusterConfig",
    "GET_PORT",
    "PUT_PORT",
    "NODE_PORT",
    "META_PORT",
    "CLIENT_PORT",
    "REQUEST_BYTES",
    "ACK_BYTES",
    "COMMIT_BYTES",
    "HEARTBEAT_BYTES",
    "MEMBERSHIP_BYTES",
]

#: UDP port for get requests sent to the unicast vring.
GET_PORT = 7000
#: UDP port for put requests sent to the multicast vring.
PUT_PORT = 7001
#: TCP port for storage-node ↔ storage-node protocol messages.
NODE_PORT = 7100
#: Ports on the metadata service: UDP heartbeats and TCP control.
META_PORT = 7200
#: TCP port clients listen on for replies ("waits for the reply on a
#: client-side TCP socket", §5).
CLIENT_PORT = 7300

#: Application-level message sizes (bytes of payload; headers are added by
#: the wire model).
REQUEST_BYTES = 100
ACK_BYTES = 64
COMMIT_BYTES = 128
HEARTBEAT_BYTES = 256
MEMBERSHIP_BYTES = 512

@dataclass
class BaseConfig:
    """Knobs both cluster builders read, NICE and NOOB: the platform
    (nodes, clients, links, switch, node CPU), the ring, the timeouts a
    storage node and a client share, and the seed."""

    n_storage_nodes: int = 15
    n_clients: int = 14
    replication_level: int = 3
    #: Partitions (= vring subgroups).  Defaults to the node count so every
    #: node is primary of exactly one partition; must be a power of two for
    #: the prefix-subgroup mapping, so the builder rounds up.
    n_partitions: int = 0
    link_bandwidth_bps: float = GBPS
    link_latency_s: float = 50e-6
    switch_lookup_latency_s: float = 5e-6
    #: Node-to-node protocol timeout; two timeouts trigger a failure report.
    peer_timeout_s: float = 0.5
    #: Client retry timeout — Fig 11: "the client will retry after waiting
    #: for 2 seconds".
    client_retry_timeout_s: float = 2.0
    client_space: IPv4Network = field(default_factory=lambda: IPv4Network("10.20.0.0/24"))
    #: Per-request CPU service time on a storage node (request parsing,
    #: indexing, syscalls).  Serialized per node: the resource a hot
    #: primary saturates on small-object workloads (Figs 10, 12).
    node_cpu_per_op_s: float = 25e-6
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_storage_nodes < 1:
            raise ValueError("need at least one storage node")
        if not 1 <= self.replication_level <= self.n_storage_nodes:
            raise ValueError(
                f"replication level {self.replication_level} needs "
                f"{self.replication_level} storage nodes, have {self.n_storage_nodes}"
            )
        if self.n_partitions <= 0:
            self.n_partitions = self.n_storage_nodes
        # Round partitions up to a power of two (prefix subgroups, §3.2).
        p = 1
        while p < self.n_partitions:
            p *= 2
        self.n_partitions = p

    def client_ip(self, i: int) -> IPv4Address:
        """Client ``i``'s address behind one switch: the clients spread
        evenly over ``client_space``, so the §4.5 source-prefix load
        balancer sees a realistic client population."""
        space = self.client_space
        stride = max(1, space.num_addresses // max(self.n_clients, 1))
        return space.address + (i * stride) % space.num_addresses


@dataclass
class ClusterConfig(BaseConfig):
    """The NICE cluster's knobs: the shared ones plus the control plane,
    the vrings, the fabric and the protocol variants."""

    controller_latency_s: float = 500e-6
    heartbeat_interval_s: float = 0.5
    #: Heartbeats missed before the metadata service declares failure (§4.4).
    heartbeat_miss_limit: int = 3
    unicast_vring: IPv4Network = field(default_factory=lambda: IPv4Network("10.10.0.0/16"))
    multicast_vring: IPv4Network = field(default_factory=lambda: IPv4Network("10.11.0.0/16"))
    #: Enable the §4.5 source-prefix load balancer for gets.
    load_balancing: bool = True
    #: Metadata-service standbys for control-plane HA.  The service is a
    #: replica group of ``1 + metadata_standbys``; 0 (default) is a group
    #: of one, the paper's single process.  Each standby tails the
    #: membership log and promotes itself (with a new epoch) when the
    #: leader's lease expires.
    metadata_standbys: int = 0
    #: Deployment shape (§5.1): "hw" — one switch that can rewrite headers
    #: and multicast (the idealized setup); "ovs" — the paper's actual
    #: CloudLab deployment: a software Open vSwitch on every client does
    #: the virtual→physical rewrites, the hardware switch only forwards
    #: and multicasts (it cannot modify destination addresses).
    deployment: str = "hw"
    #: Leaf–spine fabric shape (DESIGN.md §5h).  ``n_racks == 1`` (default)
    #: keeps the paper's single hardware switch and is bit-identical to the
    #: pre-fabric builder; ``n_racks > 1`` puts each rack behind a leaf
    #: switch and meshes the leaves to ``n_spines`` spine switches with
    #: deterministic hash-based ECMP uplink selection.
    n_racks: int = 1
    n_spines: int = 2
    #: Per-switch flow-table budget for fabric switches (0 = unlimited).
    #: When set, every leaf and spine is built with this table capacity, so
    #: exceeding the budget raises at rule-install time (§4.6 for real).
    switch_rule_budget: int = 0
    #: -- Protocol variants, and why each exists (the one place that says) --
    #: The paper has one protocol.  This repo carries two read-path
    #: ``protocol_mode``s, each for one stated reason; a variant no figure
    #: or oracle needs should go.
    #:   "nice"      the paper's §4.5 static (src-prefix, dst-prefix) load
    #:               balancer — the default, every figure.
    #:   "harmonia"  a switch-maintained dirty-set of in-flight puts (arXiv
    #:               1904.08964, DESIGN.md §5j): gets on clean keys
    #:               round-robin over every consistent replica, dirty keys
    #:               fall back to the primary — the one measured extension
    #:               (`read_scaling`).
    #: Deliberately broken variants (a dirty-set cleared on the commit's
    #: transit, log appends that skip the flush, …) are not settable here:
    #: they are in-process patches in the mutant table,
    #: ``repro/check/mutants.py``, which the chaos suite must catch.
    protocol_mode: str = "nice"
    #: Background scrubber cadence (seconds between full store walks that
    #: re-verify object checksums and read-repair bit-rot from a
    #: consistent replica).  0 (default) disables the scrubber entirely —
    #: no process is spawned, keeping default runs bit-identical.
    scrub_interval_s: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.deployment not in ("hw", "ovs"):
            raise ValueError(f"deployment must be 'hw' or 'ovs': {self.deployment!r}")
        if self.protocol_mode not in ("nice", "harmonia"):
            raise ValueError(f"protocol_mode must be 'nice' or 'harmonia': {self.protocol_mode!r}")
        if self.scrub_interval_s < 0:
            raise ValueError(f"scrub_interval_s must be >= 0: {self.scrub_interval_s}")
        if self.metadata_standbys < 0:
            raise ValueError(f"metadata_standbys must be >= 0: {self.metadata_standbys}")
        if self.n_racks < 1:
            raise ValueError(f"n_racks must be >= 1: {self.n_racks}")
        if self.n_spines < 1:
            raise ValueError(f"n_spines must be >= 1: {self.n_spines}")
        if self.switch_rule_budget < 0:
            raise ValueError(
                f"switch_rule_budget must be >= 0: {self.switch_rule_budget}"
            )
        if self.n_racks > 1:
            if self.deployment != "hw":
                raise ValueError(
                    "the leaf-spine fabric models rewriting leaves; "
                    "deployment must be 'hw' when n_racks > 1"
                )
            # Each rack gets one 10.0.<rack>.0/24 storage block; rack 0 also
            # hosts the metadata service at .250+.
            per_rack = -(-self.n_storage_nodes // self.n_racks)
            if per_rack > 200:
                raise ValueError(
                    f"{per_rack} storage nodes per rack exceeds the /24 "
                    "rack address block"
                )
