"""The NICE SDN controller (the paper's Ryu app, §5 "Mapping Service").

Responsibilities, mirroring the paper:

* **L3 learning switch** — learns which (IP, MAC) sits behind which switch
  port; unknown destinations are ARPed while the triggering packet is
  buffered; recently-ARPed addresses are not re-asked.
* **Virtual-ring mapping** — packets to a unicast-vring subgroup are
  rewritten (dst IP + MAC) to the responsible physical replica and
  forwarded in a single hop (§3.2); packets to a multicast-vring subgroup
  hit an ALL-group that clones them to every put target (§4.2).
* **In-network load balancing** — per-partition (src-prefix, dst-prefix)
  rules spread get requests of one partition over its R replicas; clients
  outside the divisions fall through to the primary (§4.5).
* **Consistency-aware fault tolerance** — failed or inconsistent nodes are
  simply absent from the installed mappings, so clients cannot reach them
  (§3.3); the metadata service drives re-syncs on membership changes.

Rule budget (§4.6): one unicast + one multicast entry per partition without
load balancing (2N total), R unicast entries per partition with it
((R+1)N total).  ``rule_count()`` exposes the live number for the
scalability benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..sim import Counter
from ..net import (
    ArpTable,
    Bucket,
    ControllerApp,
    FLOOD,
    Group,
    HarmoniaRead,
    IPv4Address,
    IPv4Network,
    MacAddress,
    Match,
    Output,
    OutputGroup,
    Packet,
    Proto,
    Rule,
    SetEthDst,
    SetIpDst,
    ToController,
    ecmp_index,
    make_arp_request,
)
from .config import ClusterConfig, GET_PORT
from .membership import PartitionMap, ReplicaSet
from .vring import VirtualRing, mc_group_address

__all__ = ["NiceControllerApp", "HostRecord", "SwitchInfo"]

#: Rule priorities (higher wins).
PRIO_ARP = 500
#: Harmonia-mode read rule (DESIGN.md §5j): one dirty-set-aware entry per
#: partition, above the §4.5 static LB divisions it replaces.
PRIO_HARMONIA = 310
PRIO_LB = 300
#: Fabric: multicast arriving from the designated spine is delivered
#: locally; it must outrank the plain ascend rule on the same address.
PRIO_MC_DELIVER = 210
PRIO_VRING = 200
PRIO_L3 = 150
#: Fabric: per-rack aggregated prefix routes — below every /32 host route,
#: so local delivery always wins on a leaf.
PRIO_L3AGG = 140

#: Controller's pseudo-identity for ARP requests it originates.
_CTRL_IP = IPv4Address("0.0.0.0")
_CTRL_MAC = MacAddress(0x02FFFFFFFFFF)


@dataclass(frozen=True)
class HostRecord:
    """Identity of a machine the controller may map traffic to."""

    name: str
    ip: IPv4Address
    mac: MacAddress


@dataclass
class SwitchInfo:
    """Role of one switch in the deployment (§5.1).

    * ``core`` — the (hardware) fabric switch.  ``can_rewrite`` says
      whether it supports set-field actions; the CloudLab switch did not.
    * ``edge`` — a client-side Open vSwitch: always rewrites, serves one
      client, forwards everything else up its ``uplink_port``.
    * ``leaf`` — a rack's top-of-rack switch in the leaf–spine fabric
      (DESIGN.md §5h): rewrites at ingress, serves rack ``rack``.
    * ``spine`` — an aggregation switch: prefix routes and multicast
      fan-out to leaves only, never rewrites.
    """

    role: str = "core"
    can_rewrite: bool = True
    client_ip: Optional[IPv4Address] = None
    uplink_port: Optional[int] = None
    rack: Optional[int] = None


_DEFAULT_SWITCH_INFO = SwitchInfo()


class NiceControllerApp(ControllerApp):
    """SDN module of the metadata service."""

    def __init__(
        self,
        config: ClusterConfig,
        partition_map: PartitionMap,
        unicast_vring: VirtualRing,
        multicast_vring: VirtualRing,
    ):
        super().__init__()
        self.config = config
        # -- incremental rule planner (DESIGN.md §5i) ----------------------
        #: switch name -> {partition -> (version key, (pre, group, post))}.
        self._plan_cache: Dict[str, Dict[int, Tuple[tuple, tuple]]] = {}
        #: Per-partition dirty counter, bumped by every sync_partition call
        #: (the metadata service calls it on each membership change).
        self._part_version: Dict[int, int] = {}
        #: Bumped on any topology-shaped change (switch/host/prefix
        #: registration, fabric discovery): invalidates every cached plan
        #: and the derived indexes below.
        self._topo_version = 0
        #: (switch name, partition) pairs a sync has ever installed vring
        #: rules for — lets sync_partition skip the delete round-trip on
        #: pairs that never held rules (the build-time common case).
        self._synced: set = set()
        self.plan_recomputes = Counter("plan.recomputed")
        self.plan_cache_hits = Counter("plan.cache_hits")
        #: Wall-clock seconds spent inside sync_all/sync_partition/reconcile
        #: (outermost call only — nested calls don't double-count).
        self.plan_wall_s = 0.0
        self._timer_depth = 0
        # Memoized pure derivations (cleared on the relevant version bump).
        self._division_memo: Dict[int, List[IPv4Network]] = {}
        self._spine_memo: Dict[Tuple[str, int], str] = {}
        self._mc_spine_memo: Dict[int, str] = {}
        self._static_memo: Dict[str, Tuple[tuple, List[Rule]]] = {}
        self._l3_index_memo: Optional[Tuple[tuple, Dict[str, List[HostRecord]]]] = None
        self._uni_prefix_memo: Dict[int, IPv4Network] = {}
        self._mc_prefix_memo: Dict[int, IPv4Network] = {}
        self._mc_addr_memo: Dict[int, IPv4Address] = {}

        self.partition_map = partition_map
        self.uni = unicast_vring
        self.mc = multicast_vring
        self.hosts: Dict[str, HostRecord] = {}
        #: The cluster's shared dirty-set registry in Harmonia mode
        #: (DESIGN.md §5j), set by the system builder; None in NICE mode.
        self.harmonia = None
        #: Control-plane epoch stamped on outgoing flow-mods.  The acting
        #: metadata leader keeps this equal to its own epoch; switches
        #: fence anything older (see OpenFlowSwitch.accept_epoch).
        self.epoch = 0
        self.arp = ArpTable()
        #: dst ip -> [(switch, buffer_id)] awaiting ARP resolution.
        self._pending: Dict[IPv4Address, List[Tuple[object, int]]] = {}
        self._host_by_ip: Dict[IPv4Address, HostRecord] = {}
        #: switch name -> deployment role (default: rewriting core).
        self._switch_info: Dict[str, SwitchInfo] = {}
        #: (switch name, peer switch name) -> local port toward the peer.
        self._fabric_ports: Dict[Tuple[str, str], int] = {}
        #: Fabric bookkeeping (empty outside leaf–spine deployments).
        self._rack_prefixes: Dict[int, List[IPv4Network]] = {}
        self._leaf_of_rack: Dict[int, str] = {}
        self._spine_names: List[str] = []
        #: Fail-slow nodes (§5k), as reported by the metadata service:
        #: excluded from read round-robin / LB divisions (kept only as the
        #: primary fallback until the primary handoff lands).
        self.degraded: set = set()

    # -- incremental planner plumbing (DESIGN.md §5i) ---------------------------
    @property
    def partition_map(self) -> PartitionMap:
        return self._partition_map

    @partition_map.setter
    def partition_map(self, value: PartitionMap) -> None:
        # A takeover (control-plane HA) rebinds the whole map: every cached
        # plan may describe the old leader's view, so drop them all.
        prior = getattr(self, "_partition_map", None)
        self._partition_map = value
        if prior is not None and prior is not value:
            self.invalidate_plans()

    def invalidate_plans(self) -> None:
        """Drop every cached plan and derived index; the next
        ``desired_state``/``sync_partition`` recomputes from scratch."""
        self._plan_cache.clear()
        self._static_memo.clear()
        self._l3_index_memo = None
        self._topo_version += 1

    def set_degraded(self, name: str, slow: bool = True) -> None:
        """Drain (or restore) a fail-slow node in the read paths (§5k).
        Degradation changes the desired rules without touching any
        replica-set revision, so the plan cache must be dropped."""
        if slow == (name in self.degraded):
            return
        if slow:
            self.degraded.add(name)
        else:
            self.degraded.discard(name)
        self.invalidate_plans()

    def _read_targets(self, rs: ReplicaSet) -> list:
        """Get-serving replicas: the consistent targets minus fail-slow
        drains — except the primary, which must stay addressable as the
        dirty-key / uncovered-division fallback until a handoff lands."""
        return [
            self.hosts[n]
            for n in rs.get_targets()
            if n in self.hosts and (n not in self.degraded or n == rs.primary)
        ]

    def _bump_topology(self) -> None:
        self._topo_version += 1
        self._spine_memo.clear()
        self._mc_spine_memo.clear()
        self._static_memo.clear()
        self._l3_index_memo = None

    def _plan_key(self, rs: ReplicaSet) -> tuple:
        """Version vector a cached plan is valid for: partition dirty
        counter, replica-set revision, map generation (log replay), fabric
        topology, and ARP state (host locations feed rewrites/buckets)."""
        return (
            self._part_version.get(rs.partition, 0),
            getattr(rs, "rev", 0),
            getattr(self._partition_map, "generation", 0),
            self._topo_version,
            self.arp.generation,
        )

    def _plan_partition(
        self, rs: ReplicaSet, switch, info: SwitchInfo, force: bool = False
    ) -> Tuple[List[Rule], Optional[Group], List[Rule]]:
        key = self._plan_key(rs)
        cache = self._plan_cache.setdefault(switch.name, {})
        entry = cache.get(rs.partition)
        if not force and entry is not None and entry[0] == key:
            self.plan_cache_hits.add()
            return entry[1]
        plan = self._partition_state(rs, switch, info)
        cache[rs.partition] = (key, plan)
        self.plan_recomputes.add()
        return plan

    def _timer_start(self) -> float:
        self._timer_depth += 1
        return perf_counter() if self._timer_depth == 1 else 0.0

    def _timer_stop(self, t0: float) -> None:
        self._timer_depth -= 1
        if self._timer_depth == 0:
            self.plan_wall_s += perf_counter() - t0

    # -- deployment roles -------------------------------------------------------
    def register_switch(
        self,
        switch,
        role: str = "core",
        can_rewrite: bool = True,
        client_ip: Optional[IPv4Address] = None,
        uplink_port: Optional[int] = None,
        rack: Optional[int] = None,
    ) -> None:
        if role not in ("core", "edge", "leaf", "spine"):
            raise ValueError(
                f"switch role must be core, edge, leaf or spine: {role!r}"
            )
        self._switch_info[switch.name] = SwitchInfo(
            role, can_rewrite, IPv4Address(client_ip) if client_ip else None,
            uplink_port, rack,
        )
        if role == "leaf":
            self._leaf_of_rack[rack] = switch.name
        elif role == "spine":
            self._spine_names.append(switch.name)
        self._bump_topology()

    def register_rack_prefix(self, rack: int, prefix: IPv4Network) -> None:
        """Declare that ``prefix`` lives in ``rack`` — the unit of spine
        (and remote-leaf) route aggregation."""
        self._rack_prefixes.setdefault(rack, []).append(IPv4Network(prefix))
        self._bump_topology()

    @property
    def _fabric_mode(self) -> bool:
        return bool(self._spine_names)

    def rack_of_node(self, name: str) -> Optional[int]:
        """Rack a host sits in (None outside fabric mode / pre-discovery)."""
        rec = self.hosts.get(name)
        if rec is None:
            return None
        loc = self.arp.lookup(rec.ip)
        if loc is None:
            return None
        info = self._switch_info.get(loc.switch_name)
        return info.rack if info is not None else None

    def _uplink_to(self, sw_name: str, peer_name: str) -> Optional[int]:
        return self._fabric_ports.get((sw_name, peer_name))

    def _spine_toward(self, leaf_name: str, dst_rack: int) -> str:
        """ECMP spine for unicast traffic from ``leaf_name`` to ``dst_rack``.

        The flow key is (ingress leaf, destination rack) — the same key the
        leaf's aggregated rack route uses, so per-host rewrites and the
        aggregate prefix rule always pick the same path.
        """
        memo = self._spine_memo.get((leaf_name, dst_rack))
        if memo is not None:
            return memo
        spines = self._spine_names
        choice = spines[ecmp_index(len(spines), leaf_name, dst_rack, self.config.ecmp_seed)]
        self._spine_memo[(leaf_name, dst_rack)] = choice
        return choice

    def _mc_spine(self, partition: int) -> str:
        """The one spine carrying partition ``partition``'s multicast tree.

        Keyed on the partition alone (not the ingress leaf) so the tree is
        a tree: every leaf ascends to the same spine, which fans out to
        every leaf holding a put target — no duplicate or looping copies.
        """
        memo = self._mc_spine_memo.get(partition)
        if memo is not None:
            return memo
        spines = self._spine_names
        choice = spines[ecmp_index(len(spines), "mc", partition, self.config.ecmp_seed)]
        self._mc_spine_memo[partition] = choice
        return choice

    def _info(self, switch) -> SwitchInfo:
        return self._switch_info.get(switch.name, _DEFAULT_SWITCH_INFO)

    @property
    def _harmonia_mode(self) -> bool:
        """Plan the ``hread:`` rule family instead of §4.5 LB divisions?"""
        return self.config.protocol_mode != "nice"

    # Static per-partition derivations (IPv4Network construction is the
    # single hottest allocation in a full sync at 1000 nodes — memoized,
    # the vrings never change after construction).
    def _uni_prefix(self, partition: int) -> IPv4Network:
        memo = self._uni_prefix_memo.get(partition)
        if memo is None:
            memo = self._uni_prefix_memo[partition] = self.uni.subgroup_prefix(partition)
        return memo

    def _mc_prefix(self, partition: int) -> IPv4Network:
        memo = self._mc_prefix_memo.get(partition)
        if memo is None:
            memo = self._mc_prefix_memo[partition] = self.mc.subgroup_prefix(partition)
        return memo

    def _mc_addr(self, partition: int) -> IPv4Address:
        memo = self._mc_addr_memo.get(partition)
        if memo is None:
            memo = self._mc_addr_memo[partition] = mc_group_address(partition)
        return memo

    # -- directory -------------------------------------------------------------
    def register_host(self, name: str, ip: IPv4Address, mac: MacAddress) -> HostRecord:
        rec = HostRecord(name, IPv4Address(ip), MacAddress(mac))
        self.hosts[name] = rec
        self._host_by_ip[rec.ip] = rec
        self._bump_topology()
        return rec

    def learn_location(self, ip: IPv4Address, switch, port_no: int) -> None:
        rec = self._host_by_ip.get(IPv4Address(ip))
        mac = rec.mac if rec else MacAddress.BROADCAST
        self.arp.learn(IPv4Address(ip), mac, switch.name, port_no)

    def discover_topology(self, network) -> None:
        """Learn every host's location and the inter-switch fabric ports
        (equivalent to the steady state the learning switch converges to;
        reactive learning is exercised separately in tests)."""
        from ..net import Host, OpenFlowSwitch

        for switch in self.channel.switches:
            for port_no, port in switch.ports.items():
                peer = port.peer
                if peer is None:
                    continue
                if isinstance(peer.device, Host):
                    self.learn_location(peer.device.ip, switch, port_no)
                elif isinstance(peer.device, OpenFlowSwitch):
                    self._fabric_ports[(switch.name, peer.device.name)] = port_no
        self._bump_topology()

    # -- bootstrap -----------------------------------------------------------------
    def _static_rules(self, switch, info: SwitchInfo) -> List[Rule]:
        """ARP punt rule on every switch, plus edge-switch base rules:
        deliver the attached client's traffic to it, default everything
        else up the uplink.  Fabric switches additionally carry the
        per-rack aggregated prefix routes (one wildcard per rack prefix
        instead of one /32 per host — the §4.6 budget saver).

        Memoized per switch on (topology, ARP) versions — reconcile calls
        this once per switch per pass, and the aggregate expansion is
        O(racks × prefixes)."""
        key = (self._topo_version, self.arp.generation)
        memo = self._static_memo.get(switch.name)
        if memo is not None and memo[0] == key:
            return memo[1]
        rules = self._compute_static_rules(switch, info)
        self._static_memo[switch.name] = (key, rules)
        return rules

    def _compute_static_rules(self, switch, info: SwitchInfo) -> List[Rule]:
        rules = [Rule(Match(proto=Proto.ARP), [ToController()], PRIO_ARP, cookie="arp")]
        if info.role in ("leaf", "spine"):
            rules.extend(self._aggregate_rules(switch, info))
            return rules
        if info.role != "edge":
            return rules
        rec = self._host_by_ip.get(info.client_ip)
        loc = self.arp.lookup(info.client_ip) if rec else None
        if rec is not None and loc is not None and loc.switch_name == switch.name:
            rules.append(
                Rule(
                    Match(ip_dst=rec.ip),
                    [SetEthDst(rec.mac), Output(loc.port_no)],
                    PRIO_L3,
                    cookie="edge-base",
                )
            )
        if info.uplink_port is not None:
            rules.append(Rule(Match(), [Output(info.uplink_port)], 1, cookie="edge-base"))
        return rules

    def _aggregate_rules(self, switch, info: SwitchInfo) -> List[Rule]:
        """Per-rack wildcard routes (cookie ``l3agg:<rack>``).

        * On a spine: every rack prefix routes down to that rack's leaf.
        * On a leaf: every *remote* rack prefix routes up the ECMP-chosen
          uplink for (this leaf, that rack); local hosts are covered by
          their /32 ``l3:`` rules at higher priority.
        """
        rules: List[Rule] = []
        for rack in sorted(self._rack_prefixes):
            if info.role == "spine":
                port = self._uplink_to(switch.name, self._leaf_of_rack[rack])
            elif rack == info.rack:
                continue
            else:
                port = self._uplink_to(switch.name, self._spine_toward(switch.name, rack))
            if port is None:
                continue  # pre-discovery: fabric ports not yet learned
            for prefix in self._rack_prefixes[rack]:
                rules.append(
                    Rule(
                        Match(ip_dst=prefix),
                        [Output(port)],
                        PRIO_L3AGG,
                        cookie=f"l3agg:{rack}",
                    )
                )
        return rules

    def install_static_rules(self) -> None:
        for switch in self.channel.switches:
            ops = [
                ("rule", rule)
                for rule in self._static_rules(switch, self._info(switch))
            ]
            self.channel.apply_batch(switch, ops)

    def sync_all(self, epoch: Optional[int] = None) -> None:
        """Install L3 + vring + LB + group rules for the whole system."""
        t0 = self._timer_start()
        try:
            for rec in self.hosts.values():
                self._install_l3(rec, epoch=epoch)
            for rs in self.partition_map:
                self.sync_partition(rs.partition, epoch=epoch)
        finally:
            self._timer_stop(t0)

    # -- per-partition rule synthesis --------------------------------------------------
    def sync_partition(self, partition: int, epoch: Optional[int] = None) -> None:
        """Recompute and reinstall every rule derived from one replica set.

        Called by the metadata service on any membership change affecting
        the partition — failure hiding, handoff insertion, rejoin phases.
        Always replans (the caller is telling us the partition is dirty)
        and refreshes the plan cache, so the following ``desired_state`` /
        ``reconcile`` reuse the result instead of recomputing.

        Each switch's operations ride one batched control message
        (:meth:`ControlPlane.apply_batch`): identical operations in
        identical order, one scheduled delivery per switch.  The delete
        round-trip is skipped for (switch, partition) pairs that have
        never held vring rules — at build time that is most of them.
        """
        t0 = self._timer_start()
        try:
            rs = self.partition_map.get(partition)
            self._part_version[partition] = self._part_version.get(partition, 0) + 1
            for switch in self.channel.switches:
                pre, group, post = self._plan_partition(
                    rs, switch, self._info(switch), force=True
                )
                ops = []
                if (switch.name, partition) in self._synced:
                    ops.append(("delete", f"uni:{partition}"))
                    ops.append(("delete", f"mc:{partition}"))
                    if self._harmonia_mode:
                        ops.append(("delete", f"hread:{partition}"))
                for rule in pre:
                    ops.append(("rule", rule))
                if group is not None:
                    ops.append(("group", group))
                for rule in post:
                    ops.append(("rule", rule))
                self._synced.add((switch.name, partition))
                self.channel.apply_batch(switch, ops, epoch=epoch)
            if self.harmonia is not None:
                # Pins (and any orphaned in-flight entries) bridged the
                # gap between a put failure and this membership-driven
                # re-sync; the fresh rules only target get-visible
                # replicas, so the registry can let go of the partition.
                self.harmonia.on_sync(partition)
        finally:
            self._timer_stop(t0)

    def _partition_state(
        self, rs: ReplicaSet, switch, info: SwitchInfo
    ) -> Tuple[List[Rule], Optional[Group], List[Rule]]:
        """Desired (rules-before-group, group, rules-after-group) for one
        partition on one switch.  The split preserves install order: a
        group must land before the rules that reference it."""
        if info.role == "edge":
            return self._edge_rules(rs, switch, info), None, []
        if info.role == "spine":
            group, post = self._spine_mc_entry(rs, switch)
            return [], group, post
        if info.role == "leaf":
            pre = self._unicast_rules(rs, switch)
            group, post = self._leaf_mc_entry(rs, switch, info)
            return pre, group, post
        pre = self._unicast_rules(rs, switch) if info.can_rewrite else []
        group, post = self._multicast_entry(rs, switch, info)
        return pre, group, post

    def _unicast_rules(self, rs: ReplicaSet, switch) -> List[Rule]:
        subgroup = self._uni_prefix(rs.partition)
        rules: List[Rule] = []
        primary = self.hosts.get(rs.primary)
        targets = self._read_targets(rs)
        if primary is None or not targets:
            return rules  # partition dark: no consistent replica reachable
        if self._harmonia_mode and len(targets) > 1:
            # One dirty-set-aware entry replaces the §4.5 LB divisions:
            # the switch resolves the replica per packet (DESIGN.md §5j).
            # choices[0] is the primary — the dirty-key fallback — even
            # when a failover moved the primary off members[0].
            ordered = [primary] + [t for t in targets if t is not primary]
            choices = tuple(
                tuple(self._rewrite_to(rec, switch)) for rec in ordered
            )
            rules.append(
                Rule(
                    Match(ip_dst=subgroup, proto=Proto.UDP, dport=GET_PORT),
                    [HarmoniaRead(rs.partition, choices)],
                    PRIO_HARMONIA,
                    cookie=f"hread:{rs.partition}",
                )
            )
        elif self.config.load_balancing and len(targets) > 1:
            for division, rec in zip(self._client_divisions(len(targets)), targets):
                rules.append(
                    Rule(
                        Match(
                            ip_src=division,
                            ip_dst=subgroup,
                            proto=Proto.UDP,
                            dport=GET_PORT,
                        ),
                        self._rewrite_to(rec, switch),
                        PRIO_LB,
                        cookie=f"uni:{rs.partition}",
                    )
                )
        # Default: anything else on this subgroup goes to the primary (§4.5:
        # "requests coming from IP addresses that are not covered by these
        # divisions ... forwarded to the primary replica").
        rules.append(
            Rule(
                Match(ip_dst=subgroup),
                self._rewrite_to(primary, switch),
                PRIO_VRING,
                cookie=f"uni:{rs.partition}",
            )
        )
        return rules

    def _multicast_entry(self, rs: ReplicaSet, switch, info: SwitchInfo) -> Tuple[Group, List[Rule]]:
        """The core switch's ALL-group plus the rules that hit it.

        A rewriting core matches the multicast-vring subgroup directly (hw
        deployment); any core also matches the replica set's IP multicast
        group address — the target of edge rewrites and of storage-node
        protocol multicasts (the 2PC timestamp)."""
        buckets = []
        for name in rs.put_targets():
            rec = self.hosts.get(name)
            loc = self.arp.lookup(rec.ip) if rec else None
            if loc is None or loc.switch_name != switch.name:
                continue
            actions = (SetIpDst(rec.ip), SetEthDst(rec.mac)) if info.can_rewrite else ()
            buckets.append(Bucket(actions=actions, port=loc.port_no))
        group = Group(group_id=rs.partition, buckets=buckets)
        rules = [
            Rule(
                Match(ip_dst=self._mc_addr(rs.partition)),
                [OutputGroup(rs.partition)],
                PRIO_VRING,
                cookie=f"mc:{rs.partition}",
            )
        ]
        if info.can_rewrite:
            rules.append(
                Rule(
                    Match(ip_dst=self._mc_prefix(rs.partition)),
                    [OutputGroup(rs.partition)],
                    PRIO_VRING,
                    cookie=f"mc:{rs.partition}",
                )
            )
        return group, rules

    def _leaf_mc_entry(
        self, rs: ReplicaSet, switch, info: SwitchInfo
    ) -> Tuple[Optional[Group], List[Rule]]:
        """Leaf side of the partition's multicast tree (DESIGN.md §5h).

        Three rules, one shared group address ``mcaddr``:

        * *deliver* — ``mcaddr`` arriving on the uplink from the designated
          spine fans into the local ALL-group (put targets in this rack),
          with the virtual→physical rewrite in the buckets.
        * *ascend* — ``mcaddr`` from any other port (a storage node's 2PC
          multicast) climbs to the designated spine.
        * *client rewrite* — the multicast-vring subgroup prefix is
          rewritten to ``mcaddr`` at ingress and climbs likewise.

        Every copy transits the spine — including rack-local ones — so
        each put target receives exactly one copy, sender included, exactly
        as the single-switch ALL-group behaves.
        """
        mcaddr = self._mc_addr(rs.partition)
        spine = self._mc_spine(rs.partition)
        up = self._uplink_to(switch.name, spine)
        if up is None:
            return None, []
        buckets = []
        for name in rs.put_targets():
            rec = self.hosts.get(name)
            loc = self.arp.lookup(rec.ip) if rec else None
            if loc is None or loc.switch_name != switch.name:
                continue
            buckets.append(
                Bucket(actions=(SetIpDst(rec.ip), SetEthDst(rec.mac)), port=loc.port_no)
            )
        cookie = f"mc:{rs.partition}"
        rules = []
        if buckets:
            rules.append(
                Rule(
                    Match(ip_dst=mcaddr, in_port=up),
                    [OutputGroup(rs.partition)],
                    PRIO_MC_DELIVER,
                    cookie=cookie,
                )
            )
        rules.append(
            Rule(Match(ip_dst=mcaddr), [Output(up)], PRIO_VRING, cookie=cookie)
        )
        rules.append(
            Rule(
                Match(ip_dst=self._mc_prefix(rs.partition)),
                [SetIpDst(mcaddr), Output(up)],
                PRIO_VRING,
                cookie=cookie,
            )
        )
        group = Group(group_id=rs.partition, buckets=buckets) if buckets else None
        return group, rules

    def _spine_mc_entry(self, rs: ReplicaSet, switch) -> Tuple[Optional[Group], List[Rule]]:
        """Spine side of the tree: only the designated spine carries the
        partition, fanning ``mcaddr`` to every leaf with a put target."""
        if switch.name != self._mc_spine(rs.partition):
            return None, []
        racks = set()
        for name in rs.put_targets():
            rack = self.rack_of_node(name)
            if rack is not None:
                racks.add(rack)
        buckets = []
        for rack in sorted(racks):
            port = self._uplink_to(switch.name, self._leaf_of_rack[rack])
            if port is not None:
                buckets.append(Bucket(actions=(), port=port))
        if not buckets:
            return None, []
        rules = [
            Rule(
                Match(ip_dst=self._mc_addr(rs.partition)),
                [OutputGroup(rs.partition)],
                PRIO_VRING,
                cookie=f"mc:{rs.partition}",
            )
        ]
        return Group(group_id=rs.partition, buckets=buckets), rules

    def _edge_rules(self, rs: ReplicaSet, switch, info: SwitchInfo) -> List[Rule]:
        """Client-side OVS rules (§5.1): rewrite virtual destinations to
        physical ones, then punt up the uplink; the hardware switch does
        the forwarding and multicast fan-out."""
        rules: List[Rule] = []
        if info.uplink_port is None:
            return rules
        uplink = [Output(info.uplink_port)]
        primary = self.hosts.get(rs.primary)
        targets = self._read_targets(rs)
        if primary is None or not targets:
            return rules
        if self._harmonia_mode and len(targets) > 1:
            # The client-side OVS is the rewriting hop (§5.1), so it hosts
            # the dirty-set rule; the hardware core just forwards.
            # choices[0] is the primary (dirty-key fallback), as above.
            ordered = [primary] + [t for t in targets if t is not primary]
            choices = tuple(
                (SetIpDst(rec.ip), SetEthDst(rec.mac), Output(info.uplink_port))
                for rec in ordered
            )
            rules.append(
                Rule(
                    Match(ip_dst=self._uni_prefix(rs.partition),
                          proto=Proto.UDP, dport=GET_PORT),
                    [HarmoniaRead(rs.partition, choices)],
                    PRIO_HARMONIA,
                    cookie=f"hread:{rs.partition}",
                )
            )
        else:
            # Which replica serves THIS client's gets (its LB division, §4.5).
            target = primary
            if self.config.load_balancing and len(targets) > 1 and info.client_ip is not None:
                for division, rec in zip(self._client_divisions(len(targets)), targets):
                    if info.client_ip in division:
                        target = rec
                        break
            rules.append(
                Rule(
                    Match(ip_dst=self._uni_prefix(rs.partition), proto=Proto.UDP,
                          dport=GET_PORT),
                    [SetIpDst(target.ip), SetEthDst(target.mac)] + uplink,
                    PRIO_LB,
                    cookie=f"uni:{rs.partition}",
                )
            )
        rules.append(
            Rule(
                Match(ip_dst=self._uni_prefix(rs.partition)),
                [SetIpDst(primary.ip), SetEthDst(primary.mac)] + uplink,
                PRIO_VRING,
                cookie=f"uni:{rs.partition}",
            )
        )
        rules.append(
            Rule(
                Match(ip_dst=self._mc_prefix(rs.partition)),
                [SetIpDst(self._mc_addr(rs.partition))] + uplink,
                PRIO_VRING,
                cookie=f"mc:{rs.partition}",
            )
        )
        return rules

    def _client_divisions(self, r: int) -> List[IPv4Network]:
        """Split the client space into the first ``r`` power-of-two blocks."""
        memo = self._division_memo.get(r)
        if memo is not None:
            return memo
        blocks = 1
        while blocks < r:
            blocks *= 2
        new_plen = self.config.client_space.prefixlen + (blocks.bit_length() - 1)
        divisions = list(self.config.client_space.subnets(new_plen))[:r]
        self._division_memo[r] = divisions
        return divisions

    def _rewrite_to(self, rec: HostRecord, switch) -> list:
        loc = self.arp.lookup(rec.ip)
        if loc is not None and loc.switch_name == switch.name:
            return [SetIpDst(rec.ip), SetEthDst(rec.mac), Output(loc.port_no)]
        if loc is not None and self._info(switch).role == "leaf":
            # Remote replica: rewrite at ingress, then climb the same ECMP
            # uplink the aggregated rack route uses; the spine's prefix
            # rule and the remote leaf's /32 finish the path.
            remote = self._switch_info.get(loc.switch_name)
            if remote is not None and remote.rack is not None:
                up = self._uplink_to(
                    switch.name, self._spine_toward(switch.name, remote.rack)
                )
                if up is not None:
                    return [SetIpDst(rec.ip), SetEthDst(rec.mac), Output(up)]
        return [ToController()]  # location unknown: punt (then ARP)

    def _l3_rule(self, rec: HostRecord, switch, info: SwitchInfo) -> Optional[Rule]:
        loc = self.arp.lookup(rec.ip)
        if loc is None:
            return None
        if switch.name == loc.switch_name:
            return Rule(
                Match(ip_dst=rec.ip),
                [SetEthDst(rec.mac), Output(loc.port_no)],
                PRIO_L3,
                cookie=f"l3:{rec.ip}",
            )
        if info.role == "core":
            # Host sits behind another switch (a client's edge OVS):
            # route toward that switch's fabric port.
            port = self._fabric_ports.get((switch.name, loc.switch_name))
            if port is not None:
                return Rule(
                    Match(ip_dst=rec.ip),
                    [Output(port)],
                    PRIO_L3,
                    cookie=f"l3:{rec.ip}",
                )
        # Edges reach everything else via their default uplink rule.
        return None

    def _install_l3(self, rec: HostRecord, epoch: Optional[int] = None) -> None:
        for switch in self.channel.switches:
            rule = self._l3_rule(rec, switch, self._info(switch))
            if rule is not None:
                self.channel.apply_batch(
                    switch,
                    [("delete", rule.cookie), ("rule", rule)],
                    epoch=epoch,
                )

    def _hosts_for_l3(self, switch, info: SwitchInfo):
        """Hosts that can possibly yield an L3 rule on ``switch``.

        Core switches route to every known host; an edge/leaf only holds
        entries for hosts learned behind itself.  The per-switch index is
        rebuilt lazily when the topology or the ARP table changes, turning
        desired_state's L3 leg from O(switches × hosts) into O(hosts).
        """
        if info.role == "core":
            return self.hosts.values()
        key = (self._topo_version, self.arp.generation)
        if self._l3_index_memo is None or self._l3_index_memo[0] != key:
            index: Dict[str, List[HostRecord]] = {}
            lookup = self.arp.lookup
            for rec in self.hosts.values():
                loc = lookup(rec.ip)
                if loc is not None:
                    index.setdefault(loc.switch_name, []).append(rec)
            self._l3_index_memo = (key, index)
        return self._l3_index_memo[1].get(switch.name, ())

    def hide_host(self, name: str) -> None:
        """Hide a failed/inconsistent node from *clients* (§3.3, §4.4).

        Hiding is a virtual-ring property: the partition re-syncs that
        accompany this call exclude the node from every unicast rule and
        multicast bucket, so no client request can reach it — clients only
        ever address vnode IPs.  Physical L3 reachability deliberately
        remains: "inconsistent nodes can communicate with the other
        consistent nodes to update their data set" (§3.3), and the node
        must be able to talk to the metadata service to rejoin.
        """
        # vring exclusion happens in the caller's sync_partition() calls.
        return

    def unhide_host(self, name: str, epoch: Optional[int] = None) -> None:
        """Re-assert the node's L3 entry (idempotent; see hide_host)."""
        rec = self.hosts.get(name)
        if rec is not None:
            self._install_l3(rec, epoch=epoch)

    # -- takeover reconciliation (control-plane HA) ------------------------------------
    def desired_state(self, switch) -> Tuple[Dict[str, List[Rule]], Dict[int, Group]]:
        """Everything ``switch``'s tables *should* hold right now, keyed by
        cookie / group id — the reference side of the reconciliation diff."""
        info = self._info(switch)
        rules: List[Rule] = list(self._static_rules(switch, info))
        for rec in self._hosts_for_l3(switch, info):
            rule = self._l3_rule(rec, switch, info)
            if rule is not None:
                rules.append(rule)
        groups: Dict[int, Group] = {}
        for rs in self.partition_map:
            pre, group, post = self._plan_partition(rs, switch, info)
            rules.extend(pre)
            rules.extend(post)
            if group is not None:
                groups[group.group_id] = group
        by_cookie: Dict[str, List[Rule]] = {}
        for rule in rules:
            by_cookie.setdefault(rule.cookie, []).append(rule)
        return by_cookie, groups

    @staticmethod
    def _rules_equal(have: List[Rule], want: List[Rule]) -> bool:
        if len(have) != len(want):
            return False
        key = lambda r: (-r.priority, str(r.match))
        pairs = zip(sorted(have, key=key), sorted(want, key=key))
        return all(
            h.priority == w.priority
            and h.match == w.match
            and list(h.actions) == list(w.actions)
            for h, w in pairs
        )

    @staticmethod
    def _group_equal(have: Optional[Group], want: Group) -> bool:
        return have is not None and list(have.buckets) == list(want.buckets)

    def reconcile(self, epoch: Optional[int] = None) -> Dict[str, int]:
        """Diff-based table repair after a takeover or controller↔switch
        reconnect: recompute the desired ruleset from membership, compare
        against each switch's installed contents by cookie, install what's
        missing, delete what's orphaned, and leave matching rules untouched
        so the switches' exact-match flow caches stay warm.  Rules injected
        by the chaos engine (cookie ``chaos:*``) are outside the desired
        state and deliberately left alone."""
        stats = {"installed": 0, "deleted": 0, "matched": 0, "groups": 0}
        t0 = self._timer_start()
        try:
            for switch in self.channel.switches:
                # Claim mastership first (generation-id bump): the fence must
                # engage even if this switch needs zero repairs.
                self.channel.role_claim(switch, epoch=epoch)
                want_rules, want_groups = self.desired_state(switch)
                have: Dict[str, List[Rule]] = {}
                for rule in switch.table.iter_rules():
                    if not rule.cookie.startswith("chaos:"):
                        have.setdefault(rule.cookie, []).append(rule)
                ops = []
                for cookie in sorted(set(have) - set(want_rules)):
                    ops.append(("delete", cookie))
                    stats["deleted"] += len(have[cookie])
                for cookie in sorted(want_rules):
                    rules = want_rules[cookie]
                    if cookie in have and self._rules_equal(have[cookie], rules):
                        stats["matched"] += len(rules)
                        self._mark_synced(switch.name, cookie)
                        continue
                    if cookie in have:
                        ops.append(("delete", cookie))
                        stats["deleted"] += len(have[cookie])
                    for rule in rules:
                        ops.append(("rule", rule))
                        stats["installed"] += 1
                    self._mark_synced(switch.name, cookie)
                for gid in sorted(set(switch.groups) - set(want_groups)):
                    ops.append(("group_delete", gid))
                    stats["groups"] += 1
                for gid in sorted(want_groups):
                    if not self._group_equal(switch.groups.get(gid), want_groups[gid]):
                        ops.append(("group", want_groups[gid]))
                        stats["groups"] += 1
                    self._synced.add((switch.name, gid))
                self.channel.apply_batch(switch, ops, epoch=epoch)
        finally:
            self._timer_stop(t0)
        return stats

    def _mark_synced(self, switch_name: str, cookie: str) -> None:
        """Record that a vring cookie exists on a switch so the next
        ``sync_partition`` for it issues its delete round-trip."""
        kind, _, suffix = cookie.partition(":")
        if kind in ("uni", "mc", "hread") and suffix.isdigit():
            self._synced.add((switch_name, int(suffix)))

    # -- reactive path (packet-in) ----------------------------------------------------
    def on_packet_in(self, switch, packet: Packet, in_port_no: int, buffer_id: int) -> None:
        if packet.proto == Proto.ARP:
            self._on_arp(switch, packet, in_port_no, buffer_id)
            return
        # Learn the sender's location from any data-plane packet.
        if not packet.src_ip.is_multicast and packet.src_ip != _CTRL_IP:
            if self.arp.lookup(packet.src_ip) is None:
                self.learn_location(packet.src_ip, switch, in_port_no)
        dst = packet.dst_ip
        if dst in self.uni.prefix:
            self.sync_partition(self.uni.subgroup_of_address(dst))
            self.channel.release_buffered(switch, buffer_id)
        elif dst in self.mc.prefix:
            self.sync_partition(self.mc.subgroup_of_address(dst))
            self.channel.release_buffered(switch, buffer_id)
        elif dst.is_multicast:
            # A replica-set group address (node-originated 2PC timestamp
            # racing a rule re-sync): reinstall and release.
            partition = dst.value & 0x0FFFFFFF
            try:
                self.partition_map.get(partition)
            except KeyError:
                self.channel.drop_buffered(switch, buffer_id)
                return
            self.sync_partition(partition)
            self.channel.release_buffered(switch, buffer_id)
        elif self.arp.lookup(dst) is not None:
            rec = self._host_by_ip.get(dst)
            if rec is not None:
                self._install_l3(rec)
            self.channel.release_buffered(switch, buffer_id)
        else:
            # Unknown unicast: buffer and ARP (rate-limited, §5).
            self._pending.setdefault(dst, []).append((switch, buffer_id))
            now = switch.sim.now
            if self.arp.should_ask(dst, now):
                req = make_arp_request(_CTRL_IP, _CTRL_MAC, dst)
                self._arp_flood(switch, req)

    def _on_arp(self, switch, packet: Packet, in_port_no: int, buffer_id: int) -> None:
        body = packet.payload or {}
        if body.get("op") == "reply":
            ip = body["sender_ip"]
            self.arp.learn(ip, body["sender_mac"], switch.name, in_port_no)
            rec = self._host_by_ip.get(ip)
            if rec is not None:
                self._install_l3(rec)
            for sw, bid in self._pending.pop(ip, []):
                self.channel.release_buffered(sw, bid)
        elif body.get("op") == "request":
            # Host-originated ARP (not used by NICE clients): flood it.
            self._arp_flood(switch, packet.copy())
        self.channel.drop_buffered(switch, buffer_id)

    def _arp_flood(self, switch, packet: Packet) -> None:
        """Broadcast an ARP frame without looping the fabric.

        Single-switch: a plain FLOOD packet-out (the original behavior).
        Fabric: FLOOD on a leaf would re-enter other switches' ARP punt
        rules and re-flood forever; instead the controller packet-outs one
        copy per *host-facing* leaf port across the whole fabric.
        """
        if not self._fabric_mode:
            self.channel.packet_out(switch, packet, [Output(FLOOD)])
            return
        for sw in self.channel.switches:
            if self._info(sw).role != "leaf":
                continue
            fabric_ports = {
                port
                for (name, _), port in self._fabric_ports.items()
                if name == sw.name
            }
            outs = [
                Output(no)
                for no, port in sorted(sw.ports.items())
                if no not in fabric_ports and port.link is not None
            ]
            if outs:
                self.channel.packet_out(sw, packet.copy(), outs)

    # -- §4.6 accounting -----------------------------------------------------------------
    def rule_count(self, cookie_prefixes: Tuple[str, ...] = ("uni:", "mc:")) -> int:
        """Total vring entries across switches (the §4.6 budget)."""
        total = 0
        for switch in self.channel.switches:
            for rule in switch.table.iter_rules():
                if any(rule.cookie.startswith(p) for p in cookie_prefixes):
                    total += 1
        return total

    def rule_counts_by_switch(self) -> Dict[str, int]:
        """Controller-planned rules per switch — the per-switch side of
        the §4.6 budget that the fabric's ``switch_rule_budget`` enforces
        at install time.  Rules injected by the chaos engine (cookie
        ``chaos:*``) are fault machinery, not planned state, and are
        excluded — an in-flight fault schedule must not inflate (or mask
        headroom in) the budget census."""
        return {
            switch.name: sum(
                1
                for rule in switch.table.iter_rules()
                if not rule.cookie.startswith("chaos:")
            )
            for switch in self.channel.switches
        }

    def rule_census_by_switch(self) -> Dict[str, Dict[str, int]]:
        """Per-family rule census: switch name -> {family: count}.

        The family is the cookie prefix before ``:`` (``uni``, ``mc``,
        ``hread``, ``l3``, ``l3agg``, ``arp``, ``edge-base``); ``chaos``
        cookies are excluded exactly as in :meth:`rule_counts_by_switch`,
        of which this is the itemized breakdown (same totals)."""
        census: Dict[str, Dict[str, int]] = {}
        for switch in self.channel.switches:
            families: Dict[str, int] = {}
            for rule in switch.table.iter_rules():
                family = rule.cookie.partition(":")[0] or "(uncookied)"
                if family == "chaos":
                    continue
                families[family] = families.get(family, 0) + 1
            census[switch.name] = families
        return census
