"""The pure planner: what each switch should hold, as a value.

Functions of the directory, the config and their arguments, with no switch,
channel or simulator in reach — so "incremental == scratch" is literally
*cached value == this call*.  The paper's mapping decisions live here:

* **Virtual-ring mapping** — packets to a unicast-vring subgroup are
  rewritten (dst IP + MAC) to the responsible physical replica and
  forwarded in a single hop (§3.2); packets to a multicast-vring subgroup
  hit an ALL-group that clones them to every put target (§4.2).
* **In-network load balancing** — per-partition (src-prefix, dst-prefix)
  rules spread get requests of one partition over its R replicas; clients
  outside the divisions fall through to the primary (§4.5).
* **Consistency-aware fault tolerance** — failed or inconsistent nodes are
  simply absent from the planned mappings, so clients cannot reach them
  (§3.3).

Rule budget (§4.6): one unicast + one multicast entry per partition without
load balancing (2N total), R unicast entries per partition with it
((R+1)N total).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterable, List, NamedTuple, Optional, Tuple

from ...net.addressing import IPv4Network
from ...net.flowtable import (
    Bucket,
    Group,
    HarmoniaRead,
    Match,
    Output,
    OutputGroup,
    Rule,
    SetEthDst,
    SetIpDst,
    ToController,
)
from ...net.packet import Proto
from ..config import ClusterConfig, GET_PORT
from ..membership import ReplicaSet
from ..vring import VirtualRing, mc_group_address
from .directory import Directory, HostRecord, SwitchInfo

__all__ = ["Plan", "Planner", "client_divisions"]

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


#: The multicast half of a plan: the ALL-group (if any) and the rules that
#: hit it.
McEntry = Tuple[Optional[Group], List[Rule]]


class Plan(NamedTuple):
    """One partition's entries on one switch.  The split preserves install
    order: a group must land before the rules that reference it."""

    pre: List[Rule]
    group: Optional[Group]
    post: List[Rule]


@lru_cache(maxsize=None)
def client_divisions(client_space: IPv4Network, r: int) -> Tuple[IPv4Network, ...]:
    """Split the client space into the first ``r`` power-of-two blocks."""
    blocks = 1
    while blocks < r:
        blocks *= 2
    new_plen = client_space.prefixlen + (blocks.bit_length() - 1)
    return tuple(client_space.subnets(new_plen))[:r]


class Planner:
    """``(directory, config, replica set, switch name) → desired entries``."""

    def __init__(
        self,
        config: ClusterConfig,
        directory: Directory,
        unicast_vring: VirtualRing,
        multicast_vring: VirtualRing,
    ):
        self.config = config
        self.directory = directory
        #: Plan the ``hread:`` rule family instead of §4.5 LB divisions?
        self.harmonia_mode = config.protocol_mode != "nice"
        # Per-partition constants, built once: IPv4Network construction was
        # the single hottest allocation in a full sync at 1000 nodes, and
        # the vrings never change after construction.
        self.uni_prefixes = [
            unicast_vring.subgroup_prefix(p) for p in range(unicast_vring.n_subgroups)
        ]
        self.mc_prefixes = [
            multicast_vring.subgroup_prefix(p) for p in range(multicast_vring.n_subgroups)
        ]
        self.mc_addrs = [mc_group_address(p) for p in range(multicast_vring.n_subgroups)]

    # -- per-switch entries that no partition owns -----------------------------
    def static_rules(self, switch_name: str) -> List[Rule]:
        """ARP punt rule on every switch, plus edge-switch base rules:
        deliver the attached client's traffic to it, default everything
        else up the uplink.  Fabric switches additionally carry the
        per-rack aggregated prefix routes (one wildcard per rack prefix
        instead of one /32 per host — the §4.6 budget saver)."""
        d = self.directory
        info = d.info(switch_name)
        rules = [Rule(Match(proto=Proto.ARP), [ToController()], PRIO_ARP, cookie="arp")]
        if info.role in ("leaf", "spine"):
            return rules + self._aggregate_rules(switch_name, info)
        if info.role != "edge":
            return rules
        rec = d.host_by_ip.get(info.client_ip)
        loc = d.arp.lookup(info.client_ip) if rec else None
        if rec is not None and loc is not None and loc.switch_name == switch_name:
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

    def _aggregate_rules(self, switch_name: str, info: SwitchInfo) -> List[Rule]:
        """Per-rack wildcard routes (cookie ``l3agg:<rack>``).

        * On a spine: every rack prefix routes down to that rack's leaf.
        * On a leaf: every *remote* rack prefix routes up the ECMP-chosen
          uplink for (this leaf, that rack); local hosts are covered by
          their /32 ``l3:`` rules at higher priority.
        """
        d = self.directory
        rules: List[Rule] = []
        for rack in sorted(d.rack_prefixes):
            if info.role == "spine":
                port = d.uplink_to(switch_name, d.leaf_of_rack[rack])
            elif rack == info.rack:
                continue
            else:
                port = d.uplink_to(switch_name, d.spine_toward(switch_name, rack))
            if port is None:
                continue  # pre-discovery: fabric ports not yet learned
            cookie = f"l3agg:{rack}"
            rules.extend(
                Rule(Match(ip_dst=prefix), [Output(port)], PRIO_L3AGG, cookie=cookie)
                for prefix in d.rack_prefixes[rack]
            )
        return rules

    def l3_rule(self, rec: HostRecord, switch_name: str) -> Optional[Rule]:
        d = self.directory
        loc = d.arp.lookup(rec.ip)
        if loc is None:
            return None
        if switch_name == loc.switch_name:
            actions = [SetEthDst(rec.mac), Output(loc.port_no)]
        elif d.info(switch_name).role == "core":
            # Host sits behind another switch (a client's edge OVS):
            # route toward that switch's fabric port.
            port = d.uplink_to(switch_name, loc.switch_name)
            if port is None:
                return None
            actions = [Output(port)]
        else:
            return None  # edges reach everything else via their default uplink rule
        return Rule(Match(ip_dst=rec.ip), actions, PRIO_L3, cookie=f"l3:{rec.ip}")

    def l3_rules(self, switch_name: str) -> List[Rule]:
        """Every host route ``switch_name`` should hold.  Core switches
        route to every known host; an edge/leaf only holds entries for
        hosts learned behind itself."""
        d = self.directory
        if d.info(switch_name).role == "core":
            hosts = d.hosts.values()
        else:
            hosts = d.hosts_behind(switch_name)
        rules = (self.l3_rule(rec, switch_name) for rec in hosts)
        return [rule for rule in rules if rule is not None]

    # -- per-partition entries -------------------------------------------------
    def partition(self, rs: ReplicaSet, switch_name: str) -> Plan:
        """Desired entries of replica set ``rs`` on ``switch_name``."""
        info = self.directory.info(switch_name)
        if info.role == "edge":
            return Plan(self._edge_rules(rs, switch_name, info), None, [])
        if info.role == "spine":
            return Plan([], *self._spine_mc_entry(rs, switch_name))
        if info.role == "leaf":
            pre = self._read_rules(rs, switch_name, info)
            return Plan(pre, *self._leaf_mc_entry(rs, switch_name))
        pre = self._read_rules(rs, switch_name, info) if info.can_rewrite else []
        return Plan(pre, *self._core_mc_entry(rs, switch_name, info))

    def _read_targets(self, rs: ReplicaSet) -> List[HostRecord]:
        """Get-serving replicas: the consistent targets minus fail-slow
        drains — except the primary, which must stay addressable as the
        dirty-key / uncovered-division fallback until a handoff lands."""
        d = self.directory
        return [
            d.hosts[n]
            for n in rs.get_targets()
            if n in d.hosts and (n not in d.degraded or n == rs.primary)
        ]

    def _read_rules(self, rs: ReplicaSet, switch_name: str, info: SwitchInfo) -> List[Rule]:
        """The unicast-vring family of one partition on one rewriting hop.

        A core/leaf and a client-side OVS disagree only on how they send a
        packet to a replica (:meth:`_rewrite_to`) and on which §4.5
        divisions they hold: a core or leaf sees every client and carries
        one source-matched entry per division; an edge serves one client
        and carries the one entry of the division that client falls in.
        """
        primary = self.directory.hosts.get(rs.primary)
        targets = self._read_targets(rs)
        if primary is None or not targets:
            return []  # partition dark: no consistent replica reachable
        subgroup = self.uni_prefixes[rs.partition]
        gets = dict(ip_dst=subgroup, proto=Proto.UDP, dport=GET_PORT)
        cookie = f"uni:{rs.partition}"
        rewrite = partial(self._rewrite_to, switch_name=switch_name, info=info)
        rules: List[Rule] = []
        if self.harmonia_mode and len(targets) > 1:
            # One dirty-set-aware entry replaces the §4.5 LB divisions:
            # the switch resolves the replica per packet (DESIGN.md §5j).
            # choices[0] is the primary — the dirty-key fallback — even
            # when a failover moved the primary off members[0].
            ordered = [primary] + [t for t in targets if t is not primary]
            hread = HarmoniaRead(rs.partition, tuple(tuple(rewrite(t)) for t in ordered))
            match = Match(**gets)
            rules.append(Rule(match, [hread], PRIO_HARMONIA, cookie=f"hread:{rs.partition}"))
        else:
            divisions: Iterable = ()
            if self.config.load_balancing and len(targets) > 1:
                divisions = zip(client_divisions(self.config.client_space, len(targets)), targets)
            if info.role == "edge":
                # Which replica serves THIS client's gets: its division's,
                # the primary when no division covers it (§4.5) — one
                # entry, and no source match since nobody else is behind it.
                ip = info.client_ip
                mine = (rec for division, rec in divisions if ip is not None and ip in division)
                divisions = [(None, next(mine, primary))]
            for division, rec in divisions:
                match = Match(ip_src=division, **gets)
                rules.append(Rule(match, rewrite(rec), PRIO_LB, cookie=cookie))
        # Default: anything else on this subgroup goes to the primary (§4.5:
        # "requests coming from IP addresses that are not covered by these
        # divisions ... forwarded to the primary replica").
        rules.append(Rule(Match(ip_dst=subgroup), rewrite(primary), PRIO_VRING, cookie=cookie))
        return rules

    def _rewrite_to(self, rec: HostRecord, switch_name: str, info: SwitchInfo) -> list:
        """Actions that send a packet from this hop to replica ``rec``."""
        set_dst = [SetIpDst(rec.ip), SetEthDst(rec.mac)]
        if info.role == "edge":
            # The client-side OVS is the rewriting hop (§5.1): it punts up
            # its uplink and the hardware core just forwards.
            return set_dst + [Output(info.uplink_port)]
        d = self.directory
        loc = d.arp.lookup(rec.ip)
        if loc is not None and loc.switch_name == switch_name:
            return set_dst + [Output(loc.port_no)]
        if loc is not None and info.role == "leaf":
            # Remote replica: rewrite at ingress, then climb the same ECMP
            # uplink the aggregated rack route uses; the spine's prefix
            # rule and the remote leaf's /32 finish the path.
            remote = d.switches.get(loc.switch_name)
            if remote is not None and remote.rack is not None:
                up = d.uplink_to(switch_name, d.spine_toward(switch_name, remote.rack))
                if up is not None:
                    return set_dst + [Output(up)]
        return [ToController()]  # location unknown: punt (then ARP)

    def _edge_rules(self, rs: ReplicaSet, switch_name: str, info: SwitchInfo) -> List[Rule]:
        """Client-side OVS rules (§5.1): rewrite virtual destinations to
        physical ones, then punt up the uplink; the hardware switch does
        the forwarding and multicast fan-out."""
        if info.uplink_port is None:
            return []
        rules = self._read_rules(rs, switch_name, info)
        if rules:
            to_group = [SetIpDst(self.mc_addrs[rs.partition]), Output(info.uplink_port)]
            rules.append(self._mc_rule(rs, self.mc_prefixes[rs.partition], to_group))
        return rules

    @staticmethod
    def _mc_rule(rs: ReplicaSet, dst, actions: list, priority: int = PRIO_VRING, **match) -> Rule:
        return Rule(Match(ip_dst=dst, **match), actions, priority, cookie=f"mc:{rs.partition}")

    def _local_buckets(self, rs: ReplicaSet, switch_name: str, rewrite: bool) -> List[Bucket]:
        """One ALL-group bucket per put target attached to ``switch_name``,
        with the virtual→physical rewrite where the switch can do it."""
        d = self.directory
        buckets = []
        for name in rs.put_targets():
            rec = d.hosts.get(name)
            loc = d.arp.lookup(rec.ip) if rec else None
            if loc is None or loc.switch_name != switch_name:
                continue
            actions = (SetIpDst(rec.ip), SetEthDst(rec.mac)) if rewrite else ()
            buckets.append(Bucket(actions=actions, port=loc.port_no))
        return buckets

    def _core_mc_entry(self, rs: ReplicaSet, switch_name: str, info: SwitchInfo) -> McEntry:
        """The core switch's ALL-group plus the rules that hit it.

        A rewriting core matches the multicast-vring subgroup directly (hw
        deployment); any core also matches the replica set's IP multicast
        group address — the target of edge rewrites and of storage-node
        protocol multicasts (the 2PC timestamp)."""
        partition = rs.partition
        buckets = self._local_buckets(rs, switch_name, info.can_rewrite)
        rules = [self._mc_rule(rs, self.mc_addrs[partition], [OutputGroup(partition)])]
        if info.can_rewrite:
            rules.append(self._mc_rule(rs, self.mc_prefixes[partition], [OutputGroup(partition)]))
        return Group(group_id=partition, buckets=buckets), rules

    def _leaf_mc_entry(self, rs: ReplicaSet, switch_name: str) -> McEntry:
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
        partition = rs.partition
        mcaddr = self.mc_addrs[partition]
        up = self.directory.uplink_to(switch_name, self.directory.mc_spine(partition))
        if up is None:
            return None, []  # pre-discovery: fabric ports not yet learned
        buckets = self._local_buckets(rs, switch_name, True)
        rules = []
        if buckets:
            deliver = [OutputGroup(partition)]
            rules.append(self._mc_rule(rs, mcaddr, deliver, PRIO_MC_DELIVER, in_port=up))
        rules.append(self._mc_rule(rs, mcaddr, [Output(up)]))
        rules.append(self._mc_rule(rs, self.mc_prefixes[partition], [SetIpDst(mcaddr), Output(up)]))
        group = Group(group_id=partition, buckets=buckets) if buckets else None
        return group, rules

    def _spine_mc_entry(self, rs: ReplicaSet, switch_name: str) -> McEntry:
        """Spine side of the tree: only the designated spine carries the
        partition, fanning ``mcaddr`` to every leaf with a put target."""
        d = self.directory
        if switch_name != d.mc_spine(rs.partition):
            return None, []
        racks = {d.rack_of_node(name) for name in rs.put_targets()} - {None}
        buckets = []
        for rack in sorted(racks):
            port = d.uplink_to(switch_name, d.leaf_of_rack[rack])
            if port is not None:
                buckets.append(Bucket(actions=(), port=port))
        if not buckets:
            return None, []
        rules = [self._mc_rule(rs, self.mc_addrs[rs.partition], [OutputGroup(rs.partition)])]
        return Group(group_id=rs.partition, buckets=buckets), rules
