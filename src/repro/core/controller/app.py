"""The controller app (the paper's Ryu app, §5 "Mapping Service"): the half
that talks to switches.

* **L3 learning switch** — learns which (IP, MAC) sits behind which switch
  port; unknown destinations are ARPed while the triggering packet is
  buffered; recently-ARPed addresses are not re-asked.
* **Installer** — pushes what the :class:`Planner` says each switch should
  hold; the metadata service drives re-syncs on membership changes, and a
  takeover repairs tables by diff (``reconcile``), not reinstallation.
* **Plan cache** (DESIGN.md §5i) and the live §4.6 census
  (``rule_count()`` feeds the scalability benchmark).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from ...sim import Counter
from ...net import (
    ControllerApp,
    FLOOD,
    Group,
    Host,
    IPv4Address,
    MacAddress,
    OpenFlowSwitch,
    Output,
    Packet,
    Proto,
    Rule,
    make_arp_request,
)
from ..config import ClusterConfig
from ..membership import PartitionMap, ReplicaSet
from ..vring import VirtualRing
from .directory import Directory, HostRecord
from .planner import Plan, Planner

__all__ = ["NiceControllerApp"]

#: Controller's pseudo-identity for ARP requests it originates.
_CTRL_IP = IPv4Address("0.0.0.0")
_CTRL_MAC = MacAddress(0x02FFFFFFFFFF)


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
        self.uni = unicast_vring
        self.mc = multicast_vring
        self.directory = Directory(config.ecmp_seed)
        self.planner = Planner(config, self.directory, unicast_vring, multicast_vring)
        self._partition_map = partition_map
        #: switch name -> {partition -> (version key, plan)} (DESIGN.md §5i).
        self._plans: Dict[str, Dict[int, Tuple[tuple, Plan]]] = {}
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
        #: The cluster's shared dirty-set registry in Harmonia mode
        #: (DESIGN.md §5j), set by the system builder; None in NICE mode.
        self.harmonia = None
        #: Control-plane epoch stamped on outgoing flow-mods.  The acting
        #: metadata leader keeps this equal to its own epoch; switches
        #: fence anything older (see OpenFlowSwitch.accept_epoch).
        self.epoch = 0
        #: dst ip -> [(switch, buffer_id)] awaiting ARP resolution.
        self._pending: Dict[IPv4Address, List[Tuple[object, int]]] = {}

    # -- plan cache (DESIGN.md §5i) ------------------------------------------------
    @property
    def partition_map(self) -> PartitionMap:
        return self._partition_map

    @partition_map.setter
    def partition_map(self, value: PartitionMap) -> None:
        # A takeover (control-plane HA) rebinds the whole map: every cached
        # plan may describe the old leader's view, so drop them all.
        if value is not self._partition_map:
            self._partition_map = value
            self.invalidate_plans()

    def invalidate_plans(self) -> None:
        """Drop every cached plan and derived index; the next
        ``desired_state``/``sync_partition`` recomputes from scratch."""
        self._plans.clear()
        self.directory.touch()

    def _plan(self, rs: ReplicaSet, switch_name: str, force: bool = False) -> Plan:
        """The cached plan while its version vector holds — replica-set
        revision, map generation (log replay), directory version (roles,
        fabric, drains, host locations) — else a fresh one."""
        key = (rs.rev, self._partition_map.generation, self.directory.version)
        cache = self._plans.setdefault(switch_name, {})
        entry = cache.get(rs.partition)
        if not force and entry is not None and entry[0] == key:
            self.plan_cache_hits.add()
            return entry[1]
        plan = self.planner.partition(rs, switch_name)
        cache[rs.partition] = (key, plan)
        self.plan_recomputes.add()
        return plan

    @contextmanager
    def _timed(self) -> Iterator[None]:
        self._timer_depth += 1
        t0 = perf_counter()
        try:
            yield
        finally:
            self._timer_depth -= 1
            if self._timer_depth == 0:
                self.plan_wall_s += perf_counter() - t0

    # -- bootstrap -----------------------------------------------------------------
    def discover_topology(self, network) -> None:
        """Learn every host's location and the inter-switch fabric ports
        (equivalent to the steady state the learning switch converges to;
        reactive learning is exercised separately in tests)."""
        for switch in self.channel.switches:
            for port_no, port in switch.ports.items():
                device = port.peer.device if port.peer is not None else None
                if isinstance(device, Host):
                    self.directory.learn_location(device.ip, switch.name, port_no)
                elif isinstance(device, OpenFlowSwitch):
                    self.directory.fabric_ports[(switch.name, device.name)] = port_no
        self.directory.touch()

    def install_static_rules(self) -> None:
        for switch in self.channel.switches:
            ops = [("rule", rule) for rule in self.planner.static_rules(switch.name)]
            self.channel.apply_batch(switch, ops)

    def sync_all(self, epoch: Optional[int] = None) -> None:
        """Install L3 + vring + LB + group rules for the whole system."""
        with self._timed():
            for rec in self.directory.hosts.values():
                self._install_l3(rec, epoch=epoch)
            for rs in self.partition_map:
                self.sync_partition(rs.partition, epoch=epoch)

    # -- installer -----------------------------------------------------------------
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
        with self._timed():
            rs = self.partition_map.get(partition)
            for switch in self.channel.switches:
                pre, group, post = self._plan(rs, switch.name, force=True)
                ops = []
                if (switch.name, partition) in self._synced:
                    ops.append(("delete", f"uni:{partition}"))
                    ops.append(("delete", f"mc:{partition}"))
                    if self.planner.harmonia_mode:
                        ops.append(("delete", f"hread:{partition}"))
                ops += [("rule", rule) for rule in pre]
                if group is not None:
                    ops.append(("group", group))
                ops += [("rule", rule) for rule in post]
                self._synced.add((switch.name, partition))
                self.channel.apply_batch(switch, ops, epoch=epoch)
            if self.harmonia is not None:
                # Pins (and any orphaned in-flight entries) bridged the
                # gap between a put failure and this membership-driven
                # re-sync; the fresh rules only target get-visible
                # replicas, so the registry can let go of the partition.
                self.harmonia.on_sync(partition)

    def _install_l3(self, rec: HostRecord, epoch: Optional[int] = None) -> None:
        for switch in self.channel.switches:
            rule = self.planner.l3_rule(rec, switch.name)
            if rule is not None:
                ops = [("delete", rule.cookie), ("rule", rule)]
                self.channel.apply_batch(switch, ops, epoch=epoch)

    def unhide_host(self, name: str, epoch: Optional[int] = None) -> None:
        """Re-assert a rejoining node's L3 entry (idempotent).

        There is no ``hide_host``: hiding a failed/inconsistent node from
        *clients* (§3.3, §4.4) is a virtual-ring property — the partition
        re-syncs that accompany a failure drop it from every unicast rule
        and multicast bucket, and clients only ever address vnode IPs.
        Physical L3 reachability deliberately remains: "inconsistent nodes
        can communicate with the other consistent nodes to update their
        data set" (§3.3), and the node must reach the metadata service to
        rejoin.
        """
        rec = self.directory.hosts.get(name)
        if rec is not None:
            self._install_l3(rec, epoch=epoch)

    # -- takeover reconciliation (control-plane HA) ------------------------------------
    def desired_state(self, switch) -> Tuple[Dict[str, List[Rule]], Dict[int, Group]]:
        """Everything ``switch``'s tables *should* hold right now, keyed by
        cookie / group id — the reference side of the reconciliation diff."""
        name = switch.name
        rules = self.planner.static_rules(name) + self.planner.l3_rules(name)
        groups: Dict[int, Group] = {}
        for rs in self.partition_map:
            pre, group, post = self._plan(rs, name)
            rules.extend(pre)
            rules.extend(post)
            if group is not None:
                groups[group.group_id] = group
        by_cookie: Dict[str, List[Rule]] = {}
        for rule in rules:
            by_cookie.setdefault(rule.cookie, []).append(rule)
        return by_cookie, groups

    def reconcile(self, epoch: Optional[int] = None) -> Dict[str, int]:
        """Diff-based table repair after a takeover or controller↔switch
        reconnect: recompute the desired ruleset from membership, compare
        against each switch's installed contents by cookie, install what's
        missing, delete what's orphaned, and leave matching rules untouched
        so the switches' exact-match flow caches stay warm.  Rules injected
        by the chaos engine (cookie ``chaos:*``) are outside the desired
        state and deliberately left alone."""
        stats = {"installed": 0, "deleted": 0, "matched": 0, "groups": 0}
        with self._timed():
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
                    self._mark_synced(switch.name, cookie)
                    if cookie in have:
                        if _same_rules(have[cookie], rules):
                            stats["matched"] += len(rules)
                            continue
                        ops.append(("delete", cookie))
                        stats["deleted"] += len(have[cookie])
                    ops += [("rule", rule) for rule in rules]
                    stats["installed"] += len(rules)
                for gid in sorted(set(switch.groups) - set(want_groups)):
                    ops.append(("group_delete", gid))
                    stats["groups"] += 1
                for gid in sorted(want_groups):
                    have_group = switch.groups.get(gid)
                    if have_group is None or have_group.buckets != want_groups[gid].buckets:
                        ops.append(("group", want_groups[gid]))
                        stats["groups"] += 1
                    self._synced.add((switch.name, gid))
                self.channel.apply_batch(switch, ops, epoch=epoch)
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
        arp = self.directory.arp
        # Learn the sender's location from any data-plane packet.
        if not packet.src_ip.is_multicast and packet.src_ip != _CTRL_IP:
            if arp.lookup(packet.src_ip) is None:
                self.directory.learn_location(packet.src_ip, switch.name, in_port_no)
        dst = packet.dst_ip
        vring = next((v for v in (self.uni, self.mc) if dst in v.prefix), None)
        if vring is not None:
            self.sync_partition(vring.subgroup_of_address(dst))
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
        elif arp.lookup(dst) is not None:
            rec = self.directory.host_by_ip.get(dst)
            if rec is not None:
                self._install_l3(rec)
            self.channel.release_buffered(switch, buffer_id)
        else:
            # Unknown unicast: buffer and ARP (rate-limited, §5).
            self._pending.setdefault(dst, []).append((switch, buffer_id))
            if arp.should_ask(dst, switch.sim.now):
                self._arp_flood(switch, make_arp_request(_CTRL_IP, _CTRL_MAC, dst))

    def _on_arp(self, switch, packet: Packet, in_port_no: int, buffer_id: int) -> None:
        body = packet.payload or {}
        if body.get("op") == "reply":
            ip = body["sender_ip"]
            self.directory.arp.learn(ip, body["sender_mac"], switch.name, in_port_no)
            rec = self.directory.host_by_ip.get(ip)
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
        if not self.directory.spines:
            self.channel.packet_out(switch, packet, [Output(FLOOD)])
            return
        for sw in self.channel.switches:
            if self.directory.info(sw.name).role != "leaf":
                continue
            wired = self.directory.fabric_ports.items()
            fabric_ports = {port for (name, _), port in wired if name == sw.name}
            outs = [
                Output(no)
                for no, port in sorted(sw.ports.items())
                if no not in fabric_ports and port.channel is not None
            ]
            if outs:
                self.channel.packet_out(sw, packet.copy(), outs)

    # -- §4.6 accounting -----------------------------------------------------------------
    def rule_census_by_switch(self) -> Dict[str, Dict[str, int]]:
        """Controller-planned rules per switch and family: switch name ->
        {family: count}, the per-switch side of the §4.6 budget that the
        fabric's ``switch_rule_budget`` enforces at install time.

        The family is the cookie prefix before ``:`` (``uni``, ``mc``,
        ``hread``, ``l3``, ``l3agg``, ``arp``, ``edge-base``).  Rules
        injected by the chaos engine (cookie ``chaos:*``) are fault
        machinery, not planned state, and are excluded — an in-flight fault
        schedule must not inflate (or mask headroom in) the budget census."""
        census: Dict[str, Dict[str, int]] = {}
        for switch in self.channel.switches:
            families: Dict[str, int] = {}
            for rule in switch.table.iter_rules():
                family = rule.cookie.partition(":")[0] or "(uncookied)"
                if family != "chaos":
                    families[family] = families.get(family, 0) + 1
            census[switch.name] = families
        return census

    def rule_counts_by_switch(self) -> Dict[str, int]:
        """Planned rules per switch: the census, families summed."""
        return {
            name: sum(families.values())
            for name, families in self.rule_census_by_switch().items()
        }

    def rule_count(self) -> int:
        """Total vring entries across switches (the §4.6 budget)."""
        return sum(
            families.get("uni", 0) + families.get("mc", 0)
            for families in self.rule_census_by_switch().values()
        )


def _same_rules(have: List[Rule], want: List[Rule]) -> bool:
    """Equal as multisets of ``Rule.content``.  Counted by removal, not by
    hashing: a cookie holds a handful of rules, usually the very objects the
    plan cache holds and in the same order, so each removal is one
    identity-shortcut comparison (hashing every match and action made a
    warm reconcile 4× slower)."""
    rest = [rule.content for rule in want]
    try:
        for rule in have:
            rest.remove(rule.content)
    except ValueError:
        return False
    return not rest
