"""The controller's directory: who is where, by name and port number.

Hosts and the locations the §5 learning switch fills in (it owns the
:class:`ArpTable`); each switch's deployment role (§5.1) with the fabric's
inter-switch ports, rack prefixes and ECMP choices (DESIGN.md §5h); the
fail-slow drain set (§5k).  It holds no switch, channel or simulator — a
hand-built directory is enough to plan from (``tests/core/test_planner.py``)
— and carries the **one** ``version`` every plan and derived index keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...net.addressing import IPv4Address, IPv4Network, MacAddress
from ...net.arp import ArpTable
from ...net.topology import ecmp_index

__all__ = ["Directory", "HostRecord", "SwitchInfo"]


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

#: Salt hashed into every ECMP choice: the same fabric always takes the
#: same paths.
ECMP_SEED = 0


class Directory:
    """Hosts, learned locations, switch roles and fabric wiring."""

    def __init__(self):
        self.hosts: Dict[str, HostRecord] = {}
        self.host_by_ip: Dict[IPv4Address, HostRecord] = {}
        self.arp = ArpTable()
        #: switch name -> deployment role (default: rewriting core).
        self.switches: Dict[str, SwitchInfo] = {}
        #: (switch name, peer switch name) -> local port toward the peer.
        self.fabric_ports: Dict[Tuple[str, str], int] = {}
        #: Fabric bookkeeping (empty outside leaf–spine deployments).
        self.rack_prefixes: Dict[int, List[IPv4Network]] = {}
        self.leaf_of_rack: Dict[int, str] = {}
        self.spines: List[str] = []
        #: Fail-slow nodes (§5k), as reported by the metadata service:
        #: excluded from read round-robin / LB divisions (kept only as the
        #: primary fallback until the primary handoff lands).
        self.degraded: set = set()
        self._changes = 0
        self._behind: Optional[Tuple[tuple, Dict[str, List[HostRecord]]]] = None

    # -- the one version (DESIGN.md §5i) ---------------------------------------
    @property
    def version(self) -> tuple:
        """Changes whenever anything a plan may read here does: a
        registration, fabric discovery, a fail-slow drain (the counter)
        or a host location (``arp.generation``)."""
        return (self._changes, self.arp.generation)

    def touch(self) -> None:
        """Declare every plan and index derived from the directory stale."""
        self._changes += 1

    # -- registration ----------------------------------------------------------
    def register_switch(
        self,
        name: str,
        role: str = "core",
        can_rewrite: bool = True,
        client_ip: Optional[IPv4Address] = None,
        uplink_port: Optional[int] = None,
        rack: Optional[int] = None,
    ) -> None:
        if role not in ("core", "edge", "leaf", "spine"):
            raise ValueError(f"switch role must be core, edge, leaf or spine: {role!r}")
        self.switches[name] = SwitchInfo(
            role, can_rewrite, IPv4Address(client_ip) if client_ip else None,
            uplink_port, rack,
        )
        if role == "leaf":
            self.leaf_of_rack[rack] = name
        elif role == "spine":
            self.spines.append(name)
        self.touch()

    def register_rack_prefix(self, rack: int, prefix: IPv4Network) -> None:
        """Declare that ``prefix`` lives in ``rack`` — the unit of spine
        (and remote-leaf) route aggregation."""
        self.rack_prefixes.setdefault(rack, []).append(IPv4Network(prefix))
        self.touch()

    def register_host(self, name: str, ip: IPv4Address, mac: MacAddress) -> HostRecord:
        rec = HostRecord(name, IPv4Address(ip), MacAddress(mac))
        self.hosts[name] = rec
        self.host_by_ip[rec.ip] = rec
        self.touch()
        return rec

    def learn_location(self, ip: IPv4Address, switch_name: str, port_no: int) -> None:
        rec = self.host_by_ip.get(IPv4Address(ip))
        mac = rec.mac if rec else MacAddress.BROADCAST
        self.arp.learn(IPv4Address(ip), mac, switch_name, port_no)

    def set_degraded(self, name: str, slow: bool = True) -> None:
        """Drain (or restore) a fail-slow node in the read paths (§5k).
        Degradation changes the desired rules without touching any
        replica-set revision, so every plan must go stale."""
        if slow == (name in self.degraded):
            return
        if slow:
            self.degraded.add(name)
        else:
            self.degraded.discard(name)
        self.touch()

    # -- lookups ---------------------------------------------------------------
    def info(self, switch_name: str) -> SwitchInfo:
        return self.switches.get(switch_name, _DEFAULT_SWITCH_INFO)

    def rack_of_node(self, name: str) -> Optional[int]:
        """Rack a host sits in (None outside fabric mode / pre-discovery)."""
        rec = self.hosts.get(name)
        loc = self.arp.lookup(rec.ip) if rec is not None else None
        if loc is None:
            return None
        return self.info(loc.switch_name).rack

    def uplink_to(self, switch_name: str, peer_name: str) -> Optional[int]:
        return self.fabric_ports.get((switch_name, peer_name))

    def spine_toward(self, leaf_name: str, dst_rack: int) -> str:
        """ECMP spine for unicast traffic from ``leaf_name`` to ``dst_rack``.

        The flow key is (ingress leaf, destination rack) — the same key the
        leaf's aggregated rack route uses, so per-host rewrites and the
        aggregate prefix rule always pick the same path.
        """
        spines = self.spines
        return spines[ecmp_index(len(spines), leaf_name, dst_rack, ECMP_SEED)]

    def mc_spine(self, partition: int) -> str:
        """The one spine carrying partition ``partition``'s multicast tree.

        Keyed on the partition alone (not the ingress leaf) so the tree is
        a tree: every leaf ascends to the same spine, which fans out to
        every leaf holding a put target — no duplicate or looping copies.
        """
        spines = self.spines
        return spines[ecmp_index(len(spines), "mc", partition, ECMP_SEED)]

    def hosts_behind(self, switch_name: str) -> Sequence[HostRecord]:
        """Hosts learned behind ``switch_name``, registration order.

        The host→switch index is rebuilt lazily when the version moves,
        turning the L3 leg of a whole-fabric desired state from
        O(switches × hosts) into O(hosts).
        """
        version = self.version
        if self._behind is None or self._behind[0] != version:
            index: Dict[str, List[HostRecord]] = {}
            lookup = self.arp.lookup
            for rec in self.hosts.values():
                loc = lookup(rec.ip)
                if loc is not None:
                    index.setdefault(loc.switch_name, []).append(rec)
            self._behind = (version, index)
        return self._behind[1].get(switch_name, ())
