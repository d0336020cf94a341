"""Devices, the network container, and topology builders.

The evaluation platform (§6) is a single OpenFlow rack switch with 30
1 Gbps hosts; the deployed variant (§5.1) adds a client-side Open vSwitch
per client because the hardware switch cannot rewrite headers.  Both are
built here, plus the leaf–spine fabric (DESIGN.md §5h) that scales the
same vring machinery past one rack: each rack's hosts hang off a leaf
switch, every leaf connects to every spine, and uplink choice is a
deterministic hash over flow identifiers (ECMP without per-flow state).
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from ..sim import Simulator
from .link import GBPS, Link, Port
from .packet import Packet

__all__ = ["Device", "Network", "LeafSpineFabric", "ecmp_index"]


@lru_cache(maxsize=None)  # one entry per (leaf, rack) and per partition
def ecmp_index(n: int, *keys) -> int:
    """Deterministic ECMP choice: hash ``keys`` into ``[0, n)``.

    Uses crc32 over the stringified keys rather than Python's ``hash`` so
    the choice is identical across processes (``--jobs N`` workers) and
    interpreter runs — PYTHONHASHSEED randomization must not leak into
    path selection.
    """
    if n < 1:
        raise ValueError(f"ecmp_index needs n >= 1, got {n}")
    material = "|".join(str(k) for k in keys)
    return zlib.crc32(material.encode()) % n


class Device:
    """Anything with ports: hosts and switches derive from this.

    A packet arriving on port ``n`` runs ``receive(packet, n)``
    ``ingress_delay_s`` later, in the one record the link schedules."""

    ingress_delay_s = 0.0

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.ports: Dict[int, Port] = {}
        self._next_port = 1

    def new_port(self) -> Port:
        port = Port(self, self._next_port)
        self.ports[self._next_port] = port
        self._next_port += 1
        return port

    def receive(self, packet: Packet, in_port_no: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name}>"


class Network:
    """Container tracking every device and link; owns global byte counters."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.devices: Dict[str, Device] = {}
        self.links: List[Link] = []
        self._link_index: Dict[frozenset, Link] = {}

    def register(self, device: Device) -> Device:
        if device.name in self.devices:
            raise ValueError(f"duplicate device name {device.name!r}")
        self.devices[device.name] = device
        return device

    def connect(
        self,
        a: Device,
        b: Device,
        bandwidth_bps: float = GBPS,
        latency_s: float = 50e-6,
    ) -> Link:
        """Create a duplex link between fresh ports on ``a`` and ``b``."""
        link = Link(self.sim, a.new_port(), b.new_port(), bandwidth_bps, latency_s)
        self.links.append(link)
        # First link between a pair wins, matching the linear-scan order
        # link_between used before it was indexed.
        self._link_index.setdefault(frozenset((a.name, b.name)), link)
        return link

    def link_between(self, a: Device, b: Device) -> Optional[Link]:
        return self._link_index.get(frozenset((a.name, b.name)))

    # -- measurement (Figs 6-7) ------------------------------------------------
    def total_link_bytes(self) -> int:
        """Sum of bytes transmitted over every channel — the paper's
        "total network link load" metric (Fig 6)."""
        return sum(link.total_bytes for link in self.links)

    def reset_link_counters(self) -> None:
        for link in self.links:
            link.reset_counters()

    def host_io_bytes(self, device: Device) -> int:
        """Bytes sent + received on ``device``'s access link(s) — the Fig 7
        per-node storage-load metric."""
        total = 0
        for link in self.links:
            if link.a.device is device or link.b.device is device:
                total += link.total_bytes
        return total


class LeafSpineFabric:
    """A two-tier Clos: one leaf switch per rack, fully meshed to spines.

    The fabric owns only wiring and rack bookkeeping; rule planning lives
    in the controller.  Leaves are named ``leaf0..leaf{R-1}``, spines
    ``spine0..spine{S-1}``.  ``uplinks[(leaf, spine)]`` is the Link between
    them — the thing a ``rack_isolate`` fault cuts.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        n_racks: int,
        n_spines: int,
        lookup_latency_s: float = 5e-6,
        table_capacity: int = 0,
        link_bandwidth_bps: float = GBPS,
        link_latency_s: float = 50e-6,
    ):
        # Deferred import: switch.py imports Device from this module.
        from .switch import OpenFlowSwitch

        def build(name: str) -> "OpenFlowSwitch":
            kwargs = dict(lookup_latency_s=lookup_latency_s)
            if table_capacity > 0:
                kwargs["table_capacity"] = table_capacity
            return network.register(OpenFlowSwitch(sim, name, **kwargs))

        self.sim = sim
        self.network = network
        self.n_racks = n_racks
        self.n_spines = n_spines
        self.leaves = [build(f"leaf{r}") for r in range(n_racks)]
        self.spines = [build(f"spine{s}") for s in range(n_spines)]
        self.uplinks: Dict[Tuple[str, str], Link] = {}
        self.uplink_ports: Dict[Tuple[str, str], int] = {}
        for leaf in self.leaves:
            for spine in self.spines:
                link = network.connect(leaf, spine, link_bandwidth_bps, link_latency_s)
                self.uplinks[(leaf.name, spine.name)] = link
                leaf_port = link.a if link.a.device is leaf else link.b
                spine_port = link.a if link.a.device is spine else link.b
                self.uplink_ports[(leaf.name, spine.name)] = leaf_port.number
                self.uplink_ports[(spine.name, leaf.name)] = spine_port.number
        #: host name -> rack index, filled by attach_host.
        self.rack_of_host: Dict[str, int] = {}

    @property
    def switches(self) -> list:
        """Every fabric switch, leaves first (deterministic order)."""
        return [*self.leaves, *self.spines]

    def attach_host(
        self,
        host: Device,
        rack: int,
        bandwidth_bps: float = GBPS,
        latency_s: float = 50e-6,
    ) -> Link:
        """Wire ``host`` below its rack's leaf and record its rack."""
        link = self.network.connect(
            self.leaves[rack], host, bandwidth_bps, latency_s
        )
        self.rack_of_host[host.name] = rack
        return link

    def uplinks_of(self, rack: int) -> List[Link]:
        """Every uplink of rack ``rack``'s leaf — cutting all of them
        isolates the rack from the rest of the fabric (its hosts can still
        talk to each other through the leaf)."""
        leaf = self.leaves[rack].name
        return [self.uplinks[(leaf, spine.name)] for spine in self.spines]
