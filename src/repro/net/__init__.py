"""Network substrate: addressing, packets, links, hosts and OpenFlow switches."""

from .addressing import IPv4Address, IPv4Network, MacAddress, MULTICAST_NET
from .arp import ArpEntry, ArpTable, make_arp_request
from .controlplane import ControlPlane, ControllerApp
from .flowtable import (
    Action,
    Bucket,
    Drop,
    FlowTable,
    Group,
    Match,
    Output,
    OutputGroup,
    Rule,
    SetEthDst,
    SetIpDst,
    HarmoniaRead,
    ToController,
)
from .harmonia import HarmoniaRegistry
from .host import Host
from .link import Channel, GBPS, Link, MBPS, Port
from .packet import HEADER_BYTES, MTU_BYTES, Packet, Proto, wire_size
from .switch import FLOOD, OpenFlowSwitch
from .topology import Device, LeafSpineFabric, Network, ecmp_index

__all__ = [
    "Action",
    "ArpEntry",
    "ArpTable",
    "Bucket",
    "Channel",
    "ControlPlane",
    "ControllerApp",
    "Device",
    "LeafSpineFabric",
    "ecmp_index",
    "Drop",
    "FLOOD",
    "FlowTable",
    "GBPS",
    "Group",
    "HarmoniaRead",
    "HarmoniaRegistry",
    "HEADER_BYTES",
    "Host",
    "IPv4Address",
    "IPv4Network",
    "Link",
    "MBPS",
    "MTU_BYTES",
    "MULTICAST_NET",
    "MacAddress",
    "Match",
    "Network",
    "OpenFlowSwitch",
    "Output",
    "OutputGroup",
    "Packet",
    "Port",
    "Proto",
    "Rule",
    "SetEthDst",
    "SetIpDst",
    "ToController",
    "wire_size",
    "make_arp_request",
]
