"""Shared test fixtures: a star topology with static L3 forwarding, and
the linear rule scan the flow table's index is checked against."""

from repro.net import (
    Bucket,
    Group,
    Host,
    IPv4Address,
    MacAddress,
    Match,
    Network,
    OpenFlowSwitch,
    Output,
    Rule,
    SetEthDst,
    SetIpDst,
)
from repro.sim import Simulator
from repro.transport import ProtocolStack


class Star:
    """N hosts on one switch, exact-match L3 rules pre-installed."""

    def __init__(self, n_hosts=4, bandwidth_bps=1e9, latency_s=50e-6, sim=None):
        self.sim = sim or Simulator()
        self.net = Network(self.sim)
        self.switch = OpenFlowSwitch(self.sim, "sw")
        self.net.register(self.switch)
        self.hosts = []
        self.stacks = []
        for i in range(n_hosts):
            host = Host(
                self.sim,
                f"h{i}",
                IPv4Address(f"10.0.0.{i + 1}"),
                MacAddress(0x020000000001 + i),
            )
            self.net.register(host)
            self.net.connect(self.switch, host, bandwidth_bps, latency_s)
            self.hosts.append(host)
            self.stacks.append(ProtocolStack(self.sim, host))
        for host in self.hosts:
            self.switch.install_rule(
                Rule(Match(ip_dst=host.ip), [Output(self.port_of(host))], priority=10)
            )

    def port_of(self, host):
        link = self.net.link_between(self.switch, host)
        return (link.a if link.a.device is self.switch else link.b).number

    def add_multicast_group(self, group_id, vprefix, receivers):
        """Map a virtual prefix to a switch multicast group over receivers."""
        buckets = [
            Bucket(actions=(SetIpDst(h.ip), SetEthDst(h.mac)), port=self.port_of(h))
            for h in receivers
        ]
        self.switch.install_group(Group(group_id, buckets))
        from repro.net import OutputGroup

        self.switch.install_rule(
            Rule(Match(ip_dst=vprefix), [OutputGroup(group_id)], priority=50)
        )

    def link_of(self, host):
        return self.net.link_between(self.switch, host)


def linear_scan(table, packet, in_port=None):
    """What ``FlowTable.lookup`` must return: the first match walking the
    rule list in table order — the scan the destination index replaced,
    kept as the reference for the property and determinism tests."""
    for rule in table.iter_rules():
        if rule.match.matches(packet, in_port):
            return rule
    return None
