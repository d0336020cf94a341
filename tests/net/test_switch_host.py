"""Integration-ish unit tests: switch forwarding, multicast groups,
packet-in buffering, host ARP and failure injection."""

import pytest

from repro.net import (
    Bucket,
    ControlPlane,
    ControllerApp,
    FLOOD,
    Group,
    Host,
    IPv4Address,
    IPv4Network,
    MacAddress,
    Match,
    Network,
    OpenFlowSwitch,
    Output,
    OutputGroup,
    Packet,
    Proto,
    Rule,
    SetEthDst,
    SetIpDst,
    make_arp_request,
)
import repro.net.switch as switch_mod
from repro.obs.tracer import Tracer
from repro.sim import Simulator
from tests.helpers import HopRecorder


class RecordingStack:
    """Minimal protocol stack capturing delivered packets."""

    def __init__(self, sim):
        self.sim = sim
        self.delivered = []

    def deliver(self, packet):
        self.delivered.append((self.sim.now, packet))


def build_star(n_hosts=3, **switch_kw):
    sim = Simulator()
    net = Network(sim)
    sw = OpenFlowSwitch(sim, "sw1", **switch_kw)
    net.register(sw)
    hosts = []
    for i in range(n_hosts):
        h = Host(sim, f"h{i}", IPv4Address(f"10.0.0.{i + 1}"), MacAddress(0x020000000001 + i))
        h.stack = RecordingStack(sim)
        net.register(h)
        net.connect(sw, h)
        hosts.append(h)
    return sim, net, sw, hosts


def host_port_on_switch(net, sw, host):
    link = net.link_between(sw, host)
    return (link.a if link.a.device is sw else link.b).number


def udp_pkt(src, dst_ip, size=100, dport=4000):
    return Packet(
        src_ip=src.ip,
        dst_ip=IPv4Address(dst_ip),
        proto=Proto.UDP,
        dport=dport,
        payload={"x": 1},
        payload_bytes=size,
    )


def test_switch_forwards_on_rule(monkeypatch):
    sim, net, sw, hosts = build_star()
    hops = HopRecorder(monkeypatch)
    p1 = host_port_on_switch(net, sw, hosts[1])
    sw.install_rule(Rule(Match(ip_dst=hosts[1].ip), [Output(p1)]))
    hosts[0].send(udp_pkt(hosts[0], "10.0.0.2"))
    sim.run()
    assert len(hosts[1].stack.delivered) == 1
    _, pkt = hosts[1].stack.delivered[0]
    path = hops.path(pkt)
    assert path[0] == "h0" and "sw1" in path and path[-1] == "h1"
    assert sw.forwarded.value == 1


def test_switch_rewrites_dst_and_records_virtual():
    """The NICE mapping: vnode address rewritten to the physical node."""
    sim, net, sw, hosts = build_star()
    p1 = host_port_on_switch(net, sw, hosts[1])
    vnet = IPv4Network("10.10.1.0/24")
    sw.install_rule(
        Rule(
            Match(ip_dst=vnet),
            [SetIpDst(hosts[1].ip), SetEthDst(hosts[1].mac), Output(p1)],
        )
    )
    hosts[0].send(udp_pkt(hosts[0], "10.10.1.77"))
    sim.run()
    _, pkt = hosts[1].stack.delivered[0]
    assert pkt.dst_ip == hosts[1].ip
    assert pkt.virtual_dst == IPv4Address("10.10.1.77")
    assert pkt.dst_mac == hosts[1].mac


def test_switch_group_multicast_clones_to_all_buckets(monkeypatch):
    sim, net, sw, hosts = build_star(n_hosts=4)
    hops = HopRecorder(monkeypatch)
    replicas = hosts[1:]
    buckets = [
        Bucket(
            actions=(SetIpDst(h.ip), SetEthDst(h.mac)),
            port=host_port_on_switch(net, sw, h),
        )
        for h in replicas
    ]
    sw.install_group(Group(1, buckets))
    sw.install_rule(Rule(Match(ip_dst=IPv4Network("10.11.0.0/16")), [OutputGroup(1)]))
    hosts[0].send(udp_pkt(hosts[0], "10.11.0.9", size=5000))
    sim.run()
    for h in replicas:
        assert len(h.stack.delivered) == 1
        _, pkt = h.stack.delivered[0]
        assert pkt.dst_ip == h.ip
        assert pkt.payload_bytes == 5000
    # Each replica got an independent clone, one per bucket, each having
    # crossed the switch once.
    clones = [h.stack.delivered[0][1] for h in replicas]
    assert len({id(pkt) for pkt in clones}) == 3
    for h, pkt in zip(replicas, clones):
        assert hops.path(pkt) == ["h0", "sw1", h.name]
    assert sw.groups[1].packets == 1


def test_multicast_network_load_counts_each_egress_once():
    """NICE's claim: multicast sends the bytes once per egress link only."""
    sim, net, sw, hosts = build_star(n_hosts=4)
    replicas = hosts[1:]
    buckets = [
        Bucket(actions=(SetIpDst(h.ip),), port=host_port_on_switch(net, sw, h))
        for h in replicas
    ]
    sw.install_group(Group(1, buckets))
    sw.install_rule(Rule(Match(ip_dst=IPv4Network("10.11.0.0/16")), [OutputGroup(1)]))
    pkt = udp_pkt(hosts[0], "10.11.0.9", size=10_000)
    wire = pkt.size_bytes
    hosts[0].send(pkt)
    sim.run()
    # 1 client uplink + 3 replica downlinks = 4 traversals.
    assert net.total_link_bytes() == 4 * wire


def _per_bucket_group_egress(switch, packet, group_id):
    """The generic loop the group egress replaced: each bucket's clone goes
    back through ``apply_actions``, its rewrites then an ``Output``."""
    group = switch.groups[group_id]
    group.packets += 1
    for bucket in group.buckets:
        switch.apply_actions(packet.copy(), [*bucket.actions, Output(bucket.port)], 0)


def _group_egress_run(receivers, penalty, reference, monkeypatch):
    """One packet into an ALL-group whose buckets point at ``receivers``
    (host indices; ``None`` is a port the switch does not have).  Returns
    (deliveries, forwarded, dropped, rewrite instants, fan-out batches)."""
    sim, net, sw, hosts = build_star(n_hosts=4, rewrite_penalty_s=penalty)
    sim.tracer = Tracer(sim)
    batches = []
    real_fanout = switch_mod.transmit_fanout

    def counting_fanout(sim, legs):
        batches.append(len(legs))
        real_fanout(sim, legs)

    monkeypatch.setattr(switch_mod, "transmit_fanout", counting_fanout)
    if reference:
        monkeypatch.setattr(OpenFlowSwitch, "_output_group", _per_bucket_group_egress)
    buckets = [
        Bucket(actions=(SetIpDst(hosts[i].ip), SetEthDst(hosts[i].mac)),
               port=host_port_on_switch(net, sw, hosts[i]))
        if i is not None else Bucket(actions=(), port=99)
        for i in receivers
    ]
    sw.install_group(Group(1, buckets))
    sw.install_rule(Rule(Match(ip_dst=IPv4Network("10.11.0.0/16")), [OutputGroup(1)]))
    hosts[0].send(udp_pkt(hosts[0], "10.11.0.9", size=5000))
    sim.run()
    monkeypatch.undo()
    deliveries = [
        (h.name, when, pkt.dst_ip, pkt.dst_mac, pkt.virtual_dst)
        for h in hosts for when, pkt in h.stack.delivered
    ]
    rewrites = [(e.ts, e.args) for e in sim.tracer.events if e.name == "rewrite"]
    return deliveries, sw.forwarded.value, sw.dropped.value, rewrites, batches


@pytest.mark.parametrize("receivers, penalty, batched", [
    ([1], 0.0, []),
    ([1, 2, 3], 0.0, [3]),
    ([1, 2, 3], 1e-3, []),
    ([1, None, 3], 0.0, [2]),
])
def test_group_egress_equals_per_bucket_apply_actions(receivers, penalty, batched, monkeypatch):
    """One loop serves every group: a lone bucket, a batched fan-out, legs
    delayed by the software-rewrite penalty and a bucket on a missing
    port all deliver, count and trace exactly as running each bucket
    through ``apply_actions`` did."""
    got = _group_egress_run(receivers, penalty, False, monkeypatch)
    want = _group_egress_run(receivers, penalty, True, monkeypatch)
    assert got[:4] == want[:4]
    deliveries, forwarded, dropped, rewrites, batches = got
    live = [i for i in receivers if i is not None]
    assert [name for name, *_ in deliveries] == [f"h{i}" for i in live]
    assert (forwarded, dropped) == (len(live), len(receivers) - len(live))
    assert len(rewrites) == len(live)
    assert batches == batched and want[4] == []
    if penalty:
        assert min(when for _, when, *_ in deliveries) > penalty


def test_missing_group_drops():
    sim, net, sw, hosts = build_star()
    sw.install_rule(Rule(Match(), [OutputGroup(99)]))
    hosts[0].send(udp_pkt(hosts[0], "10.0.0.2"))
    sim.run()
    assert sw.dropped.value == 1


def test_flood_reaches_all_but_ingress():
    sim, net, sw, hosts = build_star(n_hosts=3)
    sw.install_rule(Rule(Match(), [Output(FLOOD)]))
    hosts[0].send(udp_pkt(hosts[0], "10.0.0.99"))
    sim.run()
    assert len(hosts[0].stack.delivered) == 0
    assert len(hosts[1].stack.delivered) == 1
    assert len(hosts[2].stack.delivered) == 1


def test_table_miss_without_controller_drops():
    sim, net, sw, hosts = build_star()
    hosts[0].send(udp_pkt(hosts[0], "10.0.0.2"))
    sim.run()
    assert sw.table_misses.value == 1
    assert sw.dropped.value == 1


class InstallOnMiss(ControllerApp):
    """Installs a unicast rule on first miss, then releases the buffer."""

    def __init__(self, net, target_host):
        super().__init__()
        self.net = net
        self.target = target_host
        self.packet_ins = []

    def on_packet_in(self, switch, packet, in_port_no, buffer_id):
        self.packet_ins.append((packet, in_port_no))
        port = host_port_on_switch(self.net, switch, self.target)
        rule = Rule(Match(ip_dst=self.target.ip), [Output(port)])
        self.channel.apply_batch(switch, [("rule", rule)])
        self.channel.release_buffered(switch, buffer_id)


def test_packet_in_buffering_and_release():
    sim, net, sw, hosts = build_star()
    ctrl = InstallOnMiss(net, hosts[1])
    plane = ControlPlane(sim, ctrl, latency_s=0.001)
    plane.attach(sw)
    hosts[0].send(udp_pkt(hosts[0], "10.0.0.2"))
    sim.run()
    # First packet triggers a miss, gets buffered, and is forwarded after
    # the controller round-trip.
    assert len(ctrl.packet_ins) == 1
    assert len(hosts[1].stack.delivered) == 1
    when, _ = hosts[1].stack.delivered[0]
    assert when > 0.002  # at least two control-latency crossings
    assert sw.buffered_count == 0
    # Second packet hits the installed rule: no new packet-in.
    hosts[0].send(udp_pkt(hosts[0], "10.0.0.2"))
    sim.run()
    assert len(ctrl.packet_ins) == 1
    assert len(hosts[1].stack.delivered) == 2


def test_drop_buffered():
    sim, net, sw, hosts = build_star()

    class Dropper(ControllerApp):
        def on_packet_in(self, switch, packet, in_port_no, buffer_id):
            self.channel.drop_buffered(switch, buffer_id)

    plane = ControlPlane(sim, Dropper(), latency_s=0.001)
    plane.attach(sw)
    hosts[0].send(udp_pkt(hosts[0], "10.0.0.2"))
    sim.run()
    assert sw.dropped.value == 1
    assert sw.buffered_count == 0


def test_control_plane_message_counters():
    sim, net, sw, hosts = build_star()
    ctrl = InstallOnMiss(net, hosts[1])
    plane = ControlPlane(sim, ctrl, latency_s=0.001)
    plane.attach(sw)
    hosts[0].send(udp_pkt(hosts[0], "10.0.0.2"))
    sim.run()
    assert plane.messages_to_controller.value == 1
    assert plane.messages_to_switch.value == 2  # flow-mod + release


def test_host_answers_arp_request():
    sim, net, sw, hosts = build_star()
    sw.install_rule(Rule(Match(proto=Proto.ARP), [Output(FLOOD)]))
    req = make_arp_request(hosts[0].ip, hosts[0].mac, hosts[1].ip)
    hosts[0].send(req)
    sim.run()
    # hosts[1] answers; the reply floods back to hosts[0]'s stack.
    replies = [p for _, p in hosts[0].stack.delivered if p.proto == Proto.ARP]
    assert len(replies) == 1
    assert replies[0].payload["sender_mac"] == hosts[1].mac
    # hosts[2] must not answer someone else's ARP.
    assert all(
        p.payload.get("op") != "reply" or p.payload["sender_ip"] == hosts[1].ip
        for _, p in hosts[0].stack.delivered
    )


def test_failed_host_black_holes_traffic():
    sim, net, sw, hosts = build_star()
    p1 = host_port_on_switch(net, sw, hosts[1])
    sw.install_rule(Rule(Match(ip_dst=hosts[1].ip), [Output(p1)]))
    hosts[1].fail()
    hosts[0].send(udp_pkt(hosts[0], "10.0.0.2"))
    sim.run()
    assert hosts[1].stack.delivered == []
    hosts[1].recover()
    hosts[0].send(udp_pkt(hosts[0], "10.0.0.2"))
    sim.run()
    assert len(hosts[1].stack.delivered) == 1


def test_failed_host_cannot_send():
    sim, net, sw, hosts = build_star()
    hosts[0].fail()
    hosts[0].send(udp_pkt(hosts[0], "10.0.0.2"))
    sim.run()
    assert net.total_link_bytes() == 0


def test_host_io_bytes_counts_both_directions():
    sim, net, sw, hosts = build_star()
    p1 = host_port_on_switch(net, sw, hosts[1])
    p0 = host_port_on_switch(net, sw, hosts[0])
    sw.install_rule(Rule(Match(ip_dst=hosts[1].ip), [Output(p1)]))
    sw.install_rule(Rule(Match(ip_dst=hosts[0].ip), [Output(p0)]))
    out = udp_pkt(hosts[0], "10.0.0.2", size=1000)
    hosts[0].send(out)
    sim.run()
    assert net.host_io_bytes(hosts[0]) == out.size_bytes
    assert net.host_io_bytes(hosts[1]) == out.size_bytes


def test_duplicate_device_name_rejected():
    sim = Simulator()
    net = Network(sim)
    net.register(OpenFlowSwitch(sim, "sw"))
    with pytest.raises(ValueError):
        net.register(OpenFlowSwitch(sim, "sw"))


def test_negative_lookup_latency_rejected_at_construction():
    """The per-packet schedule does not check its delay, so the switch
    checks its lookup latency once, when it is built."""
    with pytest.raises(ValueError):
        OpenFlowSwitch(Simulator(), "sw", lookup_latency_s=-1e-6)


def test_software_rewrite_penalty_delays_forwarding():
    sim, net, sw, hosts = build_star(rewrite_penalty_s=0.5)
    p1 = host_port_on_switch(net, sw, hosts[1])
    sw.install_rule(
        Rule(Match(ip_dst="10.10.0.0/16"), [SetIpDst(hosts[1].ip), Output(p1)])
    )
    sw.install_rule(Rule(Match(ip_dst=hosts[1].ip), [Output(p1)], priority=200))
    hosts[0].send(udp_pkt(hosts[0], "10.10.0.5"))
    sim.run()
    when, _ = hosts[1].stack.delivered[0]
    assert when > 0.5  # software rewrite path dominates
