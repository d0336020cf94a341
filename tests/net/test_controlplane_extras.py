"""Coverage for control-plane operations not exercised elsewhere:
group deletion, rule deletion, packet-out, idle expiry wiring."""

from repro.net import (
    Bucket,
    ControlPlane,
    ControllerApp,
    Drop,
    FLOOD,
    Group,
    IPv4Address,
    Match,
    Output,
    Packet,
    Proto,
    Rule,
)
from tests.helpers import Star


class Nop(ControllerApp):
    def on_packet_in(self, switch, packet, in_port_no, buffer_id):
        self.channel.drop_buffered(switch, buffer_id)


def make_plane():
    star = Star(n_hosts=2)
    plane = ControlPlane(star.sim, Nop(), latency_s=0.001)
    plane.attach(star.switch)
    return star, plane


def test_group_delete_removes_group():
    star, plane = make_plane()
    plane.apply_batch(star.switch, [("group", Group(5, [Bucket(actions=(), port=1)]))])
    star.sim.run(until=1.0)
    assert 5 in star.switch.groups
    plane.apply_batch(star.switch, [("group_delete", 5)])
    star.sim.run(until=2.0)
    assert 5 not in star.switch.groups


def test_flow_delete_removes_cookie():
    star, plane = make_plane()
    rule = Rule(Match(), [Drop()], cookie="x")
    plane.apply_batch(star.switch, [("rule", rule)])
    star.sim.run(until=1.0)
    assert any(r.cookie == "x" for r in star.switch.table.rules)
    plane.apply_batch(star.switch, [("delete", "x")])
    star.sim.run(until=2.0)
    assert all(r.cookie != "x" for r in star.switch.table.rules)


def test_packet_out_floods():
    star, plane = make_plane()

    class Sink:
        def __init__(self):
            self.got = []

        def deliver(self, packet):
            self.got.append(packet)

    sinks = []
    for host in star.hosts:
        sink = Sink()
        host.stack = sink
        sinks.append(sink)
    pkt = Packet(
        src_ip=IPv4Address("0.0.0.0"),
        dst_ip=IPv4Address("255.255.255.255"),
        proto=Proto.UDP,
        payload_bytes=10,
    )
    plane.packet_out(star.switch, pkt, [Output(FLOOD)])
    star.sim.run(until=1.0)
    assert all(len(s.got) == 1 for s in sinks)


def test_negative_control_latency_rejected():
    star = Star(n_hosts=2)
    import pytest

    with pytest.raises(ValueError):
        ControlPlane(star.sim, Nop(), latency_s=-1.0)


def test_idle_expiry_evicts_unused_vring_rule():
    star, plane = make_plane()
    rule = Rule(Match(ip_dst="10.10.1.0/24"), [Drop()], idle_timeout=1.0, cookie="i")
    plane.apply_batch(star.switch, [("rule", rule)])
    star.sim.run(until=0.5)
    assert len([r for r in star.switch.table.rules if r.cookie == "i"]) == 1
    # No traffic touches it: expire sweep at t=10 evicts it.
    star.sim.call_in(10.0, star.switch.table.expire_idle, 10.0)
    star.sim.run(until=11.0)
    assert len([r for r in star.switch.table.rules if r.cookie == "i"]) == 0
