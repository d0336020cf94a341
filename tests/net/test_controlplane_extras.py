"""Coverage for control-plane operations not exercised elsewhere:
group deletion, rule deletion, packet-out."""

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


def test_unused_rule_stays_until_the_controller_deletes_it():
    """Rules carry no timeout: one no packet ever hits survives any idle
    span and leaves only on the controller's delete."""
    star, plane = make_plane()
    rule = Rule(Match(ip_dst="10.10.1.0/24"), [Drop()], cookie="i")
    plane.apply_batch(star.switch, [("rule", rule)])
    star.sim.run(until=1000.0)
    assert [r.cookie for r in star.switch.table.rules].count("i") == 1
    assert rule.packets == 0
    plane.apply_batch(star.switch, [("delete", "i")])
    star.sim.run(until=1001.0)
    assert "i" not in [r.cookie for r in star.switch.table.rules]
