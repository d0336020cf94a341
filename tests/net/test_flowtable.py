"""Unit tests for flow-table matching semantics."""

import pytest

from repro.net import (
    Bucket,
    Drop,
    FlowTable,
    Group,
    IPv4Address,
    IPv4Network,
    MacAddress,
    Match,
    Output,
    Packet,
    Proto,
    Rule,
    SetIpDst,
    ToController,
)


def pkt(src="10.0.0.1", dst="10.10.1.5", proto=Proto.UDP, dport=4000, dst_mac=None):
    return Packet(
        src_ip=IPv4Address(src),
        dst_ip=IPv4Address(dst),
        proto=proto,
        dport=dport,
        payload_bytes=10,
        dst_mac=dst_mac,
    )


def test_wildcard_match_matches_everything():
    assert Match().matches(pkt(), in_port=7)


def test_prefix_match_on_dst():
    m = Match(ip_dst=IPv4Network("10.10.1.0/24"))
    assert m.matches(pkt(dst="10.10.1.200"))
    assert not m.matches(pkt(dst="10.10.2.1"))


def test_prefix_match_on_src():
    m = Match(ip_src=IPv4Network("192.168.0.0/30"))
    assert m.matches(pkt(src="192.168.0.3"))
    assert not m.matches(pkt(src="192.168.0.4"))


def test_exact_ip_match_accepts_address_and_string():
    assert Match(ip_dst=IPv4Address("10.10.1.5")).matches(pkt())
    assert Match(ip_dst="10.10.1.5").matches(pkt())
    assert not Match(ip_dst="10.10.1.6").matches(pkt())


def test_proto_and_port_match():
    m = Match(proto=Proto.UDP, dport=4000)
    assert m.matches(pkt())
    assert not m.matches(pkt(proto=Proto.TCP))
    assert not m.matches(pkt(dport=4001))


def test_in_port_match():
    m = Match(in_port=3)
    assert m.matches(pkt(), in_port=3)
    assert not m.matches(pkt(), in_port=4)


def test_eth_dst_match():
    mac = MacAddress(42)
    assert Match(eth_dst=mac).matches(pkt(dst_mac=mac))
    assert not Match(eth_dst=mac).matches(pkt(dst_mac=MacAddress(43)))


def test_lookup_honors_priority():
    table = FlowTable()
    low = table.add(Rule(Match(), [Drop()], priority=1))
    high = table.add(
        Rule(Match(ip_dst=IPv4Network("10.10.0.0/16")), [Output(1)], priority=10)
    )
    assert table.lookup(pkt()) is high
    assert table.lookup(pkt(dst="1.1.1.1")) is low


def test_lookup_ties_break_on_insertion_order():
    table = FlowTable()
    first = table.add(Rule(Match(), [Output(1)], priority=5))
    table.add(Rule(Match(), [Output(2)], priority=5))
    assert table.lookup(pkt()) is first


def test_lookup_miss_returns_none():
    table = FlowTable()
    table.add(Rule(Match(ip_dst="1.2.3.4"), [Output(1)]))
    assert table.lookup(pkt()) is None


def test_capacity_enforced():
    table = FlowTable(capacity=2)
    table.add(Rule(Match(), [Drop()]))
    table.add(Rule(Match(), [Drop()]))
    with pytest.raises(OverflowError):
        table.add(Rule(Match(), [Drop()]))


def test_remove_by_cookie():
    table = FlowTable()
    table.add(Rule(Match(), [Drop()], cookie="vring:n1"))
    table.add(Rule(Match(), [Drop()], cookie="vring:n1"))
    keep = table.add(Rule(Match(), [Drop()], cookie="vring:n2"))
    assert table.remove_by_cookie("vring:n1") == 2
    assert table.rules == (keep,)


def test_remove_takes_the_rule_itself_not_an_equal_twin():
    table = FlowTable()
    first = table.add(Rule(Match(ip_dst="10.10.1.5"), [Drop()], seq=7))
    twin = table.add(Rule(Match(ip_dst="10.10.1.5"), [Drop()], seq=7))
    assert first == twin and first is not twin
    table.remove(twin)
    assert len(table) == 1 and table.rules[0] is first
    assert table.lookup(pkt()) is first
    table.remove(twin)  # already gone: no-op
    assert len(table) == 1
    table.remove(first)
    assert table.lookup(pkt()) is None


def test_miss_examines_the_same_handful_of_rules_at_1000_and_4000(monkeypatch):
    """§4.6's one-stage match: what a memo miss costs follows the prefix
    lengths in use, not the number of rules installed."""
    examined = []
    real_matches = Match.matches

    def counting_matches(self, packet, in_port=None):
        examined.append(self)
        return real_matches(self, packet, in_port)

    monkeypatch.setattr(Match, "matches", counting_matches)
    base = IPv4Address("10.64.0.0")
    counts = {}
    for n_rules in (1000, 4000):
        table = FlowTable(cache_enabled=False)
        table.add(Rule(Match(proto=Proto.ARP), [ToController()], priority=300))
        table.add(Rule(Match(ip_dst=IPv4Network("10.64.0.0/10")), [Output(9)], priority=50))
        table.add(Rule(Match(), [Drop()], priority=1))
        hosts = [
            table.add(Rule(Match(ip_dst=base + i, proto=Proto.UDP), [Output(1)]))
            for i in range(n_rules)
        ]
        table.lookup(pkt())  # build the index outside the counted lookup
        del examined[:]
        assert table.lookup(pkt(dst=str(base + n_rules // 2))) is hosts[n_rules // 2]
        counts[n_rules] = len(examined)
    assert counts[1000] == counts[4000] == 4  # one /32, the /10, ARP, catch-all


def test_rule_counters_touch():
    """A switch's rule hit counts the packet and its wire bytes."""
    from repro.net import OpenFlowSwitch
    from repro.sim import Simulator

    sim = Simulator()
    sw = OpenFlowSwitch(sim, "sw", lookup_latency_s=4.2)
    r = sw.install_rule(Rule(Match(), [Drop()]))
    p = pkt()
    sw.handle_packet(p, sw.new_port())
    sim.run()
    assert r.packets == 1
    assert r.bytes == p.size_bytes


def test_rule_counters_accumulate_per_hit():
    from repro.net import OpenFlowSwitch
    from repro.sim import Simulator

    sim = Simulator()
    sw = OpenFlowSwitch(sim, "sw", lookup_latency_s=0.0)
    r = sw.install_rule(Rule(Match(), [Drop()]))
    port = sw.new_port()
    packets = [
        Packet(src_ip=IPv4Address("10.0.0.1"), dst_ip=IPv4Address("10.10.1.5"),
               proto=Proto.UDP, dport=4000, payload_bytes=n)
        for n in (10, 1000, 64)
    ]
    for p in packets:
        sw.handle_packet(p, port)
    sim.run()
    assert r.packets == 3
    assert r.bytes == sum(p.size_bytes for p in packets)
    assert len({p.size_bytes for p in packets}) == 3  # each hit adds its own size


def test_group_buckets():
    g = Group(7, [Bucket(actions=(SetIpDst(IPv4Address("10.0.0.9")),), port=3)])
    assert len(g) == 1
    assert g.buckets[0].port == 3


@pytest.mark.parametrize("action", [Output(4), ToController(), Drop()])
def test_bucket_holds_only_header_rewrites(action):
    """The switch applies a bucket's actions inline on each clone; any
    action but ``SetIpDst``/``SetEthDst`` is refused when the bucket is
    built, not found per packet."""
    with pytest.raises(TypeError, match="only rewrites headers"):
        Bucket(actions=(SetIpDst(IPv4Address("10.0.0.9")), action), port=3)


def test_match_rejects_garbage_ip():
    with pytest.raises(TypeError):
        Match(ip_dst=3.14)  # type: ignore[arg-type]
