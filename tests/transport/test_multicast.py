"""Unit tests for the reliable (any-k) multicast transport."""

import pytest

from repro.net import IPv4Address, IPv4Network, wire_size
from repro.sim import RngRegistry
from repro.transport import MulticastEndpoint, MulticastSender
from tests.helpers import Star

VGROUP = IPv4Network("10.11.1.0/24")
VADDR = IPv4Address("10.11.1.7")
PORT = 7001


def make_mc_star(n_receivers=3, **star_kw):
    star = Star(n_hosts=n_receivers + 1, **star_kw)
    sender_stack = star.stacks[0]
    receivers = star.hosts[1:]
    star.add_multicast_group(1, VGROUP, receivers)
    endpoints = [MulticastEndpoint(stack, PORT) for stack in star.stacks[1:]]
    return star, MulticastSender(sender_stack), endpoints


def test_all_receivers_get_message_and_sender_completes():
    star, sender, endpoints = make_mc_star(3)
    results = {}

    def send(sim):
        acks = yield sim.wait(sender.send, VADDR, PORT, {"obj": "v"}, 5000, n_receivers=3)
        results["acks"] = acks
        results["t"] = sim.now

    star.sim.process(send(star.sim))
    star.sim.run(until=10.0)
    assert len(results["acks"]) == 3
    for ep in endpoints:
        assert len(ep.messages) == 1
        msg = ep.messages.items[0]
        assert msg.payload == {"obj": "v"}
        assert msg.payload_bytes == 5000
        assert msg.virtual_dst == VADDR
        assert msg.src_ip == star.hosts[0].ip


def test_quorum_returns_before_slow_receivers():
    """Fig 8 mechanism: any-k returns when k fast receivers finish."""
    star, sender, endpoints = make_mc_star(3, latency_s=0.0)
    # Make receiver 3's link 20x slower (50 Mbps vs 1 Gbps).
    star.link_of(star.hosts[3]).set_bandwidth(50e6)
    results = {}
    size = 1 << 20

    def send(sim):
        acks = yield sim.wait(sender.send, VADDR, PORT, "blob", size, n_receivers=3, quorum=2)
        results["t"] = sim.now
        results["n"] = len(acks)

    star.sim.process(send(star.sim))
    star.sim.run(until=60.0)
    assert results["n"] == 2
    # Completion is near the fast-path time (~2 hops at 1 Gbps ≈ 17 ms),
    # far below the slow receiver's ~170 ms leg.
    assert results["t"] < 0.1
    # The slow receiver still gets the data after the sender returned.
    assert len(endpoints[2].messages) == 1


def test_lost_data_leg_is_not_repaired():
    """The one loss model is the link's: a receiver whose downlink drops
    the ``mc_data`` holds nothing and sends nothing, and the quorum of the
    other two still completes.  No NACK or repair crosses the wire."""
    star, sender, endpoints = make_mc_star(3)
    victim = star.downlink_of(star.hosts[3])
    victim.set_loss(0.999999, RngRegistry(5).stream("loss"))
    size = 10_000
    done = {}

    def send(sim):
        acks = yield sim.wait(sender.send, VADDR, PORT, "x", size, n_receivers=3, quorum=2)
        done["acks"] = sorted(str(ip) for ip, _ in acks)

    star.sim.process(send(star.sim))
    star.sim.run(until=10.0)
    assert done["acks"] == sorted(str(h.ip) for h in star.hosts[1:3])
    assert victim.dropped_packets.value == 1
    assert len(endpoints[2].messages) == 0
    assert [len(ep.messages) for ep in endpoints[:2]] == [1, 1]
    data_legs = 4 * wire_size(size)  # 1 uplink + 3 downlinks (one dropped)
    acks = 2 * 2 * wire_size(0)  # 2 acks, 2 hops each
    assert star.net.total_link_bytes() == data_legs + acks


def test_ack_port_unbound_at_quorum_and_late_ack_dropped():
    star, sender, endpoints = make_mc_star(3, latency_s=0.0)
    star.link_of(star.hosts[3]).set_bandwidth(50e6)  # receiver 3 acks late
    stack = star.stacks[0]
    seen = {}

    def send(sim):
        acks = yield sim.wait(sender.send, VADDR, PORT, "blob", 1 << 20, n_receivers=3,
                              quorum=2)
        seen["acks"] = len(acks)
        ack_port = endpoints[0].messages.items[0].ack_port
        # Binding succeeds only if the sender let go of the port at quorum.
        stack.udp_bind(ack_port)
        stack.udp_unbind(ack_port)

    star.sim.process(send(star.sim))
    star.sim.run()
    assert seen["acks"] == 2
    # The late ack reached the sender's host and died at the unbound port.
    assert len(endpoints[2].messages) == 1
    to_sender = star.downlink_of(star.hosts[0])
    assert (to_sender.tx_packets.value, to_sender.dropped_packets.value) == (3, 0)


def test_multicast_network_load_is_one_copy_per_leg():
    """The NICE replication-optimality claim at transport level (Fig 6)."""
    star, sender, endpoints = make_mc_star(3)
    size = 100_000

    def send(sim):
        yield sim.wait(sender.send, VADDR, PORT, "x", size, n_receivers=3)

    star.sim.process(send(star.sim))
    star.sim.run(until=5.0)
    total = star.net.total_link_bytes()
    data_legs = 4 * wire_size(size)  # 1 uplink + 3 downlinks
    acks = 3 * 2 * wire_size(0)  # 3 acks, 2 hops each
    assert total == data_legs + acks


def test_sender_validates_arguments():
    star, sender, _ = make_mc_star(2)
    with pytest.raises(ValueError):
        sender.send(VADDR, PORT, "x", 10, n_receivers=0)
    with pytest.raises(ValueError):
        sender.send(VADDR, PORT, "x", 10, n_receivers=3, quorum=4)
    with pytest.raises(ValueError):
        sender.send(VADDR, PORT, "x", 10, n_receivers=3, quorum=0)


def test_two_concurrent_sends_demux_by_op():
    star, sender, endpoints = make_mc_star(2)
    done = []

    def send(sim, tag):
        yield sim.wait(sender.send, VADDR, PORT, tag, 1000, n_receivers=2)
        done.append(tag)

    star.sim.process(send(star.sim, "a"))
    star.sim.process(send(star.sim, "b"))
    star.sim.run(until=5.0)
    assert sorted(done) == ["a", "b"]
    for ep in endpoints:
        payloads = sorted(m.payload for m in ep.messages.items)
        assert payloads == ["a", "b"]


def test_failed_receiver_does_not_block_quorum():
    star, sender, endpoints = make_mc_star(3)
    star.hosts[3].fail()
    result = {}

    def send(sim):
        acks = yield sim.wait(sender.send, VADDR, PORT, "x", 1000, n_receivers=3, quorum=2)
        result["n"] = len(acks)

    star.sim.process(send(star.sim))
    star.sim.run(until=10.0)
    assert result["n"] == 2
