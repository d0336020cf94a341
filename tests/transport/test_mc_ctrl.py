"""Tests for the unreliable multicast control channel (2PC timestamps)."""

from repro.net import IPv4Address, IPv4Network, wire_size
from repro.sim import RngRegistry
from repro.transport import MulticastEndpoint, MulticastSender
from tests.helpers import Star

VGROUP = IPv4Network("10.11.1.0/24")
VADDR = IPv4Address("10.11.1.9")
PORT = 7001


def setup():
    star = Star(n_hosts=4)
    receivers = star.hosts[1:]
    star.add_multicast_group(1, VGROUP, receivers)
    endpoints = [MulticastEndpoint(s, PORT) for s in star.stacks[1:]]
    return star, MulticastSender(star.stacks[0]), endpoints


def test_ctrl_message_delivered_to_all_without_acks():
    star, sender, endpoints = setup()
    sender.send_ctrl(VADDR, PORT, {"type": "commit", "op": 7}, 128)
    star.sim.run(until=2.0)
    for ep in endpoints:
        assert len(ep.messages) == 1
        msg = ep.messages.items[0]
        assert msg.payload == {"type": "commit", "op": 7}
        assert msg.ack_port == 0
    # No transport acks were generated (only the 4 data legs on the wire).
    assert star.net.total_link_bytes() == 4 * wire_size(128)


def test_ctrl_message_lost_is_silent():
    star, sender, endpoints = setup()
    rng = RngRegistry(3)
    downlinks = [star.downlink_of(h) for h in star.hosts[1:]]
    for i, channel in enumerate(downlinks):
        channel.set_loss(0.999999, rng.stream(f"l{i}"))
    sender.send_ctrl(VADDR, PORT, "ts", 64)
    star.sim.run(until=2.0)
    assert all(len(ep.messages) == 0 for ep in endpoints)
    assert [c.dropped_packets.value for c in downlinks] == [1, 1, 1]
    # Only the data legs crossed the wire: no ack, no NACK.
    assert star.net.total_link_bytes() == 4 * wire_size(64)
