"""Unit tests for the chaos-injection link controls (loss, jitter, down)."""

import numpy as np
import pytest

from repro.net import IPv4Address, Link, Packet, Proto
from repro.net.topology import Device
from repro.sim import Simulator


class Sink(Device):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, in_port_no):
        self.received.append((self.sim.now, packet))


def make_link(sim, bandwidth=1e9, latency=50e-6):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    return Link(sim, a.new_port(), b.new_port(), bandwidth, latency), a, b


def pkt(size=100):
    return Packet(
        src_ip=IPv4Address("10.0.0.1"),
        dst_ip=IPv4Address("10.0.0.2"),
        proto=Proto.UDP,
        payload_bytes=size,
    )


# -- loss-rate validation edge cases ------------------------------------------------


def test_loss_rate_one_rejected():
    """Total loss is modeled by set_down, not a loss rate of 1.0."""
    sim = Simulator()
    link, _, _ = make_link(sim)
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        link.ab.set_loss(1.0, np.random.default_rng(1))


def test_loss_rate_out_of_range_rejected():
    sim = Simulator()
    link, _, _ = make_link(sim)
    for bad in (-0.1, 1.5):
        with pytest.raises(ValueError):
            link.ab.set_loss(bad, np.random.default_rng(1))


def test_loss_needs_rng():
    sim = Simulator()
    link, _, _ = make_link(sim)
    with pytest.raises(ValueError, match="rng"):
        link.ab.set_loss(0.5)


def test_loss_zero_reenables_and_clears_rng():
    """rate=0.0 turns loss off again and may omit the rng."""
    sim = Simulator()
    link, _, b = make_link(sim)
    link.ab.set_loss(0.99, np.random.default_rng(1))
    for _ in range(20):
        link.ab.transmit(pkt())
    sim.run(until=1.0)
    dropped = link.ab.dropped_packets.value
    assert dropped > 0

    link.ab.set_loss(0.0)  # no rng needed
    assert link.ab.loss_rate == 0.0
    assert link.ab._loss_rng is None
    for _ in range(20):
        link.ab.transmit(pkt())
    sim.run(until=2.0)
    assert link.ab.dropped_packets.value == dropped  # no new drops
    assert len(b.received) == 20


# -- delay jitter -------------------------------------------------------------------


def test_jitter_negative_rejected():
    sim = Simulator()
    link, _, _ = make_link(sim)
    with pytest.raises(ValueError, match="non-negative"):
        link.ab.set_delay_jitter(-1e-6, np.random.default_rng(1))


def test_jitter_needs_rng():
    sim = Simulator()
    link, _, _ = make_link(sim)
    with pytest.raises(ValueError, match="rng"):
        link.ab.set_delay_jitter(1e-4)


def test_jitter_adds_bounded_delay_without_touching_latency():
    sim = Simulator()
    link, _, b = make_link(sim, latency=100e-6)
    base_latency = link.ab.latency_s
    jitter = 500e-6
    link.ab.set_delay_jitter(jitter, np.random.default_rng(7))
    for _ in range(30):
        link.ab.transmit(pkt(size=0))
    sim.run(until=1.0)
    assert link.ab.latency_s == base_latency  # no monkey-patching
    assert len(b.received) == 30
    arrivals = [t for t, _ in b.received]
    # Nothing arrives before the configured latency...
    assert min(arrivals) >= base_latency
    # ...and with 30 samples the added delay must actually vary.
    assert len({round(t, 9) for t in arrivals}) > 1


def test_jitter_zero_disables():
    sim = Simulator()
    link, _, _ = make_link(sim, latency=100e-6)
    link.ab.set_delay_jitter(300e-6, np.random.default_rng(7))
    link.ab.set_delay_jitter(0.0)  # no rng needed
    assert link.ab.delay_jitter_s == 0.0
    assert link.ab._jitter_rng is None


# -- link down (the partition primitive) --------------------------------------------


def test_set_down_blackholes_and_restores():
    sim = Simulator()
    link, _, b = make_link(sim)
    link.set_down(True)
    assert link.down
    link.ab.transmit(pkt())
    link.ba.transmit(pkt())
    sim.run(until=0.5)
    assert b.received == []
    assert link.ab.dropped_packets.value == 1
    # Bytes still count as transmitted (the wire was held), like real
    # counters on a port whose far end went dark.
    assert link.ab.tx_packets.value == 1

    link.set_down(False)
    assert not link.down
    link.ab.transmit(pkt())
    sim.run(until=1.0)
    assert len(b.received) == 1


def test_link_level_loss_applies_both_directions():
    sim = Simulator()
    link, _, _ = make_link(sim)
    link.set_loss(0.99, np.random.default_rng(3))
    for _ in range(15):
        link.ab.transmit(pkt())
        link.ba.transmit(pkt())
    sim.run(until=1.0)
    assert link.ab.dropped_packets.value > 0
    assert link.ba.dropped_packets.value > 0
    link.set_loss(0.0)
    assert link.ab.loss_rate == link.ba.loss_rate == 0.0
