"""Unit tests for packets, wire sizing and link transmission."""

import pytest

from repro.net import (
    GBPS,
    HEADER_BYTES,
    IPv4Address,
    Link,
    MTU_BYTES,
    Packet,
    Proto,
    wire_size,
)
from repro.net.topology import Device
from repro.sim import RngRegistry, Simulator


class Sink(Device):
    """Test device recording received packets and arrival times."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, in_port_no):
        self.received.append((self.sim.now, packet))


def make_packet(size=100, **kw):
    defaults = dict(
        src_ip=IPv4Address("10.0.0.1"),
        dst_ip=IPv4Address("10.0.0.2"),
        proto=Proto.UDP,
        payload_bytes=size,
    )
    defaults.update(kw)
    return Packet(**defaults)


def test_wire_size_single_chunk():
    assert wire_size(100) == 100 + HEADER_BYTES
    assert wire_size(0) == HEADER_BYTES
    assert wire_size(MTU_BYTES) == MTU_BYTES + HEADER_BYTES


def test_wire_size_multi_chunk():
    assert wire_size(MTU_BYTES + 1) == MTU_BYTES + 1 + 2 * HEADER_BYTES
    one_mb = 1 << 20
    chunks = -(-one_mb // MTU_BYTES)
    assert wire_size(one_mb) == one_mb + chunks * HEADER_BYTES


def test_wire_size_negative_rejected():
    with pytest.raises(ValueError):
        wire_size(-1)
    with pytest.raises(ValueError):
        make_packet(size=-5)


def test_packet_copy_is_independent():
    p = make_packet()
    q = p.copy()
    assert q is not p
    q.dst_ip = IPv4Address("9.9.9.9")
    q.virtual_dst = IPv4Address("10.1.0.1")
    assert p.dst_ip == IPv4Address("10.0.0.2")
    assert p.virtual_dst is None


def test_link_delivers_after_serialization_plus_latency():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.new_port(), b.new_port(), bandwidth_bps=1e6, latency_s=0.01)
    pkt = make_packet(size=1000 - HEADER_BYTES)  # exactly 1000 B on the wire
    link.ab.transmit(pkt)
    sim.run()
    assert len(b.received) == 1
    when, got = b.received[0]
    assert when == pytest.approx(1000 * 8 / 1e6 + 0.01)
    assert got is pkt


def test_link_fifo_contention():
    """Two packets queued on one channel serialize back-to-back."""
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.new_port(), b.new_port(), bandwidth_bps=1e6, latency_s=0.0)
    size = 1000 - HEADER_BYTES
    link.ab.transmit(make_packet(size=size))
    link.ab.transmit(make_packet(size=size))
    sim.run()
    times = [t for t, _ in b.received]
    assert times == pytest.approx([0.008, 0.016])


def test_link_directions_independent():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.new_port(), b.new_port(), bandwidth_bps=1e6, latency_s=0.0)
    size = 1000 - HEADER_BYTES
    link.ab.transmit(make_packet(size=size))
    link.ba.transmit(make_packet(size=size))
    sim.run()
    assert a.received[0][0] == pytest.approx(0.008)
    assert b.received[0][0] == pytest.approx(0.008)


def test_link_byte_counters():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.new_port(), b.new_port())
    pkt = make_packet(size=500)
    link.ab.transmit(pkt)
    sim.run()
    assert link.ab.tx_bytes.value == pkt.size_bytes
    assert link.ba.tx_bytes.value == 0
    assert link.total_bytes == pkt.size_bytes
    link.reset_counters()
    assert link.total_bytes == 0


def test_link_loss_drops_packets():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.new_port(), b.new_port())
    link.ab.set_loss(1.0 - 1e-12, RngRegistry(1).stream("loss"))
    for _ in range(20):
        link.ab.transmit(make_packet())
    sim.run()
    assert len(b.received) == 0
    assert link.ab.dropped_packets.value == 20
    # Bytes still hit the wire before the drop point.
    assert link.ab.tx_bytes.value > 0


def test_link_set_bandwidth():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    link = Link(sim, a.new_port(), b.new_port(), bandwidth_bps=GBPS, latency_s=0.0)
    link.set_bandwidth(1e6)
    size = 1000 - HEADER_BYTES
    link.ab.transmit(make_packet(size=size))
    sim.run()
    assert b.received[0][0] == pytest.approx(0.008)


def test_invalid_link_parameters():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    with pytest.raises(ValueError):
        Link(sim, a.new_port(), b.new_port(), bandwidth_bps=0)
    link = Link(sim, a.new_port(), b.new_port())
    with pytest.raises(ValueError):
        link.set_bandwidth(-1)
    with pytest.raises(ValueError):
        link.ab.set_loss(1.5, RngRegistry(1).stream("x"))


def test_port_cannot_be_double_linked():
    sim = Simulator()
    a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
    pa = a.new_port()
    Link(sim, pa, b.new_port())
    with pytest.raises(RuntimeError):
        Link(sim, pa, c.new_port())


def test_unplugged_port_send_raises():
    sim = Simulator()
    a = Sink(sim, "a")
    with pytest.raises(RuntimeError):
        a.new_port().send(make_packet())


def test_port_peer():
    sim = Simulator()
    a, b = Sink(sim, "a"), Sink(sim, "b")
    pa, pb = a.new_port(), b.new_port()
    link = Link(sim, pa, pb)
    assert pa.peer is pb
    assert pb.peer is pa


def test_negative_payload_rejected_at_construction():
    with pytest.raises(ValueError, match="negative payload size: -1"):
        make_packet(size=-1)


def test_packet_copy_shares_every_slot_value():
    """A copy is a new packet whose every slot holds the original's value
    (the payload shared, not copied); a packet carries no per-hop state."""
    from repro.net import MacAddress

    p = make_packet(
        sport=5, dport=7, payload={"k": 1}, src_mac=MacAddress(1), dst_mac=MacAddress(2),
        virtual_dst=IPv4Address("10.1.0.1"),
    )
    q = p.copy()
    assert q is not p
    assert not {"trace", "uid"} & set(Packet.__slots__)
    for name in Packet.__slots__:
        assert getattr(q, name) is getattr(p, name), name


def test_proto_hash_is_identity():
    """``Proto`` hashes in C by identity; nothing iterates a set of them,
    so no order depends on the hash."""
    for proto in Proto:
        assert hash(proto) == object.__hash__(proto)
    assert {Proto.UDP: 1}[Proto.UDP] == 1


def test_wire_values_are_slotted_plain_classes():
    from dataclasses import is_dataclass

    from repro.transport import Datagram, MulticastMessage, TcpMessage

    for cls in (Packet, Datagram, TcpMessage, MulticastMessage):
        assert not is_dataclass(cls) and "__dict__" not in vars(cls), cls
