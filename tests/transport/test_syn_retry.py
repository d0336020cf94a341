"""SYN retransmission: a handshake toward a down host must not wedge
future connects once the host recovers."""

import pytest

from repro.sim import AnyOf
from tests.helpers import Star, connected


def test_connect_succeeds_after_peer_recovers():
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    server.tcp.listen(6000)
    server.host.fail()
    out = {}

    def connector(sim):
        conn = yield connected(client, server.ip, 6000)
        out["t"] = sim.now
        out["conn"] = conn

    star.sim.process(connector(star.sim))
    star.sim.call_in(3.0, server.host.recover)
    star.sim.run(until=30.0)
    # A retried SYN (0.5 s schedule) lands after the 3 s recovery.
    assert "t" in out
    assert out["t"] > 3.0
    assert out["conn"].established


def test_fresh_connect_after_handshake_gave_up():
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    server.tcp.listen(6000)
    server.host.fail()

    def first(sim):
        got = yield AnyOf(sim, [connected(client, server.ip, 6000), sim.timeout(1.0)])

    star.sim.process(first(star.sim))
    # Run long enough for SYN retries to exhaust and tear down state.
    star.sim.run(until=120.0)
    assert (server.ip, 6000) not in client.tcp._client_conns
    server.host.recover()
    out = {}

    def second(sim):
        conn = yield connected(client, server.ip, 6000)
        out["conn"] = conn

    star.sim.process(second(star.sim))
    star.sim.run(until=cluster_time(star) + 10.0)
    assert out["conn"].established


def cluster_time(star):
    return star.sim.now


def test_messages_queued_behind_dead_handshake_flow_after_recovery():
    """The regression that broke node rejoin: sends piling onto a wedged
    handshake must drain once the peer is back."""
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    listener = server.tcp.listen(6000)
    server.host.fail()
    received = []

    def server_proc(sim):
        while True:
            msg = yield listener.get()
            received.append(msg.payload)

    star.sim.process(server_proc(star.sim))
    for i in range(3):
        client.tcp.send_message(server.ip, 6000, f"m{i}", 10)
    star.sim.call_in(2.0, server.host.recover)
    star.sim.run(until=30.0)
    assert sorted(received) == ["m0", "m1", "m2"]


def _syn_times(sim, host):
    """The time of every SYN ``host`` sends from here on."""
    times = []
    send = host.send

    def logged(packet):
        if packet.payload.get("kind") == "syn":
            times.append(sim.now)
        send(packet)

    host.send = logged
    return times


def test_established_handshake_leaves_no_live_record():
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    server.tcp.listen(6000)
    out = []
    client.tcp.connect(server.ip, 6000, out.append)
    star.sim.run(until=0.1)
    assert out[0].established
    assert star.sim.pending_events == 0  # the SYN timer is disarmed, not left to fire


@pytest.mark.parametrize("peer_up, reset_at, sent", [(False, 1.0, [0.0, 0.5]), (True, 0.2, [0.0])])
def test_reset_peer_stops_its_handshake(peer_up, reset_at, sent):
    """No SYN after the reset: not from a handshake still in flight, nor
    from one answered before its first retransmit was due."""
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    server.tcp.listen(6000)
    if not peer_up:
        server.host.fail()
    syns = _syn_times(star.sim, client.host)
    out = []
    client.tcp.connect(server.ip, 6000, out.append)
    star.sim.call_in(reset_at, client.tcp.reset_peer, server.ip)
    star.sim.run(until=40.0)
    assert syns == sent
    assert len(out) == peer_up and star.sim.pending_events == 0


def test_abandoned_handshake_leaves_a_newer_one_alone():
    """The handshake a reset abandoned must not take the waiters of the
    one a later connect starts toward the same peer."""
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    server.tcp.listen(6000)
    server.host.fail()
    first, second = [], []
    client.tcp.connect(server.ip, 6000, first.append)
    star.sim.call_in(1.0, client.tcp.reset_peer, server.ip)
    star.sim.call_in(
        10.0, client.tcp.connect, server.ip, 6000, lambda conn: second.append((star.sim.now, conn)))
    star.sim.call_in(36.0, server.host.recover)
    star.sim.run(until=45.0)
    assert first == []
    (at, conn), = second
    assert 37.0 < at < 37.01  # the second handshake's SYN at 37 s is answered
    assert client.tcp._client_conns[(server.ip, 6000)] is conn and conn.established
