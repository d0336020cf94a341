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
    assert (server.ip, 6000) not in client.tcp._connecting
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
