"""Unit tests for UDP sockets and the TCP message layer."""

import pytest

from repro.sim import AnyOf
from tests.helpers import Star, connected


# ---------------------------------------------------------------- UDP ----


def test_udp_send_receive():
    star = Star()
    a, b = star.stacks[0], star.stacks[1]
    inbox = b.udp_bind(4000)
    got = []

    def recv(sim):
        dgram = yield inbox.get()
        got.append(dgram)

    star.sim.process(recv(star.sim))
    a.udp_send(b.ip, 4000, {"hello": 1}, 100, sport=5)
    star.sim.run()
    assert len(got) == 1
    d = got[0]
    assert d.src_ip == a.ip and d.sport == 5
    assert d.dport == 4000
    assert d.payload == {"hello": 1}
    assert d.payload_bytes == 100
    assert d.virtual_dst is None


def test_udp_unbound_port_drops():
    star = Star()
    a, b = star.stacks[0], star.stacks[1]
    a.udp_send(b.ip, 9999, "x", 10)
    star.sim.run()  # no error, nothing delivered


def test_udp_double_bind_rejected():
    star = Star()
    star.stacks[0].udp_bind(4000)
    with pytest.raises(ValueError):
        star.stacks[0].udp_bind(4000)


def test_udp_unbind_then_rebind():
    star = Star()
    s = star.stacks[0]
    s.udp_bind(4000)
    s.udp_unbind(4000)
    s.udp_bind(4000)


def test_ephemeral_ports_unique():
    star = Star()
    s = star.stacks[0]
    assert s.ephemeral_port() != s.ephemeral_port()


# ---------------------------------------------------------------- TCP ----


def test_tcp_message_roundtrip():
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    listener = server.tcp.listen(6000)
    log = []

    def server_proc(sim):
        msg = yield listener.get()
        log.append(("server", sim.now, msg.payload))
        yield sim.wait(msg.conn.send, {"reply": True}, 50)

    def client_proc(sim):
        conn = yield sim.wait(client.tcp.send_message, server.ip, 6000, {"req": 1}, 200)
        reply = yield conn.inbox.get()
        log.append(("client", sim.now, reply.payload))

    star.sim.process(server_proc(star.sim))
    star.sim.process(client_proc(star.sim))
    star.sim.run()
    assert [e[0] for e in log] == ["server", "client"]
    assert log[0][2] == {"req": 1}
    assert log[1][2] == {"reply": True}


def test_tcp_handshake_happens_once_per_peer():
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    listener = server.tcp.listen(6000)

    def server_proc(sim):
        while True:
            msg = yield listener.get()
            yield sim.wait(msg.conn.send, "ok", 10)

    def client_proc(sim):
        for _ in range(3):
            conn = yield sim.wait(client.tcp.send_message, server.ip, 6000, "req", 10)
            yield conn.inbox.get()

    star.sim.process(server_proc(star.sim))
    star.sim.process(client_proc(star.sim))
    star.sim.run(until=10.0)
    assert client.tcp.handshakes == 1


def test_tcp_handshake_costs_latency():
    """First message pays ~1.5 RTT handshake; cached sends don't."""
    star = Star(latency_s=1e-3)
    client, server = star.stacks[0], star.stacks[1]
    listener = server.tcp.listen(6000)
    times = []

    def server_proc(sim):
        while True:
            msg = yield listener.get()
            yield sim.wait(msg.conn.send, "ok", 0)

    def client_proc(sim):
        for _ in range(2):
            t0 = sim.now
            conn = yield sim.wait(client.tcp.send_message, server.ip, 6000, "req", 0)
            yield conn.inbox.get()
            times.append(sim.now - t0)

    star.sim.process(server_proc(star.sim))
    star.sim.process(client_proc(star.sim))
    star.sim.run(until=10.0)
    assert len(times) == 2
    # The handshake adds SYN + SYNACK = one host-to-host RTT (2 hops each
    # way at 1 ms/link = 4 ms); the cached second op skips it.
    assert times[0] > times[1]
    assert times[0] - times[1] == pytest.approx(4e-3, rel=0.1)


def test_tcp_concurrent_connects_share_handshake():
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    listener = server.tcp.listen(6000)
    conns = []

    def server_proc(sim):
        while True:
            msg = yield listener.get()

    def connector(sim):
        conn = yield connected(client, server.ip, 6000)
        conns.append(conn)

    star.sim.process(server_proc(star.sim))
    star.sim.process(connector(star.sim))
    star.sim.process(connector(star.sim))
    star.sim.run(until=5.0)
    assert len(conns) == 2
    assert conns[0] is conns[1]
    assert client.tcp.handshakes == 1


def test_tcp_connect_to_non_listener_never_completes():
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    outcome = []

    def connector(sim):
        got = yield AnyOf(sim, [connected(client, server.ip, 1234), sim.timeout(1.0)])
        outcome.append(len(got))

    star.sim.process(connector(star.sim))
    star.sim.run()
    assert outcome == [1]  # only the timeout fired


def test_tcp_send_to_down_host_times_out():
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    server.tcp.listen(6000)
    server.host.fail()
    outcome = []

    def client_proc(sim):
        send = sim.wait(client.tcp.send_message, server.ip, 6000, "req", 10)
        got = yield AnyOf(sim, [send, sim.timeout(2.0)])
        outcome.append(send in got)

    star.sim.process(client_proc(star.sim))
    star.sim.run(until=5.0)
    assert outcome == [False]


def test_tcp_reset_peer_forces_new_handshake():
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    listener = server.tcp.listen(6000)

    def server_proc(sim):
        while True:
            msg = yield listener.get()
            yield sim.wait(msg.conn.send, "ok", 0)

    def client_proc(sim):
        conn = yield sim.wait(client.tcp.send_message, server.ip, 6000, "a", 0)
        yield conn.inbox.get()
        assert client.tcp.reset_peer(server.ip) >= 1
        conn2 = yield sim.wait(client.tcp.send_message, server.ip, 6000, "b", 0)
        yield conn2.inbox.get()
        assert conn2 is not conn

    star.sim.process(server_proc(star.sim))
    p = star.sim.process(client_proc(star.sim))
    star.sim.run(until=10.0)
    assert p.ok
    assert client.tcp.handshakes == 2


def test_tcp_double_listen_rejected():
    star = Star()
    star.stacks[0].tcp.listen(6000)
    with pytest.raises(ValueError):
        star.stacks[0].tcp.listen(6000)


def test_tcp_large_transfer_occupies_link():
    """A 1 MB message over a 1 Gbps access link takes >= ~8 ms per hop."""
    star = Star(latency_s=0.0)
    client, server = star.stacks[0], star.stacks[1]
    listener = server.tcp.listen(6000)
    arrival = []

    def server_proc(sim):
        yield listener.get()
        arrival.append(sim.now)

    def client_proc(sim):
        yield sim.wait(client.tcp.send_message, server.ip, 6000, "blob", 1 << 20)

    star.sim.process(server_proc(star.sim))
    star.sim.process(client_proc(star.sim))
    star.sim.run(until=10.0)
    assert len(arrival) == 1
    # Two store-and-forward hops (client->switch, switch->server).
    assert arrival[0] >= 2 * (1 << 20) * 8 / 1e9


def test_tcp_interleaved_messages_one_connection():
    star = Star()
    client, server = star.stacks[0], star.stacks[1]
    listener = server.tcp.listen(6000)
    seen = []

    def server_proc(sim):
        while True:
            msg = yield listener.get()
            seen.append(msg.payload)

    def sender(sim, tag):
        yield sim.wait(client.tcp.send_message, server.ip, 6000, tag, 100)

    star.sim.process(server_proc(star.sim))
    for tag in ["m1", "m2", "m3"]:
        star.sim.process(sender(star.sim, tag))
    star.sim.run(until=5.0)
    assert sorted(seen) == ["m1", "m2", "m3"]
