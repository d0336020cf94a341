"""Leaf chains vs the processes they replaced (DESIGN.md §5g).

``Disk.write``/``read`` with its group-commit flusher and
``TcpLayer.send_message`` run as callback chains that schedule the records
the generator processes did: the URGENT start, the grant, service timer,
flush join, connect and delivery — each a call record in the slot its
event took — and, only when someone waits, a call to ``then`` in the slot
the completion record took (a process waits through ``sim.wait``).  So
does a handshake's SYN retransmission, a timer chain.  The references are those processes and Events
(``tests.helpers.install_event_forms``), kept the way
``test_determinism.py`` keeps the one-heap kernel.  Each scenario runs on
both and must agree on every completion time, the disk's durability state
and flush-cycle clock, the number of event ids consumed and the
``(now, delay, priority)`` slot of every record scheduled.
"""

from repro.kv import Disk
from repro.sim import AnyOf, Event, Simulator
import repro.transport.tcp as tcp_module
from tests.helpers import Star, connected, install_event_forms, record_slots


def _both(scenario, monkeypatch):
    """``scenario()`` on the chains, then on the Event forms and reference
    processes they replaced (``tests.helpers.install_event_forms``)."""
    chain = scenario()
    install_event_forms(monkeypatch)
    return chain, scenario()


# -- disk ----------------------------------------------------------------------------
def _disk_state(disk):
    return (
        disk.durable_seq, disk.dirty_bytes, disk.flush_cycles_started,
        disk.flush_cycles_done, disk.flushes.value, disk.writes.value,
        disk.reads.value, disk._ratio_n, disk.sim._eid, disk.sim.now,
    )


def _contended_disk(crash_at=None):
    """Three writers and a reader share one device: forced and unforced
    writes interleave, some IO is waited on and some is fire-and-forget,
    and (``crash_at``) power fails in the middle of a flush cycle."""
    sim = Simulator()
    slots = record_slots(sim)
    disk = Disk(sim, flush_latency_s=300e-6)
    log = []

    def writer(tag, sizes, forced_every, gap):
        for i, size in enumerate(sizes):
            forced = i % forced_every == 0
            if i % 3 == 2:
                disk.write(size, forced=forced)  # nobody waits on these two
                disk.write(size // 2)
                yield sim.timeout(gap)
                continue
            ev = sim.wait(disk.write, size, forced=forced)
            seq = disk.issued_seq
            yield ev
            log.append((tag, i, seq, forced, sim.now, disk.is_durable(seq)))
            yield sim.timeout(gap)

    def reader():
        for i in range(6):
            yield sim.wait(disk.read, 2000 * (i + 1))
            log.append(("r", i, sim.now))

    sim.process(writer("a", [4000, 100, 900, 20000, 50, 3000, 700], 2, 20e-6))
    sim.process(writer("b", [100] * 7, 1, 0.0))
    sim.process(writer("c", [60000, 10, 10, 10, 4000], 3, 150e-6))
    sim.process(reader())
    # Transfers that end in a callback instead of an Event.
    for at, forced in ((50e-6, True), (400e-6, False)):
        sim.call_in(at, lambda forced=forced: disk.write(
            700, forced=forced, then=lambda: log.append(("then", forced, sim.now))))
    sim.call_in(60e-6, lambda: disk.read(900, then=lambda: log.append(("then-r", sim.now))))
    if crash_at is not None:
        sim.call_at(crash_at, lambda: log.append(("crash", disk.crash())))
    sim.run()
    return log, _disk_state(disk), slots


def test_contended_disk_chain_equals_processes(monkeypatch):
    chain, ref = _both(_contended_disk, monkeypatch)
    assert chain == ref
    log, state, _ = chain
    assert state[2] > 1 and any(entry[3] is False for entry in log if entry[0] in "abc")
    assert sorted(entry[1] for entry in log if entry[0] == "then") == [False, True]


def test_crash_mid_flush_chain_equals_processes(monkeypatch):
    # 900 µs in, the first flush cycles are in flight (each takes 300 µs).
    chain, ref = _both(lambda: _contended_disk(crash_at=900e-6), monkeypatch)
    assert chain == ref
    log, state, _ = chain
    assert any(entry[0] == "crash" for entry in log)
    assert state[2] > state[3], "every flush cycle survived the crash: no cycle was cut"


def test_wal_append_is_an_event_that_completes_once_flushed():
    from repro.kv import LogRecord, WriteAheadLog

    sim = Simulator()
    disk = Disk(sim)
    wal = WriteAheadLog(disk)
    done = sim.wait(wal.append, LogRecord(("c", 1), "k", 100, "c", 1.0))
    assert isinstance(done, Event) and not done.triggered
    sim.run()
    assert done.processed and disk.is_durable(disk.issued_seq)


# -- TCP -----------------------------------------------------------------------------
def _tcp_run():
    """Fresh, in-flight and cached handshakes, a send abandoned by
    ``AnyOf``, and fire-and-forget sends; returns what every sender saw."""
    star = Star()
    sim = star.sim
    slots = record_slots(sim)
    client, server, other = star.stacks[0], star.stacks[1], star.stacks[2]
    listener = server.tcp.listen(6000)
    other.tcp.listen(6000)
    log = []

    def server_proc():
        while True:
            msg = yield listener.get()
            log.append(("srv", sim.now, msg.payload))
            msg.conn.send(("re", msg.payload), 40)

    def sender(tag, dst, payload, size, delay):
        yield sim.timeout(delay)
        conn = yield sim.wait(client.tcp.send_message, dst, 6000, payload, size)
        log.append((tag, sim.now, conn.local_port))
        yield conn.inbox.get(lambda m: m.payload == ("re", payload))
        log.append((tag, "reply", sim.now))

    def abandoned():
        send = sim.wait(client.tcp.send_message, other.ip, 6000, "slow", 1 << 20)
        got = yield AnyOf(sim, [send, sim.timeout(10e-6)])
        log.append(("abandoned", sim.now, send in got))
        yield sim.timeout(0.05)
        log.append(("late", send.processed, send.value.local_port))

    sim.process(server_proc())
    sim.process(sender("fresh", server.ip, "m1", 500, 0.0))
    sim.process(sender("in-flight", server.ip, "m2", 20, 10e-6))
    sim.process(sender("cached", server.ip, "m3", 3000, 0.01))
    sim.process(abandoned())
    for i in range(3):
        sim.call_in(0.02 + i * 1e-6, client.tcp.send_message, server.ip, 6000, f"ff{i}", 100)
    sim.run(until=0.2)
    return log, client.tcp.handshakes, sim._eid, sim.pending_events, slots


def test_tcp_send_chain_equals_process(monkeypatch):
    chain, ref = _both(_tcp_run, monkeypatch)
    assert chain == ref
    log, handshakes = chain[:2]
    assert handshakes == 2  # one shared by fresh + in-flight + cached, one to `other`
    assert ("abandoned", 10e-6, False) in log
    assert [e for e in log if e[0] == "late"][0][1] is True


# -- SYN retransmission --------------------------------------------------------------
def _ref_syn_retry(layer, conn, key):
    tries = 1
    while not conn.established and tries < layer.SYN_MAX_TRIES:
        yield layer.stack.sim.timeout(layer.SYN_RETRY_S * min(tries, 4))
        if conn.established:
            return
        layer._send_ctrl(conn, "syn")
        tries += 1
    if not conn.established:
        layer._teardown(conn, key)


def _syn_run():
    """Handshakes to a peer that answers at once, to one dark until its
    fourth SYN, and to one that never answers (torn down after the last
    SYN, then connected afresh once it is back)."""
    star = Star(n_hosts=4)
    sim = star.sim
    slots = record_slots(sim)
    client = star.stacks[0]
    for stack in star.stacks[1:]:
        stack.tcp.listen(6000)
    late, dark = star.hosts[2], star.hosts[3]
    late.fail()
    dark.fail()
    sim.call_in(1.6, late.recover)
    sim.call_in(40.0, dark.recover)
    log = []

    def connect(tag, dst, delay):
        yield sim.timeout(delay)
        conn = yield connected(client, dst, 6000)
        log.append((tag, sim.now, conn.local_port))

    sim.process(connect("up", star.hosts[1].ip, 0.0))
    sim.process(connect("late", late.ip, 0.0))
    sim.process(connect("dark", dark.ip, 0.0))
    sim.process(connect("again", dark.ip, 41.0))
    sim.run(until=45.0)
    state = (sorted(map(str, client.tcp._client_conns)), sorted(map(str, client.tcp._connecting)))
    return log, state, client.tcp.handshakes, sim._eid, sim.pending_events, slots


def test_syn_retry_chain_equals_process(monkeypatch):
    chain = _syn_run()
    install_event_forms(monkeypatch)
    monkeypatch.setattr(
        tcp_module, "_SynRetry",
        lambda layer, conn, key: layer.stack.sim.process(_ref_syn_retry(layer, conn, key)))
    assert chain == _syn_run()
    log, state, handshakes = chain[:3]
    assert [entry[0] for entry in log] == ["up", "late", "again"]  # "dark" never connects
    assert 3.0 < log[1][1] < 3.1 and handshakes == 4  # SYNs at 0, 0.5, 1.5, 3 s
    assert len(state[0]) == 3 and state[1] == []
