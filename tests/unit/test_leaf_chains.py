"""Leaf chains vs the processes they replaced (DESIGN.md §5g).

``Disk.write``/``read`` with its group-commit flusher and
``TcpLayer.send_message`` run as callback chains that schedule the records
the generator processes below did: the URGENT start, the same grant,
timeout, flush-join and delivery events, and a completion record only
when someone waits.  The references are those processes, kept here the
way ``test_determinism.py`` keeps the one-heap kernel.  Each scenario runs
on both and must agree on every completion time, the disk's durability
state and flush-cycle clock, the number of event ids consumed and the
``(now, delay, priority)`` slot of every record scheduled.
"""

from repro.kv import Disk
from repro.sim import AnyOf, Event, Simulator
from repro.transport import TcpLayer
from tests.helpers import Star, record_slots


# -- the reference processes ---------------------------------------------------------
def _ref_io(disk, nbytes, forced, write, seq, epoch):
    req = disk._device.request()
    yield req
    try:
        bw = disk.write_bandwidth_bps if write else disk.read_bandwidth_bps
        service = disk.base_latency_s + nbytes * 8.0 / bw
        yield disk.sim.timeout(service)
        if write:
            disk.bytes_written.add(nbytes)
            disk.writes.add()
        else:
            disk.bytes_read.add(nbytes)
            disk.reads.add()
        nom_w, nom_r, nom_base = disk._nominal
        expected = nom_base + nbytes * 8.0 / (nom_w if write else nom_r)
        if expected > 0.0:
            disk._ratio_sum += service / expected
            disk._ratio_n += 1
        if write and epoch == disk._epoch:
            disk._completed_seq = seq
            disk._dirty.append((seq, nbytes))
            disk.dirty_bytes += nbytes
    finally:
        req.release()
    if forced:
        done = Event(disk.sim)
        disk._flush_waiters.append(done)
        if not disk._flusher_running:
            disk._flusher_running = True
            disk.sim.process(_ref_flusher(disk))
        yield done


def _ref_flusher(disk):
    while disk._flush_waiters:
        covered, disk._flush_waiters = disk._flush_waiters, []
        epoch, barrier = disk._epoch, disk._completed_seq
        disk.flush_cycles_started += 1
        yield disk.sim.timeout(disk.flush_latency_s)
        disk.flushes.add()
        if epoch == disk._epoch:
            disk._advance_barrier(barrier)
            disk.flush_cycles_done += 1
        for ev in covered:
            ev.succeed()
    disk._flusher_running = False


def _ref_write(disk, nbytes, forced=False):
    disk._issued_seq += 1
    return disk.sim.process(_ref_io(disk, nbytes, forced, True, disk._issued_seq, disk._epoch))


def _ref_read(disk, nbytes):
    return disk.sim.process(_ref_io(disk, nbytes, False, False, 0, disk._epoch))


def _ref_send_message(layer, dst_ip, dport, payload, payload_bytes):
    def _run():
        conn = yield layer.connect(dst_ip, dport)
        yield conn.send(payload, payload_bytes)
        return conn

    return layer.stack.sim.process(_run())


def _both(scenario, monkeypatch):
    """``scenario()`` on the chains, then on the reference processes."""
    chain = scenario()
    monkeypatch.setattr(Disk, "write", _ref_write)
    monkeypatch.setattr(Disk, "read", _ref_read)
    monkeypatch.setattr(TcpLayer, "send_message", _ref_send_message)
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
            ev = disk.write(size, forced=forced)
            seq = disk.issued_seq
            if i % 3 == 2:
                disk.write(size // 2)  # nobody waits on this one
                yield sim.timeout(gap)
                continue
            yield ev
            log.append((tag, i, seq, forced, sim.now, disk.is_durable(seq)))
            yield sim.timeout(gap)

    def reader():
        for i in range(6):
            yield disk.read(2000 * (i + 1))
            log.append(("r", i, sim.now))

    sim.process(writer("a", [4000, 100, 900, 20000, 50, 3000, 700], 2, 20e-6))
    sim.process(writer("b", [100] * 7, 1, 0.0))
    sim.process(writer("c", [60000, 10, 10, 10, 4000], 3, 150e-6))
    sim.process(reader())
    if crash_at is not None:
        sim.call_at(crash_at, lambda: log.append(("crash", disk.crash())))
    sim.run()
    return log, _disk_state(disk), slots


def test_contended_disk_chain_equals_processes(monkeypatch):
    chain, ref = _both(_contended_disk, monkeypatch)
    assert chain == ref
    log, state, _ = chain
    assert state[2] > 1 and any(entry[3] is False for entry in log if entry[0] != "r")


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
    done = wal.append(LogRecord(("c", 1), "k", 100, "c", 1.0))
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
        conn = yield client.tcp.send_message(dst, 6000, payload, size)
        log.append((tag, sim.now, conn.local_port))
        yield conn.inbox.get(lambda m: m.payload == ("re", payload))
        log.append((tag, "reply", sim.now))

    def abandoned():
        send = client.tcp.send_message(other.ip, 6000, "slow", 1 << 20)
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
