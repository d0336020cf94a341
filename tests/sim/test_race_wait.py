"""``Simulator.wait``, ``Race`` and ``Fold`` against the Event forms they
replace (DESIGN.md §5g).

A wait API takes only ``then=``; a generator yields ``sim.wait(fn,
*args)``, whose waiters run inside ``then``'s record — the slot the old
completion event's record took — so a process or an ``AnyOf`` resumes
where it did.  ``then=None`` schedules nothing once the wait is under way
and builds no Event: an unwaited send has no delivery record.  A
``Race`` settles a reply against a timer in the records an ``AnyOf`` over
the two did; a ``Fold`` counts replies up to a target.  The ``wait`` and
``Race`` cases compare the ``(now, delay, priority)`` slot of every record
both forms schedule.
"""

from collections import Counter

import pytest

from repro.kv import Disk
from repro.sim import NORMAL, URGENT, AnyOf, Event, Fold, Race, Simulator
from repro.transport import TcpLayer
from tests.helpers import Star, install_event_forms, record_slots, ref_connect, ref_send


def _events_built(monkeypatch):
    """Count the Events built from here on, by class."""
    counts = Counter()
    init = Event.__init__

    def counted(self, sim):
        counts[type(self).__name__] += 1
        init(self, sim)

    monkeypatch.setattr(Event, "__init__", counted)
    return counts


# -- sim.wait ------------------------------------------------------------------------
def _disk_writer(use_wait):
    """A process that waits on two disk writes, one forced; its resume
    times, the records scheduled and the event ids consumed."""
    sim = Simulator()
    slots = record_slots(sim)
    disk = Disk(sim)
    log = []

    def writer():
        for forced in (False, True):
            if use_wait:
                yield sim.wait(disk.write, 3000, forced=forced)
            else:
                yield disk.write(3000, forced=forced)  # the Event form
            log.append((forced, sim.now))

    sim.process(writer())
    sim.run()
    return log, slots, sim._eid


def test_a_process_resumes_from_wait_in_the_old_events_slot(monkeypatch):
    new = _disk_writer(use_wait=True)
    install_event_forms(monkeypatch)
    assert new == _disk_writer(use_wait=False)
    assert [forced for forced, _ in new[0]] == [False, True]


def _bounded_send(use_wait, dark):
    """``TcpLayer.bounded_send``'s shape: a send raced by ``AnyOf``
    against a timeout, to a peer that answers or one that is dark."""
    star = Star()
    sim = star.sim
    slots = record_slots(sim)
    client, server = star.stacks[0], star.stacks[1]
    server.tcp.listen(6000)
    if dark:
        server.host.fail()
    log = []

    def sender():
        if use_wait:
            send = sim.wait(client.tcp.send_message, server.ip, 6000, "req", 100)
        else:
            send = client.tcp.send_message(server.ip, 6000, "req", 100)
        got = yield AnyOf(sim, [send, sim.timeout(0.01)])
        log.append((sim.now, send in got, got[send].local_port if send in got else None))

    sim.process(sender())
    sim.run(until=1.0)
    return log, slots, sim._eid


@pytest.mark.parametrize("dark", [False, True])
def test_an_anyof_over_a_wait_triggers_in_the_old_slot(monkeypatch, dark):
    new = _bounded_send(True, dark)
    install_event_forms(monkeypatch)
    assert new == _bounded_send(False, dark)
    assert new[0][0][1] is not dark


def _synchronous(use_wait):
    """A ``then`` called before the yield: the wait is processed already,
    and the process resumes in the same record, as on a processed Event."""
    sim = Simulator()
    slots = record_slots(sim)
    log = []

    def answer_now(value, then):
        then(value)

    def proc():
        if use_wait:
            done = sim.wait(answer_now, 7)
        else:
            done = Event(sim)
            done._complete(7)  # nobody waits yet: processed on the spot
        assert done.processed
        log.append(((yield done), sim.now, len(slots)))

    sim.process(proc())
    sim.run()
    return log, slots, sim._eid


def test_a_then_before_the_yield_resumes_synchronously():
    new = _synchronous(use_wait=True)
    assert new == _synchronous(use_wait=False)
    assert new[0] == [(7, 0.0, 1)]  # only the process's start record


def _unwaited(monkeypatch=None):
    """A write and a TCP send nobody waits for: their records, and (given
    ``monkeypatch``) the Events the two calls and their runs build; and
    when the send's data segment reached the server."""
    star = Star()
    sim = star.sim
    slots = record_slots(sim)
    disk = Disk(sim)
    client, server = star.stacks[0], star.stacks[1]
    server.tcp.listen(6000)
    arrived = []
    on_data = server.tcp._on_data
    server.tcp._on_data = lambda packet: (arrived.append(sim.now), on_data(packet))
    built = None if monkeypatch is None else _events_built(monkeypatch)
    disk.write(500, forced=True)
    client.tcp.send_message(server.ip, 6000, "ff", 100)
    sim.run()
    if monkeypatch is not None:
        monkeypatch.undo()
    return (slots, sim._eid, disk.durable_seq), built, arrived


def _send_waiting_for_delivery(layer, dst_ip, dport, payload, payload_bytes, then=None):
    """The process form of ``send_message`` before a send nobody waits on
    stopped waiting for its delivery: it always does."""

    def run():
        conn = yield ref_connect(layer, dst_ip, dport)
        yield ref_send(conn, payload, payload_bytes)
        return conn

    layer.stack.sim.process(run())


def test_then_none_schedules_no_completion_and_builds_no_event(monkeypatch):
    new, built, arrived = _unwaited(monkeypatch)
    assert built == Counter()  # no Event at all: not the send's, not the handshake's
    install_event_forms(monkeypatch)
    assert new == _unwaited()[0]
    assert new[2] == 1
    # Against the process that waited for the delivery: its slots less
    # exactly one, the delivery record at the data segment's arrival.
    monkeypatch.setattr(TcpLayer, "send_message", _send_waiting_for_delivery)
    (old_slots, old_eid, old_durable), _, old_arrived = _unwaited()
    new_slots, new_eid, new_durable = new
    assert arrived == old_arrived and len(arrived) == 1
    assert (old_eid - 1, old_durable) == (new_eid, new_durable)
    dropped = [old_slots[i] for i in range(len(old_slots))
               if old_slots[:i] + old_slots[i + 1:] == new_slots]
    assert set(dropped) == {(arrived[0], 0.0, NORMAL)}


# -- Race ----------------------------------------------------------------------------
class _Attempt(Race):
    __slots__ = ("settled", "reply", "timer", "log")

    def __init__(self, sim, delay):
        self.log = []
        self._race(sim, delay)

    def _settled(self, reply):
        self.log.append((self.timer.sim.now, reply))


def _race(reply_at, use_race):
    """A reply at ``reply_at`` raced against a 1 s timer, as a ``Race``
    started where a process would start, or as that process over an
    ``AnyOf``; the reply is a record of its own either way."""
    sim = Simulator()
    slots = record_slots(sim)
    log = []
    if use_race:
        race = None

        def start():
            nonlocal race
            race = _Attempt(sim, 1.0)
            race.log = log

        sim._schedule_call(0.0, start, priority=URGENT)
        deliver = lambda: sim._schedule_call(0.0, race._won, "r1")
    else:
        reply = Event(sim)

        def proc():
            got = yield AnyOf(sim, [reply, sim.timeout(1.0)])
            log.append((sim.now, got.get(reply)))

        sim.process(proc())
        deliver = lambda: reply.succeed("r1")
    sim.call_at(reply_at, deliver)
    sim.run()
    return log, sim.pending_events, sim._eid, slots


def test_a_reply_that_wins_cancels_the_timer_and_joins_once():
    sim = Simulator()
    race = _Attempt(sim, 1.0)
    slots = record_slots(sim)
    sim.call_at(0.25, race._won, "r1")
    sim.run(until=0.25)
    assert slots == [(0.0, 0.25, NORMAL), (0.25, 0.0, NORMAL)]  # the reply, one join
    assert race.timer._callbacks is None and sim.pending_events == 0
    sim.run()
    assert race.log == [(0.25, "r1")] and sim.now == 0.25
    race._won("again")  # after the join: ignored
    assert sim.pending_events == 0 and race.log == [(0.25, "r1")]


@pytest.mark.parametrize("reply_at", [0.25, 2.0])
def test_a_race_schedules_the_records_of_an_anyof(reply_at):
    assert _race(reply_at, True) == _race(reply_at, False)


def test_a_timer_that_wins_ignores_the_late_reply():
    log, pending, _, _ = _race(2.0, True)
    assert log == [(1.0, None)] and pending == 0


# -- Fold ----------------------------------------------------------------------------
def test_a_fold_joins_once_at_its_target_and_marks_a_failed_reply():
    sim = Simulator()
    slots = record_slots(sim)
    joined = []
    fold = Fold(sim, 2, lambda: joined.append(sim.now))
    fold.add(None)
    assert not slots
    fold.add("ok")
    fold.add("late")
    sim.run()
    assert joined == [0.0] and fold.failed
    assert slots == [(0.0, 0.0, NORMAL)]


def test_a_fold_with_nothing_to_count_joins_at_once():
    sim = Simulator()
    joined = []
    fold = Fold(sim, 0, lambda: joined.append("now"))
    fold.add()
    sim.run()
    assert joined == ["now"] and not fold.failed
