"""Unit tests for Process semantics: joining, interrupts, failures."""

import pytest

from repro.sim import Event, Interrupt, SimulationError, Simulator


def test_process_return_value_via_join():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(1.0)
        return "payload"

    def parent(sim):
        value = yield sim.process(child(sim))
        results.append((sim.now, value))

    sim.process(parent(sim))
    sim.run()
    assert results == [(1.0, "payload")]


def test_join_finished_process():
    sim = Simulator()
    results = []

    def child(sim):
        return "done"
        yield  # pragma: no cover

    def parent(sim, proc):
        yield sim.timeout(5.0)
        value = yield proc
        results.append(value)

    proc = sim.process(child(sim))
    sim.process(parent(sim, proc))
    sim.run()
    assert results == ["done"]


def test_process_exception_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["child died"]


def test_unjoined_process_exception_aborts_run():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("unhandled")

    sim.process(child(sim))
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_interrupt_wakes_waiting_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            log.append("slept full")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
            yield sim.timeout(1.0)
            log.append(("resumed", sim.now))

    proc = sim.process(sleeper(sim))
    sim.call_in(2.0, proc.interrupt, "failure detected")
    sim.run()
    assert log == [("interrupted", 2.0, "failure detected"), ("resumed", 3.0)]


def test_interrupt_does_not_leave_stale_wakeup():
    """After an interrupt, the original timeout firing must not resume the
    process a second time."""
    sim = Simulator()
    wakeups = []

    def sleeper(sim):
        try:
            yield sim.timeout(5.0)
        except Interrupt:
            pass
        wakeups.append(sim.now)
        yield sim.timeout(100.0)

    proc = sim.process(sleeper(sim))
    sim.call_in(1.0, proc.interrupt)
    sim.run(until=50.0)
    assert wakeups == [1.0]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_yielding_non_event_raises_into_process():
    sim = Simulator()
    caught = []

    def bad(sim):
        try:
            yield 42
        except SimulationError as exc:
            caught.append("caught")

    sim.process(bad(sim))
    sim.run()
    assert caught == ["caught"]


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_is_alive_and_target():
    sim = Simulator()

    def sleeper(sim):
        yield sim.timeout(10.0)

    proc = sim.process(sleeper(sim))
    assert proc.is_alive
    sim.run(until=5.0)
    assert proc.is_alive
    assert proc.target is not None
    sim.run()
    assert not proc.is_alive


def test_two_processes_can_join_same_process():
    sim = Simulator()
    got = []

    def child(sim):
        yield sim.timeout(2.0)
        return "x"

    def parent(sim, proc, tag):
        value = yield proc
        got.append((tag, value))

    proc = sim.process(child(sim))
    sim.process(parent(sim, proc, "a"))
    sim.process(parent(sim, proc, "b"))
    sim.run()
    assert sorted(got) == [("a", "x"), ("b", "x")]


def test_immediate_chain_of_settled_events_runs_synchronously():
    sim = Simulator()
    trace = []

    def proc(sim):
        for i in range(3):
            ev = Event(sim)
            ev.succeed(i)
            sim.run_noop = None  # force no scheduling dependency
            value = yield sim.timeout(0.0, i)
            trace.append((sim.now, value))

    sim.process(proc(sim))
    sim.run()
    assert trace == [(0.0, 0), (0.0, 1), (0.0, 2)]


# ------------------------------------- completions nobody observes (§5g)
def test_unobserved_completion_takes_no_heap_record_and_serves_late_waiters():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(worker(sim))
    sim.run()
    assert sim._eid == 2  # the start call and the timeout; the return cost nothing
    assert proc.processed and proc.ok and proc.value == "done"

    got = []
    proc.add_callback(lambda ev: got.append(("callback", ev.value)))

    def joiner(sim):
        got.append(("join", (yield proc)))

    sim.process(joiner(sim))
    sim.run()
    assert sorted(got) == [("callback", "done"), ("join", "done")]


def test_observed_completion_still_goes_through_the_heap():
    sim = Simulator()
    order = []

    def worker(sim):
        yield sim.timeout(1.0)
        sim.call_in(0.0, order.append, "scheduled before the return")
        return "done"

    proc = sim.process(worker(sim))
    proc.add_callback(lambda ev: order.append(ev.value))
    sim.run()
    assert order == ["scheduled before the return", "done"]


def test_run_until_stops_when_an_unobserved_process_returns():
    sim = Simulator()
    fired = []

    def worker(sim):
        wake = sim.timeout(1.0)
        sim.call_in(1.0, fired.append, "same time, scheduled later")
        yield wake
        return 7

    proc = sim.process(worker(sim))
    assert sim.run_until(proc) == 1.0
    assert proc.value == 7 and fired == []
    sim.run()
    assert fired == ["same time, scheduled later"]
