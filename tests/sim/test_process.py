"""Unit tests for Process semantics: joining, interrupts, failures."""

import pytest

from repro.sim import Event, SimulationError, Simulator


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


def test_a_process_resumes_once_per_wait_and_leaves_no_stray_record():
    """Each yield wakes the process exactly once, at the event's time; a
    finished process leaves nothing on the heap."""
    sim = Simulator()
    wakes = []

    def sleeper(sim):
        for delay in (1.0, 2.0, 0.5):
            yield sim.timeout(delay)
            wakes.append(sim.now)

    proc = sim.process(sleeper(sim))
    sim.run()
    assert wakes == [1.0, 3.0, 3.5]
    assert proc.processed and sim.pending_events == 0


def test_waiters_on_one_event_run_in_registration_order():
    """A process and plain callbacks sharing one event are served in the
    order they attached, each with the event's value."""
    sim = Simulator()
    ev = sim.event()
    order = []

    def waiter(sim, tag):
        value = yield ev
        order.append((tag, value, sim.now))

    ev.add_callback(lambda e: order.append(("cb0", e.value, sim.now)))
    sim.process(waiter(sim, "p1"))
    sim.run(until=0.5)  # p1 attaches at t=0, after cb0
    ev.add_callback(lambda e: order.append(("cb2", e.value, sim.now)))
    sim.process(waiter(sim, "p3"))
    sim.call_in(1.0, ev.succeed, "v")
    sim.run()
    assert order == [("cb0", "v", 1.5), ("p1", "v", 1.5), ("cb2", "v", 1.5), ("p3", "v", 1.5)]


def test_caught_failure_lets_the_process_wait_again():
    """A failure thrown into a process is an ordinary exception: caught,
    the process goes on waiting and returns normally."""
    sim = Simulator()
    ev = sim.event()

    def worker(sim):
        try:
            yield ev
        except KeyError:
            pass
        yield sim.timeout(2.0)
        return sim.now

    proc = sim.process(worker(sim))
    sim.call_in(1.0, ev.fail, KeyError("gone"))
    sim.run()
    assert proc.value == 3.0


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
