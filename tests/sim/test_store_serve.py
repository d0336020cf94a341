"""``Store.serve`` against the process it replaces (Hypothesis).

The reference is the mailbox loop ``while True: handler((yield
store.get()))`` run as a process.  ``serve`` promises the same records in
the same slots (DESIGN.md §5g), so on any program of puts — timed ones,
a burst that lands before the start record pops, items queued before
``serve`` is even called, puts made from inside the handler and from a
zero-delay call it schedules — the handler must see the same items at the
same times, interleaved identically with unrelated same-time calls, and
the run must schedule the same records: same count, times and priorities.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimulationError, Simulator, Store
from tests.helpers import record_slots

_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.5])


@st.composite
def programs(draw):
    return dict(
        before=draw(st.lists(st.integers(0, 99), max_size=3)),
        burst=draw(st.lists(st.integers(0, 99), max_size=4)),
        timed=draw(st.lists(st.tuples(_TIMES, st.integers(0, 99)), max_size=12)),
        noise=draw(st.lists(_TIMES, max_size=4)),
        echo=draw(st.integers(2, 5)),
    )


def _run(program, served):
    """The handler's ``(now, item)`` log (with same-time noise calls
    interleaved) and the slots of every record one program scheduled."""
    sim = Simulator()
    slots = record_slots(sim)
    store = Store(sim)
    log = []

    def handler(item):
        log.append((sim.now, item))
        if item < 100 and item % program["echo"] == 0:
            store.put(item + 100)  # from inside the handler
        elif item < 100 and item % program["echo"] == 1:
            sim.call_in(0.0, store.put, item + 200)  # from a call it schedules

    for item in program["before"]:
        store.put(item)
    if served:
        store.serve(handler)
    else:
        def loop():
            while True:
                handler((yield store.get()))

        sim.process(loop())
    for item in program["burst"]:
        store.put(item)  # before the start record pops
    for when, item in program["timed"]:
        sim.call_at(when, store.put, item)
    for when in program["noise"]:
        sim.call_at(when, log.append, ("noise", when))
    sim.run()
    return log, slots


@settings(max_examples=300, deadline=None)
@given(programs())
def test_serve_schedules_what_the_mailbox_loop_did(program):
    assert _run(program, served=True) == _run(program, served=False)


def test_serve_twice_raises():
    store = Store(Simulator())
    store.serve(lambda item: None)
    with pytest.raises(SimulationError):
        store.serve(lambda item: None)


def test_serve_on_a_store_with_getters_raises():
    store = Store(Simulator())
    store.get()
    with pytest.raises(SimulationError):
        store.serve(lambda item: None)


def test_get_on_a_served_store_raises():
    store = Store(Simulator())
    store.serve(lambda item: None)
    with pytest.raises(SimulationError):
        store.get()
