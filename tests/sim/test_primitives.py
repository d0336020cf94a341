"""Unit tests for Store and Resource."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((sim.now, item))

    store.put("x")
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [(0.0, "x")]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((sim.now, item))

    sim.process(consumer(sim, store))
    sim.call_in(3.0, store.put, "late")
    sim.run()
    assert got == [(3.0, "late")]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        while True:
            item = yield store.get()
            got.append(item)
            if item == "stop":
                return

    for item in ["a", "b", "c", "stop"]:
        store.put(item)
    sim.process(consumer(sim, store))
    sim.run()
    assert got == ["a", "b", "c", "stop"]


def test_store_filter_selective_receive():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get(lambda i: i % 2 == 0)
        got.append(item)

    sim.process(consumer(sim, store))
    store.put(1)
    store.put(3)
    store.put(4)
    sim.run()
    assert got == [4]
    assert list(store.items) == [1, 3]


def test_store_waiter_filter_matching_on_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store, want):
        item = yield store.get(lambda i: i == want)
        got.append(item)

    sim.process(consumer(sim, store, "b"))
    sim.process(consumer(sim, store, "a"))
    sim.call_in(1.0, store.put, "a")
    sim.call_in(2.0, store.put, "b")
    sim.run()
    assert got == ["a", "b"]


def test_store_cancel_get():
    sim = Simulator()
    store = Store(sim)
    ev = store.get()
    store.cancel(ev)
    store.put("x")
    sim.run()
    assert not ev.triggered
    assert list(store.items) == ["x"]


def test_store_clear():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert store.clear() == 2
    assert len(store) == 0


def test_resource_mutual_exclusion():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    trace = []

    def worker(tag, hold):
        def granted():
            trace.append((sim.now, tag, "acquired"))
            sim.call_in(hold, done)

        def done():
            res.release()
            trace.append((sim.now, tag, "released"))

        res.request_then(granted)

    worker("a", 2.0)
    worker("b", 1.0)
    sim.run()
    assert trace == [
        (0.0, "a", "acquired"),
        (2.0, "a", "released"),
        (2.0, "b", "acquired"),
        (3.0, "b", "released"),
    ]


def test_resource_capacity_two():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    acquired_at = []

    def granted():
        acquired_at.append(sim.now)
        sim.call_in(5.0, res.release)

    for _ in range(3):
        res.request_then(granted)
    sim.run()
    assert acquired_at == [0.0, 0.0, 5.0]


def test_resource_grant_is_a_record_of_its_own():
    """A grant is a call record of its own: nothing runs inside
    ``request_then`` or ``release``, and a release with nothing granted
    is a misuse, not a silent no-op."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted = []
    res.request_then(lambda: granted.append("first"))
    res.request_then(lambda: granted.append("second"))
    assert granted == [] and sim.pending_events == 1
    sim.run()
    assert granted == ["first"] and res.queued == 1
    res.release()
    assert granted == ["first"] and res.queued == 0 and sim.pending_events == 1
    sim.run()
    assert granted == ["first", "second"]
    res.release()
    with pytest.raises(SimulationError):
        res.release()


def test_resource_counters():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request_then(lambda: None)
    res.request_then(lambda: None)
    assert res.in_use == 1
    assert res.queued == 1
    res.release()
    assert res.in_use == 1  # the queued request promoted
    assert res.queued == 0
    res.release()
    assert res.in_use == 0


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)
