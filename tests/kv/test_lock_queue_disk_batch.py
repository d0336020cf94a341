"""Tests for FIFO lock queues and disk group-commit flushing."""

import pytest

from repro.kv import Disk, LockTable
from repro.sim import Simulator


# ------------------------------------------------------------ FIFO locks ----


def test_request_grants_immediately_when_free():
    sim = Simulator()
    lt = LockTable()
    granted = []
    lt.request_then(sim, "k", ("op", 1), lambda: granted.append(sim.now))
    assert lt.holder("k") == ("op", 1)
    sim.run()
    assert granted == [0.0]


def test_request_queues_fifo():
    sim = Simulator()
    lt = LockTable()
    order = []

    def worker(op, hold):
        def granted():
            order.append((sim.now, op))
            sim.call_in(hold, lt.release, "k", op)

        lt.request_then(sim, "k", op, granted)

    worker(("op", 1), 1.0)
    worker(("op", 2), 1.0)
    worker(("op", 3), 1.0)
    sim.run()
    assert [op for _, op in order] == [("op", 1), ("op", 2), ("op", 3)]
    assert [t for t, _ in order] == pytest.approx([0.0, 1.0, 2.0])
    assert not lt.is_locked("k")


def test_request_reentrant_same_op():
    sim = Simulator()
    lt = LockTable()
    granted = []
    lt.request_then(sim, "k", ("op", 1), lambda: granted.append(1))
    lt.request_then(sim, "k", ("op", 1), lambda: granted.append(2))
    assert lt.queued("k") == 0
    sim.run()
    assert granted == [1, 2]


def test_force_release_grants_next():
    sim = Simulator()
    lt = LockTable()
    granted = []
    lt.request_then(sim, "k", ("op", 1), lambda: None)
    lt.request_then(sim, "k", ("op", 2), lambda: granted.append(sim.now))
    lt.force_release("k")
    assert lt.holder("k") == ("op", 2)
    sim.run()
    assert granted == [0.0]


def test_clear_drops_queues():
    sim = Simulator()
    lt = LockTable()
    lt.request_then(sim, "k", ("op", 1), lambda: None)
    lt.request_then(sim, "k", ("op", 2), lambda: None)
    assert lt.queued("k") == 1
    lt.clear()
    assert lt.queued("k") == 0
    assert not lt.is_locked("k")


def test_queue_grant_order_is_arrival_order_not_poll_order():
    """The property that prevents cross-replica deadlock: grants follow
    request order exactly."""
    sim = Simulator()
    lt = LockTable()
    grants = []
    lt.request_then(sim, "k", ("h", 0), lambda: sim.call_in(5.0, lt.release, "k", ("h", 0)))

    def waiter(i):
        def granted():
            grants.append(i)
            lt.release("k", ("w", i))

        lt.request_then(sim, "k", ("w", i), granted)

    # Requests arrive in order 2, 0, 1.
    sim.call_in(1.0, waiter, 2)
    sim.call_in(2.0, waiter, 0)
    sim.call_in(3.0, waiter, 1)
    sim.run()
    assert grants == [2, 0, 1]


# --------------------------------------------------------- group commit ----


def test_single_forced_write_pays_full_flush():
    sim = Simulator()
    disk = Disk(sim, base_latency_s=0.0, flush_latency_s=0.010)
    done = []

    def w(sim):
        yield sim.wait(disk.write, 0, forced=True)
        done.append(sim.now)

    sim.process(w(sim))
    sim.run()
    assert done[0] >= 0.010
    assert disk.flushes.value == 1


def test_concurrent_forced_writes_share_flush_cycles():
    """100 concurrent forced writes need O(1) flushes, not 100."""
    sim = Simulator()
    disk = Disk(sim, base_latency_s=0.0, flush_latency_s=0.010)
    done = []

    def w(sim):
        yield sim.wait(disk.write, 0, forced=True)
        done.append(sim.now)

    for _ in range(100):
        sim.process(w(sim))
    sim.run()
    assert len(done) == 100
    assert disk.flushes.value <= 3
    assert max(done) <= 0.030  # a couple of cycles, not 1 s


def test_flush_covers_only_completed_transfers():
    sim = Simulator()
    disk = Disk(
        sim, write_bandwidth_bps=8e6, base_latency_s=0.0, flush_latency_s=0.010
    )
    done = {}

    def w(sim, tag, nbytes):
        yield sim.wait(disk.write, nbytes, forced=True)
        done[tag] = sim.now

    sim.process(w(sim, "big", 1_000_000))  # 1 s transfer
    sim.process(w(sim, "small", 1000))     # queued behind it
    sim.run()
    assert done["big"] >= 1.010
    assert done["small"] > done["big"]  # device FIFO then its own flush wait


def test_unforced_writes_never_flush():
    sim = Simulator()
    disk = Disk(sim)

    def w(sim):
        yield sim.wait(disk.write, 100, forced=False)

    sim.process(w(sim))
    sim.run()
    assert disk.flushes.value == 0
