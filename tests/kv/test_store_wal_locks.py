"""Unit tests for the object store, WAL, locks, disk and timestamps."""

import pytest

from repro.kv import (
    Disk,
    LockTable,
    LogRecord,
    ObjectStore,
    PutStamp,
    StoredObject,
    WriteAheadLog,
)
from repro.sim import Simulator


def stamp(pts, cts=1.0, primary="10.0.0.2", client="10.0.1.1"):
    return PutStamp(primary, pts, client, cts)


def obj(name="k", value="v", size=100, s=None):
    return StoredObject(name, value, size, s)


# ------------------------------------------------------------- store ----


def test_store_put_get():
    st = ObjectStore()
    st.put(obj(s=stamp(1.0)))
    assert st.get("k").value == "v"
    assert "k" in st
    assert len(st) == 1


def test_store_newer_version_wins():
    st = ObjectStore()
    st.put(obj(value="old", s=stamp(1.0)))
    st.put(obj(value="new", s=stamp(2.0)))
    assert st.get("k").value == "new"


def test_store_stale_version_ignored():
    st = ObjectStore()
    st.put(obj(value="new", s=stamp(2.0)))
    st.put(obj(value="old", s=stamp(1.0)))
    assert st.get("k").value == "new"


def test_store_unstamped_object_does_not_replace_stamped():
    st = ObjectStore()
    st.put(obj(value="committed", s=stamp(1.0)))
    st.put(obj(value="raw", s=None))
    assert st.get("k").value == "committed"


def test_store_handoff_namespace_is_separate():
    st = ObjectStore()
    st.put_handoff(obj(name="h1", s=stamp(1.0)))
    assert st.get("h1") is None
    assert st.get_handoff("h1").name == "h1"
    assert st.handoff_count() == 1
    assert [o.name for o in st.handoff_objects()] == ["h1"]
    st.clear_handoff()
    assert st.handoff_count() == 0


def test_store_total_bytes_and_drop():
    st = ObjectStore()
    st.put(obj(name="a", size=10, s=stamp(1.0)))
    st.put(obj(name="b", size=20, s=stamp(1.0)))
    assert st.total_bytes() == 30
    st.drop("a")
    assert st.names() == ["b"]


# ------------------------------------------------------------- stamps ----


def test_stamp_ordering_by_primary_ts():
    assert stamp(1.0) < stamp(2.0)
    assert stamp(2.0) > stamp(1.0)
    assert stamp(1.0) <= stamp(1.0)
    assert stamp(1.0) >= stamp(1.0)


def test_stamp_orders_same_ts_by_addresses():
    a = PutStamp("10.0.0.2", 1.0, "c1", 5.0)
    b = PutStamp("10.0.0.3", 1.0, "c1", 5.0)
    assert a < b


def test_stamp_retry_detection():
    first = PutStamp("p1", 1.0, "c1", 5.0)
    retry = PutStamp("p2", 2.0, "c1", 5.0)
    other = PutStamp("p1", 1.0, "c1", 6.0)
    assert first.same_client_attempt(retry)
    assert not first.same_client_attempt(other)


# --------------------------------------------------------------- WAL ----


def test_wal_append_is_forced_write():
    sim = Simulator()
    disk = Disk(sim)
    wal = WriteAheadLog(disk)
    done = []

    def writer(sim):
        yield sim.wait(wal.append, LogRecord(("c", 1), "k", 100, "c", 1.0))
        done.append(sim.now)

    sim.process(writer(sim))
    sim.run()
    assert len(wal) == 1
    assert disk.flushes.value == 1
    assert done[0] >= disk.flush_latency_s


def test_wal_commit_and_remove():
    sim = Simulator()
    wal = WriteAheadLog(Disk(sim))
    rec = LogRecord(("c", 1), "k", 100, "c", 1.0)

    def writer(sim):
        yield sim.wait(wal.append, rec)

    sim.process(writer(sim))
    sim.run()
    assert wal.pending() == [rec]
    wal.mark_committed(("c", 1), stamp(1.0))
    assert wal.pending() == []
    assert wal.get(("c", 1)).committed
    wal.remove(("c", 1))
    assert len(wal) == 0
    assert wal.removed == 1


def test_wal_replay_returns_all_records():
    sim = Simulator()
    wal = WriteAheadLog(Disk(sim))

    def writer(sim):
        yield sim.wait(wal.append, LogRecord(("c", 1), "a", 1, "c", 1.0))
        yield sim.wait(wal.append, LogRecord(("c", 2), "b", 1, "c", 2.0))

    sim.process(writer(sim))
    sim.run()
    assert [r.key for r in wal.replay()] == ["a", "b"]


def test_wal_remove_missing_is_noop():
    sim = Simulator()
    wal = WriteAheadLog(Disk(sim))
    wal.remove(("ghost", 0))
    assert wal.removed == 0


# -------------------------------------------------------------- locks ----


def test_lock_acquire_release():
    lt = LockTable()
    assert lt.acquire("k", ("c", 1))
    assert lt.is_locked("k")
    assert lt.holder("k") == ("c", 1)
    assert lt.release("k", ("c", 1))
    assert not lt.is_locked("k")


def test_lock_conflict():
    lt = LockTable()
    assert lt.acquire("k", ("c", 1))
    assert not lt.acquire("k", ("c", 2))
    assert not lt.release("k", ("c", 2))
    assert lt.is_locked("k")


def test_lock_reentrant_same_op():
    lt = LockTable()
    assert lt.acquire("k", ("c", 1))
    assert lt.acquire("k", ("c", 1))  # retried multicast


def test_lock_enumeration_and_clear():
    lt = LockTable()
    lt.acquire("a", ("c", 1))
    lt.acquire("b", ("c", 2))
    assert sorted(lt.locked_keys()) == ["a", "b"]
    assert len(lt) == 2
    lt.force_release("a")
    assert lt.locked_keys() == ["b"]
    lt.clear()
    assert len(lt) == 0


# --------------------------------------------------------------- disk ----


def test_disk_serializes_io():
    sim = Simulator()
    disk = Disk(sim, write_bandwidth_bps=8e6, base_latency_s=0.0, flush_latency_s=0.0)
    finish = []

    def writer(sim, nbytes):
        yield sim.wait(disk.write, nbytes)
        finish.append(sim.now)

    sim.process(writer(sim, 1_000_000))  # 1 s at 1 MB/s
    sim.process(writer(sim, 1_000_000))
    sim.run()
    assert finish == pytest.approx([1.0, 2.0])
    assert disk.bytes_written.value == 2_000_000
    assert disk.writes.value == 2


def test_disk_read_write_counters_and_validation():
    sim = Simulator()
    disk = Disk(sim)

    def io(sim):
        yield sim.wait(disk.write, 100, forced=True)
        yield sim.wait(disk.read, 50)

    sim.process(io(sim))
    sim.run()
    assert disk.bytes_written.value == 100
    assert disk.bytes_read.value == 50
    assert disk.flushes.value == 1
    with pytest.raises(ValueError):
        disk.write(-1)
    with pytest.raises(ValueError):
        disk.read(-1)
    with pytest.raises(ValueError):
        Disk(sim, write_bandwidth_bps=0)
