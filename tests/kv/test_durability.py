"""Unit tests for the §5k crash-consistency layer: the disk's volatile
write cache and durability barrier, WAL journaling / torn-tail recovery,
and object-store checksums."""

import pytest

from repro.kv import (
    Disk,
    LogRecord,
    ObjectStore,
    PutStamp,
    StoredObject,
    WriteAheadLog,
    object_checksum,
)
from repro.check.mutants import MUTANTS
from repro.sim import Simulator


def stamp(pts, cts=1.0, primary="10.0.0.2", client="10.0.1.1"):
    return PutStamp(primary, pts, client, cts)


def run_io(sim, gen):
    sim.process(gen)
    sim.run()


def rec(n, key=None, committed=False):
    return LogRecord(
        ("c", n), key or f"k{n}", 100, "10.0.1.1", float(n), value=f"v{n}",
        committed=committed,
    )


# ------------------------------------------------------- disk barrier ----


def test_unforced_write_stays_volatile():
    sim = Simulator()
    disk = Disk(sim)

    def io():
        yield sim.wait(disk.write, 1000)

    run_io(sim, io())
    seq = disk.issued_seq
    assert disk.dirty_bytes == 1000
    assert not disk.is_durable(seq)
    assert disk.durable_seq == 0


def test_forced_write_advances_barrier_and_drains_dirty():
    sim = Simulator()
    disk = Disk(sim)

    def io():
        yield sim.wait(disk.write, 1000)          # unforced, but issued earlier
        yield sim.wait(disk.write, 100, forced=True)

    run_io(sim, io())
    # The flush covers everything whose transfer completed before the
    # cycle started — both writes.
    assert disk.durable_seq == disk.issued_seq == 2
    assert disk.dirty_bytes == 0
    assert disk.is_durable(1) and disk.is_durable(2)


def test_crash_discards_unflushed_keeps_durable():
    sim = Simulator()
    disk = Disk(sim)

    def io():
        yield sim.wait(disk.write, 100, forced=True)
        yield sim.wait(disk.write, 5000)  # volatile

    run_io(sim, io())
    assert disk.dirty_bytes == 5000
    barrier = disk.crash()
    assert barrier == 1
    assert disk.durable_seq == 1
    assert disk.dirty_bytes == 0
    assert not disk.is_durable(2)
    assert disk.power_losses.value == 1


def test_inflight_io_across_crash_does_not_advance_new_epoch():
    sim = Simulator()
    disk = Disk(sim)

    def writer():
        yield sim.wait(disk.write, 4000)

    sim.process(writer())
    # Crash while the transfer is still in flight: the IO completes on
    # its original timeline but must not dirty the post-crash epoch.
    sim.run(until=disk.base_latency_s / 2)
    disk.crash()
    sim.run()
    assert disk.dirty_bytes == 0
    assert disk.durable_seq == 0


def test_degraded_disk_scales_service_and_reports_ratio():
    sim = Simulator()
    disk = Disk(sim)
    disk.set_degraded(8.0)
    t0 = []

    def io():
        start = sim.now
        yield sim.wait(disk.write, 1000)
        t0.append(sim.now - start)

    run_io(sim, io())
    nominal = 60e-6 + 1000 * 8.0 / (400e6 * 8)
    assert t0[0] == pytest.approx(8.0 * nominal)
    assert disk.consume_service_ratio() == pytest.approx(8.0)
    assert disk.consume_service_ratio() is None  # window reset
    disk.set_degraded(1.0)

    def io2():
        yield sim.wait(disk.write, 1000)

    run_io(sim, io2())
    assert disk.consume_service_ratio() == pytest.approx(1.0)


# --------------------------------------------------------- WAL replay ----


def test_replay_preserves_append_order():
    sim = Simulator()
    wal = WriteAheadLog(Disk(sim))

    def io():
        for n in (1, 2, 3):
            yield sim.wait(wal.append, rec(n))

    run_io(sim, io())
    assert [r.op_id for r in wal.replay()] == [("c", 1), ("c", 2), ("c", 3)]


def test_replay_after_partial_removals():
    sim = Simulator()
    wal = WriteAheadLog(Disk(sim))

    def io():
        for n in (1, 2, 3, 4):
            yield sim.wait(wal.append, rec(n))

    run_io(sim, io())
    wal.mark_committed(("c", 2), stamp(2.0))
    wal.remove(("c", 2))
    wal.remove(("c", 4))
    assert [r.op_id for r in wal.replay()] == [("c", 1), ("c", 3)]
    assert [r.op_id for r in wal.pending()] == [("c", 1), ("c", 3)]
    assert wal.removed == 2


def test_mark_committed_then_remove_interplay():
    sim = Simulator()
    wal = WriteAheadLog(Disk(sim))

    def io():
        yield sim.wait(wal.append, rec(1))

    run_io(sim, io())
    wal.mark_committed(("c", 1), stamp(1.0))
    assert wal.get(("c", 1)).committed
    assert wal.pending() == []
    wal.remove(("c", 1))
    assert wal.get(("c", 1)) is None
    wal.mark_committed(("c", 1), stamp(1.0))  # after removal: no-op
    assert len(wal) == 0


# ----------------------------------------------------- WAL power loss ----


def test_power_loss_tears_unflushed_append():
    sim = Simulator()
    disk = Disk(sim)
    wal = WriteAheadLog(disk)

    def io():
        yield sim.wait(wal.append, rec(1))

    sim.process(io())
    # Crash after the transfer but before the flush covers it.
    sim.run(until=disk.base_latency_s * 2)
    assert wal.unflushed_appends() == 1
    disk.crash()
    torn = wal.power_loss()
    assert torn
    assert wal.torn_records == 1
    assert len(wal) == 0  # the torn frame must not replay


def test_power_loss_keeps_flushed_appends_and_commit_bit():
    sim = Simulator()
    disk = Disk(sim)
    wal = WriteAheadLog(disk)

    def io():
        yield sim.wait(wal.append, rec(1))
        yield sim.wait(wal.append, rec(2))

    run_io(sim, io())
    wal.mark_committed(("c", 1), stamp(1.0))
    disk.crash()
    assert not wal.power_loss()
    replayed = {r.op_id: r for r in wal.replay()}
    assert set(replayed) == {("c", 1), ("c", 2)}
    assert replayed[("c", 1)].committed
    assert replayed[("c", 1)].stamp == stamp(1.0)
    assert not replayed[("c", 2)].committed


def test_power_loss_resurrects_unflushed_removal():
    sim = Simulator()
    disk = Disk(sim)
    wal = WriteAheadLog(disk)

    def io():
        yield sim.wait(wal.append, rec(1))

    run_io(sim, io())
    # −L is not forced: no flush covers the removal before the crash.
    wal.remove(("c", 1))
    assert len(wal) == 0
    disk.crash()
    wal.power_loss()
    assert [r.op_id for r in wal.replay()] == [("c", 1)]
    assert wal.resurrected_records == 1


def test_power_loss_honors_durable_removal():
    sim = Simulator()
    disk = Disk(sim)
    wal = WriteAheadLog(disk)

    def io():
        yield sim.wait(wal.append, rec(1))

    run_io(sim, io())
    wal.remove(("c", 1))

    def later():
        yield sim.wait(disk.write, 10, forced=True)  # flush covers the removal

    run_io(sim, later())
    disk.crash()
    wal.power_loss()
    assert wal.replay() == []
    assert wal.resurrected_records == 0


def test_unforced_wal_loses_appends_on_power_loss():
    """The mutant table's ``wal_unflushed``: appends skip the flush."""
    sim = Simulator()
    disk = Disk(sim)
    wal = WriteAheadLog(disk)

    def io():
        for n in (1, 2, 3):
            yield sim.wait(wal.append, rec(n))

    with MUTANTS["wal_unflushed"].patch:
        run_io(sim, io())
    assert disk.flushes.value == 0  # acks never waited for a flush
    disk.crash()
    wal.power_loss()
    # Oldest append torn, the rest wholly gone: nothing replays.
    assert wal.replay() == []
    assert wal.torn_records == 1
    assert wal.lost_records == 2


# ------------------------------------------------------- store checks ----


def test_store_checksum_round_trip():
    st = ObjectStore()
    o = StoredObject("k", "v", 100, stamp(1.0))
    assert o.checksum == object_checksum("k", "v")
    st.put(o)
    assert st.verify(st.get("k"))


def test_store_corrupt_and_repair():
    st = ObjectStore()
    st.put(StoredObject("k", "v", 100, stamp(1.0)))
    assert st.corrupt("k")
    assert not st.verify(st.get("k"))
    assert st.corruptions == 1
    # Repair installs a verified copy even at the same stamp.
    st.repair(StoredObject("k", "v", 100, stamp(1.0)))
    assert st.verify(st.get("k"))
    assert st.get("k").value == "v"


def test_corrupt_missing_key_is_noop():
    st = ObjectStore()
    assert not st.corrupt("ghost")
    assert st.corruptions == 0
