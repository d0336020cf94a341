"""The local 2PC participant, without a cluster: a Simulator and a Disk.

Covers the sequence NICE and NOOB share (lock → +L → W → pending;
commit; abort), the outcomes that can race a prepare, duplicate
delivery, and what a crash clears.
"""

from repro.kv import (
    Disk,
    LockTable,
    ObjectStore,
    PreparedOp,
    PutStamp,
    TwoPhaseParticipant,
    WriteAheadLog,
)
from repro.sim import Event, Simulator


class Rig:
    def __init__(self):
        self.sim = Simulator()
        self.disk = Disk(self.sim)
        self.store = ObjectStore()
        self.wal = WriteAheadLog(self.disk)
        self.locks = LockTable()
        self.up = True
        self.participant = TwoPhaseParticipant(
            self.sim, self.disk, self.store, self.wal, self.locks, is_up=lambda: self.up
        )

    def op(self, n, key="k", value=None, partition=0, role="secondary"):
        return PreparedOp(
            ("c", n), key, 100, "10.20.0.1", 0.5, value=value or f"v{n}",
            partition=partition, role=role,
        )

    def prepare(self, op):
        """Admit and start preparing ``op``; returns an Event that
        succeeds with the prepare's status."""
        assert self.participant.admit(op)
        done = Event(self.sim)
        self.participant.prepare(op, done.succeed)
        return done

    def run(self):
        self.sim.run(until=self.sim.now + 1.0)


STAMP = PutStamp("10.0.0.1", 1.0, "10.20.0.1", 0.5)


def test_prepare_then_commit():
    rig = Rig()
    op = rig.op(1)
    proc = rig.prepare(op)
    assert rig.participant.in_flight(0) == {op.op_id}  # visible while mid-prepare
    rig.run()
    assert proc.value == "prepared"
    assert rig.participant.pending.get(op.op_id) is op
    assert rig.locks.holder("k") == op.op_id
    assert len(rig.wal) == 1 and op.data_seq > 0
    assert rig.store.get("k") is None  # nothing visible before the outcome

    assert rig.participant.commit(op.op_id, STAMP) is op
    obj = rig.store.get("k")
    assert obj.value == "v1" and obj.stamp == STAMP
    assert len(rig.wal) == 0 and len(rig.locks) == 0
    assert not rig.participant.pending
    assert op.op_id in rig.participant.committed
    assert rig.participant.in_flight(0) == set()
    # Committing again finds nothing prepared and changes nothing.
    assert rig.participant.commit(op.op_id, STAMP) is None


def test_handoff_commits_into_the_handoff_namespace():
    rig = Rig()
    op = rig.op(1, role="handoff")
    rig.prepare(op)
    rig.run()
    rig.participant.commit(op.op_id, STAMP)
    assert rig.store.get("k") is None
    assert rig.store.get_handoff("k").value == "v1"


def test_abort_of_a_prepared_op_unlogs_and_unlocks():
    rig = Rig()
    op = rig.op(1)
    rig.prepare(op)
    rig.run()
    rig.participant.abort(op.op_id)
    assert rig.store.get("k") is None
    assert len(rig.wal) == 0 and len(rig.locks) == 0
    assert not rig.participant.pending


def test_abort_while_queued_on_the_lock():
    rig = Rig()
    first, second = rig.op(1), rig.op(2)
    rig.prepare(first)
    rig.run()
    queued = rig.prepare(second)
    rig.run()
    assert not queued.triggered and rig.locks.queued("k") == 1
    rig.participant.abort(second.op_id)  # the abort overtakes the prepare
    rig.participant.commit(first.op_id, STAMP)  # ... which now gets the lock
    rig.run()
    assert queued.value == "raced"
    assert len(rig.locks) == 0 and len(rig.wal) == 0
    assert rig.store.get("k").value == "v1"
    assert rig.participant.in_flight(0) == set()


def test_commit_arriving_before_the_prepare_finishes():
    rig = Rig()
    op = rig.op(1)
    proc = rig.prepare(op)
    assert rig.participant.commit(op.op_id, STAMP) is None  # nothing prepared yet
    rig.participant.commit_early(op.op_id, STAMP)
    rig.run()
    assert proc.value == "early_commit"
    assert rig.store.get("k").stamp == STAMP
    assert len(rig.wal) == 0 and len(rig.locks) == 0
    assert not rig.participant.pending


def test_abort_arriving_before_the_prepare_finishes():
    rig = Rig()
    op = rig.op(1)
    proc = rig.prepare(op)
    rig.sim.run(until=rig.sim.now + 1e-6)  # lock taken, log append in flight
    assert rig.locks.holder("k") == op.op_id
    rig.participant.abort(op.op_id)
    rig.run()
    assert proc.value == "aborted"
    assert rig.store.get("k") is None
    assert len(rig.wal) == 0 and len(rig.locks) == 0


def test_duplicate_delivery_is_not_admitted():
    rig = Rig()
    op = rig.op(1)
    rig.prepare(op)
    rig.run()
    assert not rig.participant.admit(rig.op(1))  # already prepared
    rig.participant.commit(op.op_id, STAMP)
    assert not rig.participant.admit(rig.op(1))  # already committed
    assert rig.participant.in_flight(0) == set()


def test_crash_clears_locks_and_pending_but_not_the_log():
    rig = Rig()
    op = rig.op(1, partition=3)
    rig.prepare(op)
    rig.run()
    rig.participant.crash()
    assert len(rig.locks) == 0
    assert not rig.participant.pending
    assert rig.participant.in_flight(3) == set()
    assert len(rig.wal) == 1  # the disk survives
    # ... and lock reconciliation still finds the op, from the log.
    assert [d["op_id"] for d in rig.participant.locked_ops(3)] == [op.op_id]
    rig.participant.commit_logged(rig.wal.get(op.op_id), STAMP, handoff=False)
    assert rig.store.get("k").value == "v1" and len(rig.wal) == 0


def test_participant_that_dies_mid_prepare_registers_nothing():
    rig = Rig()
    op = rig.op(1)
    proc = rig.prepare(op)
    rig.up = False
    rig.run()
    assert proc.value == "crashed"
    assert not rig.participant.pending
    assert rig.participant.in_flight(0) == set()


def test_locked_ops_lists_live_ops_before_logged_ones():
    rig = Rig()
    old, live, other = rig.op(1, key="a"), rig.op(2, key="b"), rig.op(3, key="c", partition=1)
    for op in (old, live, other):
        rig.prepare(op)
    rig.run()
    rig.participant.crash()  # all three survive only in the log ...
    rig.wal.remove(live.op_id)
    rig.prepare(live)  # ... and one is prepared again
    rig.run()
    assert [d["key"] for d in rig.participant.locked_ops(0)] == ["b", "a"]
    assert [d["key"] for d in rig.participant.locked_ops(1)] == ["c"]
