"""Property tests: the kernel's pop order vs a naive reference model.

The kernel keeps events in three places — a binary heap of pooled records,
and one FIFO per priority for zero-delay records — cancels by tombstoning
in O(1) and compacts the tombstones away once they outnumber the live
records (DESIGN.md §5g).  None of that may be visible: events must fire in
``(time, priority, eid)`` order, exactly as a sorted list pruned on cancel
predicts.
"""

from bisect import insort

from hypothesis import given, settings, strategies as st

from repro.sim import NORMAL, URGENT, Simulator, StopSimulation

#: Every example starts here: large enough that ``now + 1e-12 == now``, so a
#: non-zero delay can land a *heap* record on the current instant, and exact
#: for the integer delays.
T0 = float(2**20)

_DELAY = st.one_of(st.sampled_from([0.0, 1e-12]), st.integers(1, 6).map(float))
_INDEX = st.integers(0, 10_000)
_LEAF = st.one_of(
    st.tuples(st.just("cancel"), _INDEX),
    st.tuples(st.just("waiter"), _INDEX),
    # n protocol timeouts armed and beaten on the spot, as every put does.
    st.tuples(st.just("burst"), st.integers(1, 100), _DELAY),
    st.just(("stop",)),
)


def _actions(children):
    script = st.lists(children, max_size=4)
    return st.one_of(
        _LEAF,
        st.tuples(st.just("timeout"), _DELAY, script),
        st.tuples(st.just("call"), _DELAY, script),
        st.tuples(st.just("succeed"), st.sampled_from([URGENT, NORMAL]), script),
    )


#: What the top level or a firing callback can do.  The three scheduling
#: actions carry the script their own firing runs — more work at that instant.
_ACTION = st.recursive(_LEAF, _actions, max_leaves=12)
_DRIVE = st.one_of(
    st.tuples(st.just("run"), st.sampled_from([0.0, 1.0, 2.0, 4.0])),
    st.tuples(st.just("run_until"), _INDEX, st.sampled_from([None, 0.0, 2.0, 5.0])),
    st.just(("step",)),
)
_PROGRAM = st.lists(st.one_of(_ACTION, _DRIVE), min_size=1, max_size=40)


def _noop(event):
    pass


class _Harness:
    """Runs one program against a Simulator and the naive model side by side.

    The model is ``queue``: a sorted list of ``(time, priority, eid, label)``
    pruned on cancel.  Every firing must be its head.
    """

    def __init__(self, floor: int):
        self.sim = Simulator()
        self.sim.COMPACT_FLOOR = self.floor = floor
        self.sim.run(until=T0)
        self.queue = []
        self.eid = 0
        self.fired = []
        self.stopped = False
        #: ``until`` of the call being driven: nothing may fire beyond it.
        self.deadline = None
        #: Cancellable events: [event, label, "pending" | fire time | "fired"].
        self.handles = []

    # ---- the model
    def expect(self, delay, priority, label):
        self.eid += 1
        insort(self.queue, (self.sim.now + delay, priority, self.eid, label))

    def fire(self, label, script, handle=None):
        when, _, _, expected = self.queue.pop(0)
        assert (self.sim.now, label) == (when, expected)
        assert self.deadline is None or when <= self.deadline
        self.fired.append(label)
        if handle is not None:
            handle[2] = "fired"
        for action in script:
            self.do(action)

    # ---- one action, applied to both
    def do(self, action):
        sim, kind = self.sim, action[0]
        label = len(self.fired) + self.eid  # unique: eid grows with every schedule
        if kind == "timeout":
            handle = [sim.timeout(action[1], label), label, "pending"]
            handle[0].add_callback(lambda ev: self.fire(label, action[2], handle))
            self.handles.append(handle)
            self.expect(action[1], NORMAL, label)
        elif kind == "call":
            sim.call_in(action[1], self.fire, label, action[2])
            self.expect(action[1], NORMAL, label)
        elif kind == "succeed":
            handle = [sim.event(), label, "pending"]
            handle[0].add_callback(lambda ev: self.fire(label, action[2], handle))
            handle[0].succeed(label, action[1])
            self.handles.append(handle)
            self.expect(0.0, action[1], label)
        elif kind == "burst":
            for _ in range(action[1]):
                assert sim.cancel_timer(sim.timeout(action[2]))
                self.eid += 1
                self.check_heap_bound()
        elif kind == "stop":
            self.stopped = True
            raise StopSimulation()
        elif self.handles:
            handle = self.handles[action[1] % len(self.handles)]
            event, label, state = handle
            if kind == "cancel":
                # Before firing: a real cancellation (possibly of a record
                # sitting in a ready queue).  After: a no-op.
                assert sim.cancel_timer(event) == (state == "pending")
                if state == "pending":
                    (record,) = [r for r in self.queue if r[3] == label]
                    self.queue.remove(record)
                    handle[2] = record[0]
                    self.check_heap_bound()
            elif state == "fired":  # late waiter: an urgent delivery right now
                late = ("late", label, self.eid)
                event.add_callback(lambda ev: self.fire(late, ()))
                self.expect(0.0, URGENT, late)
            else:
                event.add_callback(_noop)
                if state != "pending":  # revival, at the original time or now
                    self.expect(max(state - sim.now, 0.0), NORMAL, label)
                    handle[2] = "pending"

    def drive(self, op):
        sim = self.sim
        self.stopped, self.deadline = False, None
        n_fired, live = len(self.fired), len(self.queue)
        if op[0] == "run":
            self.deadline = until = sim.now + op[1]
            assert sim.run(until=until) == sim.now
            if not self.stopped:
                assert sim.now == until
                assert not self.queue or self.queue[0][0] > until
        elif op[0] == "step":
            assert sim.step() == (live > 0)
            assert len(self.fired) == n_fired + (live > 0)
        elif self.handles:
            event, label, state = self.handles[op[1] % len(self.handles)]
            self.deadline = until = None if op[2] is None else sim.now + op[2]
            sim.run_until(event, until=until)
            if state == "fired":
                assert len(self.fired) == n_fired  # nothing to wait for
            elif event.processed:
                assert self.fired[-1] == label  # stopped exactly there
            elif not self.stopped:
                assert not self.queue or (until is not None and self.queue[0][0] > until)

    # ---- invariants
    def check_heap_bound(self):
        # Holds whenever a cancel lands; between cancels live records only leave.
        heap = self.sim.pool_stats()["heap"]
        assert heap["size"] <= 2 * heap["live"] + self.floor

    def check(self):
        sim = self.sim
        assert sim.pending_events == len(self.queue)
        assert sim._cancelled >= 0
        entry_pool = sim.pool_stats()["entry_pool"]
        assert entry_pool["hits"] + entry_pool["misses"] == sim._eid == self.eid

    def run(self, program):
        for op in program:
            if op[0] in ("run", "run_until", "step"):
                self.drive(op)
            elif op[0] != "stop":  # stop() only means something inside a run
                self.do(op)
            self.check()
        self.deadline = None
        while self.queue:  # a scripted stop() may end any of these early
            self.sim.run()
            self.check()
        self.sim.run()
        heap = self.sim.pool_stats()["heap"]
        assert (heap["size"], heap["ready"], heap["dead"]) == (0, 0, 0)


@given(program=_PROGRAM, floor=st.sampled_from([2, Simulator.COMPACT_FLOOR]))
@settings(max_examples=300, deadline=None)
def test_cancellation_matches_reference_heap(program, floor):
    """Timers, calls and triggered events — delays zero, vanishing and
    integer, both priorities — cancelled before and after firing (in the heap
    or in a ready queue), revived by late waiters, scheduling more work from
    their callbacks, under any interleaving of run / run_until / step / stop.

    Shown to catch these mutants of ``sim/kernel.py`` (each patched into a
    scratch copy and run from an empty example database): the ready head
    popped without looking at the heap top; ``_compact`` rebinding
    ``self._heap`` instead of mutating it; ``_compact`` sweeping only the heap
    while still zeroing ``_cancelled``; ``_compact`` without the ``heapify``;
    ``pending_events`` forgetting the ready queues; a surfacing tombstone not
    taken off ``_cancelled``; ``NORMAL`` ready records popped before
    ``URGENT`` ones; the ``until`` check dropped from the pop loop.
    """
    _Harness(floor).run(program)


def test_compaction_fires_repeatedly_at_the_real_floor():
    """400 timers at the shipped floor: several compactions, same order."""
    harness = _Harness(Simulator.COMPACT_FLOOR)
    program = []
    for i in range(400):
        program.append(("timeout", float(1 + i % 5), [("cancel", i)] if i % 7 == 0 else []))
        if i % 10:
            program.append(("cancel", i))
        if i % 50 == 49:
            program.append(("run", 1.0))
    harness.run(program)
    assert harness.sim.pool_stats()["heap"]["compactions"] >= 3
    assert len(harness.fired) == 40


_TIMERS = st.lists(st.integers(1, 40), min_size=1, max_size=200)


@given(timers=_TIMERS)
@settings(max_examples=40, deadline=None)
def test_double_cancel_is_idempotent(timers):
    sim = Simulator()
    events = [sim.timeout(float(delay), seq) for seq, delay in enumerate(timers)]
    for ev in events:
        assert sim.cancel_timer(ev)
        assert not sim.cancel_timer(ev)  # second cancel must be a no-op
    assert sim.pending_events == 0
    sim.run()
    assert sim.now == 0.0  # nothing fired, clock never moved


def test_cancelled_timer_revives_on_new_waiter():
    """A cancelled timer a process later yields on still fires (at its
    original time, or immediately if that time already passed)."""
    sim = Simulator()
    t_future = sim.timeout(5.0, "future")
    t_past = sim.timeout(1.0, "past")
    sim.cancel_timer(t_future)
    sim.cancel_timer(t_past)
    sim.run()  # drains to empty; clock stays at 0 (both cancelled)
    assert sim.now == 0.0

    sim.call_in(2.0, lambda: None)
    sim.run()  # move the clock past t_past's original fire time
    assert sim.now == 2.0

    fired = []
    t_future.add_callback(lambda e: fired.append((sim.now, e.value)))
    t_past.add_callback(lambda e: fired.append((sim.now, e.value)))
    sim.run()
    # t_past's time already passed: fires "now"; t_future at its own time.
    assert fired == [(2.0, "past"), (5.0, "future")]
