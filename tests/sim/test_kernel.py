"""Unit tests for the event loop and event primitives."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    ConditionValue,
    Event,
    SimulationError,
    Simulator,
    StopSimulation,
    Timeout,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(1.5)
        seen.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_run_until_stops_clock_between_events():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.process(proc(sim))
    end = sim.run(until=3.0)
    assert end == 3.0
    assert sim.now == 3.0
    # remaining event still fires after resuming
    sim.run()
    assert sim.now == 10.0


def test_run_until_past_last_event_advances_to_until():
    sim = Simulator()
    sim.process(iter([]).__next__ and (x for x in []))  # no-op empty generator
    sim.run(until=5.0)
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def waiter(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(sim, 3.0, "c"))
    sim.process(waiter(sim, 1.0, "a"))
    sim.process(waiter(sim, 2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_creation_order():
    sim = Simulator()
    order = []

    def waiter(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        sim.process(waiter(sim, tag))
    sim.run()
    assert order == list("abcde")


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim, ev):
        value = yield ev
        got.append(value)

    sim.process(waiter(sim, ev))
    sim.call_in(2.0, ev.succeed, 42)
    sim.run()
    assert got == [42]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim, ev))
    sim.call_in(1.0, ev.fail, ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_aborts_simulation():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        sim.run()


def test_defused_failure_does_not_abort():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("handled elsewhere")).defuse()
    sim.run()  # must not raise


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(ValueError())


def test_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Timeout(sim, -1.0)


def test_callback_on_processed_event_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("late")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["late"]


def test_any_of_returns_first():
    sim = Simulator()
    results = []

    def proc(sim):
        t1 = sim.timeout(5.0, "slow")
        t2 = sim.timeout(1.0, "fast")
        got = yield AnyOf(sim, [t1, t2])
        results.append((sim.now, list(got.values())))

    sim.process(proc(sim))
    sim.run()
    assert results == [(1.0, ["fast"])]


def test_all_of_waits_for_all():
    sim = Simulator()
    results = []

    def proc(sim):
        t1 = sim.timeout(5.0, "slow")
        t2 = sim.timeout(1.0, "fast")
        got = yield AllOf(sim, [t1, t2])
        results.append((sim.now, sorted(got.values())))

    sim.process(proc(sim))
    sim.run()
    assert results == [(5.0, ["fast", "slow"])]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    done = []

    def proc(sim):
        got = yield AllOf(sim, [])
        done.append((sim.now, got))

    sim.process(proc(sim))
    sim.run()
    assert done == [(0.0, {})]


def test_condition_propagates_failure():
    sim = Simulator()
    caught = []

    def proc(sim):
        ev = sim.event()
        sim.call_in(1.0, ev.fail, KeyError("k"))
        try:
            yield AllOf(sim, [ev, sim.timeout(10.0)])
        except KeyError:
            caught.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert caught == [1.0]


def test_call_at_and_call_in():
    sim = Simulator()
    marks = []
    sim.call_at(4.0, marks.append, "at4")
    sim.call_in(2.0, marks.append, "in2")
    sim.run()
    assert marks == ["in2", "at4"]


def test_call_at_past_rejected():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5.0)
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    p = sim.process(proc(sim))
    sim.run()
    assert p.ok


def test_stop_simulation_from_process():
    sim = Simulator()
    seen = []

    def stopper(sim):
        yield sim.timeout(2.0)
        seen.append("stop")
        raise StopSimulation()

    def later(sim):
        yield sim.timeout(5.0)
        seen.append("late")

    sim.process(stopper(sim))
    sim.process(later(sim))
    sim.run()  # StopSimulation halts the run cleanly
    assert seen == ["stop"]
    assert sim.now == 2.0


def test_simulator_stop_via_event_callback():
    sim = Simulator()
    seen = []
    sim.call_in(2.0, seen.append, "a")

    def stop(_):
        raise StopSimulation()

    ev = sim.event()
    ev.add_callback(stop)
    sim.call_in(3.0, ev.succeed)
    sim.call_in(4.0, seen.append, "b")
    sim.run()
    assert seen == ["a"]
    assert sim.now == 3.0


def test_step_processes_one_event():
    sim = Simulator()
    marks = []
    sim.call_in(1.0, marks.append, 1)
    sim.call_in(2.0, marks.append, 2)
    assert sim.step()
    assert marks == [1]
    assert sim.step()
    assert marks == [1, 2]
    assert not sim.step()


def test_pending_events_counts_heap():
    sim = Simulator()
    assert sim.pending_events == 0
    sim.timeout(1.0)
    sim.timeout(2.0)
    assert sim.pending_events == 2


def test_pending_events_counts_zero_delay_records_too():
    sim = Simulator()
    sim.timeout(0.0)
    loser = sim.timeout(0.0)
    sim.event().succeed()
    sim.timeout(1.0)
    assert sim.pending_events == 4
    sim.cancel_timer(loser)  # dies in the ready queue
    assert sim.pending_events == 3
    heap = sim.pool_stats()["heap"]
    assert heap == {"size": 1, "ready": 3, "live": 3, "dead": 1, "compactions": 0}
    sim.run()
    assert sim.pending_events == 0
    assert sim.pool_stats()["heap"]["dead"] == 0


def test_tombstones_are_compacted_not_waited_for():
    """Armed-then-cancelled timers must not pile up until their fire time."""
    sim = Simulator()
    keeper = sim.timeout(50.0)
    heap_id = id(sim._heap)
    for _ in range(10 * Simulator.COMPACT_FLOOR):
        sim.cancel_timer(sim.timeout(100.0))
        heap = sim.pool_stats()["heap"]
        assert heap["size"] <= 2 * heap["live"] + Simulator.COMPACT_FLOOR
    assert sim.pool_stats()["heap"]["compactions"] >= 9
    assert id(sim._heap) == heap_id  # rebuilt in place: a running loop holds it
    assert sim.pending_events == 1
    assert sim.run() == 50.0 and keeper.processed


# ------------------------------------------------------- until in the past
def test_run_until_a_past_time_is_rejected_not_a_rewind():
    sim = Simulator()
    fired = []
    sim.call_in(5.0, fired.append, "at5")
    sim.run(until=6.0)
    with pytest.raises(SimulationError):
        sim.run(until=2.0)
    with pytest.raises(SimulationError):
        sim.run_until(sim.event(), until=2.0)
    assert sim.now == 6.0  # the clock did not rewind behind the event at 5.0
    sim.call_in(0.5, fired.append, "at6.5")
    assert sim.run() == 6.5
    assert fired == ["at5", "at6.5"]


def test_run_until_now_drains_the_current_instant():
    sim = Simulator()
    fired = []
    sim.run(until=3.0)
    sim.call_in(0.0, fired.append, "now")
    sim.call_in(1.0, fired.append, "later")
    assert sim.run(until=3.0) == 3.0
    assert fired == ["now"]
    assert sim.run_until(sim.event(), until=3.0) == 3.0  # equal is legal here too


# ---------------------------------------------------------------- run_until
def test_run_until_stops_exactly_at_event():
    sim = Simulator()
    late = []
    sim.call_in(5.0, late.append, "later")
    target = sim.timeout(2.0, "hit")
    end = sim.run_until(target)
    assert end == 2.0
    assert sim.now == 2.0
    assert target.processed
    assert late == []  # the 5.0s event did not run
    assert sim.pending_events == 1


def test_run_until_does_not_drain_unrelated_same_time_events():
    sim = Simulator()
    seen = []
    target = sim.timeout(1.0)
    sim.call_in(1.0, seen.append, "same-time-after")  # scheduled after target
    sim.run_until(target)
    assert target.processed
    assert seen == []


def test_run_until_already_processed_returns_immediately():
    sim = Simulator()
    target = sim.timeout(1.0)
    sim.run()
    assert target.processed
    sim.call_in(9.0, lambda: None)
    assert sim.run_until(target) == 1.0
    assert sim.pending_events == 1  # nothing was processed


def test_run_until_respects_until_cap():
    sim = Simulator()
    target = sim.timeout(10.0)
    end = sim.run_until(target, until=3.0)
    assert end == 3.0
    assert not target.processed
    sim.run_until(target)
    assert target.processed
    assert sim.now == 10.0


def test_run_until_drained_heap_stops():
    sim = Simulator()
    target = sim.event()  # never triggered
    sim.call_in(1.0, lambda: None)
    end = sim.run_until(target)
    assert end == 1.0
    assert not target.triggered
    assert sim.pending_events == 0


def test_run_until_rejects_foreign_event():
    sim, other = Simulator(), Simulator()
    with pytest.raises(SimulationError):
        sim.run_until(other.event())


def test_run_until_process_value_available():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return "done"

    p = sim.process(proc(sim))
    sim.run_until(p)
    assert p.processed
    assert p.value == "done"


# --------------------------------------------------- small-condition values
def test_small_condition_value_is_mapping_compatible():
    sim = Simulator()
    results = []

    def proc(sim):
        t1 = sim.timeout(1.0, "fast")
        t2 = sim.timeout(5.0, "slow")
        got = yield AnyOf(sim, [t1, t2])
        results.append((got, t1, t2))

    sim.process(proc(sim))
    sim.run()
    got, t1, t2 = results[0]
    assert isinstance(got, ConditionValue)
    assert t1 in got and t2 not in got
    assert got[t1] == "fast"
    assert got.get(t2) is None
    assert list(got.values()) == ["fast"]
    assert len(got) == 1
    assert got == {t1: "fast"}  # dict equality both ways
    assert {t1: "fast"} == got
    with pytest.raises(KeyError):
        got[t2]


def test_small_condition_membership_snapshot_at_trigger():
    """Same-time events processed *after* the condition triggered must not
    leak into its value (the eager-dict semantics the fast path replaces)."""
    sim = Simulator()
    results = []

    def proc(sim):
        t1 = sim.timeout(1.0, "a")
        t2 = sim.timeout(1.0, "b")  # same timestamp, scheduled after t1
        got = yield AnyOf(sim, [t1, t2])
        results.append((got, t1, t2))

    sim.process(proc(sim))
    sim.run()
    got, t1, t2 = results[0]
    assert t1 in got
    assert t2 not in got  # t2 processed after the condition triggered


def test_large_condition_returns_the_same_mapping_type():
    sim = Simulator()
    results = []

    def proc(sim):
        ts = [sim.timeout(float(i + 1), i) for i in range(4)]
        got = yield AllOf(sim, ts)
        results.append(got)

    sim.process(proc(sim))
    sim.run()
    assert isinstance(results[0], ConditionValue)
    assert sorted(results[0].values()) == [0, 1, 2, 3]


# ------------------------------------------------------------- call pooling
def test_pooled_calls_recycle_without_crosstalk():
    sim = Simulator()
    seen = []
    # Chains of calls scheduling more calls exercise reuse of pooled slots.

    def chain(depth):
        seen.append(depth)
        if depth < 5:
            sim.call_in(0.5, chain, depth + 1)

    sim.call_in(0.0, chain, 0)
    sim.call_in(0.25, seen.append, "x")
    sim.run()
    assert seen == [0, "x", 1, 2, 3, 4, 5]


def test_call_args_do_not_leak_between_pool_reuses():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.call_in(float(i), seen.append, i)
    sim.run()
    for i in range(10, 20):
        sim.call_in(float(i), seen.append, i)
    sim.run()
    assert seen == list(range(20))


# ------------------------------- records call their target directly (§5g)
def test_pool_stats_count_every_record_and_every_call(monkeypatch):
    """``benchmarks/e2e`` reads ``entry_pool`` / ``call_pool`` ``hits``,
    ``misses`` and ``reuse_rate``; ``entry_pool`` hits + misses is its
    events-per-op numerator.  Both are counted here on a real put leg by
    wrapping the two record builders."""
    from repro.bench.harness import build_nice, run_to_completion
    from repro.workloads import closed_loop_puts

    counted = {"event": 0, "call": 0}
    schedule_event, schedule_call = Simulator._schedule_event, Simulator._schedule_call

    def counting_event(sim, *args, **kw):
        counted["event"] += 1
        schedule_event(sim, *args, **kw)

    def counting_call(sim, *args, **kw):
        counted["call"] += 1
        schedule_call(sim, *args, **kw)

    monkeypatch.setattr(Simulator, "_schedule_event", counting_event)
    monkeypatch.setattr(Simulator, "_schedule_call", counting_call)
    cluster = build_nice(n_storage_nodes=6, n_clients=1)
    client = cluster.clients[0]
    run_to_completion(cluster, closed_loop_puts(client, cluster.sim, 20, 1024, keys=["k"]))

    stats = cluster.sim.pool_stats()
    entry, call = stats["entry_pool"], stats["call_pool"]
    for pool in (entry, call):
        assert {"hits", "misses", "reuse_rate"} <= set(pool)
        assert pool["reuse_rate"] == pool["hits"] / (pool["hits"] + pool["misses"])
    assert entry["hits"] + entry["misses"] == counted["event"] + counted["call"]
    assert entry["hits"] + entry["misses"] == cluster.sim._eid
    assert call["hits"] + call["misses"] == counted["call"] > 0
    assert counted["event"] > 0 and 0.9 < call["reuse_rate"] < 1.0
    # A recycled record holds no reference to what it last ran.
    assert all(e[3] is None and e[4] is None for e in cluster.sim._entry_pool)


def test_late_callback_on_a_processed_event_is_an_urgent_call_record():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    sim.run()
    calls = sim.pool_stats()["call_pool"]
    seen = []
    sim.call_in(0.0, seen.append, "normal")
    ev.add_callback(lambda e: seen.append(("late", e.value, sim.now)))
    sim.run()
    # Scheduled second, but urgent: it runs first, at the current time.
    assert seen == [("late", "v", 0.0), "normal"]
    after = sim.pool_stats()["call_pool"]
    assert after["hits"] + after["misses"] == calls["hits"] + calls["misses"] + 2


def test_a_process_waiting_on_a_tombstoned_timer_revives_it():
    """``_resume`` registers itself directly only on an event with no
    callbacks that is not a cancelled timer; a cancelled one goes through
    ``add_callback`` and fires at its original time — or now, if that has
    passed."""
    sim = Simulator()
    early, late = sim.timeout(1.0, "early"), sim.timeout(5.0, "late")
    assert sim.cancel_timer(early) and sim.cancel_timer(late)
    woke = []

    def waiter(sim):
        woke.append(((yield late), sim.now))
        yield sim.timeout(1.0)  # now 6.0: early's fire time has passed
        woke.append(((yield early), sim.now))

    sim.process(waiter(sim))
    sim.run()
    assert woke == [("late", 5.0), ("early", 6.0)]


def test_unhandled_failure_aborts_the_run_and_defused_does_not():
    sim = Simulator()
    sim.event().fail(ValueError("nobody waits"))
    sim.event().fail(KeyError("defused")).defuse()
    with pytest.raises(ValueError, match="nobody waits"):
        sim.run()
    sim.run()  # the defused failure is processed quietly


def test_stop_simulation_raised_by_a_call_record():
    sim = Simulator()
    seen = []

    def stop():
        seen.append("stop")
        raise StopSimulation()

    sim.call_in(1.0, stop)
    sim.call_in(2.0, seen.append, "later")
    assert sim.run() == 1.0
    assert seen == ["stop"] and sim.pending_events == 1
    sim.run()  # the loop is reusable and resumes with the next record
    assert seen == ["stop", "later"] and sim.now == 2.0
