"""Determinism regression: performance machinery must not change results.

Each fast path that exists purely for speed — the flow table's
destination index and exact-match memo, the two-event transmit chain,
completions that skip the heap, the vectorized multicast fan-out batching,
the kernel's ready queues and tombstone compaction — runs a small leg (a
fig5-style closed loop of puts, four clients contending on shared keys, or
a crash-and-rejoin chaos cell) twice with the same seed, once on the fast
path and once on an in-test reference (memo flipped off on every switch;
lookup replaced by the linear scan; the four-hop grant/serialize chain; a
heap record for every process return; the fan-out replaced by a per-leg
transmit loop; every record through one heap that is never compacted), and
asserts bit-identical result rows and final simulated time.  This is the
contract that lets each optimization ship at all: an index, a memo or a
shorter schedule, never a semantic change.
"""

from collections import deque

import numpy as np
import pytest

from repro.bench.harness import build_nice, run_to_completion
from repro.core import ClusterConfig, NiceCluster
from repro.net import Channel, FlowTable, OpenFlowSwitch
from repro.sim import URGENT
from repro.workloads import closed_loop_puts
from tests.helpers import linear_scan


def _switches(cluster):
    return [d for d in cluster.network.devices.values() if isinstance(d, OpenFlowSwitch)]


def _fig5_leg(n_ops=8, sizes=(4, 1 << 14), cache_enabled=True, n_racks=1, jitter_s=0.0):
    """A miniature fig5 put leg; returns (result rows, final sim time).

    ``cache_enabled=False`` is the memo-off leg: every switch's flow
    table classifies each packet anew from the first warm-up packet on.
    ``n_racks=3`` runs the same leg across a leaf-spine fabric.
    ``jitter_s`` adds delivery jitter drawn from ONE stream shared by
    every link, so any change in the order channels finish transmitting
    hands different delays to different receivers.
    """
    cluster = NiceCluster(
        ClusterConfig(n_storage_nodes=15, n_clients=1, n_racks=n_racks)
    )
    for switch in _switches(cluster):
        switch.table.cache_enabled = cache_enabled
    cluster.warm_up()
    if jitter_s:
        stream = np.random.default_rng(7)
        for link in cluster.network.links:
            link.set_delay_jitter(jitter_s, stream)
    client = cluster.clients[0]
    rows = []

    def driver(sim):
        for size in sizes:
            key = f"repl-{size}"
            seed = yield client.put(key, "x", size)
            assert seed.ok
            tally = yield closed_loop_puts(client, sim, n_ops, size, keys=[key])
            rows.append(
                {
                    "size_bytes": size,
                    "put_ms": tally.mean * 1e3,
                    "stdev_ms": tally.stdev * 1e3,
                    "count": tally.count,
                }
            )

    run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    tables = [switch.table for switch in _switches(cluster)]
    stats = {
        "cache_hits": sum(t.cache_hits for t in tables),
        "cache_misses": sum(t.cache_misses for t in tables),
        "cache_enabled": all(t.cache_enabled for t in tables),
        "events": cluster.sim._eid,
    }
    return rows, cluster.sim.now, stats


@pytest.mark.parametrize("n_racks", [1, 3])
def test_fig5_leg_identical_with_cache_on_and_off(n_racks):
    rows_on, now_on, stats_on = _fig5_leg(n_racks=n_racks)
    rows_off, now_off, stats_off = _fig5_leg(cache_enabled=False, n_racks=n_racks)

    # The runs really did take the two different paths.
    assert stats_on["cache_enabled"] and not stats_off["cache_enabled"]
    assert stats_on["cache_hits"] > 0
    assert stats_off["cache_hits"] == stats_off["cache_misses"] == 0

    # Bit-identical outcomes: every row field and the final clock.
    assert rows_on == rows_off
    assert now_on == now_off


@pytest.mark.parametrize("n_racks", [1, 3])
def test_fig5_leg_identical_with_index_and_linear_scan(monkeypatch, n_racks):
    """The destination index vs the scan it replaced: first match walking
    the rule list in table order, kept here as the reference."""
    rows_indexed, now_indexed, _ = _fig5_leg(n_racks=n_racks)
    scans = []

    def linear_lookup(table, packet, in_port=None):
        scans.append(1)
        return linear_scan(table, packet, in_port)

    monkeypatch.setattr(FlowTable, "lookup", linear_lookup)
    rows_scanned, now_scanned, _ = _fig5_leg(n_racks=n_racks)
    assert scans, "the reference leg never took the linear scan"
    assert rows_indexed == rows_scanned
    assert now_indexed == now_scanned


def test_same_seed_same_results_with_cache():
    """Two identical cache-enabled runs agree with themselves (sanity)."""
    a = _fig5_leg(n_ops=4, sizes=(1 << 10,))
    b = _fig5_leg(n_ops=4, sizes=(1 << 10,))
    assert a[0] == b[0]
    assert a[1] == b[1]


# -- multicast fan-out batching (DESIGN.md §5g) -------------------------------------


@pytest.mark.parametrize("jitter_s", [0.0, 20e-6])
@pytest.mark.parametrize("n_racks", [1, 3])
def test_fig5_leg_identical_with_and_without_tx_batching(monkeypatch, n_racks, jitter_s):
    """Vectorized group fan-out vs per-receiver transmit chains.

    The reference leg replaces the switch's ``transmit_fanout`` with a
    loop that schedules a full per-receiver grant/serialize/finish/deliver
    chain per multicast leg; the default shares one chain across the R
    legs.  Both paths must break same-timestamp ties the same way (the
    jitter-free legs) and draw per-receiver jitter in the same RNG order
    (the jittered legs), so every result bit must agree.
    """
    import repro.net.switch as switch_mod

    batched_calls = []
    real_fanout = switch_mod.transmit_fanout

    def counting_fanout(sim, legs):
        batched_calls.append(len(legs))
        real_fanout(sim, legs)

    monkeypatch.setattr(switch_mod, "transmit_fanout", counting_fanout)
    rows_batched, now_batched, _ = _fig5_leg(n_racks=n_racks, jitter_s=jitter_s)
    assert batched_calls, "the batched leg never took the shared chain"

    def per_leg_fanout(sim, legs):
        for channel, clone in legs:
            channel.transmit(clone)

    monkeypatch.setattr(switch_mod, "transmit_fanout", per_leg_fanout)
    rows_unbatched, now_unbatched, _ = _fig5_leg(n_racks=n_racks, jitter_s=jitter_s)
    assert rows_batched == rows_unbatched
    assert now_batched == now_unbatched


# -- two-event transmit chain, unobserved completions (DESIGN.md §5g) ----------------


def _contended_run(n_racks=1, jitter_s=0.0, n_clients=4, n_ops=12):
    """Four clients interleave puts and gets on three shared keys; returns
    (the cluster afterwards, per-client (latency, ok) lists).

    Identical links make same-timestamp ties the rule here, not the
    exception.  Shown sensitive in a scratch copy: giving the idle-wire
    path one more zero-delay hop than the queue hand-off moves the
    jitter-free 3-rack leg (with these very keys — sensitivity to a tie
    flip is luck of the placement), which the single closed loop of
    ``_fig5_leg`` does not notice."""
    cluster = NiceCluster(
        ClusterConfig(n_storage_nodes=15, n_clients=n_clients, n_racks=n_racks)
    )
    cluster.warm_up()
    if jitter_s:
        stream = np.random.default_rng(7)
        for link in cluster.network.links:
            link.set_delay_jitter(jitter_s, stream)
    sim = cluster.sim
    rows = {}

    def worker(client, i):
        rows[i] = []
        for k in range(n_ops):
            key = f"k{(i + k) % 3}"
            t0 = sim.now
            if k % 2:
                result = yield client.get(key)
            else:
                result = yield client.put(key, f"{i}:{k}", 1000 + 4000 * (k % 3))
            rows[i].append((sim.now - t0, result.ok))

    workers = [sim.process(worker(c, i)) for i, c in enumerate(cluster.clients)]
    run_to_completion(cluster, sim.all_of(workers))
    return cluster, rows


def _contended_leg(n_racks=1, jitter_s=0.0):
    """(rows, final sim time, events scheduled) of :func:`_contended_run`."""
    cluster, rows = _contended_run(n_racks, jitter_s)
    return rows, cluster.sim.now, cluster.sim._eid


def _install_four_hop_transmit(monkeypatch):
    """The transmit chain before it shrank to two events per hop: an urgent
    grant hop at enqueue time, a serialize-start hop, end of serialization,
    delivery; a queued packet's serialize-start was a zero-delay hop out of
    the end of serialization ahead of it; the fan-out shared three hops.
    Returns the list the reference appends to per queue hand-off."""
    import repro.net.switch as switch_mod
    from repro.net.link import _fanout_finish

    real_finish_tx = Channel._finish_tx
    handoffs = []

    def serialize(channel, packet):
        ser = packet.size_bytes * 8.0 / channel.bandwidth_bps
        channel.sim._schedule_call(ser, channel._finish_tx, packet)

    def grant(channel, packet):
        channel.sim._schedule_call(0.0, serialize, channel, packet)

    def transmit(channel, packet):
        if channel._sending:
            channel._queue.append(packet)
            return
        channel._sending = True
        channel.sim._schedule_call(0.0, grant, channel, packet, priority=URGENT)

    def finish_tx(channel, packet):
        # The real end of serialization with the backlog hidden, then the
        # old hand-off: a zero-delay serialize-start hop for the next packet.
        backlog, channel._queue = channel._queue, deque()
        real_finish_tx(channel, packet)
        channel._queue = backlog
        if backlog:
            handoffs.append(1)
            channel._sending = True
            channel.sim._schedule_call(0.0, serialize, channel, backlog.popleft())

    def fanout_serialize(sim, legs):
        channel, packet = legs[0]
        ser = packet.size_bytes * 8.0 / channel.bandwidth_bps
        sim._schedule_call(ser, _fanout_finish, legs)

    def fanout_grant(sim, legs):
        sim._schedule_call(0.0, fanout_serialize, sim, legs)

    def transmit_fanout(sim, legs):
        for channel, _ in legs:
            channel._sending = True
        sim._schedule_call(0.0, fanout_grant, sim, legs, priority=URGENT)

    monkeypatch.setattr(Channel, "transmit", transmit)
    monkeypatch.setattr(Channel, "_finish_tx", finish_tx)
    monkeypatch.setattr(switch_mod, "transmit_fanout", transmit_fanout)
    return handoffs


@pytest.mark.parametrize("jitter_s", [0.0, 20e-6])
@pytest.mark.parametrize("n_racks", [1, 3])
def test_contended_leg_identical_with_two_and_four_hop_transmit(monkeypatch, n_racks, jitter_s):
    """Scheduling end-of-serialization the moment a packet gets the wire
    vs reaching it through grant and serialize-start hops: every chain
    loses its zero-delay hops alike, so same-timestamp ties (the
    jitter-free legs) and the shared jitter stream's draw order (the
    jittered legs) must not move, on one switch or across the fabric."""
    rows_two, now_two, events_two = _contended_leg(n_racks, jitter_s)
    handoffs = _install_four_hop_transmit(monkeypatch)
    rows_four, now_four, events_four = _contended_leg(n_racks, jitter_s)
    assert handoffs, "no packet ever queued: the hand-off path went untested"
    assert events_four > events_two
    assert rows_two == rows_four
    assert now_two == now_four


@pytest.mark.parametrize("jitter_s", [0.0, 20e-6])
@pytest.mark.parametrize("n_racks", [1, 3])
def test_contended_leg_identical_with_and_without_completion_records(
    monkeypatch, n_racks, jitter_s
):
    """A process or a callback chain nobody waits on completes without a
    heap record; the reference schedules one for every completion, as
    ``succeed`` always did, and builds each put's multicast send as the
    Event it was (``tests.helpers.RefSend``), whose completion nobody
    waits on.  ``Event._complete`` is the one completion path both share
    (the put path runs no process any more)."""
    from repro.sim import Event
    from repro.transport import MulticastSender
    from tests.helpers import ref_mc_send

    rows_skipped, now_skipped, events_skipped = _contended_leg(n_racks, jitter_s)

    def complete_through_the_heap(event, value=None):
        event.succeed(value)

    monkeypatch.setattr(Event, "_complete", complete_through_the_heap)
    monkeypatch.setattr(MulticastSender, "send", ref_mc_send)
    rows_recorded, now_recorded, events_recorded = _contended_leg(n_racks, jitter_s)
    assert events_recorded > events_skipped
    assert rows_skipped == rows_recorded
    assert now_skipped == now_recorded


# -- ready queues and tombstone compaction (DESIGN.md §5g) ---------------------------


def _install_one_heap_kernel(monkeypatch):
    """The kernel before the ready queues and compaction: every record,
    zero-delay or not, is pushed on the one heap, and a tombstone stays
    there until it surfaces."""
    import heapq

    from repro.sim import NORMAL, Simulator

    def push(sim, when, priority, target, args):
        sim._eid += 1
        if sim._entry_pool:
            entry = sim._entry_pool.pop()
            entry[:] = when, priority, sim._eid, target, args
        else:
            sim._entry_misses += 1
            entry = [when, priority, sim._eid, target, args]
        heapq.heappush(sim._heap, entry)
        return entry

    def schedule_event(sim, event, priority, delay=0.0):
        event._entry = push(sim, sim._now + delay, priority, event, None)

    def schedule_call(sim, delay, func, *args, priority=NORMAL, after=None):
        base = sim._now if after is None else after
        push(sim, base + delay, priority, func, args)

    monkeypatch.setattr(Simulator, "_schedule_event", schedule_event)
    monkeypatch.setattr(Simulator, "_schedule_call", schedule_call)
    monkeypatch.setattr(Simulator, "_compact", lambda sim: None)


def _counters(cluster):
    """Every registry metric except what the two kernels may differ in (the
    ``sim`` subtree: pool reuse, heap occupancy) and host wall clock."""
    from repro.obs import MetricsRegistry

    snap = MetricsRegistry.from_cluster(cluster).snapshot()
    del snap["sim"]
    del snap["controlplane"]["plan"]["sync_ms"]
    return snap


def _events_scheduled(sim):
    entry_pool = sim.pool_stats()["entry_pool"]
    return entry_pool["hits"] + entry_pool["misses"]


def _assert_same_run_on_both_kernels(fast, reference):
    """``fast`` / ``reference``: (cluster, observable results) of one leg."""
    (cluster, results), (ref_cluster, ref_results) = fast, reference
    heap, ref_heap = cluster.sim.pool_stats()["heap"], ref_cluster.sim.pool_stats()["heap"]
    assert heap["compactions"] > 0, "the leg never compacted: nothing was compared"
    assert ref_heap["compactions"] == 0 and ref_heap["dead"] > heap["dead"]
    assert results == ref_results
    assert cluster.sim.now == ref_cluster.sim.now
    assert cluster.sim.pending_events == ref_cluster.sim.pending_events
    assert _events_scheduled(cluster.sim) == _events_scheduled(ref_cluster.sim)
    assert _counters(cluster) == _counters(ref_cluster)


@pytest.mark.parametrize("jitter_s", [0.0, 20e-6])
@pytest.mark.parametrize("n_racks", [1, 3])
def test_contended_leg_identical_on_the_one_heap_kernel(monkeypatch, n_racks, jitter_s):
    """Zero-delay records in per-priority FIFOs and tombstones compacted
    away vs the kernel they replaced: pop order is a function of the unique
    ``(time, priority, eid)`` key alone, so not one tie may flip."""
    fast = _contended_run(n_racks, jitter_s)
    _install_one_heap_kernel(monkeypatch)
    _assert_same_run_on_both_kernels(fast, _contended_run(n_racks, jitter_s))


def test_crash_rejoin_cell_identical_on_the_one_heap_kernel(monkeypatch):
    """Timers are armed, cancelled and revived across a fault here."""
    fast = _chaos_cluster(seed=3)
    _install_one_heap_kernel(monkeypatch)
    _assert_same_run_on_both_kernels(fast, _chaos_cluster(seed=3))


# -- chaos-engine determinism (the reproducibility contract of repro.chaos) ---------


def _chaos_cluster(seed, schedule_seed=None):
    """One chaos case: NICE cluster + recorded history under a random
    schedule, or (no ``schedule_seed``) a secondary's crash and rejoin.

    Returns (the cluster afterwards, (chaos event log, canonical op-history
    tuples)).
    """
    from repro.bench.harness import build_nice
    from repro.chaos import ChaosEngine, FaultSchedule
    from repro.check import HistoryRecorder
    from repro.workloads.synthetic import keys_in_partition

    cluster = build_nice(n_storage_nodes=6, n_clients=2, seed=seed)
    keys = keys_in_partition(0, cluster.config.n_partitions, 2)
    if schedule_seed is None:
        schedule = FaultSchedule.crash_rejoin(keys[0], fail_at=1.0, rejoin_at=3.0)
    else:
        schedule = FaultSchedule.random(schedule_seed, keys[0], horizon=4.0, n_episodes=2)
    recorder = HistoryRecorder()
    sim = cluster.sim

    def loop(client, stream):
        seq = 0
        while sim.now < 5.0:
            yield sim.timeout(stream.exponential(0.05))
            seq += 1
            if stream.random() < 0.5:
                yield client.put(keys[seq % 2], f"{client.host.name}:{seq}", 500, max_retries=1)
            else:
                yield client.get(keys[seq % 2], max_retries=1)

    for idx, client in enumerate(cluster.clients):
        recorder.attach(client)
        sim.process(loop(client, np.random.default_rng([seed, idx])))
    engine = ChaosEngine(cluster, schedule, seed=seed)
    engine.start()
    sim.run(until=5.0)
    return cluster, (engine.events, recorder.as_tuples())


def _chaos_run(seed, schedule_seed):
    """(chaos event log, op-history tuples, final sim time) of one case."""
    cluster, (events, history) = _chaos_cluster(seed, schedule_seed)
    return events, history, cluster.sim.now


def test_chaos_same_seed_bit_identical():
    """Same (seed, schedule) => identical event log AND identical history."""
    events_a, history_a, now_a = _chaos_run(seed=3, schedule_seed=11)
    events_b, history_b, now_b = _chaos_run(seed=3, schedule_seed=11)
    assert events_a == events_b
    assert history_a == history_b
    assert now_a == now_b
    assert events_a, "schedule should have fired at least one fault"
    assert len(history_a) > 10


def test_chaos_different_schedule_seed_diverges():
    """A different schedule seed must actually change the fault sequence."""
    events_a, _, _ = _chaos_run(seed=3, schedule_seed=11)
    events_b, _, _ = _chaos_run(seed=3, schedule_seed=12)
    assert events_a != events_b


def test_random_schedule_is_deterministic():
    from repro.chaos import FaultSchedule

    a = FaultSchedule.random(99, "k0")
    b = FaultSchedule.random(99, "k0")
    assert a.events == b.events
    assert FaultSchedule.random(100, "k0").events != a.events


# -- leaf-spine fabric (DESIGN.md §5h) ----------------------------------------------


_SCALE_KW = dict(
    n_ops=4,
    configs=[dict(racks=2, hosts_per_rack=3, n_clients=2, budget=512)],
    chaos_duration=4.0,
)


def test_scale_cells_identical_across_jobs():
    """Multi-switch cells honor the same contract as the figure suite:
    --jobs 1 and --jobs 2 are bit-identical."""
    from repro.bench import parallel, run

    seq = run("scale", **_SCALE_KW)
    prior = parallel.configure(jobs=2)
    try:
        par = run("scale", **_SCALE_KW)
    finally:
        parallel.configure(**prior)
        parallel.drain_records()
    assert par.rows == seq.rows


def test_fabric_leg_repeatable():
    """Same seed, same fabric shape => bit-identical rows and clock."""

    def leg():
        cluster = build_nice(n_storage_nodes=6, n_clients=1, n_racks=2)
        client = cluster.clients[0]

        def driver(sim):
            tally = yield closed_loop_puts(client, sim, 6, 1024, keys=["fab0", "fab1"])
            return (tally.count, tally.mean, tally.stdev)

        stats = run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
        return stats, cluster.sim.now

    assert leg() == leg()


def test_single_switch_default_untouched_by_fabric_knobs():
    """The pre-fabric seed path: explicit fabric defaults (n_racks=1 etc.)
    must build the identical single-switch cluster and produce bit-identical
    results — the 81-cell baseline depends on it."""
    rows_default, now_default, _ = _fig5_leg(n_ops=4, sizes=(1024,))

    explicit = build_nice(
        n_storage_nodes=15, n_clients=1,
        n_racks=1, n_spines=2, switch_rule_budget=0,
    )
    assert explicit.fabric is None
    assert explicit.switch.name == "sw0"
    client = explicit.clients[0]
    rows = []

    def driver(sim):
        for size in (1024,):
            key = f"repl-{size}"
            seed = yield client.put(key, "x", size)
            assert seed.ok
            tally = yield closed_loop_puts(client, sim, 4, size, keys=[key])
            rows.append(
                {
                    "size_bytes": size,
                    "put_ms": tally.mean * 1e3,
                    "stdev_ms": tally.stdev * 1e3,
                    "count": tally.count,
                }
            )

    run_to_completion(explicit, explicit.sim.process(driver(explicit.sim)))
    assert rows == rows_default
    assert explicit.sim.now == now_default
