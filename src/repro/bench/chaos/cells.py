"""The chaos cells: build → run under faults → verify → one JSON-ready row.

Every cell builds a fresh cluster from the system table, records the full
op history of a workload while a fault plays out, and verifies it — the
cheap staleness screen first, then the exact Wing–Gong linearizability
check.  The paced-workload cells share one pipeline
(:func:`run_faulted`); the directed cells script their own race.  Each
is a module-level function of JSON parameters and a seed, so
:func:`~repro.bench.parallel.run_cells` can ship it to a worker
process.
"""

from __future__ import annotations

from collections import Counter as Multiset
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ...chaos import FAULTS, ChaosEngine, FaultSchedule, named
from ...check import (
    CheckLimitExceeded,
    HistoryRecorder,
    check_durable,
    check_linearizable,
    check_monotonic,
)
from ...workloads.synthetic import keys_in_partition
from ..harness import build

#: Cluster shrunk for sweep speed; semantics (R=3, one partition under
#: attack) match the paper's fault scenario.
CLUSTER_KW = dict(n_storage_nodes=6, n_clients=3)

#: Wing–Gong search budget per cell; past it a cell is "inconclusive".
MAX_STATES = 2_000_000


def run_faulted(
    cluster,
    schedule: FaultSchedule,
    keys: List[str],
    duration: float,
    seed: int,
    put_until: Optional[float] = None,
) -> Tuple[HistoryRecorder, ChaosEngine]:
    """Play ``schedule`` against ``cluster`` under the paced workload —
    one writer + dedicated readers, values globally unique — until
    ``duration``; returns the recorded history and the engine (its event
    log).

    The writer/reader split matters: a writer whose put times out stalls
    for seconds (client retry backoff), and if every client mixed puts and
    gets the whole workload would stall inside the fault window — exactly
    when reads must keep probing replicas for stale data.  ``put_until``
    cuts the writer early (durability cells stop writing at the power
    failure, so the surviving state is judged against pre-blackout acked
    puts)."""
    sim = cluster.sim
    put_until = duration if put_until is None else put_until
    recorder = HistoryRecorder()

    def writer(client, stream: np.random.Generator):
        seq = 0
        while sim.now < put_until:
            yield sim.timeout(stream.exponential(0.03))
            seq += 1
            key = keys[seq % len(keys)]
            yield client.put(key, f"{client.host.name}:{seq}", 1000, max_retries=1)

    def reader(client, stream: np.random.Generator):
        while sim.now < duration:
            yield sim.timeout(stream.exponential(0.03))
            key = keys[int(stream.integers(len(keys)))]
            yield client.get(key, max_retries=1)

    for idx, client in enumerate(cluster.clients):
        recorder.attach(client)
        loop = writer if idx == 0 else reader
        sim.process(loop(client, np.random.default_rng([seed, idx])))
    engine = ChaosEngine(cluster, schedule, seed=seed)
    engine.start()
    sim.run(until=duration)
    return recorder, engine


def _table_snapshot(cluster) -> List:
    """Semantic FlowTable + group-table state of every switch, chaos
    cookies excluded, compared by ``Rule.content`` (not seq or hit
    counters) — two snapshots are equal iff the switches would forward
    identically."""
    snap = []
    for switch in cluster.switches:
        rules = Multiset(
            r.content for r in switch.table.iter_rules() if not r.cookie.startswith("chaos:")
        )
        groups = {gid: tuple(g.buckets) for gid, g in switch.groups.items()}
        snap.append((switch.name, rules, groups))
    return snap


def reconcile_vs_scratch(cluster, settle_s: float) -> Tuple[Dict, bool]:
    """Post-run control-plane verdict of a settled cluster.

    Runs one reconciliation pass (it should find nothing to repair; its
    counts are returned), then compares the resulting tables against a
    from-scratch ``sync_all`` — bit-identical tables prove the diff-repair
    converged to exactly the desired state.  ``settle_s`` lets each round
    of flow-mods land (a fabric needs longer than one switch)."""
    sim = cluster.sim
    service = cluster.metadata_active
    steady = service.reconcile_switches()
    sim.run(until=sim.now + settle_s)
    reconciled = _table_snapshot(cluster)
    cluster.controller.sync_all(epoch=service.epoch)
    sim.run(until=sim.now + settle_s)
    return steady, reconciled == _table_snapshot(cluster)


def _controlplane_provenance(cluster) -> Dict:
    """What the control plane did during an HA cell, and whether its
    diff-repair converged (:func:`reconcile_vs_scratch`)."""
    ha = cluster.metadata_ha
    service = cluster.metadata_active
    steady, matches = reconcile_vs_scratch(cluster, settle_s=0.01)
    nodes = list(cluster.nodes.values())
    return {
        "epoch_final": service.epoch,
        "promotions": ha.promotions.value,
        "demotions": ha.demotions.value,
        "fenced_flow_mods": sum(sw.fenced_mods.value for sw in cluster.switches),
        "membership_fenced": sum(n.membership_fenced.value for n in nodes),
        "meta_failovers": sum(n.meta_failovers.value for n in nodes),
        "takeover_reconcile": {
            "installed": ha.reconcile_installed.value,
            "deleted": ha.reconcile_deleted.value,
            "matched": ha.reconcile_matched.value,
        },
        "steady_reconcile": steady,
        "reconcile_matches_scratch": matches,
    }


def _history_row(
    family: str, mode: str, schedule: str, seed: int,
    recorder: HistoryRecorder, events: List,
    standbys: int = 0, has_loss: bool = False,
) -> Dict:
    """Verify a recorded history — the cheap staleness screen, then the
    exact Wing–Gong check — and assemble the row every cell type shares."""
    ops = recorder.ops
    mono = check_monotonic(ops)
    try:
        lin = check_linearizable(ops, max_states=MAX_STATES)
        inconclusive = False
        states = lin.states
        linearizable = lin.ok
        core = lin.violation
        reason = lin.reason
    except CheckLimitExceeded as exc:
        inconclusive = True
        states = MAX_STATES
        linearizable = mono.ok  # best effort: screen result only
        core = mono.violation
        reason = f"W&G limit: {exc}"
    if not mono.ok and linearizable:
        # The screen only reports true violations; exact search must agree.
        linearizable, core, reason = False, mono.violation, mono.reason
    return {
        "family": family,
        "standbys": standbys,
        "mode": mode,
        "schedule": schedule,
        "has_loss": has_loss,
        "seed": seed,
        "n_ops": len(ops),
        "ok_ops": sum(1 for op in ops if op.ok),
        "failed_ops": sum(1 for op in ops if op.completed and not op.ok),
        "pending_ops": len(recorder.pending()),
        "linearizable": bool(linearizable),
        "monotonic_ok": bool(mono.ok),
        "inconclusive": inconclusive,
        "states": states,
        "chaos_events": [[t, label] for t, label in events],
        "violation": [str(op) for op in core],
        "reason": reason,
    }


def chaos_cell(
    mode: str,
    schedule: Union[str, Callable[[str], FaultSchedule]],
    duration: float,
    seed: int,
    standbys: int = 0,
) -> Dict:
    """One matrix cell; returns a JSON-ready row.

    ``schedule`` is a name :func:`~repro.chaos.schedule.named` resolves —
    so a cell is a pure function of ``(mode, schedule, duration, seed,
    standbys)``, rebuilt from its config inside a (possibly worker)
    process — or, for a directly called cell with its own timings, a
    function from the cell's key to a :class:`FaultSchedule`.  Either way
    the schedule is aimed at a key of the partition under attack."""
    cluster = build(
        mode, **CLUSTER_KW, seed=seed, **(dict(metadata_standbys=standbys) if standbys else {})
    )
    keys = keys_in_partition(0, cluster.config.n_partitions, 3)
    schedule = schedule(keys[0]) if callable(schedule) else named(schedule, keys[0])
    recorder, engine = run_faulted(cluster, schedule, keys, duration, seed)
    row = _history_row(
        "controlplane" if standbys else "standard", mode, schedule.name, seed,
        recorder, engine.events, standbys=standbys,
        has_loss=any(ev.kind == FAULTS["loss"].name for ev in schedule),
    )
    if standbys:
        row["controlplane"] = _controlplane_provenance(cluster)
    return row


def harmonia_midput_cell(mode: str, seed: int) -> Dict:
    """Directed harmonia race cell: rack isolation between the primary's
    local commit and the commit multicast reaching a rack-1 secondary.

    The stranded secondary keeps the old value while the primary holds the
    new one and the client's put fails (ambiguous).  A correct dirty-set
    pins the key to the primary (linearizable); one that cleared the key on
    the commit's transit (the ``harmonia_commit_clear`` mutant) serves the
    stale replica rack-locally — the violation the checker must catch.
    """
    cluster = build(
        mode, n_storage_nodes=8, n_clients=2, replication_level=3, n_racks=2,
        heartbeat_miss_limit=10_000, seed=seed,
    )
    sim = cluster.sim
    c0, c1 = cluster.clients  # round-robin placement: rack 0, rack 1
    recorder = HistoryRecorder().attach(*cluster.clients)

    key = primary = secondary = None
    for i in range(500):
        cand = f"hk{i}"
        rs = cluster.partition_map.get(cluster.uni_vring.subgroup_of_key(cand))
        if cluster.rack_of[rs.primary] != 0:
            continue
        strays = [m for m in rs.get_targets()
                  if m != rs.primary and cluster.rack_of[m] == 1]
        if strays:
            key, primary, secondary = cand, rs.primary, strays[0]
            break
    if key is None:
        raise RuntimeError(f"seed {seed}: no rack-split replica set found")

    events: List = []

    def isolate_mid_put():
        p_node, s_node = cluster.nodes[primary], cluster.nodes[secondary]
        while True:
            prepared = any(p.key == key and p.value == "v2"
                           for p in s_node.puts.participant.pending.values())
            obj = p_node.store.get(key)
            if prepared and obj is not None and obj.value == "v2":
                break
            yield sim.timeout(10e-6)
        for link in cluster.fabric.uplinks_of(1):
            link.set_down(True)
        events.append([sim.now, "rack 1 uplinks cut mid-put (post-commit@primary)"])

    def driver():
        r = yield c0.put(key, "v1", 1000)
        assert r.ok
        sim.process(isolate_mid_put())
        yield c0.put(key, "v2", 1000, max_retries=0)
        # Rack-0 reads force the ambiguous put's effect into the history,
        # then rack-1 reads probe for the stale conflict-free read.
        yield c0.get(key, max_retries=1)
        for _ in range(4):
            yield c1.get(key, max_retries=0)

    proc = sim.process(driver())
    sim.run(until=60.0)
    if not proc.triggered:
        raise RuntimeError("directed mid-put driver did not finish")

    return {
        **_history_row(
            "harmonia-directed", mode, "rack_isolate_midput", seed, recorder, events
        ),
        "dirty_set": cluster.harmonia.stats(),
        "stale_replica_reads": cluster.nodes[secondary].gets_served.value,
    }


def _final_values(cluster, keys: List[str]) -> Dict[str, object]:
    """Post-run surviving value per key, read from each key's acting
    primary store (the replica clients would be routed to)."""
    finals: Dict[str, object] = {}
    for key in keys:
        rs = cluster.partition_map.get(cluster.uni_vring.subgroup_of_key(key))
        node = cluster.nodes.get(rs.primary)
        obj = node.store.get(key) if node is not None else None
        if obj is not None:
            finals[key] = obj.value
    return finals


def _node_durability_stats(cluster) -> Dict[str, int]:
    """Aggregate §5k counters across the cluster's storage nodes."""
    nodes = list(cluster.nodes.values())
    return {
        "torn_records": sum(n.wal.torn_records for n in nodes),
        "lost_records": sum(n.wal.lost_records for n in nodes),
        "resurrected_records": sum(n.wal.resurrected_records for n in nodes),
        "cold_restarts": sum(n.cold_restarts.value for n in nodes),
        "replayed_commits": sum(n.replayed_commits.value for n in nodes),
        "power_losses": sum(n.disk.power_losses.value for n in nodes),
        "scrub_scans": sum(n.scrub_scans.value for n in nodes),
        "scrub_repairs": sum(n.scrub_repairs.value for n in nodes),
        "read_repairs": sum(n.read_repairs.value for n in nodes),
        "corruptions": sum(n.store.corruptions for n in nodes),
    }


def _durability_row(
    mode: str, schedule: str, seed: int, cluster, recorder: HistoryRecorder,
    events: List, keys: List[str],
) -> Dict:
    """Common tail of every durability cell: verify the history (staleness
    screen + exact check + acked-durability against the surviving stores)
    and assemble the JSON row."""
    durable = check_durable(recorder.ops, _final_values(cluster, keys))
    return {
        **_history_row("durability", mode, schedule, seed, recorder, events),
        "durable": bool(durable.ok),
        "durability_reason": durable.reason,
        "durable_keys_checked": len(durable.checked_keys),
        **_node_durability_stats(cluster),
    }


def durability_cell(mode: str, schedule: str, seed: int, duration: float = 10.0) -> Dict:
    """Whole-cluster power loss under live traffic (§4.4, Complete Cluster
    Failure): every node drops volatile state *and* its unflushed disk
    cache, then cold-restarts from the durable image + WAL replay.  Every
    acked put must survive; under the ``wal_unflushed`` mutant (acks race
    the flush) the acked-durability checker must catch losses.
    """
    cluster = build(mode, **CLUSTER_KW, seed=seed)
    keys = keys_in_partition(0, cluster.config.n_partitions, 3)
    sched = named(schedule, keys[0])
    blackout_at = min(ev.at for ev in sched)
    recorder, engine = run_faulted(cluster, sched, keys, duration, seed, put_until=blackout_at)
    return _durability_row(mode, sched.name, seed, cluster, recorder, engine.events, keys)


def torn_wal_cell(seed: int) -> Dict:
    """Directed torn-tail cell: power-fail one secondary in the exact
    window where a WAL append has completed its transfer but no flush
    covers it yet.  The replayed log must truncate the torn frame (never
    a phantom or corrupt record) and every acked put must still be
    readable once the node rejoins."""
    cluster = build("nice", **CLUSTER_KW, seed=seed)
    sim = cluster.sim
    recorder = HistoryRecorder().attach(*cluster.clients)
    keys = keys_in_partition(0, cluster.config.n_partitions, 2)
    rs = cluster.partition_map.get(0)
    victim = next(m for m in rs.members if m != rs.primary)
    node = cluster.nodes[victim]
    events: List = []

    def crash_mid_append():
        # An append is vulnerable from transfer completion until the
        # flush cycle covers it (~flush latency): poll well inside that.
        while node.wal.unflushed_appends() == 0:
            yield sim.timeout(5e-6)
        node.crash(power_loss=True)
        events.append([sim.now, f"{victim} power-fails mid-append (torn tail)"])

    c0 = cluster.clients[0]

    def driver():
        for key in keys:  # a durable base round first
            yield c0.put(key, f"base:{key}", 1000)
        sim.process(crash_mid_append())
        seq = 0
        while not events and sim.now < 5.0:
            seq += 1
            yield c0.put(keys[seq % len(keys)], f"v{seq}", 1000, max_retries=0)
        yield sim.timeout(3.0)  # let the metadata service declare the node
        events.append([sim.now, f"{victim} restarts"])
        proc = node.restart()
        if proc is not None:
            yield proc
            events.append([sim.now, f"{victim} consistent"])
        for key in keys:
            yield c0.get(key, max_retries=1)

    proc = sim.process(driver())
    sim.run(until=30.0)
    if not proc.triggered:
        raise RuntimeError("torn-WAL driver did not finish")
    return _durability_row("nice", "torn_wal", seed, cluster, recorder, events, keys)


def bit_rot_cell(seed: int, duration: float = 8.0) -> Dict:
    """Silent corruption vs scrub-and-repair: rot 4 of 6 stored objects on
    a secondary — most of them *cold* (written once, never read), so only
    the background scrubber can find them.  No client may ever observe a
    corrupted value, and by the end of the run every store must verify."""
    cluster = build("nice", **CLUSTER_KW, seed=seed, scrub_interval_s=1.0)
    sim = cluster.sim
    recorder = HistoryRecorder().attach(*cluster.clients)
    keys = keys_in_partition(0, cluster.config.n_partitions, 6)
    hot = keys[0]
    c0, c1 = cluster.clients[0], cluster.clients[1]

    def writer():
        for i, key in enumerate(keys):
            yield c0.put(key, f"init:{i}", 1000)

    def reader():
        while sim.now < duration:
            yield sim.timeout(0.03)
            yield c1.get(hot, max_retries=1)

    sim.process(writer())
    sim.process(reader())
    engine = ChaosEngine(cluster, named("bit_rot", keys[0]), seed=seed)
    engine.start()
    sim.run(until=duration)

    remaining = sum(
        1
        for node in cluster.nodes.values()
        for name in node.store.names()
        if not node.store.verify(node.store.get(name))
    )
    bitrot_served = sum(
        1
        for op in recorder.ops
        if op.kind == "get"
        and isinstance(op.value, tuple)
        and op.value
        and op.value[0] == "\x00bitrot"
    )
    row = _durability_row("nice", "bit_rot", seed, cluster, recorder, engine.events, keys)
    row["remaining_corrupt"] = remaining
    row["bitrot_served"] = bitrot_served
    return row


def fail_slow_cell(seed: int, duration: float = 10.0) -> Dict:
    """Fail-slow disk under the harmonia read path: the primary's device
    runs 8× slow.  The obs-layer health signal must flag it within a few
    heartbeats, the metadata service must drain it from the read
    round-robin and hand the primary role off, and the history must stay
    linearizable throughout; after the heal the node is restored."""
    cluster = build("harmonia", **CLUSTER_KW, seed=seed)
    keys = keys_in_partition(0, cluster.config.n_partitions, 3)
    recorder, engine = run_faulted(cluster, named("fail_slow", keys[0]), keys, duration, seed)
    meta = cluster.metadata_active
    row = _durability_row(
        "harmonia", "fail_slow", seed, cluster, recorder, engine.events, keys
    )
    row["failslow_detections"] = meta.failslow_detections.value
    row["failslow_handoffs"] = meta.failslow_handoffs.value
    row["degraded_after"] = sorted(meta.degraded)
    return row
