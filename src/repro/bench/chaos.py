"""The chaos × consistency verification sweep (``python -m repro.bench chaos``).

For every (access mode, fault schedule, seed) cell the sweep builds a
fresh cluster, runs a paced put/get workload against one partition while
the :class:`~repro.chaos.ChaosEngine` plays the schedule, records the
full op history, and verifies it — the cheap staleness screen first, then
the exact Wing–Gong linearizability check.  The result is a pass/fail
matrix written to ``BENCH_chaos.json``.

Expectations encode the paper's claim (§3.3, §4.5): NICE and the honestly
configured NOOB variants stay linearizable through every schedule, while
the *weak* NOOB configuration — primary-only replication with round-robin
reads, a config the baseline happily accepts — must be **caught** serving
stale data, with a minimal counterexample in the artifact.  The suite
fails (non-zero exit) if a safe mode produces a violation *or* the weak
mode escapes detection.
"""

from __future__ import annotations

import json
import time
from collections import Counter as Multiset
from typing import Dict, List, Optional

import numpy as np

from ..chaos import ChaosEngine, FaultSchedule, controlplane_schedules, standard_schedules
from ..check import (
    CheckLimitExceeded,
    HistoryRecorder,
    check_durable,
    check_linearizable,
    check_monotonic,
)
from ..workloads.synthetic import keys_in_partition
from .harness import build_nice, build_noob
from .parallel import Cell, drain_records, provenance, run_cells

__all__ = [
    "run_suite",
    "check",
    "format_report",
    "SCHEMA_VERSION",
    "DEFAULT_OUT",
    "MODES",
    "run_case",
    "chaos_cell",
    "harmonia_midput_cell",
    "durability_cell",
    "torn_wal_cell",
    "bit_rot_cell",
    "fail_slow_cell",
]

#: Schedule-suite key the sweep builds its schedules under.
SCHEDULE_KEY = "k0"

DEFAULT_OUT = "BENCH_chaos.json"
SCHEMA_VERSION = 6

#: mode name -> builder spec + expectations.  ``expect_violation`` marks
#: the deliberately weak config the checker must catch.  ``loss_fragile``
#: marks honest configs with a *known* hazard under packet loss: NOOB-2PC
#: never retransmits a lost commit, so one replica can stay prepared/stale
#: while round-robin reads serve the other — a genuine partial-commit
#: window the chaos suite documents rather than hides.  Violations in a
#: loss-fragile mode under a loss-bearing schedule are recorded as
#: "tolerated"; anywhere else they fail the suite.  NICE is never fragile:
#: its multicast transport repairs losses and 2PC acks ride it (§4.3).
MODES: Dict[str, Dict] = {
    "nice": dict(system="nice", expect_violation=False, loss_fragile=False, overrides={}),
    "rac-2pc": dict(
        system="noob",
        expect_violation=False,
        loss_fragile=True,
        overrides=dict(access="rac", consistency="2pc"),
    ),
    "rag-2pc": dict(
        system="noob",
        expect_violation=False,
        loss_fragile=True,
        overrides=dict(access="rag", consistency="2pc"),
    ),
    "rog-2pc": dict(
        system="noob",
        expect_violation=False,
        loss_fragile=True,
        overrides=dict(access="rog", consistency="2pc"),
    ),
    "rac-quorum": dict(
        system="noob",
        expect_violation=False,
        loss_fragile=False,
        overrides=dict(access="rac", consistency="quorum"),
    ),
    # Primary-only replication acks puts even when the replica transfers
    # fail, and round-robin reads then serve whatever the replicas hold:
    # the misconfiguration the checker must catch.
    "rac-weak": dict(
        system="noob",
        expect_violation=True,
        loss_fragile=False,
        overrides=dict(access="rac", consistency="primary", get_lb="round_robin"),
    ),
    # Harmonia protocol mode (DESIGN.md §5j): switch dirty-set, any-replica
    # conflict-free reads.  The honest mode must stay linearizable through
    # every schedule; "harmonia-weak" clears the dirty entry on the commit
    # multicast's *transit* (before replicas apply) — the directed
    # rack-isolate-mid-put cell makes that leak a stale read the checker
    # must catch.
    "harmonia": dict(
        system="nice",
        expect_violation=False,
        loss_fragile=False,
        overrides=dict(protocol_mode="harmonia"),
    ),
    "harmonia-weak": dict(
        system="nice",
        expect_violation=True,
        loss_fragile=False,
        overrides=dict(protocol_mode="harmonia-weak"),
    ),
    # Durability-only mode (DESIGN.md §5k): acks race the flush.  Never
    # part of the linearizability matrix — it exists so the power-blackout
    # cell can prove the acked-durability checker catches ack-before-
    # durable holes.
    "nice-waloff": dict(
        system="nice",
        expect_violation=True,
        loss_fragile=False,
        durability_only=True,
        overrides=dict(wal_forced=False),
    ),
}

#: Cluster shrunk for sweep speed; semantics (R=3, one partition under
#: attack) match the paper's fault scenario.
CLUSTER_KW = dict(n_storage_nodes=6, n_clients=3)


def _build(mode: str, seed: int, standbys: int = 0):
    spec = MODES[mode]
    kwargs = dict(CLUSTER_KW, seed=seed, **spec["overrides"])
    if spec["system"] == "nice":
        if standbys:
            kwargs["metadata_standbys"] = standbys
        return build_nice(**kwargs)
    if standbys:
        raise ValueError("metadata standbys are a NICE-only configuration")
    return build_noob(**kwargs)


def _schedule_suite(key: str, names: Optional[List[str]] = None) -> List[FaultSchedule]:
    suite = standard_schedules(key)
    for seed in (101, 202):
        # Keyed by its own name, like every other schedule, so the name a
        # cell carries resolves back to the schedule.
        schedule = FaultSchedule.random(seed, key)
        suite[schedule.name] = schedule
    # Addressable by name but not part of the default sweep (the harmonia
    # modes add them explicitly; the flow-rule families under attack are
    # NICE-internal, so they are noise for the NOOB baselines).
    extras = {"rule_flap": FaultSchedule.rule_flap(key)}
    if names is None:
        return list(suite.values())
    by_name = {**suite, **extras}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise ValueError(f"unknown schedule(s) {unknown}; have {sorted(by_name)}")
    return [by_name[n] for n in names]


def _schedule_by_name(key: str, name: str) -> FaultSchedule:
    """Resolve a schedule from either family by name."""
    cp = controlplane_schedules(key)
    if name in cp:
        return cp[name]
    return _schedule_suite(key, [name])[0]


def _workload(
    cluster,
    recorder: HistoryRecorder,
    keys: List[str],
    duration: float,
    seed: int,
    put_until: Optional[float] = None,
):
    """One paced writer + dedicated readers, values globally unique.

    The split matters: a writer whose put times out stalls for seconds
    (client retry backoff), and if every client mixed puts and gets the
    whole workload would stall inside the fault window — exactly when
    reads must keep probing replicas for stale data.  ``put_until`` cuts
    the writer early (durability cells stop writing at the power failure,
    so the surviving state is judged against pre-blackout acked puts)."""
    sim = cluster.sim
    put_until = duration if put_until is None else put_until

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


def _table_snapshot(cluster) -> List:
    """Semantic FlowTable + group-table state of every switch, chaos
    cookies excluded, compared by ``Rule.content`` (not seq or hit
    counters) — two snapshots are equal iff the switches would forward
    identically."""
    snap = []
    switches = getattr(cluster, "switches", None)
    if switches is None:
        switches = [cluster.switch] + list(getattr(cluster, "edge_switches", []))
    for switch in switches:
        rules = Multiset(
            r.content for r in switch.table.iter_rules() if not r.cookie.startswith("chaos:")
        )
        groups = {gid: tuple(g.buckets) for gid, g in switch.groups.items()}
        snap.append((switch.name, rules, groups))
    return snap


def _controlplane_provenance(cluster) -> Dict:
    """Post-run control-plane verdict for an HA cell.

    Runs one reconciliation pass over the settled cluster (it must find
    nothing to repair), then compares the resulting tables against a
    from-scratch ``sync_all`` — bit-identical tables prove the
    diff-repair converged to exactly the desired state.
    """
    sim = cluster.sim
    ha = cluster.metadata_ha
    service = cluster.metadata_active
    steady = service.reconcile_switches()
    sim.run(until=sim.now + 0.01)  # let the repair flow-mods land
    reconciled = _table_snapshot(cluster)
    cluster.controller.sync_all(epoch=service.epoch)
    sim.run(until=sim.now + 0.01)
    scratch = _table_snapshot(cluster)
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
        "reconcile_matches_scratch": reconciled == scratch,
    }


def _history_row(
    family: str, mode: str, schedule: str, seed: int,
    recorder: HistoryRecorder, events: List,
    standbys: int = 0, has_loss: bool = False, max_states: int = 2_000_000,
) -> Dict:
    """Verify a recorded history — the cheap staleness screen, then the
    exact Wing–Gong check — and assemble the row every cell type shares."""
    ops = recorder.ops
    mono = check_monotonic(ops)
    try:
        lin = check_linearizable(ops, max_states=max_states)
        inconclusive = False
        states = lin.states
        linearizable = lin.ok
        core = lin.violation
        reason = lin.reason
    except CheckLimitExceeded as exc:
        inconclusive = True
        states = max_states
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


def run_case(
    mode: str,
    schedule: FaultSchedule,
    seed: int,
    duration: float = 10.0,
    n_keys: int = 3,
    max_states: int = 2_000_000,
    standbys: int = 0,
) -> Dict:
    """One cell of the matrix; returns a JSON-ready row."""
    cluster = _build(mode, seed, standbys)
    partition = 0
    keys = keys_in_partition(partition, cluster.config.n_partitions, n_keys)
    # Re-target the schedule at a key of the chosen partition: schedules
    # are built per-key, so rebuild with the actual key.
    schedule = rebuild_for_key(schedule, keys[0])

    recorder = HistoryRecorder()
    _workload(cluster, recorder, keys, duration, seed)
    engine = ChaosEngine(cluster, schedule, seed=seed)
    engine.start()
    cluster.sim.run(until=duration)

    row = _history_row(
        "controlplane" if standbys else "standard", mode, schedule.name, seed,
        recorder, engine.events, standbys=standbys,
        has_loss=any(ev.kind == "loss" for ev in schedule), max_states=max_states,
    )
    if standbys:
        row["controlplane"] = _controlplane_provenance(cluster)
    return row


def rebuild_for_key(schedule: FaultSchedule, key: str) -> FaultSchedule:
    """Clone ``schedule`` with every symbolic target pointed at ``key``."""
    from ..chaos.schedule import FaultEvent

    events = []
    for ev in schedule:
        role, _, _ = ev.target.partition(":")
        target = f"{role}:{key}" if role in ("primary", "secondary", "key") else ev.target
        events.append(FaultEvent(ev.at, ev.kind, target, ev.params))
    return FaultSchedule(schedule.name, tuple(events), schedule.description)


def chaos_cell(
    mode: str, schedule: str, duration: float, seed: int, standbys: int = 0
) -> Dict:
    """One matrix cell, addressable by config alone: the schedule is
    rebuilt from its name inside the (possibly worker) process, so a cell
    is a pure function of ``(mode, schedule, duration, seed, standbys)``."""
    return run_case(
        mode,
        _schedule_by_name(SCHEDULE_KEY, schedule),
        seed,
        duration=duration,
        standbys=standbys,
    )


def harmonia_midput_cell(mode: str, seed: int) -> Dict:
    """Directed harmonia race cell: rack isolation between the primary's
    local commit and the commit multicast reaching a rack-1 secondary.

    The stranded secondary keeps the old value while the primary holds the
    new one and the client's put fails (ambiguous).  A correct dirty-set
    pins the key to the primary (linearizable); the weakened variant
    cleared the key on the commit's transit and serves the stale replica
    rack-locally — the violation the checker must catch.
    """
    from ..core import ClusterConfig, NiceCluster

    spec = MODES[mode]
    cluster = NiceCluster(ClusterConfig(
        n_storage_nodes=8, n_clients=2, replication_level=3, n_racks=2,
        heartbeat_miss_limit=10_000, seed=seed, **spec["overrides"],
    ))
    cluster.warm_up()
    sim = cluster.sim
    c0, c1 = cluster.clients  # round-robin placement: rack 0, rack 1
    recorder = HistoryRecorder()
    for client in cluster.clients:
        client.recorder = recorder

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
    cache, then cold-restarts from the durable image + WAL replay.  For
    the honest mode every acked put must survive; for ``nice-waloff``
    (acks race the flush) the acked-durability checker must catch losses.
    """
    cluster = _build(mode, seed)
    keys = keys_in_partition(0, cluster.config.n_partitions, 3)
    recorder = HistoryRecorder()
    sched = rebuild_for_key(_durability_schedule(schedule), keys[0])
    blackout_at = min(ev.at for ev in sched)
    _workload(cluster, recorder, keys, duration, seed, put_until=blackout_at)
    engine = ChaosEngine(cluster, sched, seed=seed)
    engine.start()
    cluster.sim.run(until=duration)
    return _durability_row(mode, sched.name, seed, cluster, recorder, engine.events, keys)


def _durability_schedule(name: str) -> FaultSchedule:
    from ..chaos import durability_schedules

    suite = durability_schedules(SCHEDULE_KEY)
    if name not in suite:
        raise ValueError(f"unknown durability schedule {name!r}; have {sorted(suite)}")
    return suite[name]


def torn_wal_cell(seed: int) -> Dict:
    """Directed torn-tail cell: power-fail one secondary in the exact
    window where a WAL append has completed its transfer but no flush
    covers it yet.  The replayed log must truncate the torn frame (never
    a phantom or corrupt record) and every acked put must still be
    readable once the node rejoins."""
    cluster = build_nice(**CLUSTER_KW, seed=seed)
    sim = cluster.sim
    recorder = HistoryRecorder()
    for client in cluster.clients:
        client.recorder = recorder
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
    cluster = build_nice(**CLUSTER_KW, seed=seed, scrub_interval_s=1.0)
    sim = cluster.sim
    recorder = HistoryRecorder()
    for client in cluster.clients:
        client.recorder = recorder
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
    sched = rebuild_for_key(FaultSchedule.bit_rot(SCHEDULE_KEY, count=4), keys[0])
    engine = ChaosEngine(cluster, sched, seed=seed)
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
    cluster = build_nice(**CLUSTER_KW, seed=seed, protocol_mode="harmonia")
    keys = keys_in_partition(0, cluster.config.n_partitions, 3)
    recorder = HistoryRecorder()
    _workload(cluster, recorder, keys, duration, seed)
    sched = rebuild_for_key(FaultSchedule.fail_slow(SCHEDULE_KEY), keys[0])
    engine = ChaosEngine(cluster, sched, seed=seed)
    engine.start()
    cluster.sim.run(until=duration)
    meta = cluster.metadata_active
    row = _durability_row(
        "harmonia", "fail_slow", seed, cluster, recorder, engine.events, keys
    )
    row["failslow_detections"] = meta.failslow_detections.value
    row["failslow_handoffs"] = meta.failslow_handoffs.value
    row["degraded_after"] = sorted(meta.degraded)
    return row


#: The NICE-only schedule families ``run_suite`` plans beside the standard
#: matrix (one metadata standby; the §5k durability cells).
CP_SCHEDULES = tuple(sorted(controlplane_schedules(SCHEDULE_KEY)))
DURABILITY_SCHEDULES = ("power_blackout", "torn_wal", "bit_rot", "fail_slow")


def run_suite(
    seeds: int = 5,
    baseline_seeds: int = 2,
    modes: Optional[List[str]] = None,
    schedules: Optional[List[str]] = None,
    duration: float = 10.0,
    smoke: bool = False,
    out_path: Optional[str] = DEFAULT_OUT,
) -> Dict:
    """Sweep the matrix; returns (and writes) the report dict.

    NICE gets the full ``seeds`` sweep (the paper's headline claim);
    baselines get ``baseline_seeds`` each to bound wall time.  ``smoke``
    shrinks everything for CI.  Cells fan across workers per the session's
    ``--jobs`` setting; the merged case order (mode → schedule → seed) and
    every case payload are identical to a sequential run.  The verdict is
    :func:`check`'s, over the finished report.
    """
    if smoke:
        seeds, baseline_seeds, duration = 2, 1, 8.0
        modes = modes or ["nice", "rac-2pc", "rac-weak", "harmonia", "harmonia-weak"]
        schedules = schedules or [
            "crash_rejoin", "partition_rejoin", "primary_crash",
            *CP_SCHEDULES, *DURABILITY_SCHEDULES,
        ]
    # Durability-only modes (nice-waloff) never join the matrix product;
    # the durability cell plan below instantiates them directly.
    modes = modes or [m for m in MODES if not MODES[m].get("durability_only")]
    # ``schedules`` spans all three families; ``None`` means everything.
    if schedules is None:
        schedules = [
            *(s.name for s in _schedule_suite(SCHEDULE_KEY)),
            *CP_SCHEDULES, *DURABILITY_SCHEDULES,
        ]
    std_names = [n for n in schedules if n not in CP_SCHEDULES + DURABILITY_SCHEDULES]
    _schedule_suite(SCHEDULE_KEY, std_names)  # rejects an unknown name before any cell runs
    # Harmonia modes get their own cell plan below: the honest mode runs
    # the standard suite plus the rule_flap schedule (its read rules are
    # flow state the flap attacks), the weak mode runs the directed
    # mid-put cell that deterministically exposes its early dirty-clear.
    h_modes = [m for m in modes if m.startswith("harmonia")]
    t0 = time.perf_counter()
    drain_records()  # isolate this suite's cell records from earlier runs
    cells = [
        Cell(chaos_cell, dict(mode=mode, schedule=name, duration=duration), seed=seed)
        for mode in modes
        if mode not in h_modes
        for name in std_names
        for seed in range(1, (seeds if mode == "nice" else baseline_seeds) + 1)
    ]
    if "harmonia" in h_modes:
        h_names = std_names if "rule_flap" in std_names else [*std_names, "rule_flap"]
        cells += [
            Cell(chaos_cell, dict(mode="harmonia", schedule=name, duration=duration), seed=seed)
            for name in h_names
            for seed in range(1, baseline_seeds + 1)
        ]
    cells += [
        Cell(harmonia_midput_cell, dict(mode=mode), seed=seed)
        for mode in h_modes
        for seed in range(1, baseline_seeds + 1)
    ]
    if "nice" in modes:
        # The control-plane family (metadata-leader crash/failover,
        # controller channel outages), with one metadata standby.
        cells += [
            Cell(
                chaos_cell,
                dict(mode="nice", schedule=name, duration=duration, standbys=1),
                seed=seed,
            )
            for name in CP_SCHEDULES
            if name in schedules
            for seed in range(1, seeds + 1)
        ]
        # The durability family (§5k): power blackout for the honest mode
        # and the weakened wal=off variant, the directed torn-tail cell,
        # bit-rot vs the scrubber, the fail-slow drain (harmonia reads).
        d_seeds = range(1, baseline_seeds + 1)
        if "power_blackout" in schedules:
            cells += [
                Cell(
                    durability_cell,
                    dict(mode=mode, schedule="power_blackout", duration=max(duration, 10.0)),
                    seed=seed,
                )
                for mode in ("nice", "nice-waloff")
                for seed in d_seeds
            ]
        for name, fn in (
            ("torn_wal", torn_wal_cell), ("bit_rot", bit_rot_cell), ("fail_slow", fail_slow_cell)
        ):
            if name in schedules:
                cells += [Cell(fn, {}, seed=seed) for seed in d_seeds]
    cases: List[Dict] = run_cells(cells)
    cell_records = drain_records()
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": "chaos",
        "smoke": smoke,
        "duration_s_per_case": duration,
        "modes": modes,
        "schedules": schedules,
        "provenance": provenance(records=cell_records, seeds=seeds),
        "cases": cases,
        "cells": cell_records,
        "wall_s": round(time.perf_counter() - t0, 1),
    }
    report.update(summarize(report))
    report["failures"] = check(report)
    report["passed"] = not report["failures"]
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report


def _tag(case: Dict) -> str:
    family = case["family"]
    head = family if family in ("controlplane", "durability") else case["mode"]
    return f"{head}/{case['schedule']}/seed{case['seed']}"


def _tolerated(case: Dict) -> bool:
    """A violation the matrix documents rather than fails: a loss-fragile
    mode (see :data:`MODES`) under a loss-bearing schedule."""
    return not case["linearizable"] and MODES[case["mode"]]["loss_fragile"] and case["has_loss"]


def _caught(case: Dict) -> bool:
    """Did the oracle a weak config exists for see it fail?  Acked
    durability for the wal=off cells, linearizability everywhere else."""
    return not (case["durable"] if case["family"] == "durability" else case["linearizable"])


def summarize(report: Dict) -> Dict:
    """The human-facing count blocks of a report (``summary``, ``harmonia``,
    ``durability``), derived from its ``cases``.  :func:`check` never reads
    them back."""
    cases = report["cases"]
    matrix = [c for c in cases if c["family"] not in ("controlplane", "durability")]
    summary: Dict[str, Dict] = {}
    for mode in report["modes"]:
        rows = [c for c in matrix if c["mode"] == mode]
        summary[mode] = {
            "cases": len(rows),
            "violations": sum(not c["linearizable"] for c in rows),
            "tolerated": sum(_tolerated(c) for c in rows),
            "inconclusive": sum(c["inconclusive"] for c in rows),
            "expect_violation": MODES[mode]["expect_violation"],
        }
    blocks: Dict[str, Dict] = {"summary": summary}
    cp_rows = [c for c in cases if c["family"] == "controlplane"]
    if cp_rows:
        cp = [c["controlplane"] for c in cp_rows]
        summary["controlplane"] = {
            "cases": len(cp_rows),
            "violations": sum(not c["linearizable"] for c in cp_rows),
            "tolerated": 0,  # NICE is never loss-fragile
            "inconclusive": sum(c["inconclusive"] for c in cp_rows),
            "promotions": sum(v["promotions"] for v in cp),
            "fenced_flow_mods": sum(v["fenced_flow_mods"] for v in cp),
            "reconcile_matches_scratch": all(v["reconcile_matches_scratch"] for v in cp),
        }
    h_rows = [c for c in matrix if c["mode"].startswith("harmonia")]
    if h_rows:
        safe = [c for c in h_rows if c["mode"] == "harmonia"]
        weak = [c for c in h_rows if c["mode"] == "harmonia-weak"]
        directed = [c for c in h_rows if c["family"] == "harmonia-directed"]
        dirty: Dict[str, int] = {}
        for c in directed:
            for k, v in c["dirty_set"].items():
                dirty[k] = dirty.get(k, 0) + v
        blocks["harmonia"] = {
            "cases": len(h_rows),
            "safe_cases": len(safe),
            "safe_violations": sum(not c["linearizable"] for c in safe),
            "weak_cases": len(weak),
            "weak_caught": any(_caught(c) for c in weak),
            "directed_cells": len(directed),
            "stale_replica_reads": sum(c.get("stale_replica_reads", 0) for c in safe),
            "dirty_set": dirty,
        }
    d_rows = [c for c in cases if c["family"] == "durability"]
    if d_rows:
        honest = [c for c in d_rows if c["mode"] != "nice-waloff"]
        weak = [c for c in d_rows if c["mode"] == "nice-waloff"]
        blocks["durability"] = {
            "cells": len(d_rows),
            "acked_lost": sum(not c["durable"] for c in honest),
            "torn_detected": sum(c["torn_records"] for c in d_rows),
            "scrub_repairs": sum(c["scrub_repairs"] for c in d_rows),
            "failslow_detected": any(c.get("failslow_detections", 0) > 0 for c in d_rows),
            "failslow_handoffs": sum(c.get("failslow_handoffs", 0) for c in d_rows),
            "weak_cases": len(weak),
            "weak_caught": bool(weak) and all(_caught(c) for c in weak),
        }
    return blocks


def _cell_gates(c: Dict):
    """``(ok, failure text)`` pairs one honest cell must satisfy: a clean,
    conclusive history plus its family's "the trap must spring" conditions."""
    yield c["linearizable"] or _tolerated(c), f"unexpected violation: {c['reason']}"
    yield not c["inconclusive"], f"inconclusive: {c['reason']}"
    family, schedule = c["family"], c["schedule"]
    if family == "controlplane":
        cp = c["controlplane"]
        steady = cp["steady_reconcile"]
        if schedule in ("metadata_failover", "node_meta_crash"):
            yield cp["promotions"], "metadata leader crashed but no standby promoted"
            yield cp["fenced_flow_mods"], "no flow-mod of the deposed leader was fenced"
        yield cp["reconcile_matches_scratch"], "reconciled tables diverge from scratch sync"
        yield (
            not (steady["installed"] or steady["deleted"]),
            f"settled cluster still needed repair: {steady}",
        )
    elif family == "harmonia-directed":
        stale = c["stale_replica_reads"]
        yield stale == 0, f"{stale} stale replica reads served"
    elif family == "durability":
        yield c["durable"], f"acked put lost: {c['durability_reason']}"
        if schedule == "torn_wal":
            yield c["torn_records"], "crash mid-append left no torn tail"
        elif schedule == "bit_rot":
            yield c["scrub_repairs"], "scrubber repaired nothing"
            yield not c["remaining_corrupt"], f"{c['remaining_corrupt']} objects still corrupt"
            yield not c["bitrot_served"], f"{c['bitrot_served']} corrupt values served"
        elif schedule == "fail_slow":
            yield c["failslow_detections"], "fail-slow disk never detected"
            yield c["failslow_handoffs"], "degraded primary never handed off"
            yield not c["degraded_after"], f"still degraded after heal: {c['degraded_after']}"


def check(report: Dict) -> List[str]:
    """Every gate of the suite, as failure strings (empty = pass).

    A pure function of ``cases`` plus the planned ``modes``/``schedules``,
    which say what *must* be there: a matrix whose trap cell is missing,
    or never springs, proves nothing.  ``run_suite``, the CLI exit code,
    CI and the tier-1 test over the committed ``BENCH_chaos.json`` all
    take their verdict from here.
    """
    if report["schema_version"] != SCHEMA_VERSION:
        return [f"schema_version {report['schema_version']} != {SCHEMA_VERSION}"]
    cases, modes, schedules = report["cases"], report["modes"], report["schedules"]
    failures: List[str] = []
    # What the planned matrix must contain: the weak configs the checker
    # has to catch, and the (family, schedule) groups of honest trap cells.
    weak = [m for m in modes if MODES[m]["expect_violation"]]
    groups = []
    if "harmonia" in modes:
        groups += [("standard", "rule_flap"), ("harmonia-directed", "rack_isolate_midput")]
    if "nice" in modes:
        groups += [("controlplane", n) for n in CP_SCHEDULES if n in schedules]
        groups += [("durability", n) for n in DURABILITY_SCHEDULES if n in schedules]
        if "power_blackout" in schedules:
            weak.append("nice-waloff")
    ran = set()
    for c in cases:
        if not MODES[c["mode"]]["expect_violation"]:
            ran.add((c["family"], c["schedule"]))
            failures += [f"{_tag(c)}: {text}" for ok, text in _cell_gates(c) if not ok]
        elif c["family"] == "durability" and not _caught(c):
            failures.append(f"{_tag(c)}: wal=off acked losses escaped detection")
    failures += [
        f"{family}/{schedule}: planned but no honest cell ran"
        for family, schedule in groups
        if (family, schedule) not in ran
    ]
    for mode in weak:
        if not any(_caught(c) for c in cases if c["mode"] == mode):
            failures.append(f"{mode}: weak config escaped detection")
    return failures


def format_report(report: Dict) -> str:
    lines = ["chaos × consistency matrix (ops verified per cell):", ""]
    header = f"{'mode':<12} {'schedule':<18} {'seed':>4} {'ops':>5} {'lin':>5} {'note'}"
    lines.append(header)
    lines.append("-" * len(header))
    for c in report["cases"]:
        note = "inconclusive" if c["inconclusive"] else (c["reason"][:50] if not c["linearizable"] else "")
        lines.append(
            f"{c['mode']:<12} {c['schedule']:<18} {c['seed']:>4} "
            f"{c['n_ops']:>5} {'ok' if c['linearizable'] else 'VIOL':>5} {note}"
        )
    lines.append("")
    for mode, s in report["summary"].items():
        line = (
            f"  {mode:<12} {s['cases']} cases, {s['violations']} violations, "
            f"{s['tolerated']} tolerated (loss-fragile), {s['inconclusive']} inconclusive"
        )
        if mode == "controlplane":
            line += (
                f", {s['promotions']} promotions, {s['fenced_flow_mods']} fenced mods, "
                f"reconcile==scratch: {s['reconcile_matches_scratch']}"
            )
        else:
            line += " (violation expected)" if s["expect_violation"] else " (must be clean)"
        lines.append(line)
    h = report.get("harmonia")
    if h:
        lines.append(
            f"  harmonia: {h['safe_cases']} safe cases "
            f"({h['safe_violations']} violations), weak caught: "
            f"{h['weak_caught']} over {h['weak_cases']} cases, "
            f"{h['directed_cells']} directed mid-put cells"
        )
    d = report.get("durability")
    if d:
        lines.append(
            f"  durability: {d['cells']} cells, {d['acked_lost']} acked losses, "
            f"{d['torn_detected']} torn records, {d['scrub_repairs']} scrub "
            f"repairs, fail-slow detected: {d['failslow_detected']} "
            f"({d['failslow_handoffs']} handoffs), wal=off caught: "
            f"{d['weak_caught']} over {d['weak_cases']} cells"
        )
    lines.append("")
    lines.append("PASS" if report["passed"] else "FAIL:")
    for f in report["failures"]:
        lines.append(f"  {f}")
    return "\n".join(lines)
