"""Micro-benches for what ``benchmarks/e2e`` (``BENCHMARK.json``, the
end-to-end perf contract) cannot see — schema v11:

* ``kernel_churn`` / ``kernel_steady`` — raw event-loop throughput, and
  heap throughput under 90% timer cancellation (DESIGN.md §5g).
* ``kernel_process`` — µs per process spawn-and-join and per timeout wake
  (recorded only: host-noisy, no floor).
* ``kernel_armed_timers`` — heap occupancy while every op arms a timeout
  that the common case beats, and the heap never drains (§5g).
* ``switch_lookup`` — ``FlowTable.lookup`` at 1 000 / 4 000 rules and on a
  multi-mask table, memo on vs off.
* ``multicast_fanout`` — scheduled events and spawned processes per put
  at R = 3/5/7 (e2e is fixed at R = 3).
* ``harmonia_read_floor`` — hot-partition YCSB-C reads, harmonia vs
  NICE-LB (§5j).
* ``plan_scale`` — the incremental rule planner on the fabric rungs (§5i).

``python -m repro.bench perf`` runs them and judges the report with
:func:`check` — the one definition of every floor, ceiling and cache
contract, shared by the CLI exit code, CI and the tier-1 test over the
committed report; ``--out BENCH_perf.json`` writes it (schema in
EXPERIMENTS.md).  Wall-clock numbers are machine-dependent; the ratios
and the simulated results are not.
"""

from __future__ import annotations

import gc
import time

from ..net import (
    FlowTable, IPv4Address, IPv4Network, Match, Output, Packet, Proto, Rule, ToController,
)
from ..sim import AllOf, AnyOf, Simulator
from ..workloads import closed_loop_puts
from .figures import read_scaling_cell
from .harness import BASE_SEED, build_nice, run_to_completion
from .parallel import provenance

__all__ = ["run_suite", "check", "format_report", "SCHEMA_VERSION"]

SCHEMA_VERSION = 11

#: Host-rate floors, events/s: ~1/3 of the rate observed on the reference
#: box after the §5g kernel overhaul, leaving headroom for slower CI
#: runners while still catching an event-core regression.
KERNEL_FLOORS = {"kernel_churn": 120_000, "kernel_steady": 150_000}

#: The cancel-heavy bench must keep recycling heap entries.
ENTRY_POOL_REUSE_FLOOR = 0.9

#: Cold plans/s floor on the 4x16 rung (~14K observed on the slowest
#: reference run; the usual ~1/3).
PLANS_PER_S_FLOOR = 4000

#: Ceilings per put at replication 3/5/7 on scheduled events (152.8 /
#: 247.7 / 342.6 today) and, at every R, on spawned processes (0.08: the
#: workload driver's own; the client op, its multicast send and every
#: replica's put are chains — a process is for code that waits between
#: steps, DESIGN.md §5g).  Both counts are deterministic, so the ceilings
#: sit just above them and only ever ratchet down.
FANOUT_EVENTS_PER_OP_MAX = {3: 154, 5: 249, 7: 344}
FANOUT_SPAWNS_PER_OP_MAX = 0.2

#: Floor on harmonia's hot-partition read throughput relative to NICE-LB
#: at R=3 under YCSB-C (the §5j read-scaling contract).  The structural
#: ratio on the gate population is 1.8x (the LB primary carries 3 of the
#: 5 client IPs — two in its own division plus the power-of-two
#: fall-through block — while harmonia serves each replica 1/3), so 1.5x
#: leaves room for closed-loop tail effects without ever passing a
#: regression that collapses the round-robin.
HARMONIA_READ_FLOOR = 1.5


# ------------------------------------------------------------------ kernel
def _rates(sim: Simulator, events: int, wall: float) -> dict:
    """The columns every event-loop bench reports."""
    rate = events / wall if wall > 0 else None
    return {"scheduled_events": events, "wall_s": wall, "events_per_s": rate,
            "pools": sim.pool_stats()}


def _churn_proc(sim: Simulator, rounds: int):
    for _ in range(rounds):
        # The 1–3 event joins that dominate the storage protocols.
        got = yield AnyOf(sim, [sim.timeout(1.0, "fast"), sim.timeout(2.0, "slow")])
        assert "fast" in list(got.values())
        yield AllOf(sim, [sim.timeout(0.5), sim.timeout(1.0), sim.timeout(1.5)])
        yield sim.timeout(0.25)


def bench_kernel_churn(n_procs: int = 64, rounds: int = 250) -> dict:
    """Event-loop throughput: timeout + condition churn across processes."""
    sim = Simulator()
    marks = []
    for _ in range(n_procs):
        sim.process(_churn_proc(sim, rounds))
    for i in range(n_procs * rounds):
        sim.call_in(float(i % 97) * 0.01, marks.append, None)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {"processes": n_procs, "rounds": rounds, **_rates(sim, sim._eid, wall)}


def bench_kernel_steady(
    n_events: int = 500_000, window: int = 1024, keep_every: int = 10
) -> dict:
    """Steady-state heap throughput, timer-cancellation-heavy.

    Keeps a ``window``-deep pool of pending timeouts, cancels all but one
    in ``keep_every`` before they fire, and drains the survivors — the
    protocol-timeout profile (armed, then beaten by the common case) that
    exercises the kernel's O(1) tombstone cancellation and entry recycling.
    """
    sim = Simulator()
    scheduled = 0
    cancelled = 0
    timeout = sim.timeout
    cancel = sim.cancel_timer
    t0 = time.perf_counter()
    while scheduled < n_events:
        batch = [timeout(1.0 + (i % 13) * 0.05) for i in range(window)]
        scheduled += window
        for i, ev in enumerate(batch):
            if i % keep_every:
                cancel(ev)
                cancelled += 1
        sim.run()  # fire survivors, sweep tombstones
    wall = time.perf_counter() - t0
    return {
        "cancelled": cancelled,
        "cancel_ratio": cancelled / scheduled,
        **_rates(sim, scheduled, wall),
    }


def _sleep(sim: Simulator, n: int):
    for _ in range(n):
        yield sim.timeout(1.0)


def _spawn_and_join(sim: Simulator, n: int):
    for _ in range(n):
        yield sim.process(_sleep(sim, 1))


def bench_kernel_process(n: int = 50_000, repeats: int = 3) -> dict:
    """What a process costs the kernel: µs per spawn-and-join of a child
    that waits one timeout, and µs per timeout wake of a running process.

    The two legs alternate ``repeats`` times and each keeps its fastest
    run (host noise only ever adds time).  Recorded, never gated: the
    numbers are host wall clock.
    """
    runs = {"spawn_join": [], "wake": []}
    for _ in range(repeats):
        for leg, body in (("spawn_join", _spawn_and_join), ("wake", _sleep)):
            sim = Simulator()
            sim.process(body(sim, n))
            gc.collect()
            t0 = time.perf_counter()
            sim.run()
            runs[leg].append((time.perf_counter() - t0) / n * 1e6)
    return {
        "n": n,
        "repeats": repeats,
        "us_per_spawn_join": min(runs["spawn_join"]),
        "us_per_wake": min(runs["wake"]),
        "runs_us": runs,
    }


def _armed_server(sim: Simulator, reply, hops: int):
    for i in range(hops):
        yield sim.timeout(2e-6 if i % 2 else 0.0)
    reply.succeed()


def _armed_client(sim: Simulator, n_ops: int, hops: int, peaks: dict):
    for _ in range(n_ops):
        reply = sim.event()
        sim.process(_armed_server(sim, reply, hops))
        yield AnyOf(sim, [reply, sim.timeout(2.0)])  # the reply always wins
        heap = sim.pool_stats()["heap"]
        peaks["heap_max"] = max(peaks["heap_max"], heap["size"])
        peaks["live_max"] = max(peaks["live_max"], heap["live"])


def bench_kernel_armed_timers(n_ops: int = 60_000, hops: int = 32, clients: int = 4) -> dict:
    """Heap occupancy under the protocol-timeout profile, without a drain.

    Every op arms a 2 s retry timer, is served by a process that takes
    ``hops`` zero-delay and microsecond steps, and cancels the timer when
    the reply wins — what each put and get does several times over.  The
    whole run lasts under 2 simulated seconds, so no cancelled timer ever
    surfaces: a kernel that waits for tombstones ends with ``heap_max`` ≈
    ``n_ops``, one that compacts them holds it near ``live_max``.
    """
    sim = Simulator()
    peaks = {"heap_max": 0, "live_max": 0}
    for _ in range(clients):
        sim.process(_armed_client(sim, n_ops // clients, hops, peaks))
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert sim.now < 2.0, "an armed timer surfaced: the bench measured a drain"
    return {"ops": n_ops, "hops": hops, "clients": clients, **peaks,
            **_rates(sim, sim._eid, wall)}


# ------------------------------------------------------------------ switch
_LOOKUP_BASE = IPv4Address("10.64.0.0")
#: Distinct flows each lookup bench cycles through.
LOOKUP_FLOWS = 64


def _host_route_table(n_rules: int):
    """``n_rules`` /32 routes — one destination mask — and flows
    ``(dst_ip, dport)`` spread evenly over them."""
    rules = [
        Rule(Match(ip_dst=IPv4Network(_LOOKUP_BASE + i, 32), proto=Proto.UDP), [Output(1)])
        for i in range(n_rules)
    ]
    flows = [
        (_LOOKUP_BASE + (f * n_rules) // LOOKUP_FLOWS, 4000) for f in range(LOOKUP_FLOWS)
    ]
    return rules, flows


def _leaf_table(n_subgroups: int = 128, n_hosts: int = 600):
    """~1 000 rules over four destination masks, shaped like a fabric
    leaf (DESIGN.md §5h): ARP to the controller, per /22 vring subgroup two
    source-division get rules naming ``dport`` 7000 above a base rule, /32
    host routes, /24 rack aggregates.  Flows alternate gets to a subgroup
    with replies to a host on an ephemeral port."""
    vring = IPv4Address("10.128.0.0")
    rules = [Rule(Match(proto=Proto.ARP), [ToController()], priority=500)]
    for g in range(n_subgroups):
        subgroup = IPv4Network(vring + (g << 10), 22)
        for division in ("10.0.0.0/26", "10.0.0.64/26"):
            get = Match(ip_dst=subgroup, ip_src=IPv4Network(division), proto=Proto.UDP,
                        dport=7000)
            rules.append(Rule(get, [Output(2)], priority=300))
        rules.append(Rule(Match(ip_dst=subgroup), [Output(3)], priority=200))
    for i in range(n_hosts):
        host = IPv4Network(_LOOKUP_BASE + i, 32)
        rules.append(Rule(Match(ip_dst=host), [Output(1)], priority=200))
    for rack in range(6):
        aggregate = IPv4Network(IPv4Address("10.200.0.0") + (rack << 8), 24)
        rules.append(Rule(Match(ip_dst=aggregate), [Output(4)], priority=140))
    flows = [
        (vring + (((f * n_subgroups) // LOOKUP_FLOWS) << 10) + 5, 7000) if f % 2
        else (_LOOKUP_BASE + (f * n_hosts) // LOOKUP_FLOWS, 50000 + f)
        for f in range(LOOKUP_FLOWS)
    ]
    return rules, flows


def bench_switch_lookup(n_lookups: int = 20000) -> dict:
    """``FlowTable.lookup`` rates with the exact-match memo on and off.

    Memo off is the destination index alone: its rate must not follow the
    rule count (1 000 vs 4 000 routes) and pays one probe per mask on the
    leaf-shaped table.  ``memo_speedup`` is what the memo is still worth
    on top of it (< 1: the index alone is faster).
    """
    src = IPv4Address("10.0.0.1")
    out = {"n_lookups": n_lookups, "n_flows": LOOKUP_FLOWS, "tables": []}
    for name, (rules, flows) in (
        ("host_routes_1000", _host_route_table(1000)),
        ("host_routes_4000", _host_route_table(4000)),
        ("fabric_leaf", _leaf_table()),
    ):
        packets = [
            Packet(src_ip=src, dst_ip=dst, proto=Proto.UDP, dport=dport, payload_bytes=64)
            for dst, dport in flows
        ]
        entry = {
            "table": name,
            "n_rules": len(rules),
            "dst_masks": len({r.match.ip_dst.prefixlen if r.match.ip_dst else 0 for r in rules}),
        }
        for label, cache_enabled in (("cached", True), ("uncached", False)):
            table = FlowTable(cache_enabled=cache_enabled)
            for rule in rules:
                table.add(rule)
            lookup = table.lookup
            lookup(packets[0], 1)  # build the index outside the timed loop
            t0 = time.perf_counter()
            for k in range(n_lookups):
                lookup(packets[k % LOOKUP_FLOWS], 1)
            wall = time.perf_counter() - t0
            entry[label] = {
                "wall_s": wall,
                "lookups_per_s": n_lookups / wall if wall > 0 else None,
            }
            if cache_enabled:
                total = table.cache_hits + table.cache_misses
                entry[label]["hit_rate"] = table.cache_hits / total if total else 0.0
        entry["memo_speedup"] = entry["uncached"]["wall_s"] / entry["cached"]["wall_s"]
        out["tables"].append(entry)
    return out


# ------------------------------------------------------- multicast fan-out
def bench_multicast_fanout(n_ops: int = 150, size: int = 1 << 14) -> dict:
    """Scheduled events and spawned processes per put at replication 3/5/7.

    Every extra replica costs ~47 events of data/ACK and 2PC traffic and no
    process.  Only these deterministic columns are kept (put wall time is
    ``benchmarks/e2e``'s job), and ``n_ops`` is the same in smoke and full
    runs so the ``FANOUT_*_PER_OP_MAX`` ceilings gate both.
    """
    out = {"n_ops": n_ops, "size_bytes": size, "legs": []}
    for r in (3, 5, 7):
        cluster = build_nice(
            n_storage_nodes=8, n_clients=1, replication_level=r, n_partitions=8
        )
        client = cluster.clients[0]
        key = f"fanout-{r}"

        def driver(sim):
            seed = yield client.put(key, "x", size)
            assert seed.ok, "seed put failed"
            yield closed_loop_puts(client, sim, n_ops, size, keys=[key])

        run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
        events = cluster.sim._eid
        spawns = cluster.sim.pool_stats()["processes"]["spawned"]
        out["legs"].append({
            "replication": r, "scheduled_events": events, "events_per_op": events / n_ops,
            "spawns": spawns, "spawns_per_op": spawns / n_ops,
        })
    return out


# -------------------------------------------------- harmonia read floor
def bench_harmonia_read_floor(
    n_ops_per_client: int = 800, n_clients: int = 5, n_records: int = 200
) -> dict:
    """Hot-partition YCSB-C at R=3: harmonia vs NICE-LB read throughput.

    Reuses the read-scaling cell (one partition's keyspace, 150us server
    cost) so the gate measures exactly what the figure plots.  5 clients
    is the deliberately LB-hostile population: stride placement lands 3
    of the 5 in the primary's share of the §4.5 division space.
    """
    legs = {}
    for label, system in (("nice_lb", "NICE"), ("harmonia", "NICE harmonia")):
        t0 = time.perf_counter()
        row = read_scaling_cell(
            workload="C", system=system, replication=3,
            n_ops_per_client=n_ops_per_client, n_clients=n_clients,
            n_records=n_records, seed=BASE_SEED,
        )["rows"][0]
        row["wall_s"] = time.perf_counter() - t0
        legs[label] = row
    return {
        "workload": "C",
        "replication": 3,
        "n_ops_per_client": n_ops_per_client,
        "n_clients": n_clients,
        "n_records": n_records,
        **legs,
        "ratio": legs["harmonia"]["throughput_ops_s"] / legs["nice_lb"]["throughput_ops_s"],
    }


# ------------------------------------------------------------ plan_scale
#: The fabric rungs plan_scale climbs (racks, hosts_per_rack, rule budget).
PLAN_SCALE_RUNGS = ((4, 16, 1024), (10, 30, 4096), (20, 50, 8192))


def _plan_scale_rung(racks: int, hosts_per_rack: int, budget: int) -> dict:
    t0 = time.perf_counter()
    cluster = build_nice(
        n_storage_nodes=racks * hosts_per_rack,
        n_clients=2,
        n_racks=racks,
        switch_rule_budget=budget,
    )
    build_s = time.perf_counter() - t0
    sim, ctrl = cluster.sim, cluster.controller
    sim.run(until=sim.now + 0.05)  # let the build-time flow-mods land

    def timed_leg(fn):
        """Time ``fn()``, then let its flow-mods land.  Each leg starts
        from a collected heap: the build leaves enough young garbage that
        a gen-2 pass otherwise lands inside whichever leg runs first and
        halves its plans/s for identical per-plan cost."""
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        sim.run(until=sim.now + 0.05)
        return result, wall

    # Cold: every (switch, partition) plan recomputed from scratch.
    ctrl.invalidate_plans()
    ctrl.plan_recomputes.reset()
    ctrl.plan_cache_hits.reset()
    ctrl.plan_wall_s = 0.0
    _, cold_sync_s = timed_leg(ctrl.sync_all)
    cold_recomputes = ctrl.plan_recomputes.value

    # Warm: reconcile must serve every plan from the cache.
    ctrl.plan_recomputes.reset()
    ctrl.plan_cache_hits.reset()
    stats, warm_reconcile_s = timed_leg(ctrl.reconcile)
    warm_recomputes = ctrl.plan_recomputes.value
    warm_hits = ctrl.plan_cache_hits.value

    # Incremental: dirty one partition, resync just it.
    _, incremental_sync_s = timed_leg(lambda: ctrl.sync_partition(0))

    return {
        "racks": racks,
        "hosts_per_rack": hosts_per_rack,
        "nodes": racks * hosts_per_rack,
        "partitions": len(ctrl.partition_map),
        "switches": len(ctrl.channel.switches),
        "rule_budget": budget,
        "build_s": build_s,
        "cold_sync_s": cold_sync_s,
        "cold_recomputes": cold_recomputes,
        "plans_per_s": cold_recomputes / cold_sync_s if cold_sync_s > 0 else None,
        "warm_reconcile_s": warm_reconcile_s,
        "warm_recomputes": warm_recomputes,
        "warm_cache_hits": warm_hits,
        "warm_reconcile_noop": stats["installed"] == 0 and stats["deleted"] == 0,
        "incremental_sync_s": incremental_sync_s,
        "incremental_speedup": (
            cold_sync_s / incremental_sync_s if incremental_sync_s > 0 else None
        ),
    }


def bench_plan_scale(rungs=PLAN_SCALE_RUNGS) -> dict:
    """Controller planning cost per scale-ladder rung (cold / warm / incremental)."""
    return {"rungs": [_plan_scale_rung(*rung) for rung in rungs]}


# ----------------------------------------------------------------- driver
#: bench name -> (function, the kwargs that shrink it for ``--smoke``).
BENCHES = {
    "kernel_churn": (bench_kernel_churn, dict(n_procs=16, rounds=40)),
    "kernel_steady": (bench_kernel_steady, dict(n_events=60_000)),
    "kernel_process": (bench_kernel_process, dict(n=5_000)),
    "kernel_armed_timers": (bench_kernel_armed_timers, dict(n_ops=6_000)),
    "switch_lookup": (bench_switch_lookup, dict(n_lookups=3000)),
    "multicast_fanout": (bench_multicast_fanout, {}),
    "plan_scale": (bench_plan_scale, dict(rungs=PLAN_SCALE_RUNGS[:1])),
    "harmonia_read_floor": (bench_harmonia_read_floor, dict(n_ops_per_client=300)),
}


def check(report: dict) -> list:
    """Every gate of the suite, as failure strings (empty = pass): a pure
    function of the report, for smoke and full reports alike."""
    if report["schema_version"] != SCHEMA_VERSION:
        return [f"schema_version {report['schema_version']} != {SCHEMA_VERSION}"]
    b = report["benches"]
    failures = []

    def gate(ok, message):
        if not ok:
            failures.append(message)

    for bench, floor in KERNEL_FLOORS.items():
        rate = b[bench]["events_per_s"]
        gate(rate >= floor, f"{bench}: {rate:,.0f} events/s under floor {floor:,}")
    reuse = b["kernel_steady"]["pools"]["entry_pool"]["reuse_rate"]
    gate(
        reuse > ENTRY_POOL_REUSE_FLOOR,
        f"kernel_steady: entry-pool reuse {reuse:.3f} not above {ENTRY_POOL_REUSE_FLOOR}",
    )
    armed = b["kernel_armed_timers"]
    heap_ceiling = 2 * armed["live_max"] + Simulator.COMPACT_FLOOR
    gate(
        armed["heap_max"] <= heap_ceiling,
        f"kernel_armed_timers: heap held {armed['heap_max']} records for "
        f"{armed['live_max']} live ones (ceiling {heap_ceiling})",
    )
    for leg in b["multicast_fanout"]["legs"]:
        r = leg["replication"]
        for unit, ceiling in (("events", FANOUT_EVENTS_PER_OP_MAX[r]),
                              ("spawns", FANOUT_SPAWNS_PER_OP_MAX)):
            per_op = leg[f"{unit}_per_op"]
            gate(per_op <= ceiling,
                 f"multicast_fanout: R={r} {per_op:.1f} {unit}/op over ceiling {ceiling}")
    rungs = b["plan_scale"]["rungs"]
    for r in rungs:
        tag = f"plan_scale {r['racks']}x{r['hosts_per_rack']}"
        gate(
            r["warm_recomputes"] == 0 and r["warm_cache_hits"] > 0,
            f"{tag}: warm reconcile recomputed {r['warm_recomputes']} plans "
            f"({r['warm_cache_hits']} cache hits)",
        )
        gate(r["warm_reconcile_noop"], f"{tag}: settled reconcile touched the tables")
    gate(  # rungs[0] is the 4x16 rung, in smoke and full alike
        rungs[0]["plans_per_s"] >= PLANS_PER_S_FLOOR,
        f"plan_scale 4x16: {rungs[0]['plans_per_s']:,.0f} plans/s cold "
        f"under floor {PLANS_PER_S_FLOOR:,}",
    )
    h = b["harmonia_read_floor"]
    gate(
        h["ratio"] >= HARMONIA_READ_FLOOR,
        f"harmonia_read_floor: {h['ratio']:.2f}x NICE-LB under the "
        f"{HARMONIA_READ_FLOOR:.2f}x floor (R=3, YCSB-C)",
    )
    for leg in ("nice_lb", "harmonia"):
        gate(not h[leg]["errors"], f"harmonia_read_floor: {h[leg]['errors']} {leg} errors")
    return failures


def run_suite(smoke: bool = False) -> dict:
    """Run every bench, judge the report with :func:`check` and return it."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "smoke": smoke,
        "provenance": provenance(),
        "benches": {
            name: fn(**(smoke_kwargs if smoke else {}))
            for name, (fn, smoke_kwargs) in BENCHES.items()
        },
    }
    report["failures"] = check(report)
    report["passed"] = not report["failures"]
    return report


def format_report(report: dict) -> str:
    b = report["benches"]
    k, s, a = b["kernel_churn"], b["kernel_steady"], b["kernel_armed_timers"]
    p = b["kernel_process"]
    h = b["harmonia_read_floor"]
    per_r = ", ".join(
        f"R={leg['replication']}: {leg['events_per_op']:,.1f} ev/op,"
        f" {leg['spawns_per_op']:.1f} spawns/op"
        for leg in b["multicast_fanout"]["legs"]
    )
    per_table = ", ".join(
        f"{t['table']}: {t['uncached']['lookups_per_s']:,.0f}/s uncached,"
        f" memo {t['memo_speedup']:.2f}x"
        for t in b["switch_lookup"]["tables"]
    )
    per_rung = ", ".join(
        f"{r['racks']}x{r['hosts_per_rack']}: {r['plans_per_s']:,.0f} plans/s cold,"
        f" warm {r['warm_reconcile_s']*1e3:,.0f}ms ({r['warm_recomputes']} recomputes)"
        for r in b["plan_scale"]["rungs"]
    )
    lines = [
        f"perf suite (schema v{report['schema_version']}, smoke={report['smoke']},"
        f" python {report['provenance']['python']})",
        f"  kernel_churn   : {k['events_per_s']:,.0f} events/s"
        f" ({k['scheduled_events']} events in {k['wall_s']:.3f}s)",
        f"  kernel_steady  : {s['events_per_s']:,.0f} events/s"
        f" ({s['cancel_ratio']:.0%} cancelled,"
        f" entry-pool reuse {s['pools']['entry_pool']['reuse_rate']:.3f})",
        f"  kernel_process : {p['us_per_spawn_join']:.2f} us/spawn-and-join,"
        f" {p['us_per_wake']:.2f} us/wake (fastest of {p['repeats']})",
        f"  kernel_armed   : {a['events_per_s']:,.0f} events/s"
        f" (heap max {a['heap_max']} for {a['live_max']} live, {a['ops']} ops)",
        f"  switch_lookup  : {per_table}",
        f"  multicast_fanout: {per_r}",
        f"  plan_scale     : {per_rung}",
        f"  harmonia_reads : {h['ratio']:.2f}x NICE-LB at R=3 YCSB-C"
        f" (floor {HARMONIA_READ_FLOOR:.2f}x)",
        "PASS" if report["passed"] else "FAIL:",
    ]
    return "\n".join(lines + [f"  {f}" for f in report["failures"]])
