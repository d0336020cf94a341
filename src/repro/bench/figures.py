"""Experiment definitions regenerating every figure of the paper's §6.

Each ``figN_*`` function rebuilds the deployment of §6 (15 storage nodes +
1 metadata node, 1 Gbps links, R=3 unless the figure varies it), drives the
paper's workload, and returns an :class:`ExperimentResult` whose rows are
the figure's data points.  ``n_ops`` defaults to the paper's 1000
operations per point; the pytest benchmarks pass reduced counts (the
simulator is deterministic, so means converge with far fewer samples).

Every sweep decomposes into declarative :class:`~repro.bench.parallel.Cell`
records — one per independent (system, replication, size, ...) leg, each
building its own cluster from an explicit seed — executed through
:func:`~repro.bench.parallel.run_cells`.  With ``--jobs 1`` (the library
default) cells run inline in sweep order; with ``--jobs N`` they fan
across worker processes and merge back in canonical cell order, so the
rows are bit-identical either way (pinned by tests/bench/test_parallel.py).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core import ClusterConfig, NiceCluster
from ..net import MBPS, wire_size
from ..sim import AllOf, Tally
from ..workloads import (
    OBJECT_SIZES,
    WORKLOADS,
    YcsbRunner,
    closed_loop_gets,
    closed_loop_puts,
    hot_object_clients,
    keys_in_partition,
    run_fault_timeline,
)
from .harness import ExperimentResult, build_nice, build_noob, run_to_completion
from .parallel import Cell, derive_seed, run_cells

__all__ = [
    "fig4_request_routing",
    "fig5_6_7_replication",
    "fig8_quorum",
    "fig9_consistency",
    "fig10_load_balancing",
    "fig11_fault_tolerance",
    "fig12_ycsb",
    "read_scaling",
    "sec46_switch_scalability",
]

#: The four systems of Figs 4–7.
ROUTING_SYSTEMS = ("NICE", "NOOB+RAC", "NOOB+RAG", "NOOB+ROG")

#: Base cluster seed shared by the figure sweeps (= ClusterConfig default).
#: Each cell receives it explicitly so a cell's execution is a pure
#: function of its (params, seed) record, independent of sweep order.
BASE_SEED: int = ClusterConfig.__dataclass_fields__["seed"].default


def _build(system: str, **overrides):
    if system == "NICE":
        return build_nice(**overrides)
    access = system.split("+")[1].lower()
    overrides.setdefault("consistency", "primary")
    return build_noob(access=access, **overrides)


# --------------------------------------------------------------------- Fig 4
def fig4_cell(system: str, n_ops: int, sizes: Sequence[int], seed: int) -> Dict:
    """One Fig 4 leg: get latency vs size for a single system."""
    cluster = _build(system, n_storage_nodes=15, n_clients=1, seed=seed)
    client = cluster.clients[0]
    rows: List[Dict] = []

    def driver(sim):
        for size in sizes:
            key = f"routing-{size}"
            r = yield client.put(key, "x", size)
            assert r.ok, f"{system}: seed put failed"
            tally = yield closed_loop_gets(client, sim, n_ops, [key])
            rows.append(
                dict(
                    system=system,
                    size_bytes=size,
                    get_ms=tally.mean * 1e3,
                    stdev_ms=tally.stdev * 1e3,
                )
            )

    run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    return {"rows": rows}


def fig4_request_routing(
    n_ops: int = 1000, sizes: Sequence[int] = OBJECT_SIZES, seed: int = BASE_SEED
) -> ExperimentResult:
    """Fig 4: average get time vs object size for NICE / RAC / RAG / ROG."""
    result = ExperimentResult(
        "fig4",
        "Request Routing Performance — average get() time (ms), log-size axis",
        ["system", "size_bytes", "get_ms", "stdev_ms"],
    )
    cells = [
        Cell(fig4_cell, dict(system=s, n_ops=n_ops, sizes=list(sizes)), seed=seed)
        for s in ROUTING_SYSTEMS
    ]
    for payload in run_cells(cells):
        result.rows.extend(payload["rows"])
    result.note(f"{n_ops} gets per point; single client, R=3, 15 storage nodes")
    return result


# ----------------------------------------------------------------- Figs 5–7
def fig5_6_7_cell(system: str, n_ops: int, sizes: Sequence[int], seed: int) -> Dict:
    """One Figs 5–7 leg: put time / link load / storage-load ratio for a
    single system across object sizes."""
    cluster = _build(system, n_storage_nodes=15, n_clients=1, seed=seed)
    client = cluster.clients[0]
    rows5: List[Dict] = []
    rows6: List[Dict] = []
    rows7: List[Dict] = []

    def driver(sim):
        for size in sizes:
            key = f"repl-{size}"
            # Warm paths (connections, rules) outside the measurement.
            r = yield client.put(key, "x", size)
            assert r.ok
            cluster.reset_measurements()
            tally = yield closed_loop_puts(client, sim, n_ops, size, keys=[key])
            total_bytes = cluster.network.total_link_bytes()
            replicas = cluster.replica_nodes(key)
            primary, secondaries = replicas[0], replicas[1:]
            pio = cluster.network.host_io_bytes(primary.host)
            sio = [cluster.network.host_io_bytes(s.host) for s in secondaries]
            rows5.append(
                dict(
                    system=system, size_bytes=size,
                    put_ms=tally.mean * 1e3, stdev_ms=tally.stdev * 1e3,
                )
            )
            rows6.append(
                dict(
                    system=system, size_bytes=size,
                    link_bytes_per_op=total_bytes / max(tally.count, 1),
                    x_object_size=total_bytes / max(tally.count, 1) / wire_size(size),
                )
            )
            rows7.append(
                dict(
                    system=system, size_bytes=size,
                    load_ratio=pio / max(float(np.mean(sio)), 1.0) if sio else 1.0,
                )
            )

    run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    return {"fig5": rows5, "fig6": rows6, "fig7": rows7}


def fig5_6_7_replication(
    n_ops: int = 1000, sizes: Sequence[int] = OBJECT_SIZES, seed: int = BASE_SEED
) -> Dict[str, ExperimentResult]:
    """Figs 5, 6, 7: put time, total network link load, and
    primary:secondary storage-load ratio, per object size and system."""
    fig5 = ExperimentResult(
        "fig5", "Replication Performance — average put() time (ms)",
        ["system", "size_bytes", "put_ms", "stdev_ms"],
    )
    fig6 = ExperimentResult(
        "fig6", "Network Link Load — total bytes crossing links per put",
        ["system", "size_bytes", "link_bytes_per_op", "x_object_size"],
    )
    fig7 = ExperimentResult(
        "fig7", "Storage Load Ratio — primary IO bytes / mean secondary IO bytes",
        ["system", "size_bytes", "load_ratio"],
    )
    cells = [
        Cell(fig5_6_7_cell, dict(system=s, n_ops=n_ops, sizes=list(sizes)), seed=seed)
        for s in ROUTING_SYSTEMS
    ]
    for payload in run_cells(cells):
        fig5.rows.extend(payload["fig5"])
        fig6.rows.extend(payload["fig6"])
        fig7.rows.extend(payload["fig7"])
    for fig in (fig5, fig6, fig7):
        fig.note(f"{n_ops} puts per point; single client, R=3, 15 storage nodes")
    return {"fig5": fig5, "fig6": fig6, "fig7": fig7}


# --------------------------------------------------------------------- Fig 8
def fig8_cell(
    system: str,
    quorum: int,
    n_ops: int,
    size: int,
    replication: int,
    n_slow: int,
    slow_bps: float,
    seed: int,
) -> Dict:
    """One Fig 8 leg: quorum-k puts with throttled replicas, one system."""
    key = "quorum-object"
    if system == "NICE":
        cluster = build_nice(
            n_storage_nodes=15, n_clients=1, replication_level=replication, seed=seed
        )
    else:
        cluster = build_noob(
            n_storage_nodes=15, n_clients=1, replication_level=replication,
            consistency="quorum", quorum_k=quorum, access="rac", seed=seed,
        )
    replicas = cluster.replica_nodes(key)
    for node in replicas[-n_slow:]:
        cluster.network.link_between(cluster.switch, node.host).set_bandwidth(slow_bps)
    client = cluster.clients[0]

    def nice_driver(sim):
        tally = Tally("nice")
        for i in range(n_ops):
            r = yield client.put_anyk(key, "x", size, quorum=quorum)
            tally.observe(r.latency)
        return tally

    def noob_driver(sim):
        tally = Tally("noob")
        for i in range(n_ops):
            r = yield client.put(key, "x", size, max_retries=0)
            if r.ok:
                tally.observe(r.latency)
        return tally

    driver = nice_driver if system == "NICE" else noob_driver
    tally = run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    return {
        "rows": [
            dict(
                system=system, quorum=quorum, put_ms=tally.mean * 1e3,
                bandwidth_MBps=size / tally.mean / 1e6,
            )
        ]
    }


def fig8_quorum(
    n_ops: int = 1000,
    size: int = 1 << 20,
    replication: int = 7,
    quorums: Sequence[int] = (1, 3, 5, 7),
    n_slow: int = 3,
    slow_bps: float = 50 * MBPS,
    seed: int = BASE_SEED,
) -> ExperimentResult:
    """Fig 8: quorum-based replication with 3 replicas throttled to 50 Mbps.

    NICE uses the reliable any-k multicast; NOOB's primary concurrently
    unicasts to every replica and acks at the write-set size.
    """
    result = ExperimentResult(
        "fig8",
        "Quorum-based Replication — put time (a) and achieved bandwidth (b)",
        ["system", "quorum", "put_ms", "bandwidth_MBps"],
    )
    cells = [
        Cell(
            fig8_cell,
            dict(
                system=system, quorum=k, n_ops=n_ops, size=size,
                replication=replication, n_slow=n_slow, slow_bps=slow_bps,
            ),
            seed=seed,
        )
        for k in quorums
        for system in ("NICE", "NOOB")
    ]
    for payload in run_cells(cells):
        result.rows.extend(payload["rows"])
    result.note(
        f"{n_ops} x {size}B puts, R={replication}, {n_slow} replicas at "
        f"{slow_bps / MBPS:.0f} Mbps"
    )
    return result


# --------------------------------------------------------------------- Fig 9
#: Fig 9 / Fig 10 / Fig 12 system legs: name -> (builder, config overrides).
_SYSTEM_BUILDS = {
    "NICE": ("nice", {}),
    "NOOB primary-only": ("noob", dict(access="rac", consistency="primary")),
    "NOOB 2PC": ("noob", dict(access="rac", consistency="2pc")),
    # The paper's 2PC configuration load-balances through a gateway —
    # its Fig 10/12 cost includes "the added load-balancing latency".
    "NOOB 2PC (gateway)": ("noob", dict(access="rag", consistency="2pc")),
}


def _build_leg(system: str, **overrides):
    kind, extra = _SYSTEM_BUILDS[system]
    kwargs = dict(extra, **overrides)
    if kind == "nice":
        return build_nice(**kwargs)
    return build_noob(**kwargs)


def fig9_cell(
    system: str, replication: int, n_ops: int, sizes: Sequence[int], seed: int
) -> Dict:
    """One Fig 9 leg: put latency at one (system, replication level)."""
    cluster = _build_leg(
        system, n_storage_nodes=15, n_clients=1, replication_level=replication,
        seed=seed,
    )
    client = cluster.clients[0]

    def driver(sim):
        out = {}
        for size in sizes:
            key = f"cons-{size}"
            seeded = yield client.put(key, "x", size)
            assert seeded.ok
            tally = yield closed_loop_puts(client, sim, n_ops, size, keys=[key])
            out[size] = tally
        return out

    tallies = run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    rows = [
        dict(
            system=system, replication=replication, size_bytes=size,
            put_ms=tally.mean * 1e3, stdev_ms=tally.stdev * 1e3,
        )
        for size, tally in tallies.items()
    ]
    return {"rows": rows}


def fig9_consistency(
    n_ops: int = 1000,
    levels: Sequence[int] = (1, 3, 5, 7, 9),
    sizes: Sequence[int] = (4, 1 << 20),
    seed: int = BASE_SEED,
) -> ExperimentResult:
    """Fig 9: put time vs replication level (4 B and 1 MB objects) for NICE,
    NOOB primary-only and NOOB-2PC (RAC routing)."""
    result = ExperimentResult(
        "fig9",
        "Consistency Mechanism Performance — put time vs replication level",
        ["system", "replication", "size_bytes", "put_ms", "stdev_ms"],
    )
    cells = [
        Cell(
            fig9_cell,
            dict(system=system, replication=r, n_ops=n_ops, sizes=list(sizes)),
            seed=seed,
        )
        for system in ("NICE", "NOOB primary-only", "NOOB 2PC")
        for r in levels
    ]
    for payload in run_cells(cells):
        result.rows.extend(payload["rows"])
    result.note(f"{n_ops} puts per point; single client; NOOB uses RAC routing")
    return result


# -------------------------------------------------------------------- Fig 10
def fig10_cell(
    system: str, replication: int, size: int, n_ops: int, seed: int
) -> Dict:
    """One Fig 10 leg: hot-object weak scaling at one (system, R, size)."""
    n_clients = max(replication, 1)
    key = "hot-object"
    build_system = "NOOB 2PC (gateway)" if system == "NOOB 2PC" else system
    # Full workload: 1 putter + (R-1) getters.
    cluster = _build_leg(
        build_system, n_storage_nodes=15, n_clients=n_clients,
        replication_level=replication, seed=seed,
    )

    def driver(sim, cluster=cluster):
        res = yield hot_object_clients(
            cluster.clients[0], cluster.clients[1:], sim, key, size, n_ops
        )
        return res

    res = run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    combined = Tally("combined")
    for t in (res["put"], res["get"]):
        for s in t.samples:
            combined.observe(s)
    # Marker: the same run without the put client.
    cluster2 = _build_leg(
        build_system, n_storage_nodes=15, n_clients=n_clients,
        replication_level=replication, seed=seed,
    )

    def marker_driver(sim, cluster=cluster2):
        res = yield hot_object_clients(
            cluster.clients[0], cluster.clients[1:], sim, key, size,
            n_ops, include_put=False,
        )
        return res

    marker = run_to_completion(
        cluster2, cluster2.sim.process(marker_driver(cluster2.sim))
    )
    return {
        "rows": [
            dict(
                system=system, replication=replication, size_bytes=size,
                clients=n_clients,
                op_ms=combined.mean * 1e3, stdev_ms=combined.stdev * 1e3,
                get_only_ms=marker["get"].mean * 1e3 if marker["get"].count else 0.0,
            )
        ]
    }


def fig10_load_balancing(
    n_ops: int = 1000,
    levels: Sequence[int] = (1, 3, 5, 7, 9),
    sizes: Sequence[int] = (4, 1 << 20),
    seed: int = BASE_SEED,
) -> ExperimentResult:
    """Fig 10: hot-object weak scaling — 1 put client + (R−1) get clients on
    one object, clients grow with the replication level; bold markers are
    the get-only workload."""
    result = ExperimentResult(
        "fig10",
        "Load Balancing — weak scaling on a hot object (mean op time, ms)",
        [
            "system", "replication", "size_bytes", "clients",
            "op_ms", "stdev_ms", "get_only_ms",
        ],
    )
    cells = [
        Cell(
            fig10_cell,
            dict(system=system, replication=r, size=size, n_ops=n_ops),
            seed=seed,
        )
        for system in ("NICE", "NOOB primary-only", "NOOB 2PC")
        for r in levels
        for size in sizes
    ]
    for payload in run_cells(cells):
        result.rows.extend(payload["rows"])
    result.note(
        f"{n_ops} ops per client; clients scale with R (weak scaling); "
        "markers = get-only workload"
    )
    return result


# -------------------------------------------------------------------- Fig 11
def fig11_cell(duration: float, fail_at: float, recover_at: float, seed: int) -> Dict:
    """The Fig 11 fault timeline (one cell: a single 120 s scenario)."""
    cluster = build_nice(n_storage_nodes=15, n_clients=3, seed=seed)
    partition = 0
    keys = keys_in_partition(partition, cluster.config.n_partitions, 64)
    res = run_fault_timeline(
        cluster, keys, fail_at=fail_at, recover_at=recover_at, duration=duration
    )
    puts = dict(res.put_rate.series(duration))
    gets = dict(res.get_rate.series(duration))
    fails = dict(res.failed_puts.series(duration))
    rows = [
        dict(
            t_s=t,
            puts_per_s=puts.get(t, 0.0),
            gets_per_s=gets.get(t, 0.0),
            failed_puts_per_s=fails.get(t, 0.0),
        )
        for t in sorted(set(puts) | set(gets) | set(fails))
    ]
    notes = [f"t={when:.2f}s: {label}" for when, label in res.events]
    return {"rows": rows, "notes": notes}


def fig11_fault_tolerance(
    duration: float = 120.0,
    fail_at: float = 30.0,
    recover_at: float = 90.0,
    seed: int = BASE_SEED,
) -> ExperimentResult:
    """Fig 11: served put/get requests per second across a secondary
    failure (30 s) and recovery (90 s)."""
    result = ExperimentResult(
        "fig11",
        "Fault Tolerance — served requests/s across failure and recovery",
        ["t_s", "puts_per_s", "gets_per_s", "failed_puts_per_s"],
    )
    cells = [
        Cell(
            fig11_cell,
            dict(duration=duration, fail_at=fail_at, recover_at=recover_at),
            seed=seed,
        )
    ]
    (payload,) = run_cells(cells)
    result.rows.extend(payload["rows"])
    for note in payload["notes"]:
        result.note(note)
    result.note("3 clients, 20/80 put/get, 1 KB objects, one partition")
    return result


# -------------------------------------------------------------------- Fig 12
def fig12_cell(
    workload: str,
    system: str,
    n_ops_per_client: int,
    n_clients: int,
    n_records: int,
    seed: int,
) -> Dict:
    """One Fig 12 leg: YCSB workload × system."""
    # Per-request server cost calibrated to the testbed regime (C++ on the
    # ARMv8 nodes): chosen so workload C reproduces the paper's 1.6x gap to
    # primary-only; the default 25us (used by the latency figures) models a
    # much faster request path and underplays hot-node saturation.
    cpu = 150e-6
    build_system = "NOOB 2PC (gateway)" if system == "NOOB 2PC" else system
    cluster = _build_leg(
        build_system, n_storage_nodes=15, n_clients=n_clients,
        node_cpu_per_op_s=cpu, seed=seed,
    )
    runner = YcsbRunner(
        WORKLOADS[workload],
        n_records=n_records,
        rng=np.random.default_rng(cluster.config.seed),
    )
    proc = runner.run(cluster.clients[:n_clients], cluster.sim, n_ops_per_client)
    stats = run_to_completion(cluster, proc)
    return {
        "rows": [
            dict(
                workload=workload,
                system=system,
                throughput_ops_s=stats["throughput_ops_s"],
                mean_op_ms=runner.op_latency.mean * 1e3,
                stdev_ms=runner.op_latency.stdev * 1e3,
                errors=stats["errors"],
            )
        ]
    }


def fig12_ycsb(
    n_ops_per_client: int = 20000,
    n_clients: int = 10,
    n_records: int = 1000,
    workloads: Sequence[str] = ("C", "F"),
    seed: int = BASE_SEED,
) -> ExperimentResult:
    """Fig 12: YCSB workloads C (read-only) and F (read-modify-write),
    zipfian popularity, 1 KB objects."""
    result = ExperimentResult(
        "fig12",
        "Yahoo Benchmark — throughput (ops/s) under YCSB C and F",
        ["workload", "system", "throughput_ops_s", "mean_op_ms", "stdev_ms", "errors"],
    )
    cells = [
        Cell(
            fig12_cell,
            dict(
                workload=wl, system=system, n_ops_per_client=n_ops_per_client,
                n_clients=n_clients, n_records=n_records,
            ),
            seed=seed,
        )
        for wl in workloads
        for system in ("NICE", "NOOB primary-only", "NOOB 2PC")
    ]
    for payload in run_cells(cells):
        result.rows.extend(payload["rows"])
    result.note(
        f"{n_clients} clients x {n_ops_per_client} ops, {n_records} records, "
        "1 KB objects, zipfian"
    )
    return result


# ----------------------------------------------------------- read scaling (§5j)
def read_scaling_cell(
    workload: str,
    system: str,
    replication: int,
    n_ops_per_client: int,
    n_clients: int,
    n_records: int,
    seed: int,
) -> Dict:
    """One read-scaling leg: YCSB workload x system x replication level on a
    keyspace pinned to a single partition, so every get lands on one replica
    set.  NICE-LB splits the client space across the targets statically;
    harmonia round-robins clean keys over every consistent replica, so its
    read throughput grows with R while LB's is capped by the division skew."""
    cpu = 150e-6  # same hot-node regime as fig12
    overrides = dict(
        n_storage_nodes=15, n_clients=n_clients, node_cpu_per_op_s=cpu,
        replication_level=replication, seed=seed,
    )
    if system == "NICE harmonia":
        overrides["protocol_mode"] = "harmonia"
    cluster = build_nice(**overrides)
    keys = keys_in_partition(0, cluster.config.n_partitions, n_records)
    runner = YcsbRunner(
        WORKLOADS[workload],
        n_records=n_records,
        rng=np.random.default_rng(cluster.config.seed),
        keys=keys,
    )
    proc = runner.run(cluster.clients[:n_clients], cluster.sim, n_ops_per_client)
    stats = run_to_completion(cluster, proc)
    return {
        "rows": [
            dict(
                workload=workload,
                system=system,
                replication=replication,
                throughput_ops_s=stats["throughput_ops_s"],
                mean_op_ms=runner.op_latency.mean * 1e3,
                stdev_ms=runner.op_latency.stdev * 1e3,
                errors=stats["errors"],
            )
        ]
    }


def read_scaling(
    n_ops_per_client: int = 2000,
    n_clients: int = 10,
    n_records: int = 200,
    workloads: Sequence[str] = ("B", "C"),
    replications: Sequence[int] = (1, 3, 5),
    seed: int = BASE_SEED,
) -> ExperimentResult:
    """Read scaling vs replication level — NICE-LB against harmonia mode
    (DESIGN.md §5j) on a single hot partition, YCSB B and C."""
    result = ExperimentResult(
        "read_scaling",
        "Read scaling — hot-partition throughput (ops/s) vs replication level",
        ["workload", "system", "replication", "throughput_ops_s",
         "mean_op_ms", "stdev_ms", "errors"],
    )
    cells = [
        Cell(
            read_scaling_cell,
            dict(
                workload=wl, system=system, replication=r,
                n_ops_per_client=n_ops_per_client, n_clients=n_clients,
                n_records=n_records,
            ),
            seed=seed,
        )
        for wl in workloads
        for r in replications
        for system in ("NICE", "NICE harmonia")
    ]
    for payload in run_cells(cells):
        result.rows.extend(payload["rows"])
    result.note(
        f"{n_clients} clients x {n_ops_per_client} ops on a single partition "
        f"({n_records} records, zipfian); R swept over {tuple(replications)}"
    )
    return result


# ----------------------------------------------------------------------- §4.6
def sec46_cell(
    measured_nodes: Sequence[int],
    analytic_nodes: Sequence[int],
    table_capacity: int,
    replication: int,
    seed: int,
) -> Dict:
    """§4.6 forwarding-table usage (one cell: the scalability table)."""
    rows: List[Dict] = []
    for n in measured_nodes:
        for lb in (False, True):
            cluster = build_nice(
                n_storage_nodes=n, n_clients=2, n_partitions=n, load_balancing=lb,
                seed=seed,
            )
            entries = cluster.controller.rule_count()
            rows.append(
                dict(
                    nodes=n, load_balancing=lb, entries=entries,
                    source="measured", fits_128k_table=entries <= table_capacity,
                )
            )
    for n in analytic_nodes:
        for lb in (False, True):
            entries = (replication + 1) * n if lb else 2 * n  # paper's formula
            rows.append(
                dict(
                    nodes=n, load_balancing=lb, entries=entries,
                    source="analytic", fits_128k_table=entries <= table_capacity,
                )
            )
    return {"rows": rows}


def sec46_switch_scalability(
    measured_nodes: Sequence[int] = (8, 16),
    analytic_nodes: Sequence[int] = (1024, 4096, 16384, 32768, 65536),
    table_capacity: int = 128 * 1024,
    replication: int = 3,
    seed: int = BASE_SEED,
) -> ExperimentResult:
    """§4.6: forwarding-table usage — 2N entries without LB, (R+1)N with —
    measured on real controllers for small N, analytic for large N."""
    result = ExperimentResult(
        "sec46",
        "Switch Scalability — forwarding entries vs cluster size",
        ["nodes", "load_balancing", "entries", "source", "fits_128k_table"],
    )
    cells = [
        Cell(
            sec46_cell,
            dict(
                measured_nodes=list(measured_nodes),
                analytic_nodes=list(analytic_nodes),
                table_capacity=table_capacity, replication=replication,
            ),
            seed=seed,
        )
    ]
    (payload,) = run_cells(cells)
    result.rows.extend(payload["rows"])
    result.note(
        "paper counts 2N / (R+1)N; this controller keeps one extra "
        "default-to-primary rule (§4.5 fallback) and one IP-multicast-group "
        "match per partition (2PC timestamp target), hence 3N / (R+3)N "
        "measured — same O(N) / O(RN) scaling"
    )
    return result


# -- scale: leaf-spine fabric (DESIGN.md §5h) -----------------------------------------


#: The racks x hosts ladder the scale figure sweeps.  ``budget`` is the
#: per-switch rule budget handed to every fabric switch (0 = unlimited,
#: used for the single-switch baseline cell).
SCALE_CONFIGS: Tuple[Dict, ...] = (
    dict(racks=1, hosts_per_rack=30, n_clients=8, budget=0),
    dict(racks=4, hosts_per_rack=16, n_clients=8, budget=1024),
    dict(racks=10, hosts_per_rack=30, n_clients=10, budget=4096),
    dict(racks=15, hosts_per_rack=20, n_clients=10, budget=4096),
    dict(racks=20, hosts_per_rack=50, n_clients=12, budget=8192),
)

#: CI's shrunk ladder: the 4x16 fabric rung alone, small enough that a
#: cold ``--smoke`` run finishes in seconds and a warm one in milliseconds.
SCALE_SMOKE_CONFIGS: Tuple[Dict, ...] = SCALE_CONFIGS[1:2]


def scale_cell(
    racks: int,
    hosts_per_rack: int,
    n_clients: int,
    budget: int,
    n_ops: int,
    seed: int,
) -> Dict:
    """One rung of the ladder: build the fabric, run a mixed closed-loop
    workload, report throughput plus the per-switch rule census."""
    n_nodes = racks * hosts_per_rack
    kwargs = dict(n_storage_nodes=n_nodes, n_clients=n_clients, seed=seed)
    if racks > 1:
        kwargs.update(n_racks=racks, switch_rule_budget=budget)
    cluster = build_nice(**kwargs)
    sim = cluster.sim
    keys = [f"scale-{i}" for i in range(2 * n_clients)]
    done = {"ops": 0, "elapsed": 0.0}

    def per_client(client, my_keys):
        puts = yield closed_loop_puts(client, sim, n_ops, 1024, keys=my_keys)
        gets = yield closed_loop_gets(client, sim, n_ops, my_keys)
        done["ops"] += puts.count + gets.count

    def driver(sim):
        seeder = cluster.clients[0]
        for key in keys:
            r = yield seeder.put(key, "seed", 1024)
            assert r.ok, f"seed put failed for {key}"
        start = sim.now
        procs = [
            sim.process(per_client(c, keys[2 * i : 2 * i + 2]))
            for i, c in enumerate(cluster.clients)
        ]
        yield AllOf(sim, procs)
        done["elapsed"] = sim.now - start

    run_to_completion(cluster, sim.process(driver(sim)))
    counts = cluster.controller.rule_counts_by_switch()
    row = dict(
        racks=racks,
        hosts_per_rack=hosts_per_rack,
        nodes=n_nodes,
        switches=len(counts),
        throughput_ops_s=(done["ops"] / done["elapsed"]) if done["elapsed"] else 0.0,
        ops=done["ops"],
        total_rules=sum(counts.values()),
        max_switch_rules=max(counts.values()),
        vring_rules=cluster.controller.rule_count(),
        rule_budget=budget,
        budget_ok=bool(budget <= 0 or max(counts.values()) <= budget),
        # Incremental-planner counters (deterministic, unlike plan.sync_ms
        # which stays in the perf suite / obs registry): how many
        # (switch, partition) plans were computed vs served from cache.
        plan_recomputes=cluster.controller.plan_recomputes.value,
        plan_cache_hits=cluster.controller.plan_cache_hits.value,
    )
    return {"rows": [row]}


def scale_chaos_cell(
    racks: int,
    hosts_per_rack: int,
    n_clients: int,
    budget: int,
    duration: float,
    seed: int,
) -> Dict:
    """The fabric fault cell: a whole rack isolated mid-workload, healed,
    rejoined — the history must stay linearizable and reconcile-after-heal
    must match a from-scratch sync on every switch."""
    from ..chaos import ChaosEngine, FaultSchedule
    from ..check import HistoryRecorder, check_linearizable
    from .chaos import _table_snapshot, _workload

    cluster = build_nice(
        n_storage_nodes=racks * hosts_per_rack,
        n_clients=n_clients,
        n_racks=racks,
        switch_rule_budget=budget,
        seed=seed,
    )
    sim = cluster.sim
    keys = [f"k{i}" for i in range(6)]
    recorder = HistoryRecorder()
    _workload(cluster, recorder, keys, duration, seed)
    engine = ChaosEngine(
        cluster, FaultSchedule.rack_outage(rack=1, start=2.0, heal_at=5.0), seed=seed
    )
    engine.start()
    sim.run(until=duration)

    lin = check_linearizable(recorder.ops)
    service = cluster.metadata_active
    steady = service.reconcile_switches()
    sim.run(until=sim.now + 0.05)
    reconciled = _table_snapshot(cluster)
    cluster.controller.sync_all(epoch=service.epoch)
    sim.run(until=sim.now + 0.05)
    scratch = _table_snapshot(cluster)
    counts = cluster.controller.rule_counts_by_switch()
    row = dict(
        racks=racks,
        hosts_per_rack=hosts_per_rack,
        nodes=racks * hosts_per_rack,
        schedule="rack_outage",
        n_ops=len(recorder.ops),
        ok_ops=sum(1 for op in recorder.ops if op.ok),
        linearizable=bool(lin.ok),
        reason=lin.reason,
        chaos_events=[[t, label] for t, label in engine.events],
        steady_reconcile=steady,
        reconcile_matches_scratch=bool(reconciled == scratch),
        max_switch_rules=max(counts.values()),
        rule_budget=budget,
        budget_ok=bool(budget <= 0 or max(counts.values()) <= budget),
    )
    return {"rows": [row]}


def scale_fabric(
    n_ops: int = 20,
    configs: Optional[Sequence[Dict]] = None,
    chaos_duration: float = 8.0,
    seed: int = BASE_SEED,
) -> ExperimentResult:
    """Throughput and installed-rule count vs cluster size on the
    leaf-spine fabric, plus one rack-outage chaos cell on the first
    multi-rack rung."""
    if configs is None:
        configs = SCALE_CONFIGS
    result = ExperimentResult(
        "scale",
        "Leaf-spine fabric - throughput and rule census vs cluster size",
        [
            "racks", "hosts_per_rack", "nodes", "switches",
            "throughput_ops_s", "total_rules", "max_switch_rules",
            "vring_rules", "rule_budget", "budget_ok",
            "plan_recomputes", "plan_cache_hits",
        ],
    )
    cells = [
        Cell(scale_cell, dict(n_ops=n_ops, **cfg), seed=derive_seed(seed, "scale", cfg["racks"]))
        for cfg in configs
    ]
    chaos_cfg = next((c for c in configs if c["racks"] > 1), None)
    if chaos_cfg is not None:
        cells.append(
            Cell(
                scale_chaos_cell,
                dict(duration=chaos_duration, **chaos_cfg),
                seed=derive_seed(seed, "scale-chaos", chaos_cfg["racks"]),
            )
        )
    for payload in run_cells(cells):
        result.rows.extend(payload["rows"])
    result.note(
        "per-rack prefixes aggregate to 2 wildcards per rack at each spine; "
        "leaves carry the per-partition vring rules (the §4.6 budget)"
    )
    return result


def check_scale(rows: Sequence[Dict]) -> List[str]:
    """Every gate of the scale family, as failure strings (empty = pass):
    the §4.6 rule budget on every row, and a rack-outage cell — present
    whenever a multi-rack rung ran — that stayed linearizable and whose
    reconcile-after-heal equals a from-scratch sync."""
    failures = []
    for r in rows:
        outage = "schedule" in r  # the ride-along rack_outage chaos row
        tag = f"scale {r['racks']}x{r['hosts_per_rack']}" + ("/rack_outage" if outage else "")
        if not r["budget_ok"]:
            failures.append(
                f"{tag}: {r['max_switch_rules']} rules on one switch, "
                f"budget {r['rule_budget']}"
            )
        if outage and not r["linearizable"]:
            failures.append(f"{tag}: history not linearizable: {r['reason']}")
        if outage and not r["reconcile_matches_scratch"]:
            failures.append(f"{tag}: reconciled tables diverge from scratch sync")
    if any(r["racks"] > 1 for r in rows) and not any("schedule" in r for r in rows):
        failures.append("scale: multi-rack rungs ran but no rack_outage cell did")
    return failures
