"""The paper's §6 figures: one experiment record and one cell function each.

Each ``figN_cell`` rebuilds the deployment of §6 (15 storage nodes +
1 metadata node, 1 Gbps links, R=3 unless the figure varies it), drives
the paper's workload for one independent (system, replication, size, ...)
leg from an explicit seed, and returns the leg's rows.  The
:class:`~repro.bench.harness.Experiment` record after it names the
figure, its columns, its grid and its paper-scale parameters (1000
operations per point; the simulator is deterministic, so means converge
with far fewer samples and ``--ops`` shrinks them).  Adding an experiment
is adding a record and a cell function.

:func:`~repro.bench.harness.run` executes a record's cells through
:func:`~repro.bench.parallel.run_cells`: inline in grid order with
``--jobs 1`` (the library default), fanned across worker processes and
merged back in grid order with ``--jobs N`` — the rows are bit-identical
either way (pinned by tests/bench/test_parallel.py).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, List, Sequence

import numpy as np

from ..net import MBPS, wire_size
from ..sim import Tally
from ..workloads import (
    OBJECT_SIZES,
    WORKLOADS,
    YcsbRunner,
    closed_loop_puts,
    hot_object_clients,
    keys_in_partition,
    run_fault_timeline,
)
from . import claims
from .harness import (
    Experiment, ExperimentResult, build, product, register, run_to_completion, seeded_sweep,
)
from .report import ascii_chart

#: The four systems of Figs 4–7.
ROUTING_SYSTEMS = ("NICE", "NOOB+RAC", "NOOB+RAG", "NOOB+ROG")

#: The three systems of Figs 9, 10 and 12.
CONSISTENCY_SYSTEMS = ("NICE", "NOOB primary-only", "NOOB 2PC")


def _size_chart(metric: str, result: ExperimentResult) -> str:
    """One series per system over log2(object size)."""
    series: Dict[str, List[tuple]] = {}
    for row in result.rows:
        series.setdefault(row["system"], []).append(
            (math.log2(row["size_bytes"]), row[metric])
        )
    return ascii_chart(series, title=f"{result.name} — {metric} vs log2(object size)")


# --------------------------------------------------------------------- Fig 4
def fig4_cell(system: str, n_ops: int, sizes: Sequence[int], seed: int) -> Dict:
    """One Fig 4 leg: get latency vs size for a single system."""
    cluster = build(system, n_storage_nodes=15, n_clients=1, seed=seed)
    tallies = seeded_sweep(cluster, "routing", sizes, n_ops, puts=False, gets=True)
    rows = [
        dict(
            system=system, size_bytes=size,
            get_ms=t["gets"].mean * 1e3, stdev_ms=t["gets"].stdev * 1e3,
        )
        for size, t in tallies.items()
    ]
    return {"rows": rows}


register(
    Experiment(
        "fig4",
        "Request Routing Performance — average get() time (ms), log-size axis",
        ("system", "size_bytes", "get_ms", "stdev_ms"),
        fig4_cell,
        product(system="systems"),
        dict(n_ops=1000, sizes=OBJECT_SIZES, systems=ROUTING_SYSTEMS),
        notes=("{n_ops} gets per point; single client, R=3, 15 storage nodes",),
        cli=lambda ops, full, smoke: dict(n_ops=ops),
        summary=("get_ms", "NICE", ("size_bytes",)),
        chart=partial(_size_chart, "get_ms"),
        check=claims.check,
    )
)


# ----------------------------------------------------------------- Figs 5–7
def fig5_6_7_cell(system: str, n_ops: int, sizes: Sequence[int], seed: int) -> Dict:
    """One Figs 5–7 leg: put time / link load / storage-load ratio for a
    single system across object sizes."""
    cluster = build(system, n_storage_nodes=15, n_clients=1, seed=seed)
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


#: Figs 5, 6 and 7 are three tables read out of one sweep: same cell, grid
#: and parameters, so a ``shared`` memo handed to ``run`` executes it once.
_REPLICATION_SWEEP = dict(
    cell=fig5_6_7_cell,
    grid=product(system="systems"),
    params=dict(n_ops=1000, sizes=OBJECT_SIZES, systems=ROUTING_SYSTEMS),
    notes=("{n_ops} puts per point; single client, R=3, 15 storage nodes",),
    cli=lambda ops, full, smoke: dict(n_ops=ops),
    check=claims.check,
)

register(
    Experiment(
        name="fig5",
        description="Replication Performance — average put() time (ms)",
        columns=("system", "size_bytes", "put_ms", "stdev_ms"),
        payload="fig5",
        summary=("put_ms", "NICE", ("size_bytes",)),
        chart=partial(_size_chart, "put_ms"),
        **_REPLICATION_SWEEP,
    ),
    Experiment(
        name="fig6",
        description="Network Link Load — total bytes crossing links per put",
        columns=("system", "size_bytes", "link_bytes_per_op", "x_object_size"),
        payload="fig6",
        summary=("link_bytes_per_op", "NICE", ("size_bytes",)),
        **_REPLICATION_SWEEP,
    ),
    Experiment(
        name="fig7",
        description="Storage Load Ratio — primary IO bytes / mean secondary IO bytes",
        columns=("system", "size_bytes", "load_ratio"),
        payload="fig7",
        **_REPLICATION_SWEEP,
    ),
)


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
    """One Fig 8 leg: quorum-k puts with throttled replicas, one system.

    NICE uses the reliable any-k multicast; NOOB's primary concurrently
    unicasts to every replica and acks at the write-set size."""
    key = "quorum-object"
    nice = system == "NICE"
    cluster = build(
        system, n_storage_nodes=15, n_clients=1, replication_level=replication,
        seed=seed, **({} if nice else dict(quorum_k=quorum)),
    )
    replicas = cluster.replica_nodes(key)
    for node in replicas[-n_slow:]:
        cluster.network.link_between(cluster.switch, node.host).set_bandwidth(slow_bps)
    client = cluster.clients[0]

    def driver(sim):
        tally = Tally(system)
        for i in range(n_ops):
            if nice:
                r = yield client.put_anyk(key, "x", size, quorum=quorum)
            else:
                r = yield client.put(key, "x", size, max_retries=0)
            if nice or r.ok:
                tally.observe(r.latency)
        return tally

    tally = run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    return {
        "rows": [
            dict(
                system=system, quorum=quorum, put_ms=tally.mean * 1e3,
                bandwidth_MBps=size / tally.mean / 1e6,
            )
        ]
    }


register(
    Experiment(
        "fig8",
        "Quorum-based Replication — put time (a) and achieved bandwidth (b)",
        ("system", "quorum", "put_ms", "bandwidth_MBps"),
        fig8_cell,
        product(quorum="quorums", system="systems"),
        dict(
            n_ops=1000, size=1 << 20, replication=7, quorums=(1, 3, 5, 7),
            n_slow=3, slow_bps=50 * MBPS, systems=("NICE", "NOOB"),
        ),
        notes=(
            lambda p: f"{p['n_ops']} x {p['size']}B puts, R={p['replication']}, "
            f"{p['n_slow']} replicas at {p['slow_bps'] / MBPS:.0f} Mbps",
        ),
        cli=lambda ops, full, smoke: dict(n_ops=max(ops // 10, 5)),
        summary=("put_ms", "NICE", ("quorum",)),
        check=claims.check,
    )
)


# --------------------------------------------------------------------- Fig 9
def fig9_cell(
    system: str, replication: int, n_ops: int, sizes: Sequence[int], seed: int
) -> Dict:
    """One Fig 9 leg: put latency at one (system, replication level)."""
    cluster = build(
        system, n_storage_nodes=15, n_clients=1, replication_level=replication,
        seed=seed,
    )
    rows = [
        dict(
            system=system, replication=replication, size_bytes=size,
            put_ms=t["puts"].mean * 1e3, stdev_ms=t["puts"].stdev * 1e3,
        )
        for size, t in seeded_sweep(cluster, "cons", sizes, n_ops).items()
    ]
    return {"rows": rows}


register(
    Experiment(
        "fig9",
        "Consistency Mechanism Performance — put time vs replication level",
        ("system", "replication", "size_bytes", "put_ms", "stdev_ms"),
        fig9_cell,
        product(system="systems", replication="levels"),
        dict(
            n_ops=1000, levels=(1, 3, 5, 7, 9), sizes=(4, 1 << 20),
            systems=CONSISTENCY_SYSTEMS,
        ),
        notes=("{n_ops} puts per point; single client; NOOB uses RAC routing",),
        cli=lambda ops, full, smoke: dict(n_ops=ops),
        summary=("put_ms", "NICE", ("replication", "size_bytes")),
        check=claims.check,
    )
)


# -------------------------------------------------------------------- Fig 10
def _build_balanced(system: str, **overrides):
    """Figs 10 and 12 run NOOB 2PC in the paper's load-balanced
    configuration: behind a gateway."""
    return build("NOOB 2PC (gateway)" if system == "NOOB 2PC" else system, **overrides)


def fig10_cell(
    system: str, replication: int, size: int, n_ops: int, seed: int
) -> Dict:
    """One Fig 10 leg: hot-object weak scaling at one (system, R, size) —
    1 put client + (R−1) get clients on one object; the marker is the same
    run without the put client."""
    n_clients = max(replication, 1)

    def hot_leg(include_put: bool):
        cluster = _build_balanced(
            system, n_storage_nodes=15, n_clients=n_clients,
            replication_level=replication, seed=seed,
        )

        def driver(sim):
            res = yield hot_object_clients(
                cluster.clients[0], cluster.clients[1:], sim, "hot-object", size,
                n_ops, include_put=include_put,
            )
            return res

        return run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))

    res = hot_leg(include_put=True)
    combined = Tally("combined")
    for t in (res["put"], res["get"]):
        for s in t.samples:
            combined.observe(s)
    marker = hot_leg(include_put=False)
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


register(
    Experiment(
        "fig10",
        "Load Balancing — weak scaling on a hot object (mean op time, ms)",
        ("system", "replication", "size_bytes", "clients", "op_ms", "stdev_ms", "get_only_ms"),
        fig10_cell,
        product(system="systems", replication="levels", size="sizes"),
        dict(
            n_ops=1000, levels=(1, 3, 5, 7, 9), sizes=(4, 1 << 20),
            systems=CONSISTENCY_SYSTEMS,
        ),
        notes=(
            "{n_ops} ops per client; clients scale with R (weak scaling); "
            "markers = get-only workload",
        ),
        cli=lambda ops, full, smoke: dict(n_ops=max(ops // 2, 10)),
        summary=("op_ms", "NICE", ("replication", "size_bytes")),
        check=claims.check,
    )
)


# -------------------------------------------------------------------- Fig 11
def fig11_cell(duration: float, fail_at: float, recover_at: float, seed: int) -> Dict:
    """The Fig 11 fault timeline (one cell): served put/get requests per
    second across a secondary's failure and recovery."""
    cluster = build("NICE", n_storage_nodes=15, n_clients=3, seed=seed)
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


def _rate_chart(result: ExperimentResult) -> str:
    series = {
        "gets/s": [(r["t_s"], r["gets_per_s"]) for r in result.rows],
        "puts/s": [(r["t_s"], r["puts_per_s"]) for r in result.rows],
    }
    return ascii_chart(series, title="Fig 11 — served requests/s over time")


register(
    Experiment(
        "fig11",
        "Fault Tolerance — served requests/s across failure and recovery",
        ("t_s", "puts_per_s", "gets_per_s", "failed_puts_per_s"),
        fig11_cell,
        product(),
        dict(duration=120.0, fail_at=30.0, recover_at=90.0),
        notes=("3 clients, 20/80 put/get, 1 KB objects, one partition",),
        chart=_rate_chart,
        check=claims.check,
    )
)


# ------------------------------------------------- Fig 12 and read scaling
#: Per-request server cost of the YCSB legs, calibrated to the testbed
#: regime (C++ on the ARMv8 nodes): chosen so workload C reproduces the
#: paper's 1.6x gap to primary-only; the default 25us (used by the latency
#: figures) models a much faster request path and underplays hot-node
#: saturation.
HOT_NODE_CPU_S = 150e-6


def _ycsb_row(
    workload: str, system: str, n_ops_per_client: int, n_clients: int, n_records: int,
    seed: int, one_partition: bool = False, **overrides,
) -> Dict:
    """Run one YCSB workload against one system; the row both YCSB
    experiments share.  ``one_partition`` pins the keyspace to partition 0
    so every get lands on one replica set."""
    cluster = _build_balanced(
        system, n_storage_nodes=15, n_clients=n_clients,
        node_cpu_per_op_s=HOT_NODE_CPU_S, seed=seed, **overrides,
    )
    keys = (
        keys_in_partition(0, cluster.config.n_partitions, n_records)
        if one_partition else None
    )
    runner = YcsbRunner(
        WORKLOADS[workload],
        n_records=n_records,
        rng=np.random.default_rng(cluster.config.seed),
        keys=keys,
    )
    proc = runner.run(cluster.clients[:n_clients], cluster.sim, n_ops_per_client)
    stats = run_to_completion(cluster, proc)
    return dict(
        workload=workload,
        system=system,
        throughput_ops_s=stats["throughput_ops_s"],
        mean_op_ms=runner.op_latency.mean * 1e3,
        stdev_ms=runner.op_latency.stdev * 1e3,
        errors=stats["errors"],
    )


def fig12_cell(
    workload: str, system: str, n_ops_per_client: int, n_clients: int,
    n_records: int, seed: int,
) -> Dict:
    """One Fig 12 leg: YCSB workload × system."""
    row = _ycsb_row(workload, system, n_ops_per_client, n_clients, n_records, seed)
    return {"rows": [row]}


register(
    Experiment(
        "fig12",
        "Yahoo Benchmark — throughput (ops/s) under YCSB C and F",
        ("workload", "system", "throughput_ops_s", "mean_op_ms", "stdev_ms", "errors"),
        fig12_cell,
        product(workload="workloads", system="systems"),
        dict(
            n_ops_per_client=20000, n_clients=10, n_records=1000,
            workloads=("C", "F"), systems=CONSISTENCY_SYSTEMS,
        ),
        notes=(
            "{n_clients} clients x {n_ops_per_client} ops, {n_records} records, "
            "1 KB objects, zipfian",
        ),
        cli=lambda ops, full, smoke: dict(n_ops_per_client=20000 if full else max(ops, 50)),
        summary=("mean_op_ms", "NICE", ("workload",)),
        check=claims.check,
    )
)


# ----------------------------------------------------------------------- §4.6
def sec46_cell(
    measured_nodes: Sequence[int],
    analytic_nodes: Sequence[int],
    table_capacity: int,
    replication: int,
    seed: int,
) -> Dict:
    """§4.6 forwarding-table usage (one cell): 2N entries without LB,
    (R+1)N with — measured on real controllers for small N, analytic for
    large N."""
    rows: List[Dict] = []
    for n in measured_nodes:
        for lb in (False, True):
            cluster = build(
                "NICE", n_storage_nodes=n, n_clients=2, n_partitions=n,
                load_balancing=lb, seed=seed,
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


register(
    Experiment(
        "sec46",
        "Switch Scalability — forwarding entries vs cluster size",
        ("nodes", "load_balancing", "entries", "source", "fits_128k_table"),
        sec46_cell,
        product(),
        dict(
            measured_nodes=(8, 16), analytic_nodes=(1024, 4096, 16384, 32768, 65536),
            table_capacity=128 * 1024, replication=3,
        ),
        notes=(
            "paper counts 2N / (R+1)N; this controller keeps one extra "
            "default-to-primary rule (§4.5 fallback) and one IP-multicast-group "
            "match per partition (2PC timestamp target), hence 3N / (R+3)N "
            "measured — same O(N) / O(RN) scaling",
        ),
        check=claims.check,
    )
)


# ----------------------------------------------------------- read scaling (§5j)
def read_scaling_cell(
    workload: str, system: str, replication: int, n_ops_per_client: int,
    n_clients: int, n_records: int, seed: int,
) -> Dict:
    """One read-scaling leg: a Fig 12 leg at one replication level on a
    keyspace pinned to a single partition.  NICE-LB splits the client space
    across the targets statically; harmonia round-robins clean keys over
    every consistent replica, so its read throughput grows with R while
    LB's is capped by the division skew."""
    row = _ycsb_row(
        workload, system, n_ops_per_client, n_clients, n_records, seed,
        one_partition=True, replication_level=replication,
    )
    row["replication"] = replication
    return {"rows": [row]}


register(
    Experiment(
        "read_scaling",
        "Read scaling — hot-partition throughput (ops/s) vs replication level",
        ("workload", "system", "replication", "throughput_ops_s",
         "mean_op_ms", "stdev_ms", "errors"),
        read_scaling_cell,
        product(workload="workloads", replication="replications", system="systems"),
        dict(
            n_ops_per_client=2000, n_clients=10, n_records=200, workloads=("B", "C"),
            replications=(1, 3, 5), systems=("NICE", "NICE harmonia"),
        ),
        notes=(
            "{n_clients} clients x {n_ops_per_client} ops on a single partition "
            "({n_records} records, zipfian); R swept over {replications}",
        ),
        cli=lambda ops, full, smoke: dict(n_ops_per_client=2000 if full else max(ops, 50)),
        summary=("throughput_ops_s", "NICE", ("workload", "replication")),
        # Opt-in, like the scale family, so the 81-cell figure baseline of
        # ``bench all`` stays byte-stable.
        in_all=False,
    )
)
