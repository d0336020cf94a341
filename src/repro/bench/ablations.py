"""Ablation experiments beyond the paper's figures (DESIGN.md §6).

These isolate individual design choices: multicast vs unicast fan-out,
chain replication, the §4.5 load balancer, the §5.1 software-rewrite
penalty, and the §4.1 membership-maintenance message complexity.

Like the figures, each is one :class:`~repro.bench.harness.Experiment`
record beside its cell function, so ``bench all --jobs N`` parallelizes
and caches the ablations too.  They register in ``bench all`` order.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..workloads import closed_loop_gets, closed_loop_puts, hot_object_clients
from .harness import Experiment, build, product, register, run_to_completion


def ablation_deployment_cell(
    deployment: str, n_ops: int, sizes: Sequence[int], seed: int
) -> Dict:
    """One §5.1 deployment leg: hw (rewriting switch) or ovs split."""
    cluster = build(
        "NICE", n_storage_nodes=15, n_clients=1, deployment=deployment, seed=seed
    )
    client = cluster.clients[0]

    def driver(sim):
        out = {}
        for size in sizes:
            key = f"dep-{size}"
            seeded = yield client.put(key, "x", size)
            assert seeded.ok
            puts = yield closed_loop_puts(client, sim, n_ops, size, keys=[key])
            gets = yield closed_loop_gets(client, sim, n_ops, [key])
            out[size] = (gets, puts)
        return out

    tallies = run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    rows = [
        dict(
            deployment=deployment, size_bytes=size,
            get_ms=gets.mean * 1e3, put_ms=puts.mean * 1e3,
        )
        for size, (gets, puts) in tallies.items()
    ]
    return {"rows": rows}


DEPLOYMENT = Experiment(
    "ablation-deployment",
    "hw (rewriting switch) vs ovs (client-side rewrite) — get/put ms",
    ("deployment", "size_bytes", "get_ms", "put_ms"),
    ablation_deployment_cell,
    product(deployment="deployments"),
    dict(n_ops=200, sizes=(4, 65536, 1 << 20), deployments=("hw", "ovs")),
    notes=("paper §5.1: deployed split costs <4% of switching speed",),
)


def ablation_chain_cell(
    system: str, n_ops: int, sizes: Sequence[int], seed: int
) -> Dict:
    """One chain-replication leg: put latency for a single system."""
    cluster = build(system, n_storage_nodes=15, n_clients=1, seed=seed)
    client = cluster.clients[0]

    def driver(sim):
        out = {}
        for size in sizes:
            key = f"chain-{size}"
            seeded = yield client.put(key, "x", size)
            assert seeded.ok
            tally = yield closed_loop_puts(client, sim, n_ops, size, keys=[key])
            out[size] = tally
        return out

    tallies = run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    rows = [
        dict(system=system, size_bytes=size, put_ms=tally.mean * 1e3)
        for size, tally in tallies.items()
    ]
    return {"rows": rows}


CHAIN = Experiment(
    "ablation-chain",
    "Chain replication vs primary fan-out vs NICE multicast (put ms)",
    ("system", "size_bytes", "put_ms"),
    ablation_chain_cell,
    product(system="systems"),
    dict(
        n_ops=200, sizes=(1024, 262144, 1 << 20),
        systems=("NICE", "NOOB primary fan-out", "NOOB chain"),
    ),
    notes=("R=3; chain latency should sit above primary fan-out for small R",),
)


def ablation_lb_cell(load_balancing: bool, n_ops: int, n_clients: int, seed: int) -> Dict:
    """One §4.5 leg: hot-object gets with the LB rules on or off."""
    cluster = build(
        "NICE", n_storage_nodes=15, n_clients=n_clients, load_balancing=load_balancing,
        seed=seed,
    )
    key = "lb-hot"

    def driver(sim):
        res = yield hot_object_clients(
            cluster.clients[0], cluster.clients[1:], sim, key, 1024, n_ops,
            include_put=False,
        )
        return res

    res = run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    replicas = cluster.replica_nodes(key)
    served = [n.gets_served.value for n in replicas]
    total = max(sum(served), 1)
    return {
        "rows": [
            dict(
                load_balancing=load_balancing,
                get_ms=res["get"].mean * 1e3,
                replicas_serving=sum(1 for s in served if s > 0),
                primary_share=served[0] / total,
            )
        ]
    }


LB = Experiment(
    "ablation-lb",
    "In-network load balancing on/off — hot-object get latency and spread",
    ("load_balancing", "get_ms", "replicas_serving", "primary_share"),
    ablation_lb_cell,
    product(load_balancing="settings"),
    dict(n_ops=300, n_clients=6, settings=(True, False)),
)


def ablation_membership_cell(nodes: int, seed: int) -> Dict:
    """One §4.1 leg: membership-change message counts at one cluster size."""
    cluster = build("NICE", n_storage_nodes=nodes, n_clients=1, n_partitions=nodes, seed=seed)
    base_switch = cluster.control_plane.messages_to_switch.value
    base_node = cluster.metadata.membership_messages.value
    cluster.metadata.declare_failed("n1")
    cluster.sim.run(until=cluster.sim.now + 0.5)
    nice_switch = cluster.control_plane.messages_to_switch.value - base_switch
    nice_node = cluster.metadata.membership_messages.value - base_node

    noob = build("NOOB+RAC", n_storage_nodes=nodes, n_clients=1, n_partitions=nodes, seed=seed)
    proc = noob.broadcast_membership_change()
    run_to_completion(noob, proc)
    return {
        "rows": [
            dict(
                nodes=nodes,
                nice_switch_msgs=nice_switch,
                nice_node_msgs=nice_node,
                noob_node_msgs=noob.membership_messages_sent,
            )
        ]
    }


MEMBERSHIP = Experiment(
    "ablation-membership",
    "Messages per membership change — NICE O(S)+O(R) vs NOOB O(N)",
    ("nodes", "nice_switch_msgs", "nice_node_msgs", "noob_node_msgs"),
    ablation_membership_cell,
    product(nodes="node_counts"),
    dict(node_counts=(4, 8, 12)),
    notes=(
        "NICE node messages stay O(R) per affected partition regardless of N; "
        "NOOB broadcasts to every node",
    ),
)


def ablation_sw_rewrite_cell(penalty: float, n_ops: int, seed: int) -> Dict:
    """One §5.1 leg: gets through a given software-rewrite penalty."""
    cluster = build("NICE", n_storage_nodes=15, n_clients=1, seed=seed)
    cluster.switch.rewrite_penalty_s = penalty
    client = cluster.clients[0]

    def driver(sim):
        seeded = yield client.put("swkey", "x", 1024)
        assert seeded.ok
        tally = yield closed_loop_gets(client, sim, n_ops, ["swkey"])
        return tally

    tally = run_to_completion(cluster, cluster.sim.process(driver(cluster.sim)))
    return {"rows": [dict(rewrite_penalty_s=penalty, get_ms=tally.mean * 1e3)]}


SW_REWRITE = Experiment(
    "ablation-sw-rewrite",
    "Header rewrite in hardware vs software path (get ms, 1 KB)",
    ("rewrite_penalty_s", "get_ms"),
    ablation_sw_rewrite_cell,
    product(penalty="penalties"),
    dict(n_ops=200, penalties=(0.0, 5e-3)),
    notes=("paper: software path was ~1000x slower switching",),
)

register(CHAIN, LB, MEMBERSHIP, DEPLOYMENT, SW_REWRITE)
