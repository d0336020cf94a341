"""MetricsRegistry tests: naming, live references, cluster collection."""

import json

import pytest

from repro.core import ClusterConfig, NiceCluster
from repro.noob import NoobCluster, NoobConfig
from repro.obs import MetricsRegistry
from repro.sim import Counter, RateSeries, Tally


def test_register_query_and_contains():
    reg = MetricsRegistry()
    c = reg.register("node.n0.aborts", Counter("aborts"))
    reg.register("node.n0.put_latency", Tally("put"))
    reg.register("client.c0.ops", RateSeries(name="ops"))
    reg.gauge("switch.sw.rules", lambda: 42)
    assert len(reg) == 4
    assert "node.n0.aborts" in reg
    assert reg.get("node.n0.aborts") is c
    assert reg.names("node") == ["node.n0.aborts", "node.n0.put_latency"]
    assert reg.names("node.n0") == ["node.n0.aborts", "node.n0.put_latency"]
    assert list(reg.query("switch")) == ["switch.sw.rules"]
    # The registry holds references: mutations show up in later snapshots.
    c.add(3)
    assert reg.snapshot()["node"]["n0"]["aborts"]["value"] == 3


def test_duplicate_and_empty_names_rejected():
    reg = MetricsRegistry()
    reg.register("a.b", Counter())
    with pytest.raises(KeyError):
        reg.register("a.b", Counter())
    with pytest.raises(KeyError):
        reg.gauge("a.b", lambda: 0)
    with pytest.raises(ValueError):
        reg.register("", Counter())


def test_leaf_subtree_collisions_raise():
    reg = MetricsRegistry()
    reg.register("a.b", Counter())
    reg.register("a.b.c", Counter())  # registering is fine ...
    with pytest.raises(ValueError):
        reg.snapshot()  # ... but the tree can't represent both


def test_snapshot_is_strict_deterministic_json():
    def build():
        reg = MetricsRegistry()
        reg.register("z.tally", Tally("t"))  # empty: nan -> null
        reg.register("a.count", Counter("c"))
        reg.gauge("m.gauge", lambda: 7)
        return reg

    a, b = build().to_json(), build().to_json()
    assert a == b
    doc = json.loads(a)  # strict JSON: would fail on bare NaN
    assert doc["z"]["tally"]["mean"] is None
    assert doc["m"]["gauge"] == {"type": "gauge", "value": 7}
    assert list(doc) == ["a", "m", "z"]  # sorted at every level


def test_from_cluster_collects_all_layers():
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=4, n_clients=1))
    cluster.warm_up()
    reg = MetricsRegistry.from_cluster(cluster, prefix="nice")
    names = reg.names()
    assert any(n.startswith("nice.client.") and n.endswith(".put_latency")
               for n in names)
    assert any(n.startswith("nice.node.") for n in names)
    assert "nice.switch.sw.flowtable.rules" in names or any(
        ".flowtable.rules" in n for n in names
    )
    assert any(n.startswith("nice.link.") for n in names)
    # Gauges sample live state: the warm-up installed the vring rules.
    rules_name = next(n for n in names if n.endswith(".flowtable.rules"))
    assert reg.get(rules_name)() > 0
    # The whole tree must export as strict JSON.
    json.loads(reg.to_json())


def _switches_registered(cluster):
    names = MetricsRegistry.from_cluster(cluster).names("switch")
    assert all(n.split(".")[1] in {sw.name for sw in cluster.switches} for n in names)
    return {n.split(".")[1] for n in names if n.endswith(".flowtable.rules")}


def test_from_cluster_registers_every_switch_of_a_fabric():
    """Was leaf 0 only: three of a 2x2 fabric's four flow tables, and every
    spine's forwarded/table_misses, were missing from a snapshot."""
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=8, n_clients=2, n_racks=2))
    assert _switches_registered(cluster) == {"leaf0", "leaf1", "spine0", "spine1"}
    reg = MetricsRegistry.from_cluster(cluster)
    assert "switch.spine1.forwarded" in reg and "switch.leaf1.table_misses" in reg


def test_from_cluster_switch_names_on_one_switch_ovs_and_noob():
    nice = NiceCluster(ClusterConfig(n_storage_nodes=4, n_clients=2))
    assert _switches_registered(nice) == {"sw0"}
    # 178 as before this walk was rewritten, plus sim.processes.spawned and
    # sim.heap.live, plus metadata.ha.* (five counters and log_records): every
    # NICE cluster's metadata service is a replica group, a group of one here.
    assert len(MetricsRegistry.from_cluster(nice)) == 186
    ovs = NiceCluster(ClusterConfig(n_storage_nodes=4, n_clients=2, deployment="ovs"))
    assert _switches_registered(ovs) == {"sw0", "ovs0", "ovs1"}
    noob = NoobCluster(NoobConfig(n_storage_nodes=4, n_clients=2, access="rog"))
    assert _switches_registered(noob) == {"sw0"}
    assert any(n.startswith("gateway.gw0.") for n in MetricsRegistry.from_cluster(noob).names())
    assert "controlplane.plan.cache_hits" not in MetricsRegistry.from_cluster(noob)


def test_from_cluster_snapshot_reflects_traffic():
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=4, n_clients=1))
    cluster.warm_up()
    reg = MetricsRegistry.from_cluster(cluster)
    client = cluster.clients[0]

    def driver():
        result = yield client.put("k", "v", 512)
        assert result.ok
        result = yield client.get("k")
        assert result.ok

    cluster.sim.process(driver())
    cluster.sim.run(until=10.0)
    snap = reg.snapshot()
    cname = client.host.name
    assert snap["client"][cname]["put_latency"]["count"] == 1
    assert snap["client"][cname]["get_latency"]["count"] == 1
    assert snap["client"][cname]["failures"]["value"] == 0
    # Kernel occupancy sits beside the pool reuse rates.
    heap = cluster.sim.pool_stats()["heap"]
    assert snap["sim"]["heap"]["size"]["value"] == heap["size"]
    assert snap["sim"]["heap"]["live"]["value"] == heap["live"]
    assert snap["sim"]["heap"]["dead"]["value"] == heap["dead"]
    assert 0.0 < snap["sim"]["entry_pool"]["reuse_rate"]["value"] <= 1.0
    spawned = cluster.sim.pool_stats()["processes"]["spawned"]
    assert snap["sim"]["processes"]["spawned"]["value"] == spawned > 0
