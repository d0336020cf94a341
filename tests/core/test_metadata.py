"""Unit tests for the metadata service: detection, handoff, rejoin staging."""

import pytest

from repro.core import ClusterConfig, NiceCluster


def make_cluster(**kw):
    defaults = dict(n_storage_nodes=6, n_clients=2, replication_level=3)
    defaults.update(kw)
    cluster = NiceCluster(ClusterConfig(**defaults))
    cluster.warm_up()
    return cluster


def test_heartbeat_miss_detection():
    cluster = make_cluster()
    cfg = cluster.config
    victim = cluster.nodes["n2"]
    victim.host.fail()  # NIC only: heartbeats stop silently
    deadline = cfg.heartbeat_interval_s * (cfg.heartbeat_miss_limit + 2)
    cluster.sim.run(until=cluster.sim.now + deadline)
    assert cluster.metadata.status["n2"] == "down"
    assert cluster.metadata.failures_declared.value == 1


def test_live_node_not_declared_failed():
    cluster = make_cluster()
    cluster.sim.run(until=10.0)
    assert all(s == "up" for s in cluster.metadata.status.values())
    assert cluster.metadata.failures_declared.value == 0


def test_peer_report_triggers_immediate_failure():
    cluster = make_cluster()
    cluster.nodes["n3"].host.fail()
    reporter = cluster.nodes["n0"]
    done = []

    def report(sim):
        yield from reporter.meta.strike("n3")
        yield from reporter.meta.strike("n3")
        done.append(sim.now)

    cluster.sim.process(report(cluster.sim))
    cluster.sim.run(until=cluster.sim.now + 0.3)
    # Report path is much faster than 3 heartbeat misses (1.5 s).
    assert cluster.metadata.status["n3"] == "down"


def test_handoff_selected_outside_replica_set():
    cluster = make_cluster()
    victim = "n1"
    cluster.metadata.declare_failed(victim)
    for rs in cluster.partition_map.partitions_where_member(victim):
        for handoff in rs.handoffs:
            assert handoff not in rs.members
            assert cluster.metadata.status[handoff] == "up"


def test_declare_failed_idempotent():
    cluster = make_cluster()
    cluster.metadata.declare_failed("n1")
    count = cluster.metadata.failures_declared.value
    cluster.metadata.declare_failed("n1")
    assert cluster.metadata.failures_declared.value == count


def test_membership_slices_pushed_to_affected_replicas():
    cluster = make_cluster()
    victim = "n1"
    affected = cluster.partition_map.partitions_where_member(victim)
    cluster.metadata.declare_failed(victim)
    cluster.sim.run(until=cluster.sim.now + 0.5)
    for rs in affected:
        for name in rs.put_targets():
            node = cluster.nodes[name]
            local = node.replica_sets[rs.partition]
            assert victim in local.absent or victim not in local.members


def test_rejoin_phases_via_messages():
    cluster = make_cluster()
    victim = cluster.nodes["n1"]
    victim.crash()
    cluster.sim.run(until=cluster.sim.now + 2.5)  # detection
    assert cluster.metadata.status["n1"] == "down"
    victim.restart()
    cluster.sim.run(until=cluster.sim.now + 5.0)
    assert cluster.metadata.status["n1"] == "up"
    assert cluster.metadata.rejoins_completed.value == 1
    for rs in cluster.partition_map.partitions_where_member("n1"):
        assert "n1" not in rs.absent
        assert not rs.handoffs


def test_heartbeats_ignored_while_down():
    cluster = make_cluster()
    cluster.metadata.declare_failed("n1")
    # A stray heartbeat must not resurrect the node without rejoin.
    assert cluster.nodes["n1"].host.up  # its heartbeat loop still runs
    cluster.sim.run(until=cluster.sim.now + 2.0)
    assert cluster.metadata.status["n1"] == "down"


def test_admin_remove_erases_membership():
    cluster = make_cluster()
    cluster.metadata.admin_remove("n1")
    cluster.sim.run(until=cluster.sim.now + 0.5)
    assert "n1" not in cluster.metadata.status
    for rs in cluster.partition_map:
        assert "n1" not in rs.members
        assert "n1" not in rs.handoffs


def test_client_stats_collected_from_heartbeats():
    cluster = make_cluster()
    client = cluster.clients[0]

    def driver(sim):
        yield client.put("statkey", "v", 100)

    cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=2.0)  # a few heartbeat rounds
    all_clients = set()
    for clients in cluster.metadata.client_stats.values():
        all_clients.update(clients)
    assert str(client.ip) in all_clients


def test_failure_while_no_eligible_handoff():
    """With N == R every node is in the replica set: no handoff exists,
    but the failure must still be hidden without crashing."""
    cluster = make_cluster(n_storage_nodes=3, replication_level=3)
    cluster.metadata.declare_failed("n1")
    cluster.sim.run(until=cluster.sim.now + 0.5)
    for rs in cluster.partition_map.partitions_where_member("n1"):
        assert "n1" in rs.absent
        assert rs.handoffs == []
