"""Unit tests for the NICE controller: rule synthesis, §4.6 budget,
reactive packet-in path, failure hiding."""

import pytest

from repro.core import ClusterConfig, NiceCluster
from repro.core.controller import client_divisions
from repro.net import IPv4Address, Packet, Proto
from tests.helpers import HopRecorder


def make_cluster(**kw):
    defaults = dict(n_storage_nodes=5, n_clients=3, replication_level=3)
    defaults.update(kw)
    cluster = NiceCluster(ClusterConfig(**defaults))
    cluster.warm_up()
    return cluster


def test_rule_budget_without_load_balancing():
    """§4.6 counts 2N vring entries without load balancing; this
    implementation adds one IP-multicast-group match per partition (the
    target of node-originated 2PC timestamps), hence 3N."""
    cluster = make_cluster(load_balancing=False, n_partitions=8)
    n = cluster.config.n_partitions
    assert cluster.controller.rule_count() == 3 * n


def test_rule_budget_with_load_balancing():
    """§4.6's (R+1)N with LB; here R division rules + 1 default unicast +
    2 multicast entries per partition ⇒ (R+3)N."""
    cluster = make_cluster(load_balancing=True, n_partitions=8)
    n = cluster.config.n_partitions
    r = cluster.config.replication_level
    assert cluster.controller.rule_count() == (r + 3) * n


def test_multicast_groups_have_r_buckets():
    cluster = make_cluster()
    for p in range(cluster.config.n_partitions):
        group = cluster.switch.groups[p]
        assert len(group.buckets) == cluster.config.replication_level


def test_client_divisions_are_power_of_two_blocks():
    cluster = make_cluster()
    divisions = client_divisions(cluster.config.client_space, 3)
    assert len(divisions) == 3
    assert all(d.prefixlen == 26 for d in divisions)  # /24 split into 4
    assert divisions[0].address == cluster.config.client_space.address


def test_hide_host_removes_node_from_all_mappings():
    cluster = make_cluster()
    victim = "n1"
    victim_ip = cluster.directory[victim]
    cluster.metadata.declare_failed(victim)
    cluster.sim.run(until=cluster.sim.now + 0.1)
    # No vring rule rewrites to the victim's IP any more.
    for rule in cluster.switch.table.rules:
        for action in rule.actions:
            ip = getattr(action, "ip", None)
            assert ip != victim_ip, f"rule {rule.cookie} still routes to {victim}"
    # No multicast bucket targets the victim.
    for group in cluster.switch.groups.values():
        for bucket in group.buckets:
            for action in bucket.actions:
                assert getattr(action, "ip", None) != victim_ip


def test_failed_node_partitions_get_handoff_buckets():
    cluster = make_cluster()
    victim = "n1"
    affected = [rs.partition for rs in cluster.partition_map.partitions_of(victim)]
    cluster.metadata.declare_failed(victim)
    cluster.sim.run(until=cluster.sim.now + 0.1)
    for p in affected:
        rs = cluster.partition_map.get(p)
        assert rs.handoffs, f"partition {p} got no handoff"
        group = cluster.switch.groups[p]
        bucket_ips = {
            a.ip for b in group.buckets for a in b.actions if hasattr(a, "ip")
        }
        assert cluster.directory[rs.handoffs[0]] in bucket_ips


def test_reactive_vring_resolution_via_packet_in():
    """A cold switch resolves vring traffic through packet-in (§5)."""
    cfg = ClusterConfig(n_storage_nodes=4, n_clients=1, replication_level=2)
    cluster = NiceCluster(cfg)
    cluster.warm_up()
    # Empty the vring rules (post-bootstrap) to force the reactive path.
    for p in range(cfg.n_partitions):
        cluster.switch.remove_cookie(f"uni:{p}")
        cluster.switch.remove_cookie(f"mc:{p}")
    client = cluster.clients[0]
    results = {}

    def driver(sim):
        r = yield client.put("coldkey", "v", 100)
        results["put"] = r
        g = yield client.get("coldkey")
        results["get"] = g

    cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=30.0)
    assert results["put"].ok
    assert results["get"].ok
    assert cluster.switch.table_misses.value >= 1


def test_learning_switch_arps_unknown_physical_dst():
    cfg = ClusterConfig(n_storage_nodes=3, n_clients=1, replication_level=2)
    cluster = NiceCluster(cfg)
    cluster.warm_up()
    # Forget one host's location and L3 rule: force ARP discovery.
    target = cluster.nodes["n2"].host
    cluster.controller.directory.arp.forget(target.ip)
    cluster.switch.remove_cookie(f"l3:{target.ip}")
    inbox = cluster.nodes["n2"].stack.udp_bind(9999)
    got = []

    def receiver(sim):
        d = yield inbox.get()
        got.append(d)

    cluster.sim.process(receiver(cluster.sim))
    cluster.clients[0].stack.udp_send(target.ip, 9999, "ping", 10)
    cluster.sim.run(until=5.0)
    assert len(got) == 1
    assert cluster.controller.directory.arp.lookup(target.ip) is not None


def test_single_hop_routing_trace(monkeypatch):
    """§3.2: the client request reaches the storage node through the switch
    in a single hop (client → switch → node), rewritten in-network."""
    cluster = make_cluster()
    hops = HopRecorder(monkeypatch)
    client = cluster.clients[0]
    key = "trace-me"
    partition = cluster.uni_vring.subgroup_of_key(key)
    primary = cluster.node_of_partition(partition)
    captured = []
    orig = primary.stack.deliver

    def capture(packet):
        captured.append(packet)
        orig(packet)

    primary.stack.deliver = capture
    vaddr = cluster.uni_vring.vnode_for_key(key)
    client.stack.udp_send(vaddr, 9999, {"type": "noop"}, 10)
    cluster.sim.run(until=2.0)
    assert len(captured) == 1
    pkt = captured[0]
    assert hops.path(pkt) == [client.host.name, "sw0", primary.host.name]
    assert pkt.dst_ip == primary.ip
    assert pkt.virtual_dst == vaddr


def test_rule_resync_is_idempotent():
    cluster = make_cluster()
    before = cluster.controller.rule_count()
    cluster.controller.sync_partition(0)
    cluster.sim.run(until=cluster.sim.now + 0.1)
    assert cluster.controller.rule_count() == before
