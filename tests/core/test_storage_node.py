"""Unit tests for the NICE storage node: 2PC mechanics, idempotence,
handoff behaviour, any-k puts."""

import pytest

from repro.core import ClusterConfig, NiceCluster


def make_cluster(**kw):
    defaults = dict(n_storage_nodes=5, n_clients=2, replication_level=3)
    defaults.update(kw)
    cluster = NiceCluster(ClusterConfig(**defaults))
    cluster.warm_up()
    return cluster


def run_ops(cluster, gen_func, until=30.0):
    results = {}
    cluster.sim.process(gen_func(cluster.sim, results))
    cluster.sim.run(until=until)
    return results


def test_put_replicates_to_all_replicas_with_same_stamp():
    cluster = make_cluster()
    client = cluster.clients[0]

    def driver(sim, out):
        out["put"] = yield client.put("obj", "v1", 2048)

    out = run_ops(cluster, driver)
    assert out["put"].ok
    replicas = cluster.replica_nodes("obj")
    assert len(replicas) == 3
    stamps = []
    for node in replicas:
        obj = node.store.get("obj")
        assert obj is not None, f"{node.name} missing the object"
        assert obj.value == "v1"
        stamps.append(obj.stamp)
    assert len({s for s in stamps}) == 1  # identical commit stamp everywhere


def test_put_cleans_up_locks_and_wal():
    cluster = make_cluster()
    client = cluster.clients[0]

    def driver(sim, out):
        out["put"] = yield client.put("obj", "v1", 100)

    run_ops(cluster, driver)
    for node in cluster.replica_nodes("obj"):
        assert len(node.locks) == 0
        assert len(node.wal) == 0
        assert not node.puts.participant.pending


def test_sequential_puts_last_writer_wins():
    cluster = make_cluster()
    client = cluster.clients[0]

    def driver(sim, out):
        yield client.put("k", "v1", 100)
        yield client.put("k", "v2", 100)
        out["get"] = yield client.get("k")

    out = run_ops(cluster, driver)
    assert out["get"].value == "v2"
    for node in cluster.replica_nodes("k"):
        assert node.store.get("k").value == "v2"


def test_concurrent_puts_same_key_serialize_via_locks():
    cluster = make_cluster()
    c0, c1 = cluster.clients[0], cluster.clients[1]

    def driver(sim, out):
        p0 = c0.put("contended", "from-c0", 4096)
        p1 = c1.put("contended", "from-c1", 4096)
        out["r0"] = yield p0
        out["r1"] = yield p1

    out = run_ops(cluster, driver)
    assert out["r0"].ok and out["r1"].ok
    values = {n.store.get("contended").value for n in cluster.replica_nodes("contended")}
    assert len(values) == 1  # all replicas agree on one winner
    assert values.pop() in {"from-c0", "from-c1"}


def test_gets_from_different_sources_hit_lb_replicas():
    """§4.5: source-prefix divisions spread gets over the replica set."""
    cluster = make_cluster(n_clients=8)

    def driver(sim, out):
        yield cluster.clients[0].put("popular", "v", 100)
        for c in cluster.clients:
            r = yield c.get("popular")
            assert r.ok

    run_ops(cluster, driver)
    served = {n.name: n.gets_served.value for n in cluster.replica_nodes("popular")}
    assert sum(served.values()) == 8
    assert sum(1 for v in served.values() if v > 0) >= 2, f"no spread: {served}"


def test_gets_all_go_to_primary_without_lb():
    cluster = make_cluster(n_clients=8, load_balancing=False)

    def driver(sim, out):
        yield cluster.clients[0].put("popular", "v", 100)
        for c in cluster.clients:
            r = yield c.get("popular")
            assert r.ok

    run_ops(cluster, driver)
    replicas = cluster.replica_nodes("popular")
    primary = cluster.node_of_partition(cluster.uni_vring.subgroup_of_key("popular"))
    assert primary.gets_served.value == 8
    for node in replicas:
        if node is not primary:
            assert node.gets_served.value == 0


def test_get_miss_returns_miss_status():
    cluster = make_cluster()

    def driver(sim, out):
        out["get"] = yield cluster.clients[0].get("never-stored", max_retries=0)

    out = run_ops(cluster, driver)
    assert not out["get"].ok
    assert out["get"].status == "miss"


def test_handoff_stores_new_puts_separately_and_forwards_misses():
    cluster = make_cluster()
    client = cluster.clients[0]
    key_old, key_new = "old-obj", "new-obj"
    # Same partition trick: derive keys in one partition.
    part = cluster.uni_vring.subgroup_of_key(key_old)
    i = 0
    while cluster.uni_vring.subgroup_of_key(f"new-{i}") != part:
        i += 1
    key_new = f"new-{i}"
    out = {}

    def driver(sim, o):
        yield client.put(key_old, "before", 100)
        rs = cluster.partition_map.get(part)
        victim = [m for m in rs.members if m != rs.primary][0]
        o["victim"] = victim
        cluster.nodes[victim].crash()
        yield sim.timeout(2.5)  # detection + handoff
        yield client.put(key_new, "after", 100)
        o["rs"] = cluster.partition_map.get(part)

    run_ops(cluster, lambda sim, o: driver(sim, out))
    rs = out["rs"]
    assert rs.handoffs
    handoff = cluster.nodes[rs.handoffs[0]]
    # New object landed in the handoff namespace, not the primary namespace.
    assert handoff.store.get_handoff(key_new) is not None
    assert handoff.store.get(key_new) is None
    # And the old object is NOT on the handoff (it never received it).
    assert handoff.store.get_handoff(key_old) is None


def test_handoff_forwards_get_for_old_object_to_primary():
    cluster = make_cluster(n_clients=8)
    client = cluster.clients[0]
    key = "forward-me"
    part = cluster.uni_vring.subgroup_of_key(key)
    out = {}

    def driver(sim, o):
        yield client.put(key, "v", 100)
        rs = cluster.partition_map.get(part)
        victim = [m for m in rs.members if m != rs.primary][0]
        cluster.nodes[victim].crash()
        yield sim.timeout(2.5)
        rs = cluster.partition_map.get(part)
        handoff = cluster.nodes[rs.handoffs[0]]
        before = handoff.gets_forwarded.value
        # Ask every client so at least one get lands on the handoff via LB.
        for c in cluster.clients:
            r = yield c.get(key)
            o.setdefault("gets", []).append(r)
        o["forwarded"] = handoff.gets_forwarded.value - before

    run_ops(cluster, lambda sim, o: driver(sim, out))
    assert all(r.ok and r.value == "v" for r in out["gets"])
    assert out["forwarded"] >= 1


def test_anyk_put_stores_on_replicas_without_2pc():
    cluster = make_cluster()
    client = cluster.clients[0]

    def driver(sim, out):
        out["put"] = yield client.put_anyk("qobj", "v", 100_000, quorum=2)

    out = run_ops(cluster, driver)
    assert out["put"].ok
    assert out["put"].value == 2  # quorum acks
    cluster.sim.run(until=cluster.sim.now + 5.0)
    stored = sum(1 for n in cluster.replica_nodes("qobj") if n.store.get("qobj"))
    assert stored == 3  # stragglers complete in the background


def test_retried_put_is_idempotent():
    """A retry reusing the client timestamp must not double-commit or
    deadlock on its own lock."""
    cluster = make_cluster()
    client = cluster.clients[0]
    # Shorten the retry timeout so a retry actually happens after we delay
    # the first reply by crashing a secondary mid-operation.
    cluster.config.client_retry_timeout_s = 0.2
    key = "retry-me"
    part = cluster.uni_vring.subgroup_of_key(key)
    out = {}

    def driver(sim, o):
        rs = cluster.partition_map.get(part)
        victim = [m for m in rs.members if m != rs.primary][0]
        cluster.nodes[victim].crash()  # undetected yet: first put will abort
        o["put"] = yield client.put(key, "v", 100, max_retries=20)

    run_ops(cluster, lambda sim, o: driver(sim, out), until=60.0)
    assert out["put"].ok
    assert out["put"].retries >= 1
    for node in cluster.replica_nodes(key):
        obj = node.store.get(key)
        assert obj is not None and obj.value == "v"
        assert len(node.locks) == 0


def test_node_crash_clears_volatile_state_keeps_disk():
    cluster = make_cluster()
    client = cluster.clients[0]

    def driver(sim, out):
        yield client.put("persist", "v", 100)

    run_ops(cluster, driver)
    node = cluster.replica_nodes("persist")[0]
    node.locks.acquire("x", ("op", 1))
    node.crash()
    assert len(node.locks) == 0
    assert node.store.get("persist") is not None  # disk survives
