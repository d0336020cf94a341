"""Integration: the NICE-2PC put follows Figure 3's message sequence.

We instrument one replica set and assert the ordering:
multicast data → (+L, W, ack1) on each replica → timestamp multicast →
(−L, ack2) → client ack; locks held exactly between data and timestamp.
"""

from repro.core import ClusterConfig, NiceCluster


def test_put_protocol_message_sequence():
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=5, n_clients=1, replication_level=3))
    cluster.warm_up()
    client = cluster.clients[0]
    key = "fig3"
    partition = cluster.mc_vring.subgroup_of_key(key)
    replicas = cluster.replica_nodes(key)
    primary = cluster.node_of_partition(partition)
    secondaries = [n for n in replicas if n is not primary]

    events = []

    # Instrument multicast endpoints (data + commit receptions).
    for node in replicas:
        orig_put = node.mc_endpoint.messages.put

        def tap(msg, node=node, orig=orig_put):
            body = getattr(msg, "payload", None) or {}
            if body.get("type") == "put":
                events.append((node.sim.now, node.name, "mc_data"))
            elif body.get("type") == "commit":
                events.append((node.sim.now, node.name, "commit"))
            orig(msg)

        node.mc_endpoint.messages.put = tap

    # Instrument WAL appends/removals (+L / −L).
    for node in replicas:
        orig_append = node.wal.append
        orig_remove = node.wal.remove

        def tapped_append(rec, then=None, node=node, orig=orig_append):
            events.append((node.sim.now, node.name, "+L"))
            return orig(rec, then)

        def tapped_remove(op, node=node, orig=orig_remove):
            events.append((node.sim.now, node.name, "-L"))
            return orig(op)

        node.wal.append = tapped_append
        node.wal.remove = tapped_remove

    done = {}

    def driver(sim):
        done["result"] = yield client.put(key, "v", 1000)
        events.append((sim.now, "client", "acked"))

    cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=10.0)

    assert done["result"].ok
    by_kind = {}
    for t, who, kind in events:
        by_kind.setdefault(kind, []).append((t, who))

    # Every replica received the data exactly once, via one multicast.
    assert len(by_kind["mc_data"]) == 3
    assert {w for _, w in by_kind["mc_data"]} == {n.name for n in replicas}

    # +L on all replicas strictly after data arrival, before any commit.
    assert len(by_kind["+L"]) == 3
    first_commit = min(t for t, _ in by_kind["commit"])
    assert max(t for t, _ in by_kind["+L"]) <= first_commit

    # Commit (timestamp multicast) reached the secondaries.
    commit_receivers = {w for _, w in by_kind["commit"]}
    for s in secondaries:
        assert s.name in commit_receivers

    # −L after the *local* commit: the primary unlogs when it sends the
    # timestamp; each secondary unlogs after receiving it.
    assert len(by_kind["-L"]) == 3
    commit_at = {w: t for t, w in by_kind["commit"]}
    for t, who in by_kind["-L"]:
        if who != primary.name:
            assert t >= commit_at[who]
    client_ack = by_kind["acked"][0][0]
    assert client_ack >= max(t for t, _ in by_kind["-L"]) - 1e-9


def test_locks_held_exactly_between_data_and_commit():
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=5, n_clients=1, replication_level=3))
    cluster.warm_up()
    client = cluster.clients[0]
    key = "locked"
    replicas = cluster.replica_nodes(key)
    samples = []

    def sampler(sim):
        while True:
            samples.append((sim.now, [len(n.locks) for n in replicas]))
            yield sim.timeout(0.0002)

    cluster.sim.process(sampler(cluster.sim))
    done = {}

    def driver(sim):
        done["r"] = yield client.put(key, "v", 500_000)

    cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=5.0)
    assert done["r"].ok
    # Locks were observed held at some point, and all released at the end.
    assert any(any(c > 0 for c in counts) for _, counts in samples)
    assert all(len(n.locks) == 0 for n in replicas)
