"""§4.4 complete-cluster-failure recovery: "In case of a complete cluster
failure, in which all in-memory locks are lost, the persistent logs on the
nodes will identify the latest put operations. The new primary will check
them all using the rules above."
"""

import pytest

from repro.core import ClusterConfig, NiceCluster
from repro.kv import PutStamp, StoredObject


def make_cluster(**kw):
    defaults = dict(n_storage_nodes=6, n_clients=2, replication_level=3)
    defaults.update(kw)
    cluster = NiceCluster(ClusterConfig(**defaults))
    cluster.warm_up()
    return cluster


def crash_all(cluster, names):
    for n in names:
        cluster.nodes[n].crash()


def restart_all(cluster, names):
    return [cluster.nodes[n].restart() for n in names]


def test_uncommitted_logged_op_aborted_after_full_restart():
    """Data multicast landed (logged everywhere) but the timestamp never
    went out — after a whole-replica-set crash and restart, the log-driven
    reconciliation aborts the op and clears every log."""
    cluster = make_cluster()
    client = cluster.clients[0]
    key = "limbo"
    part = cluster.uni_vring.subgroup_of_key(key)
    rs = cluster.partition_map.get(part)
    primary_name = rs.primary  # snapshot: failure handling repoints rs.primary
    primary = cluster.nodes[primary_name]
    members = list(rs.members)

    # Make the primary crash the instant it would multicast the timestamp.
    orig_send_ctrl = primary.mc_sender.send_ctrl

    def crash_instead(*args, **kwargs):
        primary.crash()

    primary.mc_sender.send_ctrl = crash_instead
    out = {}

    def driver(sim):
        r = yield client.put(key, "v", 100, max_retries=0)
        out["first_put"] = r
        # Secondaries hold locks + logs now; crash them too (complete
        # failure of the replica set).
        crash_all(cluster, [m for m in members if m != primary_name])
        yield sim.timeout(3.0)  # metadata notices everyone is gone
        primary.mc_sender.send_ctrl = orig_send_ctrl
        for proc in restart_all(cluster, members):
            yield proc
        yield sim.timeout(2.0)  # reconciliation runs on the restored primary

    cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=60.0)
    assert not out["first_put"].ok  # the interrupted put failed at the client
    for name in members:
        node = cluster.nodes[name]
        assert len(node.wal) == 0, f"{name} still holds log records"
        assert len(node.locks) == 0
        assert node.store.get(key) is None  # aborted, never visible


def test_committed_somewhere_commits_everywhere_after_full_restart():
    """If any replica's store holds the committed version, the §4.4 rule
    commits the logged op on every replica after restart."""
    cluster = make_cluster()
    key = "evident"
    part = cluster.uni_vring.subgroup_of_key(key)
    rs = cluster.partition_map.get(part)
    members = list(rs.members)
    nodes = [cluster.nodes[n] for n in members]
    primary, secondaries = nodes[0] if members[0] == rs.primary else None, None
    primary = cluster.nodes[rs.primary]
    secondaries = [n for n in nodes if n is not primary]

    # Hand-craft the crash state: the op is logged on all replicas, and one
    # secondary already committed (it received the timestamp; the others
    # and the primary crashed first).
    from repro.kv import LogRecord

    op_id = ("10.20.0.0", 999)
    stamp = PutStamp(str(primary.ip), 1.0, "10.20.0.0", 0.5)

    def stage(sim):
        for node in nodes:
            yield sim.wait(
                node.wal.append,
                LogRecord(
                    op_id, key, 100, "10.20.0.0", 0.5,
                    value="v-committed", client_port=7300, partition=part,
                )
            )
        witness = secondaries[0]
        witness.store.put(StoredObject(key, "v-committed", 100, stamp))
        witness.wal.remove(op_id)

    cluster.sim.process(stage(cluster.sim))
    cluster.sim.run(until=cluster.sim.now + 1.0)

    def scenario(sim):
        crash_all(cluster, members)
        yield sim.timeout(3.0)
        # Secondaries (including the commit witness) come back first; the
        # primary rejoins last, so its §4.4 reconciliation can actually
        # reach the evidence.  (Reconciling while the witness is down is
        # 2PC's classic blocking dilemma — the paper hides failed nodes, it
        # does not solve that.)
        secondaries_first = [m for m in members if m != primary.name] + [primary.name]
        for name in secondaries_first:
            yield cluster.nodes[name].restart()
        yield sim.timeout(2.0)

    cluster.sim.process(scenario(cluster.sim))
    cluster.sim.run(until=60.0)

    for node in nodes:
        obj = node.store.get(key)
        assert obj is not None, f"{node.name} missing the committed object"
        assert obj.value == "v-committed"
        assert len(node.wal) == 0
        assert len(node.locks) == 0

    # And the system still serves the key.
    out = {}

    def reader(sim):
        out["get"] = yield cluster.clients[0].get(key)

    cluster.sim.process(reader(cluster.sim))
    cluster.sim.run(until=cluster.sim.now + 10.0)
    assert out["get"].ok and out["get"].value == "v-committed"


def test_system_operational_after_complete_cluster_restart():
    cluster = make_cluster()
    client = cluster.clients[0]
    all_nodes = list(cluster.nodes)
    out = {}

    def driver(sim):
        yield client.put("before", "v1", 100)
        crash_all(cluster, all_nodes)
        yield sim.timeout(3.0)
        for proc in restart_all(cluster, all_nodes):
            yield proc
        yield sim.timeout(2.0)
        out["get"] = yield client.get("before")
        out["put"] = yield client.put("after", "v2", 100)

    cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=120.0)
    assert out["get"].ok and out["get"].value == "v1"
    assert out["put"].ok
