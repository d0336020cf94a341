"""Tests for the NOOB baseline: access modes, consistency modes,
replication fan-out costs."""

import dataclasses

import pytest

from repro.core import ClusterConfig, NiceCluster
from repro.net import wire_size
from repro.noob import NoobCluster, NoobConfig


def make_cluster(**kw):
    defaults = dict(n_storage_nodes=5, n_clients=2, replication_level=3)
    defaults.update(kw)
    cluster = NoobCluster(NoobConfig(**defaults))
    cluster.warm_up()
    return cluster


def run_driver(cluster, gen, until=30.0):
    out = {}
    cluster.sim.process(gen(cluster.sim, out))
    cluster.sim.run(until=until)
    return out


def put_get(client, key="k", value="v", size=1024):
    def gen(sim, out):
        out["put"] = yield client.put(key, value, size)
        out["get"] = yield client.get(key)

    return gen


@pytest.mark.parametrize("consistency", ["primary", "2pc", "quorum", "chain"])
def test_put_replicates_everywhere(consistency):
    cluster = make_cluster(consistency=consistency)
    out = run_driver(cluster, put_get(cluster.clients[0]))
    assert out["put"].ok and out["get"].ok
    cluster.sim.run(until=cluster.sim.now + 5.0)  # quorum stragglers
    for node in cluster.replica_nodes("k"):
        obj = node.store.get("k")
        assert obj is not None and obj.value == "v"


def test_config_validation():
    with pytest.raises(ValueError):
        NoobConfig(access="bogus")
    with pytest.raises(ValueError):
        NoobConfig(consistency="bogus")
    with pytest.raises(ValueError):
        NoobConfig(consistency="quorum", quorum_k=9, replication_level=3, n_storage_nodes=5)
    with pytest.raises(ValueError):
        NoobConfig(access="rag", n_gateways=0)
    with pytest.raises(ValueError):
        NoobConfig(get_lb="bogus")


#: ClusterConfig fields no NOOB code reads: the control plane, the vrings,
#: the fabric and NICE's protocol variants.
NICE_ONLY = (
    "controller_latency_s", "heartbeat_interval_s", "heartbeat_miss_limit",
    "unicast_vring", "multicast_vring", "load_balancing", "metadata_standbys",
    "deployment", "n_racks", "n_spines", "switch_rule_budget",
    "protocol_mode", "scrub_interval_s",
)


def test_noob_config_rejects_nice_only_knobs():
    """A NOOB cluster used to accept them and build one switch, with no
    fabric and no standby, silently."""
    with pytest.raises(TypeError):
        NoobConfig(n_racks=4)
    with pytest.raises(TypeError):
        NoobConfig(n_racks=4, metadata_standbys=1, protocol_mode="harmonia",
                   scrub_interval_s=1.0)
    nice, noob = ({f.name for f in dataclasses.fields(c)} for c in (ClusterConfig, NoobConfig))
    assert (len(nice), len(noob)) == (25, 17)
    assert nice - noob == set(NICE_ONLY)
    assert noob - nice == {"access", "consistency", "quorum_k", "get_lb", "n_gateways"}


def test_both_builders_place_clients_at_the_same_addresses():
    kw = dict(n_storage_nodes=5, n_clients=14)
    for cluster in (NoobCluster(NoobConfig(**kw)), NiceCluster(ClusterConfig(**kw))):
        ips = [str(c.host.ip) for c in cluster.clients]
        assert ips == [f"10.20.0.{18 * i}" for i in range(14)]


def test_2pc_defaults_to_round_robin_gets():
    assert NoobConfig(consistency="2pc").get_lb == "round_robin"
    assert NoobConfig(consistency="primary").get_lb == "primary"


def test_rog_requests_pass_through_gateway_and_random_node():
    cluster = make_cluster(access="rog")
    out = run_driver(cluster, put_get(cluster.clients[0]))
    assert out["put"].ok
    assert cluster.gateways[0].requests_forwarded.value >= 2
    # With 5 nodes the random pick usually misses the primary: over several
    # ops at least one forward must happen.
    def more(sim, o):
        for i in range(10):
            r = yield cluster.clients[0].put(f"key{i}", "v", 100)
            assert r.ok

    run_driver(cluster, more)
    assert sum(n.forwards.value for n in cluster.nodes.values()) >= 1


def test_rag_forwards_to_primary_without_extra_node_hop():
    cluster = make_cluster(access="rag")
    def gen(sim, o):
        for i in range(5):
            r = yield cluster.clients[0].put(f"key{i}", "v", 100)
            assert r.ok

    run_driver(cluster, gen)
    assert cluster.gateways[0].requests_forwarded.value == 5
    assert sum(n.forwards.value for n in cluster.nodes.values()) == 0


def test_access_latency_ordering_small_objects():
    """Fig 4's mechanism: RAC < RAG < ROG for small gets."""
    lat = {}
    for access in ["rac", "rag", "rog"]:
        cluster = make_cluster(access=access, seed=7)
        client = cluster.clients[0]

        def gen(sim, out):
            yield client.put("probe", "v", 100)
            total = 0.0
            for _ in range(20):
                r = yield client.get("probe")
                assert r.ok
                total += r.latency
            out["avg"] = total / 20

        out = run_driver(cluster, gen, until=60.0)
        lat[access] = out["avg"]
    assert lat["rac"] < lat["rag"] < lat["rog"]


def test_primary_fanout_generates_r_copies_on_primary_uplink():
    """The NOOB inefficiency NICE removes: the primary sends R−1 copies."""
    cluster = make_cluster(consistency="primary")
    client = cluster.clients[0]
    size = 100_000

    def gen(sim, out):
        yield client.put("fat", "v", size)

    run_driver(cluster, gen)
    cluster.sim.run(until=cluster.sim.now + 2.0)
    primary = cluster.primary_of("fat")
    uplink = cluster.network.link_between(cluster.switch, primary.host)
    to_switch = (uplink.a if uplink.a.device is primary.host else uplink.b).channel
    # The primary transmitted ~2 object copies (R−1 = 2) plus acks.
    assert to_switch.tx_bytes.value >= 2 * wire_size(size)


def test_chain_latency_grows_with_chain_length():
    lat = {}
    for r in [1, 3, 5]:
        cluster = make_cluster(consistency="chain", replication_level=r, seed=3)
        client = cluster.clients[0]

        def gen(sim, out):
            res = yield client.put("chained", "v", 200_000)
            out["lat"] = res.latency

        out = run_driver(cluster, gen)
        lat[r] = out["lat"]
    assert lat[1] < lat[3] < lat[5]


def test_quorum_returns_before_all_transfers_finish():
    cluster = make_cluster(consistency="quorum", quorum_k=1, replication_level=3)
    client = cluster.clients[0]
    size = 1 << 20

    def gen(sim, out):
        res = yield client.put("q", "v", size)
        out["t_ack"] = sim.now
        out["res"] = res

    out = run_driver(cluster, gen, until=60.0)
    assert out["res"].ok
    cluster.sim.run(until=cluster.sim.now + 10.0)
    stored = sum(1 for n in cluster.replica_nodes("q") if n.store.get("q"))
    assert stored == 3


def test_round_robin_get_lb_spreads_load():
    cluster = make_cluster(consistency="2pc", n_clients=6, seed=5)

    def gen(sim, out):
        yield cluster.clients[0].put("popular", "v", 100)
        for _ in range(5):
            for c in cluster.clients:
                r = yield c.get("popular")
                assert r.ok

    run_driver(cluster, gen, until=60.0)
    served = [n.gets_served.value for n in cluster.replica_nodes("popular")]
    assert sum(served) == 30
    assert sum(1 for s in served if s > 0) >= 2


def test_primary_only_gets_concentrate_on_primary():
    cluster = make_cluster(consistency="primary", n_clients=6)

    def gen(sim, out):
        yield cluster.clients[0].put("popular", "v", 100)
        for c in cluster.clients:
            r = yield c.get("popular")
            assert r.ok

    run_driver(cluster, gen)
    replicas = cluster.replica_nodes("popular")
    assert replicas[0].gets_served.value == 6
    assert all(n.gets_served.value == 0 for n in replicas[1:])


def test_membership_broadcast_is_o_n():
    cluster = make_cluster(n_storage_nodes=8)
    done = {}

    def gen(sim, out):
        n = yield cluster.broadcast_membership_change()
        out["n"] = n

    out = run_driver(cluster, gen)
    assert out["n"] == 8
    assert cluster.membership_messages_sent == 8
    assert sum(n.membership_updates.value for n in cluster.nodes.values()) == 8


def test_get_miss():
    cluster = make_cluster()

    def gen(sim, out):
        out["get"] = yield cluster.clients[0].get("ghost", max_retries=0)

    out = run_driver(cluster, gen)
    assert not out["get"].ok
    assert out["get"].status == "miss"


def test_quorum_get_reads_write_set_covering_quorum():
    """§3.3: quorum designs must read R−W+1 replicas on get.  A replica
    holding a stale version must still return the newest committed value."""
    cluster = make_cluster(consistency="quorum", quorum_k=2, replication_level=3)
    client = cluster.clients[0]
    out = {}

    def gen(sim, o):
        r = yield client.put("qread", "v1", 500)
        assert r.ok
        yield sim.timeout(2.0)  # let all transfers land
        # Make one replica stale (simulate a write it never saw).
        replicas = cluster.replica_nodes("qread")
        from repro.kv import PutStamp, StoredObject

        newer = PutStamp("10.0.0.1", 99.0, str(client.ip), 98.0)
        for node in replicas[:2]:
            node.store.put(StoredObject("qread", "v2-newer", 500, newer))
        # replicas[2] still has v1; with read_set = R-W+1 = 2, any serving
        # replica must consult at least one holder of v2.
        o["get"] = yield client.get("qread")

    out = run_driver(cluster, gen, until=60.0)
    assert out["get"].ok
    assert out["get"].value == "v2-newer"


def test_quorum_get_latency_grows_as_write_set_shrinks():
    """W=1 forces R-replica reads; W=R makes reads local — the §3.3
    trade-off between put and get overhead."""
    lat = {}
    for k in (1, 3):
        cluster = make_cluster(
            consistency="quorum", quorum_k=k, replication_level=3, seed=9
        )
        client = cluster.clients[0]

        def gen(sim, o):
            r = yield client.put("qlat", "v", 4096)
            assert r.ok
            yield sim.timeout(2.0)
            total = 0.0
            for _ in range(10):
                g = yield client.get("qlat")
                assert g.ok
                total += g.latency
            o["avg"] = total / 10

        out = run_driver(cluster, gen, until=120.0)
        lat[k] = out["avg"]
    assert lat[1] > lat[3]  # W=1 reads 3 replicas; W=3 reads 1


def test_crash_clears_prepared_state_and_locks_but_not_the_log():
    """A 2PC secondary that crashes between prepare and commit loses what
    memory held (the lock, the prepared op) and keeps what the disk held
    (the log record); the late commit then applies nothing."""
    cluster = make_cluster(consistency="2pc")
    client = cluster.clients[0]
    primary, victim = cluster.replica_nodes("k")[:2]
    prepared = {}

    def crash_when_prepared(sim):
        while not victim.participant.pending:
            yield sim.timeout(10e-6)
        (op,) = victim.participant.pending.values()
        prepared.update(key=op.key, value=op.value, lock=victim.locks.holder("k") == op.op_id)
        victim.crash()

    def gen(sim, out):
        sim.process(crash_when_prepared(sim))
        out["put"] = yield client.put("k", "v", 1024, max_retries=0)

    run_driver(cluster, gen)
    assert prepared == {"key": "k", "value": "v", "lock": True}
    assert not victim.participant.pending
    assert len(victim.locks) == 0
    assert len(victim.wal) == 1  # the disk survives the crash
    assert victim.store.get("k") is None
    assert primary.store.get("k").value == "v"  # the primary did commit
