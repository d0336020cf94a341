"""The known wrong answer under packet loss (ROADMAP item 1), pinned.

Root cause: the phase-2 timestamp multicast is one unrepaired datagram
(``MulticastSender.send_ctrl``).  A replica that loses its copy stays
prepared, locked and holding the *old* value, and the read path answers
gets from the store without consulting the lock — until two peer timeouts
hide the node ≈3 s later.  A reader load-balanced to a healthy replica
sees the new value, then a reader load-balanced to the victim sees the
old one: a stale read both checkers report.

Both tests are ``xfail(strict=True)``: they must keep failing until the
fix lands (proof that a refactor slipped no behaviour in) and flip loudly
when it does.
"""

import pytest

from repro.bench.chaos import chaos_cell
from repro.check import HistoryRecorder, check_linearizable, check_monotonic
from repro.core import ClusterConfig, NiceCluster

ROOT_CAUSE = (
    "a secondary that loses the unrepaired commit datagram stays prepared "
    "and serves the old value: the read path never consults the put "
    "engine's unresolved ops (ROADMAP item 1)"
)


def lost_commit_history():
    """Directed, RNG-free: swallow the one ``commit`` control datagram at
    one secondary, read the new value from a healthy replica, then — after
    a real gap, the checkers' precedence is strict ``ret < inv`` — read
    through the victim."""
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=6, n_clients=3, replication_level=3))
    cluster.warm_up()
    sim = cluster.sim
    recorder = HistoryRecorder().attach(*cluster.clients)
    key = "k0"
    rs = cluster.partition_map.get(cluster.uni_vring.subgroup_of_key(key))
    reads = []

    def served():
        return {n: cluster.nodes[n].gets_served.value for n in rs.members}

    def swallow_commit(node):
        deliver = node.mc_endpoint._on_ctrl

        def on_ctrl(dgram, body):
            if body[1].get("type") != "commit":
                deliver(dgram, body)

        node.mc_endpoint._on_ctrl = on_ctrl

    def driver():
        assert (yield cluster.clients[0].put(key, "v1", 1000)).ok
        # Which replica does the load balancer hand each client's gets to?
        lands_on = {}
        for client in cluster.clients:
            before = served()
            assert (yield client.get(key)).value == "v1"
            lands_on[client] = next(n for n, v in served().items() if v > before[n])
        victim = next(n for n in lands_on.values() if n != rs.primary)
        stale_reader = next(c for c, n in lands_on.items() if n == victim)
        fresh_reader = next(c for c, n in lands_on.items() if n != victim)
        swallow_commit(cluster.nodes[victim])
        # The victim never acks phase 2, so the client is told "fail" —
        # but every other replica has committed v2.
        yield cluster.clients[0].put(key, "v2", 1000, max_retries=0)
        reads.append((yield fresh_reader.get(key, max_retries=0)).value)
        yield sim.timeout(0.01)
        reads.append((yield stale_reader.get(key, max_retries=0)).value)

    proc = sim.process(driver())
    sim.run(until=30.0)
    assert proc.triggered, "driver did not finish"
    return reads, recorder.ops


@pytest.mark.xfail(strict=True, reason=ROOT_CAUSE)
def test_lost_commit_datagram_serves_no_stale_read():
    reads, ops = lost_commit_history()
    assert reads[0] == "v2"  # the failed put did take effect ...
    monotonic, linearizable = check_monotonic(ops), check_linearizable(ops)
    # ... so reading "v1" afterwards is a regression both checkers report.
    assert monotonic.ok, f"reads {reads}: {monotonic.describe()}"
    assert linearizable.ok, f"reads {reads}: {linearizable.describe()}"


@pytest.mark.xfail(strict=True, reason=ROOT_CAUSE)
def test_lossy_network_seed_3_is_linearizable():
    """The seeded matrix cell the full ``bench chaos`` run fails on."""
    row = chaos_cell("nice", "lossy_network", 10.0, 3)
    assert row["monotonic_ok"] and row["linearizable"], row["reason"]
