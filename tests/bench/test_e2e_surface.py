"""What the end-to-end benchmark reads of the program, pinned in tier-1.

``benchmarks/e2e/measure.py`` snapshots counters by attribute name — the
link, switch, disk and node ``Counter.value``s, the kernel's
``pool_stats()`` keys, ``table.cache_hits``, ``nacks_sent``,
``tcp.handshakes``, ``wal.appended`` — and only a benchmark run would
notice one going missing or changing type.  This builds a small NICE and a
small NOOB cluster, runs a few puts and gets, and calls the benchmark's
own ``snapshot`` (imported read-only from the checkout) on each.
"""

import os
import sys

import pytest

from repro.core import ClusterConfig, NiceCluster
from repro.noob import NoobCluster, NoobConfig

E2E = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "e2e")
sys.path.insert(0, os.path.abspath(E2E))
try:
    import measure
finally:
    sys.path.pop(0)

#: Counters every cluster must have moved after a few puts and gets.
MOVED = ("events", "link_bytes", "link_packets", "switch_forwarded",
         "disk_writes", "puts_served")


def _exercise(cluster):
    client = cluster.clients[0]

    def ops():
        for i in range(4):
            r = yield client.put(f"surface{i}", i, 256)
            assert r.ok, r.status
            r = yield client.get(f"surface{i}")
            assert r.ok and r.value == i, (r.status, r.value)

    cluster.sim.run_until(cluster.sim.process(ops()))


@pytest.mark.parametrize("build", [
    lambda: NiceCluster(ClusterConfig(n_storage_nodes=3, n_clients=1, replication_level=3)),
    lambda: NoobCluster(NoobConfig(n_storage_nodes=3, n_clients=1, replication_level=3)),
], ids=["nice", "noob"])
def test_benchmark_snapshot_reads_ints(build):
    cluster = build()
    cluster.warm_up()
    before = measure.snapshot(cluster)
    _exercise(cluster)
    snap = measure.snapshot(cluster)
    assert set(snap) == set(before)
    for key, value in snap.items():
        if isinstance(value, list):
            assert value and all(type(v) is int for v in value), key
        else:
            assert type(value) is int, (key, value)
    moved = measure.delta(before, snap)  # the benchmark's own arithmetic
    assert sum(moved["gets_by_node"]) >= 4
    for key in MOVED:
        assert moved[key] > 0, key
