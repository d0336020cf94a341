"""Tests for zipf, YCSB and synthetic workload generators."""

import numpy as np
import pytest

from repro.core import ClusterConfig, NiceCluster
from repro.kv import ConsistentHashRing, key_hash
from repro.workloads import (
    OBJECT_SIZES,
    ScrambledZipfianGenerator,
    UniformGenerator,
    WORKLOADS,
    YcsbRunner,
    YcsbWorkload,
    ZipfianGenerator,
    closed_loop_gets,
    closed_loop_puts,
    hot_object_clients,
    keys_in_partition,
)


def test_zipf_range_and_determinism():
    g1 = ZipfianGenerator(100, rng=np.random.default_rng(1))
    g2 = ZipfianGenerator(100, rng=np.random.default_rng(1))
    s1, s2 = g1.sample(200), g2.sample(200)
    assert (s1 == s2).all()
    assert s1.min() >= 0 and s1.max() < 100


def test_zipf_is_skewed():
    g = ZipfianGenerator(1000, rng=np.random.default_rng(2))
    s = g.sample(5000)
    top10 = np.mean(s < 10)
    assert top10 > 0.3  # zipf 0.99: top-1% of items get >30% of requests


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfianGenerator(0)
    with pytest.raises(ValueError):
        ZipfianGenerator(10, theta=1.5)


def test_scrambled_zipf_spreads_hot_items():
    g = ScrambledZipfianGenerator(1000, rng=np.random.default_rng(3))
    s = g.sample(5000)
    # Still skewed (few items dominate) but the hottest is not item 0.
    values, counts = np.unique(s, return_counts=True)
    assert counts.max() > 100
    assert values[np.argmax(counts)] != 0


def _draw_by_draw(n, seed, count):
    """The scrambled stream as it was drawn before the rank table: one
    ``rng.random()`` and one blake2b hash per key."""
    import hashlib

    zipf = ZipfianGenerator(n, rng=np.random.default_rng(seed))
    out = []
    for _ in range(count):
        u = zipf.rng.random()
        uz = u * zipf._zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5**zipf.theta:
            rank = min(1, n - 1)
        else:
            rank = min(int(n * (zipf._eta * u - zipf._eta + 1) ** zipf._alpha), n - 1)
        digest = hashlib.blake2b(rank.to_bytes(8, "little"), digest_size=8).digest()
        out.append(int.from_bytes(digest, "little") % n)
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 300, 1000])
def test_scrambled_zipf_bulk_draws_are_the_per_draw_keys(n):
    for seed in range(40):
        reference = _draw_by_draw(n, seed, 64)
        bulk = ScrambledZipfianGenerator(n, rng=np.random.default_rng(seed))
        assert bulk.sample(64).tolist() == reference
        one_by_one = ScrambledZipfianGenerator(n, rng=np.random.default_rng(seed))
        assert [one_by_one.next() for _ in range(64)] == reference


def test_uniform_generator():
    g = UniformGenerator(50, rng=np.random.default_rng(4))
    s = g.sample(5000)
    assert s.min() >= 0 and s.max() < 50
    _, counts = np.unique(s, return_counts=True)
    assert counts.max() < 300  # no spike
    with pytest.raises(ValueError):
        UniformGenerator(0)


def test_standard_workload_mixes():
    assert WORKLOADS["C"].read == 1.0
    assert WORKLOADS["F"].rmw == 0.5
    assert WORKLOADS["A"].update == 0.5
    with pytest.raises(ValueError):
        YcsbWorkload("bad", read=0.5, update=0.0, insert=0.0, rmw=0.0)


def test_keys_in_partition():
    keys = keys_in_partition(3, 16, 20)
    assert len(keys) == 20
    for k in keys:
        assert ConsistentHashRing.partition_of_hash(key_hash(k), 16) == 3


def test_object_sizes_axis():
    assert OBJECT_SIZES[0] == 4
    assert OBJECT_SIZES[-1] == 1 << 20


def make_cluster():
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=5, n_clients=4, replication_level=3))
    cluster.warm_up()
    return cluster


def test_closed_loop_puts_and_gets():
    cluster = make_cluster()
    client = cluster.clients[0]
    out = {}

    def driver(sim):
        tally = yield closed_loop_puts(client, sim, 10, 1000)
        out["puts"] = tally
        keys = [f"obj{i}" for i in range(10)]
        tally = yield closed_loop_gets(client, sim, 10, keys)
        out["gets"] = tally

    cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=60.0)
    assert out["puts"].count == 10
    assert out["gets"].count == 10
    assert out["puts"].mean > 0


def test_hot_object_weak_scaling_driver():
    cluster = make_cluster()
    out = {}

    def driver(sim):
        res = yield hot_object_clients(
            cluster.clients[0], cluster.clients[1:3], sim, "hot", 1000, 5
        )
        out.update(res)

    cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=60.0)
    assert out["put"].count == 5
    assert out["get"].count == 10
    assert out["elapsed_s"] > 0


def test_ycsb_runner_on_nice():
    cluster = make_cluster()
    runner = YcsbRunner(WORKLOADS["F"], n_records=20, object_bytes=500,
                        rng=np.random.default_rng(9))
    out = {}

    def driver(sim):
        res = yield runner.run(cluster.clients[:3], sim, n_ops_per_client=10)
        out.update(res)

    cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=120.0)
    assert out["ops"] == 30
    assert out["errors"] == 0
    assert out["throughput_ops_s"] > 0
    assert runner.write_latency.count > 0  # F has 50% RMW
    assert runner.read_latency.count > 0


def test_ycsb_runner_read_only_workload_c():
    cluster = make_cluster()
    runner = YcsbRunner(WORKLOADS["C"], n_records=20, object_bytes=500,
                        rng=np.random.default_rng(10))
    out = {}

    def driver(sim):
        res = yield runner.run(cluster.clients[:2], sim, n_ops_per_client=10)
        out.update(res)

    cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=120.0)
    assert out["errors"] == 0
    assert runner.write_latency.count == 0
    assert runner.read_latency.count == 20


def test_ycsb_workload_d_latest_distribution():
    """Workload D: 95% reads skewed to the latest inserts, 5% inserts."""
    cluster = make_cluster()
    runner = YcsbRunner(WORKLOADS["D"], n_records=20, object_bytes=300,
                        rng=np.random.default_rng(11))
    out = {}

    def driver(sim):
        res = yield runner.run(cluster.clients[:2], sim, n_ops_per_client=20)
        out.update(res)

    cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=120.0)
    assert out["errors"] == 0
    assert runner._insert_cursor > 20  # inserts happened
    assert runner.keychooser.n_items == runner._insert_cursor
