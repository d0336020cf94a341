"""Fig 12 — Yahoo benchmark (YCSB C read-only and F read-modify-write).

Paper: NICE beats primary-only by 1.6x (C) / 2.3x (F) and 2PC by 1.25x
(C) / 1.5x (F); the primary-only gap comes from its lack of get load
balancing under zipf skew, the 2PC gap from LB latency + protocol cost.
"""

import pytest

from repro.bench import run

N_CLIENTS = 10
OPS = 200  # per client; paper uses 20000 (python -m repro.bench fig12 --full)


@pytest.fixture(scope="module")
def result():
    return run("fig12", n_ops_per_client=OPS, n_clients=N_CLIENTS, n_records=1000)


def tput(result, workload, system):
    return [
        r["throughput_ops_s"] for r in result.rows
        if r["workload"] == workload and r["system"] == system
    ][0]


def test_no_errors(result):
    assert all(r["errors"] == 0 for r in result.rows)


def test_nice_fastest_on_both_workloads(result):
    for wl in ("C", "F"):
        nice = tput(result, wl, "NICE")
        assert nice > tput(result, wl, "NOOB primary-only")
        assert nice > tput(result, wl, "NOOB 2PC")


def test_primary_only_gap_larger_on_write_heavy_f(result):
    """Paper: 1.6x on C vs 2.3x on F — consistency and replication costs
    show up once puts enter the mix."""
    gap_c = tput(result, "C", "NICE") / tput(result, "C", "NOOB primary-only")
    gap_f = tput(result, "F", "NICE") / tput(result, "F", "NOOB primary-only")
    assert gap_f > 1.0
    assert gap_c > 1.0
