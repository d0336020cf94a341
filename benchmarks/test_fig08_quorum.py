"""Fig 8 — Quorum-based Replication with slow replicas.

Paper: R=7, three replicas throttled to 50 Mbps.  NICE's any-k multicast
is up to 5.6x faster at quorum sizes 1 and 3; both systems suffer at 5
and 7 (slow nodes unavoidable).
"""

import pytest

from repro.bench import run


@pytest.fixture(scope="module")
def result():
    return run("fig8", n_ops=5)


def put_ms(result, system, quorum):
    return [
        r["put_ms"] for r in result.rows
        if r["system"] == system and r["quorum"] == quorum
    ][0]


def test_nice_wins_big_at_small_quorums(result):
    for k in (1, 3):
        ratio = put_ms(result, "NOOB", k) / put_ms(result, "NICE", k)
        assert ratio > 2.0  # paper: up to 5.6x


def test_both_suffer_at_large_quorums(result):
    # Slow replicas dominate both systems at k>=5.
    for system in ("NICE", "NOOB"):
        assert put_ms(result, system, 7) > 3 * put_ms(result, "NICE", 1)


def test_gap_narrows_at_large_quorums(result):
    gap_small = put_ms(result, "NOOB", 1) / put_ms(result, "NICE", 1)
    gap_large = put_ms(result, "NOOB", 7) / put_ms(result, "NICE", 7)
    assert gap_large < gap_small


def test_bandwidth_is_inverse_of_time(result):
    for row in result.rows:
        assert row["bandwidth_MBps"] == pytest.approx(
            (1 << 20) / (row["put_ms"] / 1e3) / 1e6, rel=1e-6
        )
