"""Fig 6 — Network Link Load of the put operation.

Paper: NICE generates 1.7x–3.5x less link load than the NOOB systems.
In this model the data-plane cost is exact: NICE moves the object over
(1 + R) links; NOOB+RAC over 2 + 2(R−1); gateways add 2 more.
"""

import pytest


@pytest.fixture(scope="module")
def fig6(replication_sweep):
    return replication_sweep["fig6"]


def per_object(fig6, system, size):
    rows = [r for r in fig6.rows if r["system"] == system and r["size_bytes"] == size]
    return rows[0]["x_object_size"]


def test_nice_link_load_is_one_plus_r_copies(fig6):
    # 1 client uplink + R=3 replica downlinks = 4 object traversals.
    assert per_object(fig6, "NICE", 1 << 20) == pytest.approx(4.0, rel=0.02)


def test_noob_rac_link_load_is_2_plus_2r_minus_2(fig6):
    # client->primary (2 links) + 2 unicast copies x 2 links = 6.
    assert per_object(fig6, "NOOB+RAC", 1 << 20) == pytest.approx(6.0, rel=0.02)


def test_gateways_add_two_more_traversals(fig6):
    assert per_object(fig6, "NOOB+RAG", 1 << 20) == pytest.approx(8.0, rel=0.02)
    # ROG: gateway + random node + primary: ~10 on average (9.5-10.5).
    assert per_object(fig6, "NOOB+ROG", 1 << 20) == pytest.approx(10.0, rel=0.08)


def test_reduction_factors_match_paper_band(fig6):
    one_mb = 1 << 20
    nice = per_object(fig6, "NICE", one_mb)
    for system, lo in [("NOOB+RAC", 1.4), ("NOOB+RAG", 1.9), ("NOOB+ROG", 2.3)]:
        ratio = per_object(fig6, system, one_mb) / nice
        assert ratio > lo  # paper band: 1.7x-3.5x overall
