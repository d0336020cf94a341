"""§4.6 — Switch Scalability (forwarding-table usage).

Paper: 2N entries without load balancing, (R+1)N with; a 128K-entry table
supports 64K nodes without LB and 32K with (R=3).  The measured rows come
from real controller rule counts; the analytic rows apply the paper's
formula at data-center scale.
"""

import pytest

from repro.bench import run


@pytest.fixture(scope="module")
def result():
    return run("sec46", measured_nodes=(8, 16))


def rows(result, **where):
    return [
        r for r in result.rows if all(r[k] == v for k, v in where.items())
    ]


def test_measured_entries_without_lb_scale_linearly(result):
    # Paper: 2N.  Implementation: +1 group-address match per partition
    # (node-originated 2PC timestamp multicasts) ⇒ 3N.  Still O(N).
    for r in rows(result, source="measured", load_balancing=False):
        assert r["entries"] == 3 * r["nodes"]


def test_measured_entries_with_lb_scale_linearly(result):
    # Paper: (R+1)N.  Implementation: R divisions + default unicast +
    # 2 multicast matches ⇒ (R+3)N.  Still O(RN).
    for r in rows(result, source="measured", load_balancing=True):
        assert r["entries"] == 6 * r["nodes"]


def test_paper_scale_ceilings(result):
    """Paper: 64K nodes fit without LB, 32K with LB at R=3 (128K table)."""
    no_lb_64k = rows(result, source="analytic", load_balancing=False, nodes=65536)
    assert no_lb_64k and no_lb_64k[0]["fits_128k_table"]
    lb_32k = rows(result, source="analytic", load_balancing=True, nodes=32768)
    assert lb_32k and lb_32k[0]["fits_128k_table"]
    assert lb_32k[0]["entries"] == 4 * 32768  # (R+1)N, exactly 128K
