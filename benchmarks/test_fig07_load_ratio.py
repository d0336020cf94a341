"""Fig 7 — Storage Load Ratio (primary IO / secondary IO during puts).

Paper: all NOOB configurations load the primary R× more than a secondary
(3x at R=3); NICE is balanced by design (ratio 1).
"""

from dataclasses import replace

import pytest

SIZE = 1 << 20


@pytest.fixture(scope="module")
def fig7(replication_sweep):
    fig7 = replication_sweep["fig7"]
    return replace(fig7, rows=[r for r in fig7.rows if r["size_bytes"] == SIZE])


def ratio(fig7, system):
    return [r["load_ratio"] for r in fig7.rows if r["system"] == system][0]


def test_noob_ratio_is_replication_level(fig7):
    for system in ("NOOB+RAC", "NOOB+RAG"):
        assert ratio(fig7, system) == pytest.approx(3.0, rel=0.05)
    # ROG's random first hop occasionally lands on a secondary (which then
    # relays the object), inflating secondary IO a little.
    assert 2.0 < ratio(fig7, "NOOB+ROG") < 3.3


def test_nice_is_balanced(fig7):
    assert ratio(fig7, "NICE") == pytest.approx(1.0, abs=0.1)
