"""Fig 10 — Load Balancing (hot-object weak scaling).

Paper: NICE up to 7.5x better than primary-only and 5.5x than 2PC; NOOB
is not weakly scalable (primary-only degrades 3.5x at 1 MB / 10x at 4 B,
2PC 2.6x) while NICE degrades only ~20% (1 MB) / 80% (4 B).  Markers show
the get-only workload: NICE and 2PC spread gets, primary-only cannot.
"""

import pytest

from repro.bench import run

LEVELS = (1, 3, 9)


@pytest.fixture(scope="module")
def result(bench_ops):
    return run("fig10", n_ops=bench_ops, levels=LEVELS)


def cell(result, system, r, size, metric="op_ms"):
    return [
        row[metric] for row in result.rows
        if row["system"] == system and row["replication"] == r
        and row["size_bytes"] == size
    ][0]


def test_noob_primary_only_is_not_weakly_scalable(result):
    one_mb = 1 << 20
    deg = cell(result, "NOOB primary-only", 9, one_mb) / cell(
        result, "NOOB primary-only", 1, one_mb
    )
    assert deg > 2.5  # paper: 3.5x at 1 MB


def test_nice_scales_weakly(result):
    one_mb = 1 << 20
    deg = cell(result, "NICE", 9, one_mb) / cell(result, "NICE", 1, one_mb)
    assert deg < 1.4  # paper: ~20%


def test_nice_beats_noob_at_scale(result):
    one_mb = 1 << 20
    assert cell(result, "NOOB primary-only", 9, one_mb) / cell(result, "NICE", 9, one_mb) > 3
    assert cell(result, "NOOB 2PC", 9, one_mb) / cell(result, "NICE", 9, one_mb) > 1.3


def test_get_only_markers_show_lb_effect(result):
    """NICE and 2PC load-balance gets; primary-only funnels them."""
    nice = cell(result, "NICE", 9, 4, "get_only_ms")
    prim = cell(result, "NOOB primary-only", 9, 4, "get_only_ms")
    assert prim > nice


def test_marker_below_full_workload_for_2pc(result):
    """The marker-to-bar gap is the 2PC consistency overhead (paper: 'the
    significant overhead added by 2PC')."""
    full = cell(result, "NOOB 2PC", 9, 1 << 20)
    marker = cell(result, "NOOB 2PC", 9, 1 << 20, "get_only_ms")
    assert marker < full
