"""Fig 9 — Consistency Mechanism Performance (put vs replication level).

Paper: (a) 4 B — NICE ≈ primary-only despite the extra phase, up to 1.3x
better than NOOB-2PC; all degrade slightly with R.  (b) 1 MB — NICE up to
5.5x better; NOOB degrades ~7x from R=1→9, NICE only ~17%.
"""

import pytest

from repro.bench import run

LEVELS = (1, 3, 9)


@pytest.fixture(scope="module")
def result(bench_ops):
    return run("fig9", n_ops=bench_ops, levels=LEVELS)


def put_ms(result, system, r, size):
    return [
        row["put_ms"] for row in result.rows
        if row["system"] == system and row["replication"] == r
        and row["size_bytes"] == size
    ][0]


def test_small_objects_nice_comparable_to_primary_only(result):
    for r in LEVELS:
        nice = put_ms(result, "NICE", r, 4)
        prim = put_ms(result, "NOOB primary-only", r, 4)
        assert nice / prim < 1.5  # "comparable" despite the extra phase


def test_small_objects_nice_beats_2pc(result):
    for r in (3, 9):
        nice = put_ms(result, "NICE", r, 4)
        twopc = put_ms(result, "NOOB 2PC", r, 4)
        assert twopc / nice > 1.2  # paper: up to 1.3x


def test_large_objects_nice_wins_up_to_5x(result):
    one_mb = 1 << 20
    ratio = put_ms(result, "NOOB 2PC", 9, one_mb) / put_ms(result, "NICE", 9, one_mb)
    assert ratio > 3.5  # paper: up to 5.5x


def test_large_objects_noob_degrades_nice_flat(result):
    one_mb = 1 << 20
    noob_deg = put_ms(result, "NOOB primary-only", 9, one_mb) / put_ms(
        result, "NOOB primary-only", 1, one_mb
    )
    nice_deg = put_ms(result, "NICE", 9, one_mb) / put_ms(result, "NICE", 1, one_mb)
    assert noob_deg > 3.5       # paper: 7x
    assert nice_deg < 1.25      # paper: 17%


def test_primary_only_beats_2pc_on_small_objects(result):
    for r in (3, 9):
        assert put_ms(result, "NOOB primary-only", r, 4) < put_ms(result, "NOOB 2PC", r, 4)
