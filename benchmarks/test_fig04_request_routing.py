"""Fig 4 — Request Routing Performance.

Regenerates the get-latency-vs-size series for NICE / RAC / RAG / ROG and
asserts the paper's shape: NICE ≈ RAC; NICE beats ROG by ~2x and RAG by
~1.5x at small sizes; the systems converge at 1 MB.
"""

import pytest

from repro.bench import run


@pytest.fixture(scope="module")
def result(bench_ops):
    return run("fig4", n_ops=bench_ops, sizes=(4, 1024, 65536, 1 << 20))


def series(result, system):
    return {
        row["size_bytes"]: row["get_ms"]
        for row in result.rows
        if row["system"] == system
    }


def test_nice_matches_rac(result):
    nice, rac = series(result, "NICE"), series(result, "NOOB+RAC")
    for size in nice:
        assert nice[size] == pytest.approx(rac[size], rel=0.1)


def test_nice_beats_rog_about_2x_small(result):
    nice, rog = series(result, "NICE"), series(result, "NOOB+ROG")
    assert rog[4] / nice[4] > 1.5


def test_nice_beats_rag_about_1_5x_small(result):
    nice, rag = series(result, "NICE"), series(result, "NOOB+RAG")
    assert 1.2 < rag[4] / nice[4] < 2.0


def test_systems_converge_at_1mb(result):
    one_mb = 1 << 20
    values = [row["get_ms"] for row in result.rows if row["size_bytes"] == one_mb]
    assert max(values) / min(values) < 1.15
