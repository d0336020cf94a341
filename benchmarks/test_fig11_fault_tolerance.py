"""Fig 11 — Fault Tolerance timeline.

Paper: secondary fails at 30 s → puts unavailable for <2 s, then the
handoff absorbs the load; the node rejoins at 90 s, fetches missed
objects, and is get-visible again within a few seconds.

The benchmark runs a compressed timeline (fail @6 s, rejoin @18 s, 30 s
total) — the mechanisms are identical, only the quiet periods shrink.
"""

import pytest

from repro.bench import run

FAIL_AT, RECOVER_AT, DURATION = 6.0, 18.0, 30.0


@pytest.fixture(scope="module")
def result():
    return run("fig11", duration=DURATION, fail_at=FAIL_AT, recover_at=RECOVER_AT)


def rates(result, col):
    return {row["t_s"]: row[col] for row in result.rows}


def test_service_continues_through_failure(result):
    gets = rates(result, "gets_per_s")
    # Gets keep flowing in every phase (before / during / after failure).
    for t in [2.0, 10.0, 25.0]:
        assert gets[t] > 0, f"no gets served at t={t}"


def test_put_unavailability_under_two_seconds(result):
    """Paper: 'makes the partition unavailable for put for less than 2
    seconds'."""
    fails = rates(result, "failed_puts_per_s")
    fail_window = [t for t, v in fails.items() if v > 0]
    assert all(FAIL_AT <= t <= FAIL_AT + 2.5 for t in fail_window), fail_window


def test_puts_resume_after_handoff(result):
    puts = rates(result, "puts_per_s")
    post_handoff = [puts[t] for t in puts if FAIL_AT + 3 <= t < RECOVER_AT]
    assert sum(post_handoff) > 0


def test_recovery_event_sequence(result):
    labels = [n for n in result.notes if n.startswith("t=")]
    assert any("fails" in l for l in labels)
    assert any("rejoins" in l for l in labels)
    assert any("consistent" in l for l in labels)
    # Consistency is reached within a few seconds of rejoin (paper: ~5 s).
    consistent_t = [
        float(l.split("=")[1].split("s")[0]) for l in labels if "consistent" in l
    ][0]
    assert consistent_t < RECOVER_AT + 5.0
