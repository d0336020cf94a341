"""The committed ``BENCH_*.json`` reports must agree with the gates CI runs
on freshly generated ones — a committed report can no longer say
``stale_replica_reads: 1`` while the gate asserts ``== 0``."""

import json
from pathlib import Path

from repro.bench import chaos, perf

ROOT = Path(__file__).resolve().parents[2]


def test_committed_chaos_report_passes_the_harmonia_gate():
    harmonia = json.loads((ROOT / "BENCH_chaos.json").read_text())["harmonia"]
    assert harmonia["stale_replica_reads"] == 0
    assert harmonia["weak_caught"]


def test_committed_perf_report_is_current_schema():
    report = json.loads((ROOT / "BENCH_perf.json").read_text())
    assert report["schema_version"] == perf.SCHEMA_VERSION


def test_committed_perf_report_renders_with_the_current_formatter():
    report = json.loads((ROOT / "BENCH_perf.json").read_text())
    assert not report["smoke"]
    text = perf.format_report(report)
    for bench in ("fig5_put_leg", "plan_scale", "harmonia_reads"):
        assert bench in text


def test_harmonia_verdict_counts_stale_reads_of_honest_cells_only():
    """The directed mid-put cell strands a secondary: the weak variant
    serves the stale read (that is how it gets caught), the honest one
    never does — and only the honest count may reach the ``== 0`` gate."""
    report = chaos.run_suite(
        seeds=1, baseline_seeds=1, modes=["harmonia", "harmonia-weak"],
        schedules=["crash_rejoin"], duration=3.0, out_path=None,
    )
    directed = {
        c["mode"]: c["stale_replica_reads"]
        for c in report["cases"]
        if c.get("family") == "harmonia-directed"
    }
    assert directed["harmonia"] == 0 and directed["harmonia-weak"] >= 1
    assert report["harmonia"]["stale_replica_reads"] == 0
    assert report["harmonia"]["weak_caught"]
