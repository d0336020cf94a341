"""One gate per suite (``perf.check``, ``chaos.check``, ``scale.check``)
and one per figure (``claims.check``, the paper's claims).

The committed ``BENCH_*.json`` reports are judged by the very functions
``run_suite``, the CLI exit code and CI use — a committed report can no
longer say ``stale_replica_reads: 1`` beside ``passed: true`` — and every
gate is shown to bite: one doctored field, exactly one failure string.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import __main__ as cli
from repro.bench import EXPERIMENTS, chaos, claims, perf, scale
from repro.bench.__main__ import main
from repro.bench.harness import ExperimentResult
from repro.check.mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[2]
SUITES = {"perf": perf, "chaos": chaos}


def committed(suite):
    return json.loads((ROOT / f"BENCH_{suite}.json").read_text())


def figure_results():
    """The committed figure report as the ``ExperimentResult``s ``check`` reads."""
    return {
        e["name"]: ExperimentResult(
            e["name"], e["description"], e["columns"], e["rows"], e["notes"]
        )
        for e in committed("figures")["experiments"]
    }


@pytest.mark.parametrize("suite", SUITES)
def test_committed_report_passes_its_own_gate(suite):
    report = committed(suite)
    assert report["schema_version"] == SUITES[suite].SCHEMA_VERSION
    assert SUITES[suite].check(report) == [] == report["failures"]
    assert report["passed"]
    assert "PASS" in SUITES[suite].format_report(report)


def test_committed_reports_are_the_documented_runs():
    assert not committed("perf")["smoke"]  # full suite: all three plan_scale rungs
    report = committed("chaos")
    assert report["smoke"] and len(cases(report)) == 24
    assert report["planned_mutants"] == list(MUTANTS)
    assert [c["mutant"] for c in report["cases"] if "mutant" in c] == list(MUTANTS)
    assert chaos.summarize(report) == {
        k: report[k] for k in ("summary", "harmonia", "durability", "mutants")
    }
    expected = sum(m.killed for m in MUTANTS.values())
    assert (report["mutants"]["killed"], report["mutants"]["total"]) == (expected, len(MUTANTS))


# ------------------------------------------------------- every gate bites
def cases(report, **want):
    """Rows matching ``want``; honest rows only unless ``mutant=`` is given."""
    want.setdefault("mutant", None)
    return [c for c in report["cases"] if all(c.get(k) == v for k, v in want.items())]


def set_all(rows, **fields):
    for row in rows:
        row.update(fields)


def drop(report, **want):
    report["cases"] = [c for c in report["cases"] if c not in cases(report, **want)]


def rename_mutant(report, old, new):
    report["planned_mutants"] = [new if n == old else n for n in report["planned_mutants"]]
    for c in cases(report, mutant=old):
        c["mutant"] = new


def cp_set(report, schedule, **fields):
    for c in cases(report, family="controlplane", schedule=schedule, seed=1):
        c["controlplane"].update(fields)


def bench(report, name):
    return report["benches"][name]


CHAOS_MUTATIONS = {
    "stale schema": (
        lambda r: r.update(schema_version=0),
        [f"schema_version 0 != {chaos.SCHEMA_VERSION}"],
    ),
    "honest cell not linearizable": (
        lambda r: set_all(cases(r, mode="nice", schedule="primary_crash", seed=2),
                          linearizable=False, reason="doctored"),
        ["nice/primary_crash/seed2: unexpected violation: doctored"],
    ),
    "honest cell inconclusive": (
        lambda r: set_all(cases(r, mode="rac-2pc", schedule="crash_rejoin"),
                          inconclusive=True, reason="W&G limit: doctored"),
        ["rac-2pc/crash_rejoin/seed1: inconclusive: W&G limit: doctored"],
    ),
    "a required mutant survives": (
        lambda r: set_all(cases(r, mutant="wal_unflushed"), durable=True, linearizable=True),
        ["mutant wal_unflushed survived"],
    ),
    "an expected survivor is killed": (
        lambda r: set_all(cases(r, mutant="drain_off"), linearizable=False, reason="doctored"),
        ["mutant drain_off killed; table expects it to survive"],
    ),
    "a planned mutant never ran": (
        lambda r: drop(r, mutant="rac-weak"),
        ["mutant rac-weak: planned but no cell ran"],
    ),
    "a required mutant's only failure is an inconclusive search": (
        lambda r: set_all(cases(r, mutant="wal_unflushed"), durable=True, linearizable=True,
                          inconclusive=True, reason="W&G limit: doctored"),
        ["mutant wal_unflushed inconclusive"],
    ),
    "a planned mutant left the table": (
        lambda r: rename_mutant(r, "rac-weak", "ghost"),
        ["mutant ghost: not in the mutant table"],
    ),
    "no honest directed cell": (
        lambda r: drop(r, mode="harmonia", family="harmonia-directed"),
        ["harmonia-directed/rack_isolate_midput: planned but no honest cell ran"],
    ),
    "no rule_flap cell": (
        lambda r: drop(r, schedule="rule_flap"),
        ["standard/rule_flap: planned but no honest cell ran"],
    ),
    "honest harmonia serves a stale replica read": (
        lambda r: set_all(cases(r, mode="harmonia", family="harmonia-directed"),
                          stale_replica_reads=1),
        ["harmonia/rack_isolate_midput/seed1: 1 stale replica reads served"],
    ),
    "no control-plane cells": (
        lambda r: drop(r, family="controlplane"),
        [f"controlplane/{name}: planned but no honest cell ran"
         for name in ("controller_outage", "metadata_failover", "node_meta_crash")],
    ),
    "deposed leader never fenced": (
        lambda r: cp_set(r, "metadata_failover", fenced_flow_mods=0),
        ["controlplane/metadata_failover/seed1: no flow-mod of the deposed leader was fenced"],
    ),
    "no standby promoted": (
        lambda r: cp_set(r, "node_meta_crash", promotions=0),
        ["controlplane/node_meta_crash/seed1: metadata leader crashed but no standby promoted"],
    ),
    "reconcile diverges from scratch": (
        lambda r: cp_set(r, "controller_outage", reconcile_matches_scratch=False),
        ["controlplane/controller_outage/seed1: reconciled tables diverge from scratch sync"],
    ),
    "settled cluster still repairs": (
        lambda r: cp_set(r, "controller_outage",
                         steady_reconcile={"installed": 2, "deleted": 0, "matched": 9}),
        ["controlplane/controller_outage/seed1: settled cluster still needed repair: "
         "{'installed': 2, 'deleted': 0, 'matched': 9}"],
    ),
    "acked put lost": (
        lambda r: set_all(cases(r, mode="nice", schedule="power_blackout"),
                          durable=False, durability_reason="doctored"),
        ["durability/power_blackout/seed1: acked put lost: doctored"],
    ),
    "torn_records 0 everywhere": (
        lambda r: set_all(cases(r, family="durability"), torn_records=0),
        ["durability/torn_wal/seed1: crash mid-append left no torn tail"],
    ),
    "scrubber idle": (
        lambda r: set_all(cases(r, schedule="bit_rot"), scrub_repairs=0, remaining_corrupt=4),
        ["durability/bit_rot/seed1: scrubber repaired nothing",
         "durability/bit_rot/seed1: 4 objects still corrupt"],
    ),
    "fail-slow never handed off": (
        lambda r: set_all(cases(r, schedule="fail_slow"), failslow_handoffs=0),
        ["durability/fail_slow/seed1: degraded primary never handed off"],
    ),
    "no fail_slow cell": (
        lambda r: drop(r, schedule="fail_slow"),
        ["durability/fail_slow: planned but no honest cell ran"],
    ),
}

PERF_MUTATIONS = {
    "stale schema": (
        lambda r: r.update(schema_version=0),
        [f"schema_version 0 != {perf.SCHEMA_VERSION}"],
    ),
    "kernel_churn under floor": (
        lambda r: bench(r, "kernel_churn").update(events_per_s=119_999.0),
        ["kernel_churn: 119,999 events/s under floor 120,000"],
    ),
    "kernel_steady under floor": (
        lambda r: bench(r, "kernel_steady").update(events_per_s=90_000.0),
        ["kernel_steady: 90,000 events/s under floor 150,000"],
    ),
    "entry pool stops recycling": (
        lambda r: bench(r, "kernel_steady")["pools"]["entry_pool"].update(reuse_rate=0.5),
        ["kernel_steady: entry-pool reuse 0.500 not above 0.9"],
    ),
    "armed timers pile up in the heap": (
        lambda r: bench(r, "kernel_armed_timers").update(heap_max=60_000, live_max=10),
        ["kernel_armed_timers: heap held 60000 records for 10 live ones (ceiling 84)"],
    ),
    "events_per_op over its ceiling": (
        lambda r: bench(r, "multicast_fanout")["legs"][1].update(events_per_op=250.0),
        ["multicast_fanout: R=5 250.0 events/op over ceiling 249"],
    ),
    "spawns_per_op over its ceiling": (
        lambda r: bench(r, "multicast_fanout")["legs"][2].update(spawns_per_op=0.3),
        ["multicast_fanout: R=7 0.3 spawns/op over ceiling 0.2"],
    ),
    "warm reconcile recomputes": (
        lambda r: bench(r, "plan_scale")["rungs"][2].update(warm_recomputes=1),
        ["plan_scale 20x50: warm reconcile recomputed 1 plans (22528 cache hits)"],
    ),
    "warm reconcile touches the tables": (
        lambda r: bench(r, "plan_scale")["rungs"][0].update(warm_reconcile_noop=False),
        ["plan_scale 4x16: settled reconcile touched the tables"],
    ),
    "planner under floor": (
        lambda r: bench(r, "plan_scale")["rungs"][0].update(plans_per_s=3_999.0),
        ["plan_scale 4x16: 3,999 plans/s cold under floor 4,000"],
    ),
    "harmonia under its read floor": (
        lambda r: bench(r, "harmonia_read_floor").update(ratio=1.49),
        ["harmonia_read_floor: 1.49x NICE-LB under the 1.50x floor (R=3, YCSB-C)"],
    ),
    "harmonia leg errors": (
        lambda r: bench(r, "harmonia_read_floor")["harmonia"].update(errors=3),
        ["harmonia_read_floor: 3 harmonia errors"],
    ),
}


MUTATIONS = {"chaos": CHAOS_MUTATIONS, "perf": PERF_MUTATIONS}


@pytest.mark.parametrize(
    "suite, name", [(suite, name) for suite, table in MUTATIONS.items() for name in table]
)
def test_single_field_mutation_yields_exactly_the_expected_failure(suite, name):
    mutate, expected = MUTATIONS[suite][name]
    report = committed(suite)
    mutate(report)
    assert SUITES[suite].check(report) == expected


def test_summarize_keeps_a_row_whose_mutant_left_the_table():
    report = committed("chaos")
    rename_mutant(report, "rac-weak", "ghost")
    ghost = chaos.summarize(report)["mutants"]["per_mutant"]["ghost"]
    assert ghost["cell"] is None and ghost["killed"]


def test_filtered_run_skips_the_families_it_never_planned():
    """An API call with ``modes=``/``schedules=`` plans no control-plane,
    durability or rule-flap-free matrix — "must be present" follows the
    recorded plan, so the same gate passes it.  A filtered call plans no
    mutant either; the honest directed mid-put cell serves no stale read."""
    report = chaos.run_suite(
        seeds=1, baseline_seeds=1, modes=["harmonia"], schedules=["crash_rejoin"],
        duration=3.0,
    )
    assert report["failures"] == [] and report["passed"]
    assert report["planned_mutants"] == [] and "mutants" not in report
    (honest,) = cases(report, family="harmonia-directed")
    assert honest["stale_replica_reads"] == 0 == report["harmonia"]["stale_replica_reads"]


# ------------------------------------------------------ the paper's claims
def test_committed_figures_hold_every_claim():
    """``bench all --ops 100``'s own rows, judged with no simulation."""
    provenance = committed("figures")["provenance"]
    assert provenance["ops"] == 100 and not provenance["full"]
    results = figure_results()
    assert list(results) == [name for name, exp in EXPERIMENTS.items() if exp.in_all]
    assert {claim.figure for claim in claims.CLAIMS} == set(results)
    assert {name.split()[0] for name in FIGURE_MUTATIONS} == set(results)  # every claim table bites
    for name, result in results.items():
        assert EXPERIMENTS[name].check is claims.check
        assert claims.check(result) == [], name
        assert not [note for note in result.notes if note.startswith("FAIL")]


def figure_row(result, **where):
    (match,) = [r for r in result.rows if all(r[k] == v for k, v in where.items())]
    return match


MB = 1 << 20


def drop_note(result, event):
    result.notes[:] = [n for n in result.notes if not n.endswith(event)]


FIGURE_MUTATIONS = {
    "fig4": (
        lambda r: figure_row(r, system="NOOB+ROG", size_bytes=4).update(get_ms=0.42),
        ["fig4: get time ROG / NICE at 4 B (paper: ~2x up to 64 KB): "
         "measured 1.4, want [1.5, inf]"],
    ),
    "fig5": (
        lambda r: figure_row(r, system="NOOB+ROG", size_bytes=MB).update(put_ms=130.0),
        ["fig5: put time ROG / NICE at 1 MB (paper: up to 4.3x): measured 6.14, want [3, 5.5]"],
    ),
    "fig6": (
        lambda r: figure_row(r, system="NICE", size_bytes=MB).update(x_object_size=4.2),
        ["fig6: link bytes / object, NICE at 1 MB (1 uplink + R = 3 downlinks = 4): "
         "measured 4.2, want [3.92, 4.08]"],
    ),
    "fig7": (
        lambda r: figure_row(r, system="NICE", size_bytes=MB).update(load_ratio=1.5),
        ["fig7: primary / secondary IO, NICE at 1 MB (paper: 1, balanced by design): "
         "measured 1.5, want [0.9, 1.1]"],
    ),
    "fig8": (
        lambda r: figure_row(r, system="NOOB", quorum=7).update(
            put_ms=800.0, bandwidth_MBps=1.31072
        ),
        ["fig8: NOOB / NICE put time at k = 7 over at k = 1 (paper: the gap narrows): "
         "measured 1.09, want [0, 1]"],
    ),
    "fig9": (
        lambda r: figure_row(r, system="NICE", replication=9, size_bytes=MB).update(put_ms=27.0),
        ["fig9: 1 MB NICE put time R = 9 / R = 1 (paper: +17 %): measured 1.3, want [0, 1.25]"],
    ),
    "fig10": (
        lambda r: figure_row(r, system="NOOB 2PC", replication=9, size_bytes=MB).update(
            get_only_ms=40.0
        ),
        ["fig10: 1 MB 2PC op time / its get-only marker at R = 9 (paper: 2PC's significant "
         "overhead): measured 0.9491, want [1, inf]"],
    ),
    "fig11": (
        lambda r: r.notes.__setitem__(
            r.notes.index("t=90.08s: n7 consistent"), "t=96.08s: n7 consistent"
        ),
        ["fig11: s from the rejoin to get-visible (paper: ~5 s): measured 6.03, want [0, 5]"],
    ),
    "fig11 without its rejoin note": (
        lambda r: drop_note(r, "rejoins"),
        ["fig11: gets/s, lowest mean of before / during / after the failure (paper: service "
         "continues): measured nan, want [1, inf]",
         "fig11: put rate from failure + 2 s to the rejoin / before the failure (paper: the "
         "handoff takes over): measured nan, want [0.8, 1.2]",
         "fig11: s from the rejoin to get-visible (paper: ~5 s): measured nan, want [0, 5]"],
    ),
    "fig12": (
        lambda r: figure_row(r, workload="F", system="NICE").update(errors=3),
        ["fig12: errors over every leg (paper: none): measured 3, want [0, 0]"],
    ),
    "sec46": (
        lambda r: figure_row(r, source="measured", load_balancing=False, nodes=16).update(
            entries=50
        ),
        ["sec46: measured entries / N without LB (paper: 2; +1 group match per partition = 3): "
         "measured nan, want [3, 3]"],
    ),
    "ablation-chain": (
        lambda r: figure_row(r, system="NOOB chain", size_bytes=MB).update(put_ms=40.0),
        ["ablation-chain: 1 MB put time, smallest step of NICE < fan-out < chain (§4.2: chain "
         "latency grows with its length): measured 0.8439, want [1, inf]"],
    ),
    "ablation-lb": (
        lambda r: figure_row(r, load_balancing=True).update(replicas_serving=2),
        ["ablation-lb: LB on: replicas serving hot-object gets, all R = 3 (§4.5): "
         "measured 2, want [3, 3]"],
    ),
    "ablation-membership": (
        lambda r: figure_row(r, nodes=4).update(nice_node_msgs=7),
        ["ablation-membership: NICE node messages mod R = 3, worst N (§4.1: R per affected "
         "partition): measured 1, want [0, 0]"],
    ),
    "ablation-deployment": (
        lambda r: figure_row(r, deployment="ovs", size_bytes=MB).update(get_ms=30.0),
        ["ablation-deployment: get time ovs / hw, worst size (§5.1: one extra software-switch "
         "hop): measured 1.58, want [1, 1.5]"],
    ),
    "ablation-sw-rewrite": (
        lambda r: figure_row(r, rewrite_penalty_s=5e-3).update(get_ms=2.0),
        ["ablation-sw-rewrite: 1 KB get time, 5 ms software rewrite / hardware (§5.1: ~1000x "
         "slower switching): measured 6.29, want [10, inf]"],
    ),
}


@pytest.mark.parametrize("name", FIGURE_MUTATIONS)
def test_doctored_figure_fails_exactly_the_expected_claim(name):
    mutate, expected = FIGURE_MUTATIONS[name]
    result = figure_results()[name.split()[0]]
    mutate(result)
    assert EXPERIMENTS[result.name].check(result) == expected


def test_a_failing_claim_is_cli_exit_status_1(monkeypatch, capsys):
    mutate, expected = FIGURE_MUTATIONS["fig5"]

    def doctored_run(name, **_kw):
        result = figure_results()[name]
        mutate(result)
        return result

    monkeypatch.setattr(cli, "run", doctored_run)
    assert main(["fig5"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL: {expected[0]}" in out
    assert "   NO       6.14  [3, 5.5]" in out


# ------------------------------------------------------------- exit codes
SCALE_ROWS = [
    dict(racks=4, hosts_per_rack=16, budget_ok=True, max_switch_rules=451, rule_budget=1024),
    dict(racks=4, hosts_per_rack=16, budget_ok=True, max_switch_rules=451, rule_budget=1024,
         schedule="rack_outage", linearizable=True, reason="ok",
         reconcile_matches_scratch=True),
]


@pytest.mark.parametrize("row, fields, expected", [
    (0, dict(budget_ok=False, max_switch_rules=1100),
     ["scale 4x16: 1100 rules on one switch, budget 1024"]),
    (1, dict(linearizable=False, reason="doctored"),
     ["scale 4x16/rack_outage: history not linearizable: doctored"]),
    (1, dict(reconcile_matches_scratch=False),
     ["scale 4x16/rack_outage: reconciled tables diverge from scratch sync"]),
    (1, None, ["scale: multi-rack rungs ran but no rack_outage cell did"]),
])
def test_scale_gate_and_cli_exit_code(row, fields, expected, monkeypatch, capsys):
    """Budget overruns used to be a note under a zero exit status."""
    assert scale.check(ExperimentResult("scale", "", [], SCALE_ROWS)) == []
    rows = copy.deepcopy(SCALE_ROWS)
    if fields is None:
        del rows[row]
    else:
        rows[row].update(fields)
    assert scale.check(ExperimentResult("scale", "", [], rows)) == expected

    def doctored_scale(name, **_kw):
        result = ExperimentResult(name, "doctored", ["racks", "budget_ok"])
        result.rows.extend(rows)
        return result

    monkeypatch.setattr(cli, "run", doctored_scale)
    assert main(["scale", "--smoke"]) == 1
    assert f"FAIL: {expected[0]}" in capsys.readouterr().out


@pytest.mark.parametrize("suite", SUITES)
def test_suite_cli_exits_nonzero_on_a_failing_report(suite, monkeypatch, capsys, tmp_path):
    mutate, expected = MUTATIONS[suite]["stale schema"]
    module = SUITES[suite]

    def doctored_run(**_kw):
        report = committed(suite)
        mutate(report)
        report["failures"] = module.check(report)
        report["passed"] = not report["failures"]
        return report

    monkeypatch.setattr(module, "run_suite", doctored_run)
    out = str(tmp_path / "unused.json")
    assert main([suite, "--out", out]) == 1
    assert expected[0] in capsys.readouterr().out
