"""The chaos × consistency matrix: its plan, its report and its gate.

For every (access mode, fault schedule, seed) the plan names one cell of
:mod:`~repro.bench.chaos.cells`; :func:`run_suite` runs them and writes
the pass/fail matrix to ``BENCH_chaos.json``.  Everything else here —
:func:`summarize`, :func:`check`, :func:`format_report` — is a pure
function of the report's rows.

Expectations encode the paper's claim (§3.3, §4.5): NICE and the honestly
configured NOOB variants stay linearizable through every schedule, while
the *weak* NOOB configuration — primary-only replication with round-robin
reads, a config the baseline happily accepts — must be **caught** serving
stale data, with a minimal counterexample in the artifact.  The suite
fails (non-zero exit) if a safe mode produces a violation *or* the weak
mode escapes detection.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from ...chaos import controlplane_schedules, named, standard_schedules
from ..parallel import Cell, drain_records, provenance, run_cells
from .cells import (
    bit_rot_cell,
    chaos_cell,
    durability_cell,
    fail_slow_cell,
    harmonia_midput_cell,
    torn_wal_cell,
)

DEFAULT_OUT = "BENCH_chaos.json"
SCHEMA_VERSION = 6


def _expect(violation: bool = False, loss_fragile: bool = False, **flags) -> Dict:
    return dict(expect_violation=violation, loss_fragile=loss_fragile, **flags)


#: mode name (a key of ``harness.SYSTEMS``, which says how it is built) ->
#: expectations.  ``expect_violation`` marks the deliberately weak config
#: the checker must catch.  ``loss_fragile``
#: marks honest configs with a *known* hazard under packet loss: NOOB-2PC
#: never retransmits a lost commit, so one replica can stay prepared/stale
#: while round-robin reads serve the other — a genuine partial-commit
#: window the chaos suite documents rather than hides.  Violations in a
#: loss-fragile mode under a loss-bearing schedule are recorded as
#: "tolerated"; anywhere else they fail the suite.  NICE is never fragile:
#: its multicast transport repairs losses and 2PC acks ride it (§4.3).
MODES: Dict[str, Dict] = {
    "nice": _expect(),
    "rac-2pc": _expect(loss_fragile=True),
    "rag-2pc": _expect(loss_fragile=True),
    "rog-2pc": _expect(loss_fragile=True),
    "rac-quorum": _expect(),
    "rac-weak": _expect(violation=True),
    # The honest harmonia mode must stay linearizable through every
    # schedule; the directed rack-isolate-mid-put cell makes the weak
    # variant's early dirty-clear a stale read the checker must catch.
    "harmonia": _expect(),
    "harmonia-weak": _expect(violation=True),
    # Never part of the linearizability matrix — it exists so the
    # power-blackout cell can prove the acked-durability checker catches
    # ack-before-durable holes.
    "nice-waloff": _expect(violation=True, durability_only=True),
}

#: The schedule families ``run_suite`` plans: the standard matrix every
#: mode runs, and the NICE-only control-plane (one metadata standby) and
#: §5k durability cells beside it.  (Names do not depend on the key.)
STANDARD_SCHEDULES = (*standard_schedules(""), "random[101]", "random[202]")
CP_SCHEDULES = tuple(sorted(controlplane_schedules("")))
#: A durability name that is a directed cell, not a schedule for ``chaos_cell``.
DIRECTED = {"torn_wal": torn_wal_cell, "bit_rot": bit_rot_cell, "fail_slow": fail_slow_cell}
DURABILITY_SCHEDULES = ("power_blackout", *DIRECTED)


def plan(
    modes: List[str], schedules: List[str], seeds: int, baseline_seeds: int, duration: float
) -> List[Cell]:
    """The matrix as cells, in case order (mode → schedule → seed).

    NICE gets the full ``seeds`` sweep (the paper's headline claim);
    baselines get ``baseline_seeds`` each to bound wall time.  An unknown
    schedule name is rejected here, before any cell runs."""
    for name in schedules:
        if name not in DIRECTED:
            named(name, "")
    std_names = [n for n in schedules if n not in CP_SCHEDULES + DURABILITY_SCHEDULES]
    # Harmonia modes get their own cell plan below: the honest mode runs
    # the standard suite plus the rule_flap schedule (its read rules are
    # flow state the flap attacks), the weak mode runs the directed
    # mid-put cell that deterministically exposes its early dirty-clear.
    h_modes = [m for m in modes if m.startswith("harmonia")]
    cells = [
        Cell(chaos_cell, dict(mode=mode, schedule=name, duration=duration), seed=seed)
        for mode in modes
        if mode not in h_modes
        for name in std_names
        for seed in range(1, (seeds if mode == "nice" else baseline_seeds) + 1)
    ]
    if "harmonia" in h_modes:
        h_names = std_names if "rule_flap" in std_names else [*std_names, "rule_flap"]
        cells += [
            Cell(chaos_cell, dict(mode="harmonia", schedule=name, duration=duration), seed=seed)
            for name in h_names
            for seed in range(1, baseline_seeds + 1)
        ]
    cells += [
        Cell(harmonia_midput_cell, dict(mode=mode), seed=seed)
        for mode in h_modes
        for seed in range(1, baseline_seeds + 1)
    ]
    if "nice" in modes:
        # The control-plane family (metadata-leader crash/failover,
        # controller channel outages), with one metadata standby.
        cells += [
            Cell(
                chaos_cell,
                dict(mode="nice", schedule=name, duration=duration, standbys=1),
                seed=seed,
            )
            for name in CP_SCHEDULES
            if name in schedules
            for seed in range(1, seeds + 1)
        ]
        # The durability family (§5k): power blackout for the honest mode
        # and the weakened wal=off variant, the directed torn-tail cell,
        # bit-rot vs the scrubber, the fail-slow drain (harmonia reads).
        d_seeds = range(1, baseline_seeds + 1)
        if "power_blackout" in schedules:
            cells += [
                Cell(
                    durability_cell,
                    dict(mode=mode, schedule="power_blackout", duration=max(duration, 10.0)),
                    seed=seed,
                )
                for mode in ("nice", "nice-waloff")
                for seed in d_seeds
            ]
        for name, fn in DIRECTED.items():
            if name in schedules:
                cells += [Cell(fn, {}, seed=seed) for seed in d_seeds]
    return cells


def run_suite(
    seeds: int = 5,
    baseline_seeds: int = 2,
    modes: Optional[List[str]] = None,
    schedules: Optional[List[str]] = None,
    duration: float = 10.0,
    smoke: bool = False,
    out_path: Optional[str] = DEFAULT_OUT,
) -> Dict:
    """Run the :func:`plan`; returns (and writes) the report dict.

    ``smoke`` shrinks everything for CI.  Cells fan across workers per the
    session's ``--jobs`` setting; the merged case order and every case
    payload are identical to a sequential run.  The verdict is
    :func:`check`'s, over the finished report.
    """
    if smoke:
        seeds, baseline_seeds, duration = 2, 1, 8.0
        modes = modes or ["nice", "rac-2pc", "rac-weak", "harmonia", "harmonia-weak"]
        schedules = schedules or [
            "crash_rejoin", "partition_rejoin", "primary_crash",
            *CP_SCHEDULES, *DURABILITY_SCHEDULES,
        ]
    # Durability-only modes (nice-waloff) never join the matrix product;
    # the durability cell plan instantiates them directly.
    modes = modes or [m for m in MODES if not MODES[m].get("durability_only")]
    # ``schedules`` spans all three families; ``None`` means everything.
    if schedules is None:
        schedules = [*STANDARD_SCHEDULES, *CP_SCHEDULES, *DURABILITY_SCHEDULES]
    cells = plan(modes, schedules, seeds, baseline_seeds, duration)
    t0 = time.perf_counter()
    drain_records()  # isolate this suite's cell records from earlier runs
    cases: List[Dict] = run_cells(cells)
    cell_records = drain_records()
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": "chaos",
        "smoke": smoke,
        "duration_s_per_case": duration,
        "modes": modes,
        "schedules": schedules,
        "provenance": provenance(records=cell_records, seeds=seeds),
        "cases": cases,
        "cells": cell_records,
        "wall_s": round(time.perf_counter() - t0, 1),
    }
    report.update(summarize(report))
    report["failures"] = check(report)
    report["passed"] = not report["failures"]
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report


def _tag(case: Dict) -> str:
    family = case["family"]
    head = family if family in ("controlplane", "durability") else case["mode"]
    return f"{head}/{case['schedule']}/seed{case['seed']}"


def _tolerated(case: Dict) -> bool:
    """A violation the matrix documents rather than fails: a loss-fragile
    mode (see :data:`MODES`) under a loss-bearing schedule."""
    return not case["linearizable"] and MODES[case["mode"]]["loss_fragile"] and case["has_loss"]


def _caught(case: Dict) -> bool:
    """Did the oracle a weak config exists for see it fail?  Acked
    durability for the wal=off cells, linearizability everywhere else."""
    return not (case["durable"] if case["family"] == "durability" else case["linearizable"])


def summarize(report: Dict) -> Dict:
    """The human-facing count blocks of a report (``summary``, ``harmonia``,
    ``durability``), derived from its ``cases``.  :func:`check` never reads
    them back."""
    cases = report["cases"]
    matrix = [c for c in cases if c["family"] not in ("controlplane", "durability")]
    summary: Dict[str, Dict] = {}
    for mode in report["modes"]:
        rows = [c for c in matrix if c["mode"] == mode]
        summary[mode] = {
            "cases": len(rows),
            "violations": sum(not c["linearizable"] for c in rows),
            "tolerated": sum(_tolerated(c) for c in rows),
            "inconclusive": sum(c["inconclusive"] for c in rows),
            "expect_violation": MODES[mode]["expect_violation"],
        }
    blocks: Dict[str, Dict] = {"summary": summary}
    cp_rows = [c for c in cases if c["family"] == "controlplane"]
    if cp_rows:
        cp = [c["controlplane"] for c in cp_rows]
        summary["controlplane"] = {
            "cases": len(cp_rows),
            "violations": sum(not c["linearizable"] for c in cp_rows),
            "tolerated": 0,  # NICE is never loss-fragile
            "inconclusive": sum(c["inconclusive"] for c in cp_rows),
            "promotions": sum(v["promotions"] for v in cp),
            "fenced_flow_mods": sum(v["fenced_flow_mods"] for v in cp),
            "reconcile_matches_scratch": all(v["reconcile_matches_scratch"] for v in cp),
        }
    h_rows = [c for c in matrix if c["mode"].startswith("harmonia")]
    if h_rows:
        safe = [c for c in h_rows if c["mode"] == "harmonia"]
        weak = [c for c in h_rows if c["mode"] == "harmonia-weak"]
        directed = [c for c in h_rows if c["family"] == "harmonia-directed"]
        dirty: Dict[str, int] = {}
        for c in directed:
            for k, v in c["dirty_set"].items():
                dirty[k] = dirty.get(k, 0) + v
        blocks["harmonia"] = {
            "cases": len(h_rows),
            "safe_cases": len(safe),
            "safe_violations": sum(not c["linearizable"] for c in safe),
            "weak_cases": len(weak),
            "weak_caught": any(_caught(c) for c in weak),
            "directed_cells": len(directed),
            "stale_replica_reads": sum(c.get("stale_replica_reads", 0) for c in safe),
            "dirty_set": dirty,
        }
    d_rows = [c for c in cases if c["family"] == "durability"]
    if d_rows:
        honest = [c for c in d_rows if c["mode"] != "nice-waloff"]
        weak = [c for c in d_rows if c["mode"] == "nice-waloff"]
        blocks["durability"] = {
            "cells": len(d_rows),
            "acked_lost": sum(not c["durable"] for c in honest),
            "torn_detected": sum(c["torn_records"] for c in d_rows),
            "scrub_repairs": sum(c["scrub_repairs"] for c in d_rows),
            "failslow_detected": any(c.get("failslow_detections", 0) > 0 for c in d_rows),
            "failslow_handoffs": sum(c.get("failslow_handoffs", 0) for c in d_rows),
            "weak_cases": len(weak),
            "weak_caught": bool(weak) and all(_caught(c) for c in weak),
        }
    return blocks


def _cell_gates(c: Dict):
    """``(ok, failure text)`` pairs one honest cell must satisfy: a clean,
    conclusive history plus its family's "the trap must spring" conditions."""
    yield c["linearizable"] or _tolerated(c), f"unexpected violation: {c['reason']}"
    yield not c["inconclusive"], f"inconclusive: {c['reason']}"
    family, schedule = c["family"], c["schedule"]
    if family == "controlplane":
        cp = c["controlplane"]
        steady = cp["steady_reconcile"]
        if schedule in ("metadata_failover", "node_meta_crash"):
            yield cp["promotions"], "metadata leader crashed but no standby promoted"
            yield cp["fenced_flow_mods"], "no flow-mod of the deposed leader was fenced"
        yield cp["reconcile_matches_scratch"], "reconciled tables diverge from scratch sync"
        yield (
            not (steady["installed"] or steady["deleted"]),
            f"settled cluster still needed repair: {steady}",
        )
    elif family == "harmonia-directed":
        stale = c["stale_replica_reads"]
        yield stale == 0, f"{stale} stale replica reads served"
    elif family == "durability":
        yield c["durable"], f"acked put lost: {c['durability_reason']}"
        if schedule == "torn_wal":
            yield c["torn_records"], "crash mid-append left no torn tail"
        elif schedule == "bit_rot":
            yield c["scrub_repairs"], "scrubber repaired nothing"
            yield not c["remaining_corrupt"], f"{c['remaining_corrupt']} objects still corrupt"
            yield not c["bitrot_served"], f"{c['bitrot_served']} corrupt values served"
        elif schedule == "fail_slow":
            yield c["failslow_detections"], "fail-slow disk never detected"
            yield c["failslow_handoffs"], "degraded primary never handed off"
            yield not c["degraded_after"], f"still degraded after heal: {c['degraded_after']}"


def check(report: Dict) -> List[str]:
    """Every gate of the suite, as failure strings (empty = pass).

    A pure function of ``cases`` plus the planned ``modes``/``schedules``,
    which say what *must* be there: a matrix whose trap cell is missing,
    or never springs, proves nothing.  ``run_suite``, the CLI exit code,
    CI and the tier-1 test over the committed ``BENCH_chaos.json`` all
    take their verdict from here.
    """
    if report["schema_version"] != SCHEMA_VERSION:
        return [f"schema_version {report['schema_version']} != {SCHEMA_VERSION}"]
    cases, modes, schedules = report["cases"], report["modes"], report["schedules"]
    failures: List[str] = []
    # What the planned matrix must contain: the weak configs the checker
    # has to catch, and the (family, schedule) groups of honest trap cells.
    weak = [m for m in modes if MODES[m]["expect_violation"]]
    groups = []
    if "harmonia" in modes:
        groups += [("standard", "rule_flap"), ("harmonia-directed", "rack_isolate_midput")]
    if "nice" in modes:
        groups += [("controlplane", n) for n in CP_SCHEDULES if n in schedules]
        groups += [("durability", n) for n in DURABILITY_SCHEDULES if n in schedules]
        if "power_blackout" in schedules:
            weak.append("nice-waloff")
    ran = set()
    for c in cases:
        if not MODES[c["mode"]]["expect_violation"]:
            ran.add((c["family"], c["schedule"]))
            failures += [f"{_tag(c)}: {text}" for ok, text in _cell_gates(c) if not ok]
        elif c["family"] == "durability" and not _caught(c):
            failures.append(f"{_tag(c)}: wal=off acked losses escaped detection")
    failures += [
        f"{family}/{schedule}: planned but no honest cell ran"
        for family, schedule in groups
        if (family, schedule) not in ran
    ]
    for mode in weak:
        if not any(_caught(c) for c in cases if c["mode"] == mode):
            failures.append(f"{mode}: weak config escaped detection")
    return failures


def format_report(report: Dict) -> str:
    lines = ["chaos × consistency matrix (ops verified per cell):", ""]
    header = f"{'mode':<12} {'schedule':<18} {'seed':>4} {'ops':>5} {'lin':>5} {'note'}"
    lines.append(header)
    lines.append("-" * len(header))
    for c in report["cases"]:
        note = "inconclusive" if c["inconclusive"] else (c["reason"][:50] if not c["linearizable"] else "")
        lines.append(
            f"{c['mode']:<12} {c['schedule']:<18} {c['seed']:>4} "
            f"{c['n_ops']:>5} {'ok' if c['linearizable'] else 'VIOL':>5} {note}"
        )
    lines.append("")
    for mode, s in report["summary"].items():
        line = (
            f"  {mode:<12} {s['cases']} cases, {s['violations']} violations, "
            f"{s['tolerated']} tolerated (loss-fragile), {s['inconclusive']} inconclusive"
        )
        if mode == "controlplane":
            line += (
                f", {s['promotions']} promotions, {s['fenced_flow_mods']} fenced mods, "
                f"reconcile==scratch: {s['reconcile_matches_scratch']}"
            )
        else:
            line += " (violation expected)" if s["expect_violation"] else " (must be clean)"
        lines.append(line)
    h = report.get("harmonia")
    if h:
        lines.append(
            f"  harmonia: {h['safe_cases']} safe cases "
            f"({h['safe_violations']} violations), weak caught: "
            f"{h['weak_caught']} over {h['weak_cases']} cases, "
            f"{h['directed_cells']} directed mid-put cells"
        )
    d = report.get("durability")
    if d:
        lines.append(
            f"  durability: {d['cells']} cells, {d['acked_lost']} acked losses, "
            f"{d['torn_detected']} torn records, {d['scrub_repairs']} scrub "
            f"repairs, fail-slow detected: {d['failslow_detected']} "
            f"({d['failslow_handoffs']} handoffs), wal=off caught: "
            f"{d['weak_caught']} over {d['weak_cases']} cells"
        )
    lines.append("")
    lines.append("PASS" if report["passed"] else "FAIL:")
    for f in report["failures"]:
        lines.append(f"  {f}")
    return "\n".join(lines)
